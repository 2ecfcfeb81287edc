// Settings of the dynamic transaction-length adjustment (Fig. 3) and the
// yield-point quarantine, with the paper's values (§5.1) as defaults. The
// retry budgets of Fig. 1 are constants of tle::TierPolicy.
#pragma once

#include "common/types.hpp"

namespace gilfree::tle {

struct TleConfig {
  /// Fixed transaction length (HTM-1 / HTM-16 / HTM-256 configurations);
  /// -1 selects the dynamic adjustment (HTM-dynamic).
  i32 fixed_length = -1;

  /// Fig. 3 constants.
  u32 initial_transaction_length = 255;
  u32 profiling_period = 300;
  u32 adjustment_threshold = 3;  ///< 3 on zEC12 (1%), 18 on Xeon (6%).
  double attenuation_rate = 0.75;
  u32 min_length = 1;

  // --- Yield-point quarantine (circuit breaker; docs/ROBUSTNESS.md) -------
  /// When a yield point keeps aborting even at its minimum transaction
  /// length, route its slices off HTM (to the GIL, or to the STM tier)
  /// instead of burning retry cycles, and probe HTM again with exponential
  /// backoff.
  bool quarantine_enabled = true;
  /// Consecutive aborted transactions (no intervening commit) at the floor
  /// length that trip the breaker.
  u32 quarantine_abort_streak = 24;
  /// GIL slices between recovery probes: starts at `probe_initial`, doubles
  /// per failed probe up to `probe_max`.
  u32 quarantine_probe_initial = 4;
  u32 quarantine_probe_max = 64;

  /// Original-yield-point checks per GIL slice while quarantined.
  /// Quarantined slices run like the stock GIL interpreter — original yield
  /// points only — so the fallback does not pay the per-yield-point counter
  /// maintenance of the HTM build at every extended yield point. The slice
  /// length is a yield-point count (not a cycle deadline) so slice
  /// boundaries, and the trace events they emit, stay independent of host
  /// allocation addresses.
  u32 quarantine_slice_yields = 3000;
};

}  // namespace gilfree::tle
