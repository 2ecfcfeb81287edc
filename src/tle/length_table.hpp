// Dynamic per-yield-point transaction-length adjustment (Fig. 3).
//
// Each yield point (identified by its compile-time id — the paper's "pc")
// keeps the length of transactions started there, the number of
// transactions started during the current profiling period, and the number
// that aborted. When the abort count exceeds ADJUSTMENT_THRESHOLD before
// PROFILING_PERIOD transactions have begun, the length is multiplied by
// ATTENUATION_RATE and the profiling period restarts.
//
// The tables are plain (non-transactional) memory, as in the paper: they
// are written outside transactions (before TBEGIN / in the abort handler),
// and must survive aborts.
//
// On top of Fig. 3 the table implements a per-yield-point *quarantine*
// (circuit breaker, docs/ROBUSTNESS.md): a yield point that keeps aborting
// with no intervening commit even at its minimum transaction length is
// routed off HTM (to the GIL, or to the STM tier when it is on), and HTM is
// re-probed with exponential backoff.
// A successful probe resets the yield point's Fig. 3 entry so the length
// re-learns from scratch.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "tle/breaker.hpp"
#include "tle/tle_config.hpp"

namespace gilfree::tle {

/// What adjust_transaction_length observed (beyond the Fig. 3 shrink).
struct AdjustOutcome {
  bool entered_quarantine = false;  ///< This abort tripped the breaker.
  bool probe_failed = false;        ///< A recovery probe aborted; backed off.
};

class LengthTable {
 public:
  /// `num_yield_points` compile-time yield points, plus one pseudo yield
  /// point (id == num_yield_points) for transactions started at thread
  /// entry.
  LengthTable(u32 num_yield_points, const TleConfig& config);

  /// Fig. 3 set_transaction_length: returns the length for a transaction
  /// about to start at yield point `yp`, and counts it toward the
  /// profiling period.
  u32 set_transaction_length(i32 yp);

  /// Fig. 3 adjust_transaction_length: called on the *first* retry of an
  /// aborted transaction (Fig. 1 lines 17-20). Also advances the quarantine
  /// breaker: aborts at the floor length extend the streak, a streak of
  /// `quarantine_abort_streak` enters quarantine, and an abort of a recovery
  /// probe doubles the probe backoff.
  AdjustOutcome adjust_transaction_length(i32 yp);

  /// Consulted before every transaction begin: kClosed (HTM) for healthy
  /// yield points; quarantined ones alternate kOpen slices, which TierPolicy
  /// sends to the STM tier or the GIL, with minimum-length kProbe HTM
  /// attempts on the exponential-backoff schedule.
  BreakerRoute begin_route(i32 yp);

  /// Called on every successful commit at `yp`. Resets the abort streak;
  /// a committing recovery probe leaves quarantine (the Fig. 3 entry
  /// restarts from scratch) and the call returns true.
  bool on_commit(i32 yp);

  bool quarantined(i32 yp) const;
  u64 quarantine_enters() const { return quarantine_enters_; }
  u64 quarantine_exits() const { return quarantine_exits_; }
  u64 quarantine_probes() const { return quarantine_probes_; }
  u64 quarantine_enters_at(i32 yp) const;
  u64 quarantine_exits_at(i32 yp) const;

  u32 length(i32 yp) const;
  u32 num_yield_points() const { return n_; }
  u64 adjustments() const { return adjustments_; }

  /// Shrink events charged to one yield point — the per-site view of
  /// adjustments(), exported by the observability layer.
  u64 adjustments_at(i32 yp) const;

  /// Distribution of current lengths over yield points that ever started a
  /// transaction (the paper reports "40% of the frequently executed yield
  /// points had the transaction length of 1").
  Histogram length_histogram() const;

  /// Fraction of used yield points whose current length is exactly 1.
  double fraction_at_length_one() const;

  void reset();

 private:
  u32 index(i32 yp) const;

  TleConfig config_;
  u32 n_;
  std::vector<u32> transaction_length_;
  std::vector<u32> transaction_counter_;
  std::vector<u32> abort_counter_;
  std::vector<u32> adjustments_at_;
  u64 adjustments_ = 0;

  // Quarantine state: one BreakerCore per yield point, plus the counters
  // the observability layer exports (the core itself is counter-free).
  BreakerParams breaker_params_;
  std::vector<BreakerCore> breaker_;
  std::vector<u32> enters_at_;
  std::vector<u32> exits_at_;
  u64 quarantine_enters_ = 0;
  u64 quarantine_exits_ = 0;
  u64 quarantine_probes_ = 0;
};

}  // namespace gilfree::tle
