// The tier policy: what a thread does next after an HTM abort, an STM
// abort, a spin wake or a quarantined begin. It is Fig. 1's retry algorithm
// with the HTM → STM → GIL escalation (docs/TIERS.md) and the robustness
// budgets (docs/ROBUSTNESS.md), shaped like stmgc's htm-c7: classify the
// abort, then retry, spin or serialize. The policy is pure: it updates one
// thread's TierState and returns a TierDecision, which the engine carries
// out (events, rollback, charging, parking, GIL calls).
#pragma once

#include <algorithm>

#include "common/types.hpp"
#include "htm/abort_reason.hpp"
#include "obs/trace.hpp"
#include "stm/abort_cause.hpp"

namespace gilfree::tle {

/// Fig. 1 lines 31-35: "it was unlikely that a transaction would ever
/// succeed after 3-or-more consecutive transient aborts" (§5.1).
inline constexpr i32 kTransientRetryMax = 3;
/// Fig. 1 lines 21-27: spin rounds on a held GIL before blocking; "a thread
/// should wait more patiently for the GIL release" (§5.1).
inline constexpr i32 kGilRetryMax = 16;
/// Fig. 1 lines 40-45: cycles of one spin_and_gil_acquire round.
inline constexpr Cycles kSpinWaitCycles = 400;
/// docs/ROBUSTNESS.md § Anti-lemming retry: base of the transient backoff.
inline constexpr Cycles kBackoffBaseCycles = 150;
/// docs/ROBUSTNESS.md § Starvation watchdog: aborts without progress, spin
/// wakes on a held GIL in a row, and cycles of one GIL wait.
inline constexpr u32 kAbortStreakBudget = 64;
inline constexpr u32 kSpinStreakBudget = 256;
inline constexpr Cycles kGilWaitBudget = 50'000'000;

enum class TierStep : u8 {
  kRetryHtm,         ///< TBEGIN again now.
  kBackoffRetryHtm,  ///< Burn backoff_delay(backoff_attempt), then TBEGIN.
  kSpin,             ///< Park kSpinWaitCycles, then on_spin_wake.
  kEnterStm,         ///< HTM → STM: start a software transaction.
  kRetryStm,         ///< Restart the software transaction.
  kGil,              ///< Take the GIL (already held: carry on under it).
  kWatchdogGil,      ///< Report `watchdog`, then take the GIL.
};

struct TierDecision {
  TierStep step = TierStep::kGil;
  /// First abort since the begin: run Fig. 3's adjust_transaction_length
  /// before the step (Fig. 1 lines 17-20).
  bool adjust_length = false;
  u32 backoff_attempt = 0;  ///< kBackoffRetryHtm: 1 for the first retry.
  obs::WatchdogKind watchdog = obs::WatchdogKind::kAbortLoop;
};

/// One thread's retry budgets and watchdog streaks.
struct TierState {
  i32 transient_retries = 0;
  i32 gil_retries = 0;
  u32 stm_retries = 0;
  bool first_retry = true;
  bool force_gil = false;  ///< require_nontx aborted: the GIL, no retries.
  u32 abort_streak = 0;    ///< Aborts since the last progress.
  u32 spin_streak = 0;     ///< Spin wakes on a held GIL in a row.

  /// A commit, a completed GIL slice or a GIL hand-off.
  void on_progress() { abort_streak = 0; }
};

/// How a spinner finds the GIL on waking.
enum class GilView : u8 { kFree, kHeld, kOwn };

class TierPolicy {
 public:
  /// `stm_tier`: leave HTM for STM instead of the GIL. `stm_retry_max`: STM
  /// attempts per escalation (--stm-commit-retry).
  TierPolicy(bool stm_tier, bool eager_subscription, u32 stm_retry_max)
      : stm_tier_(stm_tier),
        eager_subscription_(eager_subscription),
        stm_retry_max_(stm_retry_max) {}

  /// An HTM transaction (a recovery probe: one transient retry) is about to
  /// TBEGIN: fresh budgets, and spin first while the GIL is held (Fig. 1
  /// lines 4-8).
  TierDecision on_begin(TierState& s, bool probe, bool gil_held) const {
    s.transient_retries = probe ? 1 : kTransientRetryMax;
    s.gil_retries = kGilRetryMax;
    s.first_retry = true;
    return {.step = gil_held ? TierStep::kSpin : TierStep::kRetryHtm};
  }
  /// A quarantined yield point begins a slice: STM or GIL.
  TierDecision on_quarantined_begin(TierState& s) const {
    return escalate(s, {});
  }
  TierDecision on_htm_abort(TierState& s, htm::AbortReason reason,
                            bool gil_held) const;
  TierDecision on_stm_abort(TierState& s, stm::StmAbortCause cause) const;

  /// spin_and_gil_acquire (Fig. 1 lines 40-45) spins until the GIL is
  /// released, then retries transactionally. Inline: once per spin poll.
  TierDecision on_spin_wake(TierState& s, GilView gil) const {
    if (gil != GilView::kHeld) {
      s.spin_streak = 0;
      return {.step = gil == GilView::kOwn ? TierStep::kGil
                                           : TierStep::kRetryHtm};
    }
    if (++s.spin_streak < kSpinStreakBudget) return {.step = TierStep::kSpin};
    s.spin_streak = 0;
    return {.step = TierStep::kWatchdogGil,
            .watchdog = obs::WatchdogKind::kSpinLoop};
  }

  /// Base × 2^(attempt-1), jittered by 0.5 + `unit` for `unit` in [0, 1).
  static Cycles backoff_delay(u32 attempt, double unit) {
    return static_cast<Cycles>(
        static_cast<double>(kBackoffBaseCycles
                            << std::min<u32>(attempt - 1, 16)) *
        (0.5 + unit));
  }

 private:
  TierDecision escalate(TierState& s, TierDecision d) const;
  /// The abort-loop watchdog shared by both tiers: any retry path can,
  /// pathologically, abort again before progress; the GIL guarantees a slice.
  static bool abort_loop(TierState& s);

  bool stm_tier_;
  bool eager_subscription_;
  u32 stm_retry_max_;
};

}  // namespace gilfree::tle
