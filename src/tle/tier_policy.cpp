#include "tle/tier_policy.hpp"

#include <utility>

namespace gilfree::tle {

bool TierPolicy::abort_loop(TierState& s) {
  if (++s.abort_streak < kAbortStreakBudget) return false;
  s.abort_streak = 0;
  s.force_gil = false;
  return true;
}

TierDecision TierPolicy::on_htm_abort(TierState& s, htm::AbortReason reason,
                                      bool gil_held) const {
  TierDecision d{.adjust_length = std::exchange(s.first_retry, false)};
  if (abort_loop(s)) {
    d.step = TierStep::kWatchdogGil;
    return d;
  }
  if (std::exchange(s.force_gil, false)) return d;
  if (gil_held) {  // Fig. 1 lines 21-27
    if (--s.gil_retries > 0) d.step = TierStep::kSpin;
    return d;
  }
  // Anti-lemming: died on the GIL word, but the GIL is free again. Retry
  // without burning transient budget instead of following the holder into
  // the fallback.
  if (reason == htm::AbortReason::kExplicit) {
    d.step = TierStep::kRetryHtm;
    return d;
  }
  if (htm::is_persistent(reason)) return escalate(s, d);  // lines 28-29
  if (--s.transient_retries > 0) {  // lines 31-35, with a jittered backoff
    d.step = TierStep::kBackoffRetryHtm;
    d.backoff_attempt = static_cast<u32>(
        std::max<i32>(1, kTransientRetryMax - s.transient_retries));
    return d;
  }
  return escalate(s, d);
}

TierDecision TierPolicy::on_stm_abort(TierState& s,
                                      stm::StmAbortCause cause) const {
  TierDecision d;
  if (abort_loop(s)) {
    d.step = TierStep::kWatchdogGil;
    return d;
  }
  // Restricted operations and overflows cannot succeed at this tier; after
  // an eager subscription abort the GIL holder is still running.
  if (std::exchange(s.force_gil, false) ||
      cause == stm::StmAbortCause::kUnsupported ||
      cause == stm::StmAbortCause::kOverflowRead ||
      cause == stm::StmAbortCause::kOverflowWrite ||
      (cause == stm::StmAbortCause::kGilSubscription && eager_subscription_))
    return d;
  if (--s.stm_retries > 0) d.step = TierStep::kRetryStm;
  return d;
}

TierDecision TierPolicy::escalate(TierState& s, TierDecision d) const {
  d.step = stm_tier_ ? TierStep::kEnterStm : TierStep::kGil;
  if (stm_tier_) s.stm_retries = stm_retry_max_;
  return d;
}

}  // namespace gilfree::tle
