#include "tle/length_table.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gilfree::tle {

LengthTable::LengthTable(u32 num_yield_points, const TleConfig& config)
    : config_(config), n_(num_yield_points + 1) {
  transaction_length_.assign(n_, 0);  // 0 = not yet initialized (Fig. 3 l.5)
  transaction_counter_.assign(n_, 0);
  abort_counter_.assign(n_, 0);
  adjustments_at_.assign(n_, 0);
  breaker_params_ = {config_.quarantine_abort_streak,
                     config_.quarantine_probe_initial,
                     config_.quarantine_probe_max};
  breaker_.assign(n_, BreakerCore{});
  enters_at_.assign(n_, 0);
  exits_at_.assign(n_, 0);
}

u32 LengthTable::index(i32 yp) const {
  const u32 i = yp < 0 ? n_ - 1 : static_cast<u32>(yp);
  GILFREE_CHECK_MSG(i < n_, "yield point id out of range: " << yp);
  return i;
}

u32 LengthTable::set_transaction_length(i32 yp) {
  if (config_.fixed_length > 0) {
    return static_cast<u32>(config_.fixed_length);  // Fig. 3 lines 2-3
  }
  const u32 i = index(yp);
  if (transaction_length_[i] == 0)
    transaction_length_[i] = config_.initial_transaction_length;
  if (transaction_counter_[i] < config_.profiling_period)
    ++transaction_counter_[i];
  return transaction_length_[i];
}

AdjustOutcome LengthTable::adjust_transaction_length(i32 yp) {
  AdjustOutcome out;
  const u32 i = index(yp);

  if (config_.quarantine_enabled) {
    // The breaker's trip input: consecutive aborted transactions (on_commit
    // resets the streak) while the length can shrink no further. Fixed-mode
    // configurations have no shrink at all, so every abort is at the floor.
    const bool at_floor = config_.fixed_length > 0 ||
                          (transaction_length_[i] != 0 &&
                           transaction_length_[i] <= config_.min_length);
    const bool was_open = breaker_[i].open != 0 || breaker_[i].probing != 0;
    const BreakerOutcome bo = breaker_[i].on_failure(breaker_params_, at_floor);
    if (bo.probe_failed) {
      out.probe_failed = true;
      return out;
    }
    if (was_open) return out;  // GIL-slice path; nothing to learn
    if (bo.tripped) {
      ++enters_at_[i];
      ++quarantine_enters_;
      out.entered_quarantine = true;
      return out;
    }
  }

  if (config_.fixed_length > 0) return out;  // Fig. 3 line 12
  if (transaction_length_[i] <= config_.min_length) return out;
  // Fig. 3 line 14 as printed ("counter <= PROFILING_PERIOD") is vacuous
  // because line 8 saturates the counter at PROFILING_PERIOD; the evident
  // intent — and our implementation — is that a yield point which survives a
  // whole profiling period under the abort threshold reaches steady state
  // and stops being monitored.
  if (transaction_counter_[i] >= config_.profiling_period) return out;
  const u32 num_aborts = abort_counter_[i];
  if (num_aborts <= config_.adjustment_threshold) {
    abort_counter_[i] = num_aborts + 1;
    return out;
  }
  // Shorten and restart the profiling period (Fig. 3 lines 19-21).
  const u32 shortened = std::max(
      config_.min_length,
      static_cast<u32>(static_cast<double>(transaction_length_[i]) *
                       config_.attenuation_rate));
  transaction_length_[i] =
      shortened == transaction_length_[i] && shortened > config_.min_length
          ? shortened - 1
          : shortened;
  transaction_counter_[i] = 0;
  abort_counter_[i] = 0;
  ++adjustments_at_[i];
  ++adjustments_;
  return out;
}

BreakerRoute LengthTable::begin_route(i32 yp) {
  if (!config_.quarantine_enabled) return BreakerRoute::kClosed;
  const BreakerRoute route = breaker_[index(yp)].route();
  if (route == BreakerRoute::kProbe) ++quarantine_probes_;
  return route;
}

bool LengthTable::on_commit(i32 yp) {
  const u32 i = index(yp);
  if (!breaker_[i].on_success()) return false;
  // A recovery probe committed: leave quarantine, and drop the Fig. 3 entry
  // so the length re-learns from INITIAL_TRANSACTION_LENGTH.
  transaction_length_[i] = 0;
  transaction_counter_[i] = 0;
  abort_counter_[i] = 0;
  ++exits_at_[i];
  ++quarantine_exits_;
  return true;
}

bool LengthTable::quarantined(i32 yp) const {
  return breaker_[index(yp)].open != 0;
}

u64 LengthTable::quarantine_enters_at(i32 yp) const {
  return enters_at_[index(yp)];
}

u64 LengthTable::quarantine_exits_at(i32 yp) const {
  return exits_at_[index(yp)];
}

u64 LengthTable::adjustments_at(i32 yp) const {
  return adjustments_at_[index(yp)];
}

u32 LengthTable::length(i32 yp) const {
  const u32 i = index(yp);
  return transaction_length_[i] == 0
             ? (config_.fixed_length > 0
                    ? static_cast<u32>(config_.fixed_length)
                    : config_.initial_transaction_length)
             : transaction_length_[i];
}

Histogram LengthTable::length_histogram() const {
  Histogram h(0.0, 260.0, 26);
  for (u32 i = 0; i < n_; ++i) {
    if (transaction_length_[i] != 0)
      h.add(static_cast<double>(transaction_length_[i]));
  }
  return h;
}

double LengthTable::fraction_at_length_one() const {
  u64 used = 0;
  u64 at_one = 0;
  for (u32 i = 0; i < n_; ++i) {
    if (transaction_length_[i] == 0) continue;
    ++used;
    if (transaction_length_[i] == 1) ++at_one;
  }
  return used == 0 ? 0.0 : static_cast<double>(at_one) /
                               static_cast<double>(used);
}

void LengthTable::reset() {
  std::fill(transaction_length_.begin(), transaction_length_.end(), 0);
  std::fill(transaction_counter_.begin(), transaction_counter_.end(), 0);
  std::fill(abort_counter_.begin(), abort_counter_.end(), 0);
  std::fill(adjustments_at_.begin(), adjustments_at_.end(), 0);
  adjustments_ = 0;
  for (BreakerCore& b : breaker_) b.reset();
  std::fill(enters_at_.begin(), enters_at_.end(), 0);
  std::fill(exits_at_.begin(), exits_at_.end(), 0);
  quarantine_enters_ = 0;
  quarantine_exits_ = 0;
  quarantine_probes_ = 0;
}

}  // namespace gilfree::tle
