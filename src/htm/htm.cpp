#include "htm/htm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::htm {

HtmFacility::HtmFacility(const HtmConfig& config, sim::Machine* machine)
    : config_(config), machine_(machine) {
  GILFREE_CHECK(machine_ != nullptr);
  GILFREE_CHECK_MSG(machine_->num_cpus() <= 64,
                    "conflict table reader masks are 64-bit");
  GILFREE_CHECK(config_.line_bytes == machine_->config().line_bytes);
  tx_.resize(machine_->num_cpus());
  stats_.resize(machine_->num_cpus());
  last_conflict_line_.assign(machine_->num_cpus(), kInvalidLine);
  seed_rngs();
  if (config_.learning) {
    learning_.emplace(machine_->num_cpus(), config_.learning_up,
                      config_.learning_decay_txns, learning_seed_);
  }
}

void HtmFacility::seed_rngs() {
  rng_.clear();
  // Shard 0 must reproduce the unsharded stream bit-for-bit, so the shard id
  // only perturbs the seed when nonzero. reset() calls back into here, which
  // keeps the (seed, shard_id) derivation across facility resets.
  u64 seed = config_.seed;
  if (config_.shard_id != 0)
    seed = mix64(seed ^ (0x9e3779b97f4a7c15ULL * config_.shard_id));
  Rng seeder(seed);
  for (u32 i = 0; i < machine_->num_cpus(); ++i) rng_.push_back(seeder.split());
  learning_seed_ = seeder.next_u64();
}

AbortReason HtmFacility::tx_begin(CpuId cpu, i32 yp) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK_MSG(!t.active, "nested transactions are not supported");
  ++stats_.at(cpu).begins;

  if (learning_ && learning_->eager_abort(cpu)) {
    // The core refuses to speculate: reported as a capacity abort, just like
    // the real hardware reports it without the retry hint.
    ++stats_.at(cpu).eager_aborts;
    ++stats_.at(cpu).aborts_by_reason[static_cast<int>(
        AbortReason::kOverflowWrite)];
    learning_->on_non_overflow(cpu);  // no *new* overflow evidence
    return AbortReason::kOverflowWrite;
  }

  if (injector_ && injector_->begin_fault(cpu, yp, machine_->clock(cpu))) {
    // Injected persistent fault pinned to this yield point: refuse the
    // transaction with a capacity code (persistent, like the real ISAs
    // report unretryable conditions). Not overflow evidence for the
    // learning model — the footprint never existed.
    ++stats_.at(cpu).aborts_by_reason[static_cast<int>(
        AbortReason::kOverflowWrite)];
    return AbortReason::kOverflowWrite;
  }

  t.active = true;
  t.detached = false;
  t.doom = AbortReason::kNone;
  t.read_lines.clear();
  t.write_lines.clear();
  t.redo.clear();
  last_conflict_line_.at(cpu) = kInvalidLine;

  const Cycles now = machine_->clock(cpu);
  if (t.next_interrupt <= now) {
    Cycles mean = config_.interrupt_mean_cycles;
    if (injector_) mean = injector_->interrupt_mean(cpu, now, mean);
    t.next_interrupt = now + static_cast<Cycles>(rng_.at(cpu).next_exponential(
                                 static_cast<double>(mean)));
  }
  return AbortReason::kNone;
}

AbortReason HtmFacility::tx_commit(CpuId cpu) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK(t.active);
  if (t.doom != AbortReason::kNone) {
    const AbortReason reason = t.doom;
    rollback(cpu, reason);
    return reason;
  }
  // Commit: drain the store buffer to memory in one atomic step.
  for (const auto& [addr, value] : t.redo) {
    *const_cast<u64*>(addr) = value;
    if (write_listener_ != nullptr) write_listener_->on_nontx_write(addr);
  }
  detach(cpu);
  t.active = false;
  t.redo.clear();
  ++stats_.at(cpu).commits;
  if (learning_) learning_->on_non_overflow(cpu);
  return AbortReason::kNone;
}

void HtmFacility::tx_abort(CpuId cpu, AbortReason reason) {
  GILFREE_CHECK(tx_.at(cpu).active);
  GILFREE_CHECK(reason != AbortReason::kNone);
  rollback(cpu, reason);
}

void HtmFacility::force_abort(CpuId cpu, AbortReason reason) {
  if (tx_.at(cpu).active) rollback(cpu, reason);
}

void HtmFacility::doom_all(CpuId except, AbortReason reason) {
  for (CpuId c = 0; c < tx_.size(); ++c) {
    if (c == except) continue;
    TxState& t = tx_[c];
    if (t.active && t.doom == AbortReason::kNone) {
      t.doom = reason;
      detach(c);
    }
  }
}

u64 HtmFacility::tx_load(CpuId cpu, const u64* addr, bool shared) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK(t.active);
  if (t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
  maybe_interrupt(cpu);
  maybe_spurious(cpu);

  // Read own speculative writes.
  if (auto it = t.redo.find(addr); it != t.redo.end()) return it->second;

  const LineId line = line_of(addr);
  if (t.read_lines.insert(line).second) {
    if (t.read_lines.size() > faulted_limit(cpu, effective_max_read(cpu))) {
      if (injector_ && t.read_lines.size() <= effective_max_read(cpu))
        injector_->capacity_clip(cpu, machine_->clock(cpu));
      if (learning_) learning_->on_overflow(cpu);
      abort_self(cpu, AbortReason::kOverflowRead);
    }
    if (shared) {
      // Requester wins: a transactional writer elsewhere is invalidated.
      const u64 victims = table_.add_reader(line, cpu);
      if (victims) {
        if (collect_conflicts_) ++conflict_lines_[line];
        doom_mask(victims, AbortReason::kConflict, line);
      }
    }
  }
  return *addr;
}

void HtmFacility::tx_store(CpuId cpu, u64* addr, u64 value, bool shared) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK(t.active);
  if (t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
  maybe_interrupt(cpu);
  maybe_spurious(cpu);

  const LineId line = line_of(addr);
  if (t.write_lines.insert(line).second) {
    if (t.write_lines.size() > faulted_limit(cpu, effective_max_write(cpu))) {
      if (injector_ && t.write_lines.size() <= effective_max_write(cpu))
        injector_->capacity_clip(cpu, machine_->clock(cpu));
      if (learning_) learning_->on_overflow(cpu);
      abort_self(cpu, AbortReason::kOverflowWrite);
    }
    if (shared) {
      const u64 victims = table_.add_writer(line, cpu);
      if (victims) {
        if (collect_conflicts_) ++conflict_lines_[line];
        doom_mask(victims, AbortReason::kConflict, line);
      }
    }
  }
  t.redo[addr] = value;
}

u64 HtmFacility::nontx_load(CpuId cpu, const u64* addr) {
  GILFREE_CHECK(!tx_.at(cpu).active);
  const LineId line = line_of(addr);
  const u64 writers = table_.writer_excluding(line, cpu);
  if (writers) {
    if (collect_conflicts_) ++conflict_lines_[line];
    doom_mask(writers, AbortReason::kConflict, line);
  }
  return *addr;
}

void HtmFacility::nontx_store(CpuId cpu, u64* addr, u64 value) {
  GILFREE_CHECK(!tx_.at(cpu).active);
  const LineId line = line_of(addr);
  const u64 holders = table_.holders_excluding(line, cpu);
  if (holders) {
    if (collect_conflicts_) ++conflict_lines_[line];
    doom_mask(holders, AbortReason::kConflict, line);
  }
  *addr = value;
  if (write_listener_ != nullptr) write_listener_->on_nontx_write(addr);
}

void HtmFacility::check_doom(CpuId cpu) {
  TxState& t = tx_.at(cpu);
  if (t.active && t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
}

u32 HtmFacility::read_line_count(CpuId cpu) const {
  return static_cast<u32>(tx_.at(cpu).read_lines.size());
}

u32 HtmFacility::write_line_count(CpuId cpu) const {
  return static_cast<u32>(tx_.at(cpu).write_lines.size());
}

u32 HtmFacility::effective_max_read(CpuId cpu) const {
  u32 max = config_.max_read_lines;
  if (config_.smt_shares_capacity && machine_->smt_contended(cpu)) max /= 2;
  return max;
}

u32 HtmFacility::effective_max_write(CpuId cpu) const {
  u32 max = config_.max_write_lines;
  if (config_.smt_shares_capacity && machine_->smt_contended(cpu)) max /= 2;
  return max;
}

HtmStats HtmFacility::total_stats() const {
  HtmStats total;
  for (const HtmStats& s : stats_) total.merge(s);
  return total;
}

void HtmFacility::doom_mask(u64 mask, AbortReason reason, LineId line) {
  while (mask) {
    const CpuId victim = static_cast<CpuId>(__builtin_ctzll(mask));
    mask &= mask - 1;
    TxState& t = tx_.at(victim);
    if (!t.active || t.doom != AbortReason::kNone) continue;
    t.doom = reason;
    last_conflict_line_.at(victim) = line;
    // Detach immediately: the coherency request has invalidated the victim's
    // speculative lines, so they no longer participate in detection. The
    // victim notices the doom at its next access / commit.
    detach(victim);
  }
}

void HtmFacility::detach(CpuId cpu) {
  TxState& t = tx_.at(cpu);
  if (t.detached) return;
  for (LineId line : t.read_lines) table_.remove(line, cpu);
  for (LineId line : t.write_lines) table_.remove(line, cpu);
  t.detached = true;
}

void HtmFacility::rollback(CpuId cpu, AbortReason reason) {
  TxState& t = tx_.at(cpu);
  detach(cpu);
  t.active = false;
  t.doom = AbortReason::kNone;
  t.redo.clear();
  ++stats_.at(cpu).aborts_by_reason[static_cast<int>(reason)];
  if (learning_ && reason != AbortReason::kOverflowRead &&
      reason != AbortReason::kOverflowWrite) {
    learning_->on_non_overflow(cpu);
  }
}

void HtmFacility::maybe_interrupt(CpuId cpu) {
  TxState& t = tx_.at(cpu);
  if (machine_->clock(cpu) >= t.next_interrupt) {
    t.next_interrupt = 0;  // resampled at next tx_begin
    abort_self(cpu, AbortReason::kInterrupt);
  }
}

void HtmFacility::maybe_spurious(CpuId cpu) {
  // Injected spurious aborts look like transient conflicts to the software:
  // retryable, no footprint evidence.
  if (injector_ && injector_->spurious_due(cpu, machine_->clock(cpu)))
    abort_self(cpu, AbortReason::kConflict);
}

u32 HtmFacility::faulted_limit(CpuId cpu, u32 max) const {
  if (!injector_) return max;
  const double f = injector_->capacity_factor(machine_->clock(cpu));
  if (f >= 1.0) return max;
  return std::max<u32>(1, static_cast<u32>(static_cast<double>(max) * f));
}

void HtmFacility::abort_self(CpuId cpu, AbortReason reason) {
  rollback(cpu, reason);
  throw TxAbort{reason};
}

void HtmFacility::reset() {
  for (auto& t : tx_) t = TxState{};
  for (auto& s : stats_) s = HtmStats{};
  table_ = ConflictTable{};
  conflict_lines_.clear();
  last_conflict_line_.assign(last_conflict_line_.size(), kInvalidLine);
  seed_rngs();
  if (learning_) learning_->reset();
  if (injector_) injector_->reset();
}

}  // namespace gilfree::htm
