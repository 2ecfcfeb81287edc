#include "htm/htm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::htm {

HtmFacility::HtmFacility(const HtmConfig& config, sim::Machine* machine,
                         const sim::GuestSpace* guest)
    : config_(config),
      machine_(machine),
      guest_(guest),
      lines_(guest, config.line_bytes) {
  GILFREE_CHECK(machine_ != nullptr);
  GILFREE_CHECK(guest_ != nullptr);
  GILFREE_CHECK_MSG(machine_->num_cpus() <= 32,
                    "line-table CPU masks are 32-bit");
  GILFREE_CHECK(config_.line_bytes == machine_->config().line_bytes);
  GILFREE_CHECK(config_.line_bytes >= 8);
  window_line_shift_ = static_cast<u32>(__builtin_ctz(config_.line_bytes / 8));
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

AbortReason HtmFacility::tx_begin(CpuId cpu, i32 yp, PrivateWindow window) {
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
  clear_footprint(cpu, t);
  t.redo.clear();
  open_window(t, window);
  last_conflict_line_.at(cpu) = kInvalidLine;

  const Cycles now = machine_->clock(cpu);
  if (t.next_interrupt <= now) {
    Cycles mean = config_.interrupt_mean_cycles;
    if (injector_) mean = injector_->interrupt_mean(cpu, now, mean);
    t.next_interrupt = now + static_cast<Cycles>(rng_.at(cpu).next_exponential(
                                 static_cast<double>(mean)));
  }
  arm_events(cpu, t);
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
  // Commit: drain the store buffer to memory in one atomic step, in
  // first-store order.
  for (const RedoLog::Entry& e : t.redo.entries()) {
    *e.addr = e.value;
    if (write_listener_ != nullptr) write_listener_->on_nontx_write(e.addr);
  }
  close_window(t, /*publish=*/true);
  detach(cpu);
  t.active = false;
  t.next_event = 0;
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
      t.next_event = 0;
      detach(c);
    }
  }
}

void HtmFacility::first_touch(CpuId cpu, LineRecord& r, const u64* addr,
                              bool write) {
  TxState& t = tx_[cpu];
  (write ? r.write_fp : r.read_fp) |= bit(cpu);
  (write ? t.write_lines : t.read_lines).push_back(&r);
  check_capacity(cpu, t, write);
  // Requester wins: a reader invalidates transactional writers elsewhere,
  // a writer every other transactional holder.
  const u32 victims =
      (write ? r.tx_readers | r.tx_writers : r.tx_writers) & ~bit(cpu);
  (write ? r.tx_writers : r.tx_readers) |= bit(cpu);
  if (victims) conflict(victims, addr);
}

void HtmFacility::first_touch_private(CpuId cpu, u32 line, bool write) {
  TxState& t = tx_[cpu];
  (write ? t.win.write_fp : t.win.read_fp)[line >> 6] |= u64{1}
                                                         << (line & 63);
  (write ? t.win.write_lines : t.win.read_lines).push_back(line);
  check_capacity(cpu, t, write);
}

void HtmFacility::check_capacity(CpuId cpu, const TxState& t, bool write) {
  const std::size_t lines =
      write ? t.write_lines.size() + t.win.write_lines.size()
            : t.read_lines.size() + t.win.read_lines.size();
  const u32 max = write ? effective_max_write(cpu) : effective_max_read(cpu);
  if (lines <= faulted_limit(cpu, max)) return;
  if (injector_ && lines <= max)
    injector_->capacity_clip(cpu, machine_->clock(cpu));
  if (learning_) learning_->on_overflow(cpu);
  abort_self(cpu,
             write ? AbortReason::kOverflowWrite : AbortReason::kOverflowRead);
}

void HtmFacility::open_window(TxState& t, PrivateWindow w) {
  WindowTx& win = t.win;
  win.base = w.base;
  win.slots = w.slots;
  if (w.slots == 0) return;
  // Line indices are slot offsets shifted: the window must start a line of
  // one registered segment and end inside it.
  const sim::GuestLoc first = guest_->locate(w.base);
  GILFREE_CHECK_MSG((first.offset & (config_.line_bytes - 1)) == 0,
                    "private window must start a guest line");
  GILFREE_CHECK(guest_->locate(w.base + (w.slots - 1)).segment ==
                first.segment);
  if (w.slots <= win.values.size()) return;
  GILFREE_CHECK(win.stored.empty());
  win.values = ZeroPages<u64>(w.slots);
  win.written.assign((w.slots + 63) / 64, 0);
  const u32 lines = ((w.slots - 1) >> window_line_shift_) + 1;
  win.read_fp.assign((lines + 63) / 64, 0);
  win.write_fp.assign((lines + 63) / 64, 0);
}

void HtmFacility::close_window(TxState& t, bool publish) {
  WindowTx& win = t.win;
  for (const u32 slot : win.stored) {
    if (publish) win.base[slot] = win.values[slot];
    win.written[slot >> 6] &= ~(u64{1} << (slot & 63));
  }
  win.stored.clear();
}

void HtmFacility::outside_window() {
  detail::check_failed("off / 8 < t.win.slots", __FILE__, __LINE__,
                       "private access outside the transaction's window");
}

void HtmFacility::conflict(u32 victims, const u64* addr) {
  const LineId line = lines_.line_id(addr);
  if (collect_conflicts_) ++conflict_lines_[line];
  doom_mask(victims, AbortReason::kConflict, line);
}

void HtmFacility::clear_footprint(CpuId cpu, TxState& t) {
  for (LineRecord* r : t.read_lines) r->read_fp &= ~bit(cpu);
  for (LineRecord* r : t.write_lines) r->write_fp &= ~bit(cpu);
  t.read_lines.clear();
  t.write_lines.clear();
  WindowTx& win = t.win;
  for (const u32 l : win.read_lines) win.read_fp[l >> 6] = 0;
  for (const u32 l : win.write_lines) win.write_fp[l >> 6] = 0;
  win.read_lines.clear();
  win.write_lines.clear();
}

void HtmFacility::nontx_store_run(CpuId cpu, u64* addr, const u64* values,
                                  u32 n) {
  GILFREE_CHECK(!tx_.at(cpu).active);
  if (n == 0) return;
  GILFREE_CHECK(guest_->locate(addr + (n - 1)).segment ==
                guest_->locate(addr).segment);
  const u32 line_bytes = config_.line_bytes;
  for (u32 i = 0; i < n;) {
    // Slots starting in this line; segment bases are line-aligned, so host
    // and guest line boundaries coincide.
    const auto at = reinterpret_cast<std::uintptr_t>(addr + i);
    const u32 rest = line_bytes - static_cast<u32>(at & (line_bytes - 1));
    const u32 m = std::min(n - i, (rest + 7) / 8);
    if (const LineRecord* r = lines_.find(addr + i)) {
      const u32 holders = (r->tx_readers | r->tx_writers) & ~bit(cpu);
      if (holders) conflict(holders, addr + i);
    }
    std::copy_n(values + i, m, addr + i);
    if (write_listener_ != nullptr) write_listener_->on_nontx_write(addr + i);
    i += m;
  }
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

void HtmFacility::doom_mask(u32 mask, AbortReason reason, LineId line) {
  while (mask) {
    const CpuId victim = static_cast<CpuId>(__builtin_ctz(mask));
    mask &= mask - 1;
    TxState& t = tx_.at(victim);
    if (!t.active || t.doom != AbortReason::kNone) continue;
    t.doom = reason;
    t.next_event = 0;
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
  const u32 keep = ~bit(cpu);
  for (LineRecord* r : t.read_lines) {
    r->tx_readers &= keep;
    r->tx_writers &= keep;
  }
  for (LineRecord* r : t.write_lines) {
    r->tx_readers &= keep;
    r->tx_writers &= keep;
  }
  t.detached = true;
}

void HtmFacility::rollback(CpuId cpu, AbortReason reason) {
  TxState& t = tx_.at(cpu);
  detach(cpu);
  t.active = false;
  t.doom = AbortReason::kNone;
  t.next_event = 0;
  t.redo.clear();
  close_window(t, /*publish=*/false);
  ++stats_.at(cpu).aborts_by_reason[static_cast<int>(reason)];
  if (learning_ && reason != AbortReason::kOverflowRead &&
      reason != AbortReason::kOverflowWrite) {
    learning_->on_non_overflow(cpu);
  }
}

void HtmFacility::access_event(CpuId cpu, TxState& t) {
  GILFREE_CHECK(t.active);
  if (t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
  if (machine_->clock(cpu) >= t.next_interrupt) interrupt(cpu, t);
  // Injected spurious aborts look like transient conflicts to the
  // software: retryable, no footprint evidence.
  if (injector_ && injector_->spurious_due(cpu, machine_->clock(cpu)))
    abort_self(cpu, AbortReason::kConflict);
  arm_events(cpu, t);
}

void HtmFacility::interrupt(CpuId cpu, TxState& t) {
  t.next_interrupt = 0;  // resampled at next tx_begin
  abort_self(cpu, AbortReason::kInterrupt);
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
  // Footprint lists point into the line table: drop them before the chunks.
  for (auto& t : tx_) t = TxState{};
  for (auto& s : stats_) s = HtmStats{};
  lines_.clear();
  conflict_lines_.clear();
  last_conflict_line_.assign(last_conflict_line_.size(), kInvalidLine);
  seed_rngs();
  if (learning_) learning_->reset();
  if (injector_) injector_->reset();
}

}  // namespace gilfree::htm
