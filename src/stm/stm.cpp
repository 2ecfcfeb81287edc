#include "stm/stm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::stm {

namespace {

/// Maps the STM cause onto the hardware abort-reason vocabulary so the
/// runtime's existing TxAbort catch sites work unchanged. Persistence is
/// irrelevant here — the runtime dispatches on SchedThread::in_stm and the
/// recorded StmAbortCause, never on this mapped reason.
htm::AbortReason mapped_reason(StmAbortCause c) {
  switch (c) {
    case StmAbortCause::kOverflowRead: return htm::AbortReason::kOverflowRead;
    case StmAbortCause::kOverflowWrite:
      return htm::AbortReason::kOverflowWrite;
    case StmAbortCause::kUnsupported: return htm::AbortReason::kUnsupported;
    case StmAbortCause::kGilSubscription: return htm::AbortReason::kExplicit;
    default: return htm::AbortReason::kConflict;
  }
}

}  // namespace

StmEngine::StmEngine(const StmConfig& config, const sim::GuestSpace* guest,
                     htm::HtmFacility* htm)
    : config_(config),
      htm_(htm),
      lines_(guest, static_cast<u32>(config.line_bytes)) {
  GILFREE_CHECK(config_.line_bytes > 0 &&
                config_.line_bytes <= sim::GuestSpace::kSegmentAlign);
  GILFREE_CHECK_MSG(htm_ == nullptr ||
                        (&htm_->guest_space() == guest &&
                         htm_->config().line_bytes == config_.line_bytes),
                    "the STM and HTM tiers must share one line space");
}

StmEngine::Tx& StmEngine::tx_at(u32 tid) {
  if (tid >= tx_.size()) {
    tx_.resize(tid + 1);
    last_cause_.resize(tid + 1, StmAbortCause::kNone);
  }
  return tx_[tid];
}

const StmEngine::Tx* StmEngine::tx_of(u32 tid) const {
  return tid < tx_.size() ? &tx_[tid] : nullptr;
}

void StmEngine::begin(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK_MSG(!t.active, "nested software transaction on tid " << tid);
  GILFREE_CHECK_MSG(can_begin(), "all " << kMaxLive << " STM slots are live");
  t.active = true;
  t.slot = static_cast<u32>(__builtin_ctzll(~live_));
  t.doom = StmAbortCause::kNone;
  live_ |= u64{1} << t.slot;
  slot_tid_[t.slot] = tid;
  ++stats_.begins;
}

bool StmEngine::in_tx(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr && t->active;
}

bool StmEngine::doomed(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr && t->active && t->doom != StmAbortCause::kNone;
}

StmEngine::Tx& StmEngine::enter_access(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK_MSG(t.active, "stm access outside a transaction on tid " << tid);
  if (t.doom != StmAbortCause::kNone) {
    // A publish invalidated a line this transaction holds (or GC / eager
    // subscription doomed it): stop before it reads anything else.
    ++stats_.zombie_kills;
    abort_self(tid, t.doom);
  }
  return t;
}

u64 StmEngine::load(u32 tid, CpuId cpu, const u64* addr, bool shared) {
  Tx& t = enter_access(tid);
  // Read-own-writes: the buffer is the newest value for this transaction.
  if (const u64* v = (shared ? t.shared_writes : t.private_writes).find(addr))
    return *v;
  if (!shared) return *addr;
  Holders& h = lines_.at(addr);
  const u64 bit = u64{1} << t.slot;
  if ((h.readers & bit) == 0) {
    if (t.read_lines.size() >= config_.max_read_lines)
      abort_self(tid, StmAbortCause::kOverflowRead);
    h.readers |= bit;
    t.read_lines.push_back(&h);
    stats_.max_read_lines =
        std::max<u64>(stats_.max_read_lines, t.read_lines.size());
  }
  // Route through the hardware's non-transactional load so a concurrent
  // HTM writer of this line is doomed (requester wins), matching what a
  // real non-speculative coherency request would do.
  return htm_ != nullptr ? htm_->nontx_load(cpu, addr) : *addr;
}

void StmEngine::store(u32 tid, CpuId cpu, u64* addr, u64 value, bool shared) {
  (void)cpu;  // Publishing happens at commit; stores have no bus traffic.
  Tx& t = enter_access(tid);
  if (shared) {
    // Holding the line as a writer makes any other publish to it doom this
    // transaction — so two writers of one line can never both commit, even
    // when neither ever read it (blind stores).
    Holders& h = lines_.at(addr);
    const u64 bit = u64{1} << t.slot;
    if ((h.writers & bit) == 0) {
      h.writers |= bit;
      t.write_lines.push_back(&h);
    }
  }
  htm::RedoLog& log = shared ? t.shared_writes : t.private_writes;
  if (log.find(addr) == nullptr && entry_count(t) >= config_.max_write_entries)
    abort_self(tid, StmAbortCause::kOverflowWrite);
  log.put(addr, value);
  stats_.max_write_entries =
      std::max<u64>(stats_.max_write_entries, entry_count(t));
}

StmAbortCause StmEngine::commit(u32 tid, CpuId cpu) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  stats_.validated_entries += t.read_lines.size() + t.write_lines.size();
  if (t.doom != StmAbortCause::kNone) {
    const StmAbortCause cause = t.doom;
    rollback(tid, cause);
    return cause;
  }
  // Lazy GIL subscription: the one and only point where the GIL word is
  // consulted. A held GIL means a thread is mutating memory outside any
  // transaction right now; committing would interleave with it.
  if (config_.subscription == GilSubscription::kLazy && gil_word_ != nullptr &&
      *gil_word_ != 0) {
    rollback(tid, StmAbortCause::kGilSubscription);
    return StmAbortCause::kGilSubscription;
  }
  // Undoomed: no other publish touched a held line, so this transaction is
  // logically committed. Release its bits before publishing so its own
  // writes doom *other* holders, not itself.
  ++stats_.commits;
  stats_.committed_writes += entry_count(t);
  release(t);
  for (const htm::RedoLog::Entry& e : t.shared_writes.entries()) {
    if (htm_ != nullptr) {
      // Dooms conflicting hardware transactions and re-enters this engine
      // through on_nontx_write for the software holders.
      htm_->nontx_store(cpu, e.addr, e.value);
    } else {
      *e.addr = e.value;
      on_nontx_write(e.addr);
    }
  }
  // Private lines (interpreter stacks): restore-on-abort is the only
  // reason they were buffered; no conflict tracking.
  for (const htm::RedoLog::Entry& e : t.private_writes.entries())
    *e.addr = e.value;
  t.shared_writes.clear();
  t.private_writes.clear();
  last_cause_[tid] = StmAbortCause::kNone;
  return StmAbortCause::kNone;
}

void StmEngine::abort(u32 tid, StmAbortCause cause) {
  GILFREE_CHECK(tx_at(tid).active);
  GILFREE_CHECK(cause != StmAbortCause::kNone);
  abort_self(tid, cause);
}

void StmEngine::doom_all(StmAbortCause cause) { doom(live_, cause); }

void StmEngine::doom(u64 slots, StmAbortCause cause) {
  // A transaction keeps the cause of its first doom.
  for (; slots != 0; slots &= slots - 1) {
    Tx& t = tx_[slot_tid_[__builtin_ctzll(slots)]];
    if (t.doom == StmAbortCause::kNone) t.doom = cause;
  }
}

void StmEngine::on_nontx_write(const u64* addr) {
  // With no live software transaction no line has a holder.
  if (live_ == 0) return;
  if (const Holders* h = lines_.find(addr))
    doom(h->readers | h->writers, StmAbortCause::kValidation);
}

void StmEngine::on_gil_acquired() {
  if (config_.subscription == GilSubscription::kEager)
    doom_all(StmAbortCause::kGilSubscription);
}

StmAbortCause StmEngine::last_cause(u32 tid) const {
  return tid < last_cause_.size() ? last_cause_[tid] : StmAbortCause::kNone;
}

u32 StmEngine::held_line_count(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr
             ? static_cast<u32>(t->read_lines.size() + t->write_lines.size())
             : 0;
}

u32 StmEngine::write_entry_count(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr ? entry_count(*t) : 0;
}

void StmEngine::release(Tx& t) {
  const u64 bit = u64{1} << t.slot;
  for (Holders* h : t.read_lines) h->readers &= ~bit;
  for (Holders* h : t.write_lines) h->writers &= ~bit;
  t.read_lines.clear();
  t.write_lines.clear();
  live_ &= ~bit;
  t.active = false;
  t.doom = StmAbortCause::kNone;
}

void StmEngine::rollback(u32 tid, StmAbortCause cause) {
  Tx& t = tx_at(tid);
  release(t);
  t.shared_writes.clear();
  t.private_writes.clear();
  ++stats_.aborts_by_cause[static_cast<std::size_t>(cause)];
  last_cause_[tid] = cause;
}

void StmEngine::abort_self(u32 tid, StmAbortCause cause) {
  rollback(tid, cause);
  throw htm::TxAbort{mapped_reason(cause)};
}

}  // namespace gilfree::stm
