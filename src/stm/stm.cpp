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
      guest_(guest),
      htm_(htm),
      versions_(static_cast<u32>(config.line_bytes)) {
  GILFREE_CHECK(config_.line_bytes > 0 && config_.line_bytes <= 4096);
  GILFREE_CHECK(guest_ != nullptr);
  GILFREE_CHECK_MSG(htm_ == nullptr ||
                        (&htm_->guest_space() == guest_ &&
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
  t.active = true;
  t.lazy = config_.subscription == GilSubscription::kLazy;
  t.doom = StmAbortCause::kNone;
  ++active_count_;
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

u64 StmEngine::load(u32 tid, CpuId cpu, const u64* addr, bool shared) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK_MSG(t.active, "stm load outside a transaction on tid " << tid);
  if (t.doom != StmAbortCause::kNone) abort_self(tid, t.doom);
  // Read-own-writes: the buffer is the newest value for this transaction.
  if (const auto it = t.writes.find(const_cast<u64*>(addr));
      it != t.writes.end()) {
    return it->second.value;
  }
  if (!shared) return *addr;
  const LineId line = line_of(addr);
  if (t.read_marks.find(line) == t.read_marks.end()) {
    if (t.read_marks.size() >= config_.max_read_lines)
      abort_self(tid, StmAbortCause::kOverflowRead);
    t.read_marks.emplace(line, version_of(line));
    stats_.max_read_lines =
        std::max<u64>(stats_.max_read_lines, t.read_marks.size());
  }
  // Route through the hardware's non-transactional load so a concurrent
  // HTM writer of this line is doomed (requester wins), matching what a
  // real non-speculative coherency request would do.
  return htm_ != nullptr ? htm_->nontx_load(cpu, addr) : *addr;
}

void StmEngine::store(u32 tid, CpuId cpu, u64* addr, u64 value, bool shared) {
  (void)cpu;  // Publishing happens at commit; stores have no bus traffic.
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  if (t.doom != StmAbortCause::kNone) abort_self(tid, t.doom);
  if (shared) {
    const LineId line = line_of(addr);
    // First shared write records the line version like a read mark: if any
    // other transaction commits a write to this line first, validation
    // fails — so two writers of one line can never both commit, even when
    // neither ever read it (blind stores).
    if (t.write_marks.find(line) == t.write_marks.end())
      t.write_marks.emplace(line, version_of(line));
  }
  if (t.writes.find(addr) == t.writes.end() &&
      t.writes.size() >= config_.max_write_entries) {
    abort_self(tid, StmAbortCause::kOverflowWrite);
  }
  t.writes[addr] = BufferedWrite{value, shared};
  stats_.max_write_entries =
      std::max<u64>(stats_.max_write_entries, t.writes.size());
}

bool StmEngine::marks_valid(const Tx& t) {
  stats_.validated_entries += t.read_marks.size() + t.write_marks.size();
  for (const auto& [line, version] : t.read_marks)
    if (version_of(line) != version) return false;
  for (const auto& [line, version] : t.write_marks)
    if (version_of(line) != version) return false;
  return true;
}

bool StmEngine::validate(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  if (t.doom != StmAbortCause::kNone) {
    const StmAbortCause cause = t.doom;
    rollback(tid, cause);
    return false;
  }
  if (!marks_valid(t)) {
    ++stats_.zombie_kills;
    rollback(tid, StmAbortCause::kValidation);
    return false;
  }
  return true;
}

StmAbortCause StmEngine::commit(u32 tid, CpuId cpu) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  if (t.doom != StmAbortCause::kNone) {
    const StmAbortCause cause = t.doom;
    rollback(tid, cause);
    return cause;
  }
  // Lazy GIL subscription: the one and only point where the GIL word is
  // consulted. A held GIL means a thread is mutating memory outside any
  // transaction right now; committing would interleave with it.
  if (t.lazy && gil_word_ != nullptr && *gil_word_ != 0) {
    rollback(tid, StmAbortCause::kGilSubscription);
    return StmAbortCause::kGilSubscription;
  }
  if (!marks_valid(t)) {
    rollback(tid, StmAbortCause::kValidation);
    return StmAbortCause::kValidation;
  }
  // Validated: this transaction is now logically committed. Retire it
  // before publishing so the version bumps triggered by its own writes
  // invalidate *other* live transactions, not itself.
  t.active = false;
  --active_count_;
  ++stats_.commits;
  stats_.committed_writes += t.writes.size();
  // Publish in guest-address order, not buffer-hash order: the doom each
  // shared publish inflicts on a conflicting hardware transaction records
  // the published line as the victim's conflict line, so the iteration
  // order here is visible in traces and record streams. Host-pointer order
  // varies with ASLR; guest order is process-stable.
  struct Publish {
    sim::GuestAddr guest;
    u64* addr;
    BufferedWrite w;
  };
  std::vector<Publish> publish;
  publish.reserve(t.writes.size());
  for (const auto& [addr, w] : t.writes)
    publish.push_back(Publish{guest_->translate(addr), addr, w});
  std::sort(publish.begin(), publish.end(),
            [](const Publish& a, const Publish& b) { return a.guest < b.guest; });
  for (const Publish& p : publish) {
    if (p.w.shared) {
      if (htm_ != nullptr) {
        // Dooms conflicting hardware transactions and re-enters this
        // engine through on_nontx_write, bumping the line version for
        // every other live software transaction.
        htm_->nontx_store(cpu, p.addr, p.w.value);
      } else {
        *p.addr = p.w.value;
        bump(line_of(p.addr));
      }
    } else {
      // Private lines (interpreter stacks): restore-on-abort is the only
      // reason they were buffered; no conflict tracking.
      *p.addr = p.w.value;
    }
  }
  t.read_marks.clear();
  t.write_marks.clear();
  t.writes.clear();
  last_cause_[tid] = StmAbortCause::kNone;
  return StmAbortCause::kNone;
}

void StmEngine::abort(u32 tid, StmAbortCause cause) {
  GILFREE_CHECK(tx_at(tid).active);
  GILFREE_CHECK(cause != StmAbortCause::kNone);
  abort_self(tid, cause);
}

void StmEngine::doom_all(StmAbortCause cause) {
  if (active_count_ == 0) return;
  for (Tx& t : tx_)
    if (t.active && t.doom == StmAbortCause::kNone) t.doom = cause;
}

void StmEngine::on_nontx_write(const u64* addr) {
  // With no live software transaction nobody holds a marker, and any later
  // transaction's first access records whatever version the line has then
  // — skipping the bump is safe and keeps the version table from growing
  // during STM-free phases.
  if (active_count_ == 0) return;
  bump(line_of(addr));
}

void StmEngine::on_gil_acquired() {
  if (config_.subscription == GilSubscription::kEager)
    doom_all(StmAbortCause::kGilSubscription);
}

StmAbortCause StmEngine::last_cause(u32 tid) const {
  return tid < last_cause_.size() ? last_cause_[tid] : StmAbortCause::kNone;
}

u32 StmEngine::read_marker_count(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr ? static_cast<u32>(t->read_marks.size()) : 0;
}

u32 StmEngine::write_marker_count(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr ? static_cast<u32>(t->write_marks.size()) : 0;
}

u32 StmEngine::write_entry_count(u32 tid) const {
  const Tx* t = tx_of(tid);
  return t != nullptr ? static_cast<u32>(t->writes.size()) : 0;
}

void StmEngine::rollback(u32 tid, StmAbortCause cause) {
  Tx& t = tx_at(tid);
  t.active = false;
  t.doom = StmAbortCause::kNone;
  t.read_marks.clear();
  t.write_marks.clear();
  t.writes.clear();
  --active_count_;
  ++stats_.aborts_by_cause[static_cast<std::size_t>(cause)];
  last_cause_[tid] = cause;
}

void StmEngine::abort_self(u32 tid, StmAbortCause cause) {
  rollback(tid, cause);
  throw htm::TxAbort{mapped_reason(cause)};
}

}  // namespace gilfree::stm
