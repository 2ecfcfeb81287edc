// The HTM facility of the simulated machine.
//
// Design follows the zEC12 implementation the paper describes (§2.2):
//   * eager, cache-line-granular conflict detection (tx-read/tx-dirty bits
//     modeled as per-line CPU masks in a guest-indexed sim::LineTable),
//   * store buffering — speculative stores go to a per-transaction redo log
//     (the "Gathering Store Cache") and reach memory only at TEND,
//   * capacity limits on the distinct cache lines read and written,
//   * requester-wins resolution: the CPU whose access hits somebody else's
//     transactional line dooms that transaction (the coherency request
//     invalidates the victim's speculative state),
//   * transient/persistent abort codes as reported by the real ISAs,
//   * exponentially-distributed external interrupts that abort transactions
//     spanning them, and
//   * optionally (Xeon profile) the TSX "learning" eager-abort behaviour.
//
// Memory is modeled as the host process's own memory in 8-byte slots; every
// value the MiniRuby VM stores is one slot, and every slot the facility sees
// lies in a registered guest segment (sim::GuestSpace), which is what keys
// the line metadata. Transactional accessors throw TxAbort when the running
// transaction dies mid-bytecode; the engine unwinds to its TBEGIN snapshot.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "htm/abort_reason.hpp"
#include "htm/htm_config.hpp"
#include "htm/htm_stats.hpp"
#include "htm/redo_log.hpp"
#include "htm/tsx_learning.hpp"
#include "sim/guest_space.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"

namespace gilfree::htm {

/// Observes every write that reaches simulated memory outside transactional
/// speculation: non-transactional stores and the redo-log drain of a
/// committing hardware transaction. The tier-2 software-transaction engine
/// registers here so commit-time validation can detect writes it did not
/// perform itself (docs/TIERS.md).
class MemWriteListener {
 public:
  virtual ~MemWriteListener() = default;
  virtual void on_nontx_write(const u64* addr) = 0;
};

class HtmFacility {
 public:
  /// `guest` (not owned) keys all line metadata: every address handed to
  /// the accessors must lie in one of its segments.
  HtmFacility(const HtmConfig& config, sim::Machine* machine,
              const sim::GuestSpace* guest);

  const HtmConfig& config() const { return config_; }

  /// TBEGIN/XBEGIN. Returns kNone when the CPU entered transactional
  /// execution; otherwise the transaction aborted immediately (learning
  /// model or an injected begin-time fault) and the caller sees the abort
  /// reason, exactly like the fallback path of XBEGIN. `yp` is the yield
  /// point the TLE layer starts this transaction at (-1 = thread entry /
  /// unknown); it only targets fault-injection campaigns — the hardware
  /// model itself ignores it.
  AbortReason tx_begin(CpuId cpu, i32 yp = -1);

  /// TEND/XEND. On success applies the redo log to memory and returns kNone;
  /// if the transaction was doomed in the meantime, rolls back and returns
  /// the reason.
  AbortReason tx_commit(CpuId cpu);

  /// TABORT/XABORT: software-initiated abort. Rolls back; does not throw.
  void tx_abort(CpuId cpu, AbortReason reason);

  /// Hardware-initiated abort of whatever transaction is resident on `cpu`
  /// (context switch, interrupt delivery). No-op when none is active. The
  /// owning software thread discovers the abort when it resumes.
  void force_abort(CpuId cpu, AbortReason reason);

  /// Dooms every in-flight transaction except `except` (pass kInvalidCpu for
  /// none). Used before stop-the-world phases (GC) that are not already
  /// serialized by a GIL acquisition.
  void doom_all(CpuId except, AbortReason reason);

  bool in_tx(CpuId cpu) const { return tx_.at(cpu).active; }
  AbortReason doom(CpuId cpu) const { return tx_.at(cpu).doom; }

  /// Transactional 8-byte load. `shared` marks lines other threads can touch;
  /// private lines (interpreter stacks) still consume footprint but skip
  /// conflict tracking. Throws TxAbort on capacity overflow, interrupt, or a
  /// previously delivered doom.
  u64 tx_load(CpuId cpu, const u64* addr, bool shared) {
    TxState& t = enter_access(cpu);
    const sim::GuestLoc loc = guest_->locate(addr);
    LineRecord& r = lines_.at(loc);
    // Read own speculative writes; only lines this transaction wrote can
    // hold a buffered value.
    if (r.write_fp & bit(cpu)) {
      if (const u64* v = t.redo.find(addr)) return *v;
    }
    if (!(r.read_fp & bit(cpu))) first_touch(cpu, r, loc, shared, false);
    return *addr;
  }

  /// Transactional 8-byte store into the redo log. Throws TxAbort like
  /// tx_load.
  void tx_store(CpuId cpu, u64* addr, u64 value, bool shared) {
    TxState& t = enter_access(cpu);
    const sim::GuestLoc loc = guest_->locate(addr);
    LineRecord& r = lines_.at(loc);
    if (!(r.write_fp & bit(cpu))) first_touch(cpu, r, loc, shared, true);
    t.redo.put(addr, value);
  }

  /// Non-transactional accessors used while holding the GIL (or before any
  /// transaction exists). They doom conflicting transactions, which is how
  /// writing GIL.acquired aborts every speculating thread (Fig. 1 line 15
  /// relies on the GIL word being in every read set). They only peek at the
  /// line table and never allocate metadata.
  u64 nontx_load(CpuId cpu, const u64* addr) {
    GILFREE_CHECK(!tx_.at(cpu).active);
    const sim::GuestLoc loc = guest_->locate(addr);
    if (const LineRecord* r = lines_.find(loc)) {
      const u32 writers = r->tx_writers & ~bit(cpu);
      if (writers) conflict(writers, loc);
    }
    return *addr;
  }

  void nontx_store(CpuId cpu, u64* addr, u64 value) {
    GILFREE_CHECK(!tx_.at(cpu).active);
    const sim::GuestLoc loc = guest_->locate(addr);
    if (const LineRecord* r = lines_.find(loc)) {
      const u32 holders = (r->tx_readers | r->tx_writers) & ~bit(cpu);
      if (holders) conflict(holders, loc);
    }
    *addr = value;
    if (write_listener_ != nullptr) write_listener_->on_nontx_write(addr);
  }

  /// Cheap doom check between bytecodes; throws TxAbort if this CPU's
  /// transaction was killed asynchronously.
  void check_doom(CpuId cpu) {
    const TxState& t = tx_.at(cpu);
    if (t.active && t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
  }

  /// Footprint of the CPU's current transaction, or of its last one until
  /// the next successful tx_begin (a doomed or aborted transaction keeps
  /// reporting what it had touched), for tests and the Fig. 6a probe.
  u32 read_line_count(CpuId cpu) const {
    return static_cast<u32>(tx_.at(cpu).read_lines.size());
  }
  u32 write_line_count(CpuId cpu) const {
    return static_cast<u32>(tx_.at(cpu).write_lines.size());
  }

  /// Capacity after SMT halving (§5.4: SMT siblings share the caches).
  u32 effective_max_read(CpuId cpu) const;
  u32 effective_max_write(CpuId cpu) const;

  const HtmStats& stats(CpuId cpu) const { return stats_.at(cpu); }
  HtmStats total_stats() const;
  TsxLearningModel* learning() { return learning_ ? &*learning_ : nullptr; }

  /// Conflict-line histogram (diagnostics; enabled by set_collect_conflicts).
  void set_collect_conflicts(bool on) { collect_conflicts_ = on; }
  const std::unordered_map<LineId, u64>& conflict_lines() const {
    return conflict_lines_;
  }

  const sim::GuestSpace& guest_space() const { return *guest_; }

  /// Line-table chunks allocated since construction or the last reset().
  std::size_t line_table_chunks() const { return lines_.chunks(); }

  /// The line whose coherency request doomed this CPU's last conflict abort
  /// (kInvalidLine for spurious/injected conflicts, which have no line).
  /// Valid until the CPU's next tx_begin.
  LineId last_conflict_line(CpuId cpu) const {
    return last_conflict_line_.at(cpu);
  }

  /// Attaches a memory-write listener (not owned; null detaches). Called
  /// for every nontx_store and for every redo-log entry a commit publishes.
  void set_write_listener(MemWriteListener* listener) {
    write_listener_ = listener;
  }

  /// Attaches a fault-injection campaign (not owned; null detaches). The
  /// facility consults it at TBEGIN, at every transactional access, and
  /// when sampling interrupt arrivals.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  fault::FaultInjector* fault_injector() { return injector_; }

  /// Clears all transactional state, statistics, and diagnostics (including
  /// the conflict-line histogram, the TSX learning model and every
  /// line-table chunk), and re-derives the per-CPU RNG streams from the
  /// configured seed, so back-to-back runs in one process are independent
  /// and identically distributed.
  void reset();

 private:
  /// Per-line state, one 16-byte record per guest line. The conflict masks
  /// model zEC12's tx-read/tx-dirty bits and hold only shared accesses of
  /// live, undoomed transactions; the footprint masks record every line a
  /// CPU's transaction touched (private ones too) so first-touch is a bit
  /// test. A line first touched privately never enters conflict tracking.
  struct LineRecord {
    u32 tx_readers = 0;  ///< CPUs reading the line transactionally.
    u32 tx_writers = 0;  ///< CPUs with a buffered store to the line.
    u32 read_fp = 0;     ///< CPUs whose transaction read the line.
    u32 write_fp = 0;    ///< CPUs whose transaction wrote the line.
  };
  static_assert(sizeof(LineRecord) == 16, "line metadata drives peak RSS");

  struct TxState {
    bool active = false;
    bool detached = false;  ///< Conflict bits already cleared.
    AbortReason doom = AbortReason::kNone;
    /// Records of the lines in the read and write footprints, in first-touch
    /// order; they own this CPU's footprint bits until the next tx_begin.
    std::vector<LineRecord*> read_lines;
    std::vector<LineRecord*> write_lines;
    RedoLog redo;
    Cycles next_interrupt = 0;
  };

  static u32 bit(CpuId cpu) { return u32{1} << cpu; }

  /// The checks every transactional access starts with: the transaction is
  /// live, undoomed, and no interrupt or injected spurious abort is due.
  TxState& enter_access(CpuId cpu) {
    TxState& t = tx_.at(cpu);
    GILFREE_CHECK(t.active);
    if (t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
    maybe_interrupt(cpu, t);
    maybe_spurious(cpu);
    return t;
  }
  void maybe_interrupt(CpuId cpu, TxState& t) {
    if (machine_->clock(cpu) >= t.next_interrupt) interrupt(cpu, t);
  }
  void maybe_spurious(CpuId cpu) {
    // Injected spurious aborts look like transient conflicts to the
    // software: retryable, no footprint evidence.
    if (injector_ && injector_->spurious_due(cpu, machine_->clock(cpu)))
      abort_self(cpu, AbortReason::kConflict);
  }
  [[noreturn]] void interrupt(CpuId cpu, TxState& t);

  /// First read (or write) of a line in this transaction: footprint,
  /// capacity and, for shared lines, conflict tracking.
  void first_touch(CpuId cpu, LineRecord& r, sim::GuestLoc loc, bool shared,
                   bool write);
  /// Requester wins: dooms `victims` on the line holding `loc`.
  void conflict(u32 victims, sim::GuestLoc loc);
  /// Drops this CPU's footprint bits and line lists (next tx_begin).
  void clear_footprint(CpuId cpu, TxState& t);

  void doom_mask(u32 mask, AbortReason reason, LineId line);
  void detach(CpuId cpu);
  void rollback(CpuId cpu, AbortReason reason);
  void seed_rngs();
  /// Footprint limit after any injected capacity reduction (never below 1).
  u32 faulted_limit(CpuId cpu, u32 max) const;
  [[noreturn]] void abort_self(CpuId cpu, AbortReason reason);

  HtmConfig config_;
  sim::Machine* machine_;
  const sim::GuestSpace* guest_;
  sim::LineTable<LineRecord> lines_;
  std::vector<TxState> tx_;
  std::vector<HtmStats> stats_;
  std::vector<Rng> rng_;
  u64 learning_seed_ = 0;  ///< Derived in seed_rngs(); reused by reset().
  std::optional<TsxLearningModel> learning_;
  fault::FaultInjector* injector_ = nullptr;
  MemWriteListener* write_listener_ = nullptr;
  bool collect_conflicts_ = false;
  std::unordered_map<LineId, u64> conflict_lines_;
  std::vector<LineId> last_conflict_line_;  ///< Per CPU; set at doom time.
};

}  // namespace gilfree::htm
