// The HTM facility of the simulated machine.
//
// Design follows the zEC12 implementation the paper describes (§2.2):
//   * eager, cache-line-granular conflict detection (tx-read/tx-dirty bits
//     modeled as per-line CPU masks in a guest-indexed sim::LineTable),
//   * store buffering — speculative stores go to a per-transaction redo log
//     (the "Gathering Store Cache") and reach memory only at TEND; stores to
//     the thread-private window (the interpreter stack) go to a slot-indexed
//     buffer of their own,
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

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/zero_pages.hpp"
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

/// Observes every write that reaches shared simulated memory outside
/// transactional speculation: non-transactional stores and the redo-log
/// drain of a committing hardware transaction. Private-window stores a
/// commit publishes are not reported: no other thread can read them. The
/// tier-2 software-transaction engine registers here to doom the software
/// transactions holding a written line (docs/TIERS.md). A report stands
/// for its whole line: a store run reports each line once.
class MemWriteListener {
 public:
  virtual ~MemWriteListener() = default;
  virtual void on_nontx_write(const u64* addr) = 0;
};

/// The slots a transaction may touch with shared=false: the running
/// thread's interpreter stack. Registered guest memory whose first slot
/// starts a guest line, inside one segment.
struct PrivateWindow {
  u64* base = nullptr;
  u32 slots = 0;
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
  /// model itself ignores it. `window` is the transaction's private window
  /// (empty: every shared=false access fails a GILFREE_CHECK).
  AbortReason tx_begin(CpuId cpu, i32 yp = -1, PrivateWindow window = {});

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
  /// private ones must lie in the transaction's window and still consume
  /// footprint but skip conflict tracking. Throws TxAbort on capacity
  /// overflow, interrupt, or a previously delivered doom.
  u64 tx_load(CpuId cpu, const u64* addr, bool shared) {
    TxState& t = enter_access(cpu);
    if (!shared) return load_private(cpu, t, addr);
    LineRecord& r = lines_.at(addr);
    // Read own speculative writes; only lines this transaction wrote can
    // hold a buffered value.
    if (r.write_fp & bit(cpu)) {
      if (const u64* v = t.redo.find(addr)) return *v;
    }
    if (!(r.read_fp & bit(cpu))) first_touch(cpu, r, addr, false);
    return *addr;
  }

  /// Transactional 8-byte store into the redo log (shared) or the window's
  /// store buffer (private). Throws TxAbort like tx_load.
  void tx_store(CpuId cpu, u64* addr, u64 value, bool shared) {
    TxState& t = enter_access(cpu);
    if (!shared) {
      store_private(cpu, t, addr, value);
      return;
    }
    LineRecord& r = lines_.at(addr);
    if (!(r.write_fp & bit(cpu))) first_touch(cpu, r, addr, true);
    t.redo.put(addr, value);
  }

  /// The value a shared tx_load of `addr` would return right now, with no
  /// side effect: no footprint, conflict, fault or interrupt check, no
  /// TxAbort. Lets the interpreter read the TCB yield counter before
  /// deciding whether a yield point needs the engine.
  u64 tx_peek(CpuId cpu, const u64* addr) const {
    if (const u64* v = tx_.at(cpu).redo.find(addr)) return *v;
    return *addr;
  }

  /// Non-transactional accessors used while holding the GIL (or before any
  /// transaction exists). They doom conflicting transactions, which is how
  /// writing GIL.acquired aborts every speculating thread (Fig. 1 line 15
  /// relies on the GIL word being in every read set). They only peek at the
  /// line table and never allocate metadata.
  u64 nontx_load(CpuId cpu, const u64* addr) {
    GILFREE_CHECK(!tx_.at(cpu).active);
    if (const LineRecord* r = lines_.find(addr)) {
      const u32 writers = r->tx_writers & ~bit(cpu);
      if (writers) conflict(writers, addr);
    }
    return *addr;
  }

  void nontx_store(CpuId cpu, u64* addr, u64 value) {
    GILFREE_CHECK(!tx_.at(cpu).active);
    if (const LineRecord* r = lines_.find(addr)) {
      const u32 holders = (r->tx_readers | r->tx_writers) & ~bit(cpu);
      if (holders) conflict(holders, addr);
    }
    *addr = value;
    if (write_listener_ != nullptr) write_listener_->on_nontx_write(addr);
  }

  /// `n` nontx_store calls addr[i] = values[i] in one pass: one holder
  /// check, conflict and write-listener call per line, then plain slot
  /// writes. Equal to the per-slot loop: the first store to a line dooms
  /// and detaches every holder, so the line's later stores find none, and
  /// a doom is idempotent. The run must lie in one guest segment.
  void nontx_store_run(CpuId cpu, u64* addr, const u64* values, u32 n);

  /// Footprint of the CPU's current transaction, or of its last one until
  /// the next successful tx_begin (a doomed or aborted transaction keeps
  /// reporting what it had touched), for tests and the Fig. 6a probe.
  /// Shared and private lines together.
  u32 read_line_count(CpuId cpu) const {
    const TxState& t = tx_.at(cpu);
    return static_cast<u32>(t.read_lines.size() + t.win.read_lines.size());
  }
  u32 write_line_count(CpuId cpu) const {
    const TxState& t = tx_.at(cpu);
    return static_cast<u32>(t.write_lines.size() + t.win.write_lines.size());
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
  /// for every nontx_store, once per line of a nontx_store_run, and for
  /// every redo-log entry a commit publishes.
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
  /// Per-line state, one 16-byte record per shared guest line. The conflict
  /// masks model zEC12's tx-read/tx-dirty bits and hold only accesses of
  /// live, undoomed transactions; the footprint masks record every shared
  /// line a CPU's transaction touched so first-touch is a bit test.
  /// Private-window lines have no record (see WindowTx).
  struct LineRecord {
    u32 tx_readers = 0;  ///< CPUs reading the line transactionally.
    u32 tx_writers = 0;  ///< CPUs with a buffered store to the line.
    u32 read_fp = 0;     ///< CPUs whose transaction read the line.
    u32 write_fp = 0;    ///< CPUs whose transaction wrote the line.
  };
  static_assert(sizeof(LineRecord) == 16, "line metadata drives peak RSS");

  /// A transaction's private window. Only the owning thread can touch these
  /// lines, so they need no conflict tracking and no line-table record:
  /// footprint is a per-line bitmap, and stores go to a buffer indexed by
  /// slot, published at commit and dropped at rollback. Speculative stack
  /// stores must not reach memory early — the incremental marker scans the
  /// stacks of speculating threads. Buffers only grow, so a CPU reuses them
  /// across transactions and windows; pages it never wrote stay unmapped.
  struct WindowTx {
    u64* base = nullptr;
    u32 slots = 0;
    ZeroPages<u64> values;       ///< Buffered stores, by slot.
    std::vector<u64> written;    ///< Bit per slot: values[] holds a store.
    std::vector<u32> stored;     ///< Written slots, first-store order.
    std::vector<u64> read_fp;    ///< Bit per window line.
    std::vector<u64> write_fp;
    /// Lines whose footprint bit is set, in first-touch order; their sizes
    /// are the private part of the footprint until the next tx_begin.
    std::vector<u32> read_lines;
    std::vector<u32> write_lines;
  };

  struct TxState {
    bool active = false;
    bool detached = false;  ///< Conflict bits already cleared.
    AbortReason doom = AbortReason::kNone;
    /// Records of the shared lines in the read and write footprints, in
    /// first-touch order; they own this CPU's footprint bits until the next
    /// tx_begin.
    std::vector<LineRecord*> read_lines;
    std::vector<LineRecord*> write_lines;
    RedoLog redo;  ///< Shared stores only.
    WindowTx win;
    Cycles next_interrupt = 0;
    /// Clock at which enter_access must leave its one-compare fast path:
    /// the earlier of the next interrupt and the next spurious-fault
    /// arrival, or 0 while doomed or inactive.
    Cycles next_event = 0;
  };

  static u32 bit(CpuId cpu) { return u32{1} << cpu; }
  static bool test_bit(const std::vector<u64>& bits, u32 i) {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }

  /// The checks every transactional access starts with — the transaction is
  /// live, undoomed, and no interrupt or injected spurious abort is due —
  /// folded into one clock compare against next_event.
  TxState& enter_access(CpuId cpu) {
    const Cycles now = machine_->clock(cpu);  // bounds-checks cpu
    TxState& t = tx_[cpu];
    if (now >= t.next_event) access_event(cpu, t);
    return t;
  }
  /// enter_access's slow path: the checks in order, then re-arm next_event.
  void access_event(CpuId cpu, TxState& t);
  /// next_event for a live, undoomed transaction.
  void arm_events(CpuId cpu, TxState& t) {
    t.next_event = t.next_interrupt;
    if (injector_)
      t.next_event = std::min(t.next_event, injector_->next_spurious(cpu));
  }
  [[noreturn]] void interrupt(CpuId cpu, TxState& t);

  /// Slot of `addr` in the window; fails a GILFREE_CHECK outside it.
  u32 window_slot(const TxState& t, const u64* addr) const {
    const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(addr) -
                               reinterpret_cast<std::uintptr_t>(t.win.base);
    if (off / 8 >= t.win.slots) outside_window();
    return static_cast<u32>(off / 8);
  }
  /// window_slot's failed check, kept out of line so the message stream
  /// does not stop window_slot from inlining.
  [[noreturn, gnu::cold, gnu::noinline]] static void outside_window();
  u64 load_private(CpuId cpu, TxState& t, const u64* addr) {
    const u32 slot = window_slot(t, addr);
    if (test_bit(t.win.written, slot)) return t.win.values[slot];
    const u32 line = slot >> window_line_shift_;
    if (!test_bit(t.win.read_fp, line)) first_touch_private(cpu, line, false);
    return *addr;
  }
  void store_private(CpuId cpu, TxState& t, u64* addr, u64 value) {
    const u32 slot = window_slot(t, addr);
    const u32 line = slot >> window_line_shift_;
    if (!test_bit(t.win.write_fp, line)) first_touch_private(cpu, line, true);
    u64& w = t.win.written[slot >> 6];
    const u64 m = u64{1} << (slot & 63);
    if (!(w & m)) {
      w |= m;
      t.win.stored.push_back(slot);
    }
    t.win.values[slot] = value;
  }

  /// First read (or write) of a shared line in this transaction: footprint,
  /// capacity and conflict tracking. `addr` is any slot of the line.
  void first_touch(CpuId cpu, LineRecord& r, const u64* addr, bool write);
  /// The same for a private-window line: footprint and capacity only.
  void first_touch_private(CpuId cpu, u32 line, bool write);
  /// Aborts when the footprint (shared lines plus private lines) exceeds
  /// the capacity, after a first touch grew it.
  void check_capacity(CpuId cpu, const TxState& t, bool write);
  /// Points the CPU's window at `w`, growing its buffers if needed.
  void open_window(TxState& t, PrivateWindow w);
  /// Writes the window's buffered stores to memory (commit) or drops them
  /// (rollback); either way the buffer is empty afterwards.
  void close_window(TxState& t, bool publish);
  /// Requester wins: dooms `victims` on the line holding `addr`.
  void conflict(u32 victims, const u64* addr);
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
  u32 window_line_shift_ = 0;  ///< log2(slots per line).
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
