// The HTM facility of the simulated machine.
//
// Design follows the zEC12 implementation the paper describes (§2.2):
//   * eager, cache-line-granular conflict detection (tx-read/tx-dirty bits
//     modeled by a global ConflictTable),
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
// value the MiniRuby VM stores is one slot. Transactional accessors throw
// TxAbort when the running transaction dies mid-bytecode; the engine unwinds
// to its TBEGIN snapshot.
#pragma once

#include <array>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "htm/abort_reason.hpp"
#include "htm/htm_config.hpp"
#include "htm/htm_stats.hpp"
#include "htm/conflict_table.hpp"
#include "htm/tsx_learning.hpp"
#include "sim/guest_space.hpp"
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
  HtmFacility(const HtmConfig& config, sim::Machine* machine);

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
  u64 tx_load(CpuId cpu, const u64* addr, bool shared);

  /// Transactional 8-byte store into the redo log. Throws TxAbort like
  /// tx_load.
  void tx_store(CpuId cpu, u64* addr, u64 value, bool shared);

  /// Non-transactional accessors used while holding the GIL (or before any
  /// transaction exists). They doom conflicting transactions, which is how
  /// writing GIL.acquired aborts every speculating thread (Fig. 1 line 15
  /// relies on the GIL word being in every read set).
  u64 nontx_load(CpuId cpu, const u64* addr);
  void nontx_store(CpuId cpu, u64* addr, u64 value);

  /// Cheap doom check between bytecodes; throws TxAbort if this CPU's
  /// transaction was killed asynchronously.
  void check_doom(CpuId cpu);

  /// Current footprint, for tests and the Fig. 6a probe.
  u32 read_line_count(CpuId cpu) const;
  u32 write_line_count(CpuId cpu) const;

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

  /// With a guest space attached, lines are guest-relative (stable across
  /// OS processes); otherwise they derive from the host address as before.
  LineId line_of(const void* addr) const {
    if (guest_ != nullptr) return guest_->line_of(addr, config_.line_bytes);
    return reinterpret_cast<std::uintptr_t>(addr) / config_.line_bytes;
  }

  /// Attaches the guest address space (not owned; null reverts to host
  /// addressing). Must be set before any transactional activity — switching
  /// line spaces mid-run would orphan conflict-table entries.
  void set_guest_space(const sim::GuestSpace* guest) { guest_ = guest; }
  const sim::GuestSpace* guest_space() const { return guest_; }

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
  /// the conflict-line histogram and the TSX learning model), and re-derives
  /// the per-CPU RNG streams from the configured seed, so back-to-back runs
  /// in one process are independent and identically distributed.
  void reset();

 private:
  struct TxState {
    bool active = false;
    bool detached = false;  ///< Lines already removed from conflict table.
    AbortReason doom = AbortReason::kNone;
    std::unordered_set<LineId> read_lines;
    std::unordered_set<LineId> write_lines;
    std::unordered_map<const u64*, u64> redo;
    Cycles next_interrupt = 0;
  };

  void doom_mask(u64 mask, AbortReason reason, LineId line);
  void detach(CpuId cpu);
  void rollback(CpuId cpu, AbortReason reason);
  void maybe_interrupt(CpuId cpu);
  void maybe_spurious(CpuId cpu);
  void seed_rngs();
  /// Footprint limit after any injected capacity reduction (never below 1).
  u32 faulted_limit(CpuId cpu, u32 max) const;
  [[noreturn]] void abort_self(CpuId cpu, AbortReason reason);

  HtmConfig config_;
  sim::Machine* machine_;
  ConflictTable table_;
  std::vector<TxState> tx_;
  std::vector<HtmStats> stats_;
  std::vector<Rng> rng_;
  u64 learning_seed_ = 0;  ///< Derived in seed_rngs(); reused by reset().
  std::optional<TsxLearningModel> learning_;
  fault::FaultInjector* injector_ = nullptr;
  MemWriteListener* write_listener_ = nullptr;
  const sim::GuestSpace* guest_ = nullptr;
  bool collect_conflicts_ = false;
  std::unordered_map<LineId, u64> conflict_lines_;
  std::vector<LineId> last_conflict_line_;  ///< Per CPU; set at doom time.
};

}  // namespace gilfree::htm
