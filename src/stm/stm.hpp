// Tier-2 software transaction engine (docs/TIERS.md).
//
// Sits between HTM retry exhaustion and GIL acquisition in the engine's
// escalation path. The design is the classic timestamp-ordered STM in the
// style of pypy-stmgc's per-thread read markers + commit-time validation:
//
//   * a global commit counter `clock_` and a per-line version table, a
//     sim::LineTable over the same guest line space (and the same
//     chunked, direct-indexed layout) the HTM facility's conflict
//     metadata uses,
//   * per-thread read markers: line -> version observed at first read,
//   * a write buffer: address -> buffered value; shared lines also record
//     the version observed at first write, so two transactions that write
//     the same line can never both commit (writer-writer conflicts fail
//     validation no matter which order they interleaved),
//   * commit = validate every marker against the current version table
//     (plus the GIL word under lazy subscription), then publish the buffer
//     through the HTM facility's non-transactional store path, which dooms
//     conflicting hardware transactions and bumps line versions for every
//     other live software transaction.
//
// The engine learns about non-transactional writes (GIL holders, HTM
// commits draining their redo logs) by registering as the HTM facility's
// MemWriteListener: every such write bumps the written line's version, so
// validation catches any software transaction that read it.
//
// Everything is deterministic: versions come from one global counter,
// validation is an order-independent conjunction of equalities, and no
// decision depends on host iteration order of the unordered containers.
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "gil/gil.hpp"
#include "htm/htm.hpp"
#include "sim/guest_space.hpp"
#include "sim/line_table.hpp"
#include "stm/abort_cause.hpp"
#include "stm/stm_config.hpp"
#include "stm/stm_stats.hpp"

namespace gilfree::stm {

class StmEngine : public htm::MemWriteListener, public gil::AcquireListener {
 public:
  /// `guest` (not owned) keys the version table; every address handed to
  /// the accessors must lie in one of its segments. `htm` may be null (unit
  /// tests): loads/stores then bypass the hardware conflict tracking and
  /// version bumps happen locally at commit. With a facility attached it
  /// must share `guest` and the line size, so both tiers use one line
  /// space.
  StmEngine(const StmConfig& config, const sim::GuestSpace* guest,
            htm::HtmFacility* htm);

  const StmConfig& config() const { return config_; }

  /// The slot holding GIL.acquired; wired by the engine once the heap
  /// exists. Required for lazy subscription's commit-time check.
  void set_gil_word(const u64* word) { gil_word_ = word; }

  /// Starts a software transaction for `tid`. The caller must have
  /// checkpointed VM registers; rollback is the caller's job (this class
  /// only buffers memory).
  void begin(u32 tid);

  bool in_tx(u32 tid) const;
  bool doomed(u32 tid) const;

  /// Transactional accessors. `shared` follows the same meaning as the HTM
  /// accessors: private lines (interpreter stacks) are buffered for
  /// rollback but skip conflict tracking. Throw htm::TxAbort (mapped from
  /// the STM cause, retrievable via last_cause) after rolling back this
  /// engine's own state; the runtime unwinds to its checkpoint.
  u64 load(u32 tid, CpuId cpu, const u64* addr, bool shared);
  void store(u32 tid, CpuId cpu, u64* addr, u64 value, bool shared);

  /// Revalidates the read/write markers without committing. Returns true
  /// when the transaction is still consistent; otherwise the transaction
  /// has been rolled back (cause recorded, retrievable via last_cause) and
  /// the caller must unwind. Bounds the zombie window to one yield burst.
  bool validate(u32 tid);

  /// Attempts to commit. Returns kNone on success (buffer published);
  /// otherwise the transaction has been rolled back and the returned cause
  /// says why. Never throws.
  StmAbortCause commit(u32 tid, CpuId cpu);

  /// Software-initiated abort (unsupported operation, engine policy).
  /// Rolls back, then throws htm::TxAbort like the transactional accessors
  /// so the interpreter unwinds to the runtime's checkpoint.
  [[noreturn]] void abort(u32 tid, StmAbortCause cause);

  /// Dooms every live software transaction (GC, eager GIL subscription).
  /// Doomed transactions fail at their next access or at commit.
  void doom_all(StmAbortCause cause);

  /// htm::MemWriteListener: a non-transactional store (GIL holder, runtime
  /// bookkeeping) or an HTM commit published `addr`.
  void on_nontx_write(const u64* addr) override;

  /// gil::AcquireListener: eager subscription — the acquisition write
  /// dooms every live software transaction, exactly as if the GIL word
  /// were in each read set. Lazy subscription defers to commit.
  void on_gil_acquired() override;

  /// Cause of the most recent abort of `tid`'s transaction.
  StmAbortCause last_cause(u32 tid) const;

  u32 read_marker_count(u32 tid) const;
  u32 write_marker_count(u32 tid) const;
  u32 write_entry_count(u32 tid) const;

  const StmStats& stats() const { return stats_; }
  u64 clock() const { return clock_; }

 private:
  struct BufferedWrite {
    u64 value = 0;
    bool shared = false;
  };
  struct Tx {
    bool active = false;
    bool lazy = false;
    StmAbortCause doom = StmAbortCause::kNone;
    /// line -> version at first read / first shared write.
    std::unordered_map<LineId, u64> read_marks;
    std::unordered_map<LineId, u64> write_marks;
    std::unordered_map<u64*, BufferedWrite> writes;
  };

  Tx& tx_at(u32 tid);
  const Tx* tx_of(u32 tid) const;
  LineId line_of(const void* addr) const {
    return guest_->line_of(addr, config_.line_bytes);
  }
  u64 version_of(LineId line) const {
    const u64* v = versions_.find(line);
    return v != nullptr ? *v : 0;
  }
  void bump(LineId line) { versions_.at(line) = ++clock_; }
  bool marks_valid(const Tx& t);
  void rollback(u32 tid, StmAbortCause cause);
  [[noreturn]] void abort_self(u32 tid, StmAbortCause cause);

  StmConfig config_;
  const sim::GuestSpace* guest_;
  htm::HtmFacility* htm_;
  const u64* gil_word_ = nullptr;
  u64 clock_ = 0;
  sim::LineTable<u64> versions_;  ///< Line -> last commit that wrote it.
  std::vector<Tx> tx_;
  std::vector<StmAbortCause> last_cause_;
  u32 active_count_ = 0;
  StmStats stats_;
};

}  // namespace gilfree::stm
