// Tier-2 software transaction engine (docs/TIERS.md).
//
// Sits between HTM retry exhaustion and GIL acquisition in the engine's
// escalation path. Conflicts are detected the way the HTM model detects
// them, with visible readers and doom at publish:
//
//   * each live transaction owns one of kMaxLive slots; a sim::LineTable
//     over the guest line space (the same chunked, direct-indexed layout
//     the HTM facility's conflict metadata uses) keeps per-line reader and
//     writer masks over those slots, and a transaction's first touch of a
//     line is a test of its bit,
//   * stores go to a redo log (shared and private lines apart), so a
//     transaction never writes memory before it commits,
//   * every publish to a line — a GIL holder's store, an HTM commit
//     draining its redo log, another software commit — dooms every live
//     transaction holding that line. A doomed transaction is stopped at its
//     next load or store, before it can read anything else, and at commit.
//
// Commit therefore needs no validation walk: it checks the doom flag (and
// the GIL word under lazy subscription), releases its own bits, and
// publishes its log through the HTM facility's non-transactional store
// path, which dooms conflicting hardware transactions and re-enters this
// engine through MemWriteListener to doom the other software holders.
//
// Everything is deterministic: slots are handed out lowest-first, and logs
// publish in first-store order.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "gil/gil.hpp"
#include "htm/htm.hpp"
#include "htm/redo_log.hpp"
#include "sim/guest_space.hpp"
#include "sim/line_table.hpp"
#include "stm/abort_cause.hpp"
#include "stm/stm_config.hpp"
#include "stm/stm_stats.hpp"

namespace gilfree::stm {

class StmEngine : public htm::MemWriteListener, public gil::AcquireListener {
 public:
  /// Live transactions at once: one bit each in the per-line masks.
  static constexpr u32 kMaxLive = 64;

  /// `guest` (not owned) keys the line table; every address handed to the
  /// accessors must lie in one of its segments. `htm` may be null (unit
  /// tests): loads/stores then bypass the hardware conflict tracking and
  /// commit dooms other software holders directly. With a facility
  /// attached it must share `guest` and the line size, so both tiers use
  /// one line space.
  StmEngine(const StmConfig& config, const sim::GuestSpace* guest,
            htm::HtmFacility* htm);

  const StmConfig& config() const { return config_; }

  /// The slot holding GIL.acquired; wired by the engine once the heap
  /// exists. Required for lazy subscription's commit-time check.
  void set_gil_word(const u64* word) { gil_word_ = word; }

  /// False while all kMaxLive slots are live; begin() requires true.
  bool can_begin() const { return live_ != ~u64{0}; }

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
  /// bookkeeping) or an HTM commit published `addr`; every live software
  /// transaction holding its line is doomed with kValidation.
  void on_nontx_write(const u64* addr) override;

  /// gil::AcquireListener: eager subscription — the acquisition write
  /// dooms every live software transaction, exactly as if the GIL word
  /// were in each read set. Lazy subscription defers to commit.
  void on_gil_acquired() override;

  /// Cause of the most recent abort of `tid`'s transaction.
  StmAbortCause last_cause(u32 tid) const;

  /// Shared lines `tid`'s transaction read plus lines it wrote (a line
  /// both read and written counts twice), and its buffered stores.
  u32 held_line_count(u32 tid) const;
  u32 write_entry_count(u32 tid) const;

  const StmStats& stats() const { return stats_; }

 private:
  /// Per-line holder masks, one bit per live-transaction slot.
  struct Holders {
    u64 readers = 0;
    u64 writers = 0;
  };
  struct Tx {
    bool active = false;
    u32 slot = 0;
    StmAbortCause doom = StmAbortCause::kNone;
    /// Records whose mask carries this transaction's bit, in first-touch
    /// order.
    std::vector<Holders*> read_lines;
    std::vector<Holders*> write_lines;
    htm::RedoLog shared_writes;
    htm::RedoLog private_writes;
  };

  static u32 entry_count(const Tx& t) {
    return static_cast<u32>(t.shared_writes.entries().size() +
                            t.private_writes.entries().size());
  }
  Tx& tx_at(u32 tid);
  const Tx* tx_of(u32 tid) const;
  /// The live transaction of `tid`, stopped here if it is doomed.
  Tx& enter_access(u32 tid);
  void doom(u64 slots, StmAbortCause cause);
  void release(Tx& t);
  void rollback(u32 tid, StmAbortCause cause);
  [[noreturn]] void abort_self(u32 tid, StmAbortCause cause);

  StmConfig config_;
  htm::HtmFacility* htm_;
  const u64* gil_word_ = nullptr;
  sim::LineTable<Holders> lines_;
  std::vector<Tx> tx_;
  std::vector<StmAbortCause> last_cause_;
  u64 live_ = 0;  ///< Bit per slot held by a live transaction.
  std::array<u32, kMaxLive> slot_tid_{};
  StmStats stats_;
};

}  // namespace gilfree::stm
