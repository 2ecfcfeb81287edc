// The Giant VM Lock (§3.2), retained as the fallback path of the
// transactional lock elision (§4).
//
// The lock word lives in simulated memory on its own cache line; every
// transaction reads it right after TBEGIN (Fig. 1 line 15), so the
// non-transactional store performed by gil_acquire conflicts with — and
// thereby dooms — every speculating thread, which is exactly the TLE
// serialization semantics.
//
// Waiter parking/waking is engine policy; this class tracks ownership, the
// FIFO queue, and statistics.
#pragma once

#include <deque>

#include "common/types.hpp"
#include "gil/gil_stats.hpp"
#include "htm/htm.hpp"

namespace gilfree::gil {

/// Observes successful GIL acquisitions. The tier-2 software-transaction
/// engine registers here for eager GIL subscription: the acquisition write
/// dooms every live software transaction, as if the GIL word were in each
/// of their read sets (docs/TIERS.md).
class AcquireListener {
 public:
  virtual ~AcquireListener() = default;
  virtual void on_gil_acquired() = 0;
};

class Gil {
 public:
  /// `word` is the slot holding GIL.acquired; `htm` may be null (pure GIL
  /// engine) — then accesses are direct.
  Gil(u64* word, htm::HtmFacility* htm);

  /// Fast check, engine-side (no conflict side effects).
  bool is_acquired() const { return *word_ != 0; }

  i32 owner_tid() const { return owner_; }

  /// Attempts acquisition by `tid` on `cpu`. On success the store dooms all
  /// in-flight transactions (they all read the GIL word).
  bool try_acquire(CpuId cpu, u32 tid, Cycles now);

  /// Releases; the caller must be the owner. Returns the head waiter to wake
  /// (or -1).
  i32 release(CpuId cpu, u32 tid, Cycles now);

  /// FIFO wait queue management (engine parks/wakes the threads).
  void enqueue_waiter(u32 tid);
  bool is_waiting(u32 tid) const;
  void remove_waiter(u32 tid);
  i32 head_waiter() const;
  std::size_t num_waiters() const { return waiters_.size(); }

  /// Attaches an acquisition listener (not owned; null detaches).
  void set_acquire_listener(AcquireListener* listener) {
    acquire_listener_ = listener;
  }

  const GilStats& stats() const { return stats_; }
  void note_yield() { ++stats_.yields; }
  void reset_stats() { stats_ = GilStats{}; }

 private:
  u64* word_;
  htm::HtmFacility* htm_;
  AcquireListener* acquire_listener_ = nullptr;
  i32 owner_ = -1;
  Cycles acquired_at_ = 0;
  std::deque<u32> waiters_;
  GilStats stats_;
};

}  // namespace gilfree::gil
