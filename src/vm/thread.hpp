// VM threads ("green" within the deterministic simulation; each maps to a
// simulated hardware thread via the engine's scheduler, mirroring CRuby 1.9's
// 1:1 native threading).
//
// All interpreter state except the four registers lives in the thread's
// stack slab (control frames included), so a transaction rollback only needs
// to restore the registers — the slab's speculative writes are discarded with
// the redo log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/check.hpp"
#include "common/types.hpp"
#include "common/zero_pages.hpp"
#include "vm/host.hpp"
#include "vm/value.hpp"

namespace gilfree::vm {

struct ThreadRegs {
  i32 iseq = -1;
  u32 pc = 0;
  u64 fp = kNoFrame;
  u64 sp = 0;

  static constexpr u64 kNoFrame = ~u64{0};
};

/// Control-frame header layout (slot offsets from fp). Locals follow at
/// fp + kFrameHeaderSlots; the operand stack grows after the locals.
enum FrameSlot : u32 {
  kFrCallerFp = 0,
  kFrCallerPc = 1,
  kFrCallerIseq = 2,   ///< ~0 when returning ends the thread.
  kFrSpRestore = 3,    ///< Caller sp to restore on leave (pops recv + args).
  kFrSelf = 4,
  kFrEnvParent = 5,    ///< Lexical parent frame (blocks); ~0 for methods.
  kFrBlockIseq = 6,    ///< Block handler passed to this call; ~0 none.
  kFrBlockEnvFp = 7,
  kFrBlockSelf = 8,
  kFrFlags = 9,        ///< Bit 0: constructor frame (leave pushes self).
  kFrameHeaderSlots = 10,
};

constexpr u64 kFrameFlagConstructor = 1;

class VmThread {
 public:
  /// Stack storage is aligned to the worst-case cache-line size (zEC12,
  /// 256 B) so the number of lines a frame spans — and with it the
  /// transactional footprint the simulator counts — depends only on stack
  /// offsets, never on where the backing array was placed.
  static constexpr u64 kStackAlignSlots = 256 / sizeof(u64);

  /// The stack is zero pages (common/zero_pages.hpp): a thread's resident
  /// size follows the depth it actually uses rather than `stack_slots`.
  /// Page alignment subsumes the line alignment above.
  VmThread(u32 tid, u32 stack_slots) : tid_(tid), stack_(stack_slots) {
    GILFREE_CHECK(stack_slots >= 1024);
    GILFREE_CHECK(reinterpret_cast<std::uintptr_t>(stack_.get()) %
                      (kStackAlignSlots * 8) ==
                  0);
  }

  u32 tid() const { return tid_; }
  ThreadRegs& regs() { return regs_; }
  const ThreadRegs& regs() const { return regs_; }

  u64* stack_base() { return stack_.get(); }
  const u64* stack_base() const { return stack_.get(); }
  u32 stack_slots() const { return static_cast<u32>(stack_.size()); }

  u64* slot(u64 index) {
    GILFREE_CHECK_MSG(index < stack_.size(), "VM stack overflow");
    return &stack_[index];
  }

  bool finished() const { return finished_; }
  void finish(Value result) {
    finished_ = true;
    result_ = result;
  }
  /// Rolls back a finish that happened inside an aborted transaction.
  void clear_finished() {
    finished_ = false;
    result_ = Value::nil();
  }
  Value result() const { return result_; }

  /// Called by a blocking builtin instead of completing: the interpreter
  /// ends the span right after the send, and the engine takes the request.
  void request_park(const ParkRequest& pr) { park_ = pr; }
  bool park_requested() const { return park_.has_value(); }
  ParkRequest take_park() {
    const ParkRequest pr = *park_;
    park_.reset();
    return pr;
  }

  /// True when the span must end after the current instruction: the thread
  /// finished or a blocking builtin asked to park.
  bool span_stopped() const { return finished_ || park_.has_value(); }

  /// The thread's Thread object (roots it for GC; nil for the main thread
  /// until registered).
  Value thread_object = Value::nil();

  /// One-outstanding-I/O flag used by io_wait's two-phase (initiate → park →
  /// complete) protocol under park-and-re-execute.
  bool io_pending = false;

 private:
  u32 tid_;
  ZeroPages<u64> stack_;
  ThreadRegs regs_;
  bool finished_ = false;
  Value result_ = Value::nil();
  std::optional<ParkRequest> park_;
};

}  // namespace gilfree::vm
