// The bytecode interpreter. One call to step() executes one instruction of
// one VM thread; the engine owns the scheduling loop, yield points, and the
// GIL/TLE machinery around it.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "vm/bytecode.hpp"
#include "vm/class_registry.hpp"
#include "vm/heap.hpp"
#include "vm/host.hpp"
#include "vm/interp_stats.hpp"
#include "vm/objops.hpp"
#include "vm/options.hpp"
#include "vm/thread.hpp"
#include "vm/value.hpp"

namespace gilfree::vm {

/// Ruby-level error (NoMethodError, type errors...). Deterministic programs
/// either never raise or the harness treats it as a test failure.
class RubyError : public std::runtime_error {
 public:
  explicit RubyError(const std::string& what) : std::runtime_error(what) {}
};

class Interp;

/// Context handed to builtin (C-function) methods.
struct BuiltinCtx {
  Interp& interp;
  Host& host;
  Heap& heap;
  ClassRegistry& classes;
  const Program& program;
  VmThread& thread;
  Value self;
  Value* argv;
  u32 argc;
  /// Block literal attached to the call site (-1 = none); env_fp is the
  /// caller's frame, self the caller's self.
  i32 block_iseq;
  u64 block_env_fp;
  Value block_self;

  Value arg(u32 i) const;
  void need_args(u32 n) const;
};

/// Which instructions end an interpreter span: the engine runs its
/// yield-point logic between spans, so the mask must cover exactly the
/// instructions the current engine mode treats as yield points.
enum class YieldStop : u8 {
  kNone,      ///< Run until the burst budget is exhausted (free modes).
  kOriginal,  ///< Stop at back-branches / leave (GIL mode, §3.2).
  kAll,       ///< Stop at every yield point incl. the §4.2 extended set.
};

class Interp {
 public:
  Interp(Program* program, Heap* heap, ClassRegistry* classes, Host* host,
         const VmOptions& options);

  /// Materializes literals and builtin class objects, creates the main
  /// object. Must run before any step(); uses direct (pre-thread) stores.
  void boot();

  /// Entry frame for the top-level iseq (main thread).
  void init_main_frame(VmThread& t);

  /// Entry frame for a Proc (spawned threads). Args become block params.
  void init_proc_frame(VmThread& t, Value proc_val,
                       const std::vector<Value>& args);

  /// Executes a span of instructions of `t`: the current instruction
  /// unconditionally (the caller has already run yield-point logic for it),
  /// then further instructions until the next one matching `stop`, until
  /// `fuel` instructions have retired, or until the thread finishes. Charges
  /// dispatch + per-opcode cycles before each instruction. Throws
  /// htm::TxAbort and vm::ParkRequest (propagated from the Host, possibly
  /// mid-span) and RubyError.
  void run_span(VmThread& t, int& fuel, YieldStop stop);

  /// Executes exactly one instruction (a span with fuel 1).
  void step(VmThread& t) {
    int fuel = 1;
    run_span(t, fuel, YieldStop::kNone);
  }

  /// Instruction the thread will execute next.
  const Insn& current_insn(const VmThread& t) const;

  Value main_object() const { return main_object_; }
  Value literal_value(u32 index) const { return literal_values_.at(index); }
  const std::vector<Value>& literals() const { return literal_values_; }

  const VmOptions& options() const { return options_; }
  const InterpStats& stats() const { return stats_; }
  Program& program() { return *program_; }
  Heap& heap() { return *heap_; }
  ClassRegistry& classes() { return *classes_; }
  Host& host() { return *host_; }

  // --- helpers shared with builtins -----------------------------------------
  void push(VmThread& t, Value v);
  Value pop(VmThread& t);
  Value stack_at(VmThread& t, u64 index);

  /// Pushes a frame for a bytecode method call. Arguments (and, for method
  /// calls, the receiver below them) are on the stack; `args_below` is
  /// argc (+1 for the receiver).
  void push_frame(VmThread& t, i32 iseq_id, Value self, u64 env_parent,
                  i32 block_iseq, u64 block_env_fp, Value block_self,
                  u32 argc, u32 args_below, u64 flags);

  /// GC root ranges of one thread (stack up to sp).
  static std::pair<const u64*, std::size_t> root_range(const VmThread& t);

 private:
  void do_send(VmThread& t, const Insn& in);
  void do_invokeblock(VmThread& t, const Insn& in);
  void do_leave(VmThread& t);
  void do_opt_binary(VmThread& t, const Insn& in);
  void do_opt_aref(VmThread& t, const Insn& in);
  void do_opt_aset(VmThread& t, const Insn& in);
  void do_getivar(VmThread& t, const Insn& in);
  void do_setivar(VmThread& t, const Insn& in);
  void do_cvar(VmThread& t, const Insn& in, bool set);
  void do_define_class(VmThread& t, const Insn& in);
  void do_define_method(VmThread& t, const Insn& in);

  /// Generic call used by opt_ fallbacks; mid is looked up without an IC.
  void send_generic(VmThread& t, SymbolId mid, u32 argc, i32 block_iseq);
  void dispatch_method(VmThread& t, i32 method_index, Value recv, u32 argc,
                       i32 block_iseq, u64 flags);

  u64 frame_slot_addr(VmThread& t, u64 fp, u32 slot);
  u64 load_frame(VmThread& t, u64 fp, u32 slot);
  void store_frame(VmThread& t, u64 fp, u32 slot, u64 v);
  u64 env_fp_at_level(VmThread& t, u32 level);

  u32 ivar_resolve(VmThread& t, const Insn& in, Value recv, bool create);

  /// IC slab address; capacity was asserted once in boot(), so per-access
  /// slot derivation is a plain add (heap.ic_slot re-checks every call).
  u64* ic_slot_fast(i32 site, u32 word) const {
    return ic_base_ + u64{static_cast<u32>(site)} * 2 + word;
  }

  Program* program_;
  Heap* heap_;
  ClassRegistry* classes_;
  Host* host_;
  VmOptions options_;
  u64* ic_base_ = nullptr;

  std::vector<Value> literal_values_;
  Value main_object_ = Value::nil();
  InterpStats stats_;

  SymbolId sym_initialize_, sym_new_, sym_plus_, sym_minus_, sym_mult_,
      sym_div_, sym_mod_, sym_eq_, sym_lt_, sym_le_, sym_gt_, sym_ge_,
      sym_aref_, sym_aset_, sym_ltlt_, sym_length_, sym_call_;
};

}  // namespace gilfree::vm
