#include "vm/interp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gilfree::vm {

namespace {
constexpr u64 kNone64 = ~u64{0};

/// IC guard encoding: instance dispatch tags (class << 1), class-side
/// dispatch tags (payload << 1) | 1; stored value is guard + 1 so that an
/// empty cache word reads 0.
u64 method_guard(ClassId cls, bool class_side) {
  return (u64{cls} << 1) | (class_side ? 1 : 0);
}
}  // namespace

Value BuiltinCtx::arg(u32 i) const {
  GILFREE_CHECK_MSG(i < argc, "builtin missing argument " << i);
  return argv[i];
}

void BuiltinCtx::need_args(u32 n) const {
  if (argc != n)
    throw RubyError("wrong number of arguments (" + std::to_string(argc) +
                    " for " + std::to_string(n) + ")");
}

Interp::Interp(Program* program, Heap* heap, ClassRegistry* classes,
               Host* host, const VmOptions& options)
    : program_(program), heap_(heap), classes_(classes), host_(host),
      options_(options) {
  GILFREE_CHECK(program_ && heap_ && classes_ && host_);
  auto& sym = program_->symbols;
  sym_initialize_ = sym.intern("initialize");
  sym_new_ = sym.intern("new");
  sym_plus_ = sym.intern("+");
  sym_minus_ = sym.intern("-");
  sym_mult_ = sym.intern("*");
  sym_div_ = sym.intern("/");
  sym_mod_ = sym.intern("%");
  sym_eq_ = sym.intern("==");
  sym_lt_ = sym.intern("<");
  sym_le_ = sym.intern("<=");
  sym_gt_ = sym.intern(">");
  sym_ge_ = sym.intern(">=");
  sym_aref_ = sym.intern("[]");
  sym_aset_ = sym.intern("[]=");
  sym_ltlt_ = sym.intern("<<");
  sym_length_ = sym.intern("length");
  sym_call_ = sym.intern("call");
}

void Interp::boot() {
  // Capacity is asserted once here; the hot path then derives IC slot
  // addresses from the cached base without per-access bounds checks.
  heap_->ensure_ic_capacity(program_->num_ic_sites);
  ic_base_ = heap_->ic_base();

  // Class objects for the builtin classes.
  for (ClassId c = 0; c < classes_->num_classes(); ++c) {
    if (classes_->class_object(c).is_nil()) {
      classes_->set_class_object(c, heap_->new_class_object(*host_, c));
    }
  }
  // Publish already-registered classes (the builtins) under their constant
  // names so `Thread`, `Mutex`, `Math`... resolve.
  for (u32 i = 0; i < program_->constant_names.size(); ++i) {
    const ClassId cls = classes_->find_class(program_->constant_names[i]);
    if (cls != ClassRegistry::kInvalidClass) {
      host_->mem_store(heap_->constant_slot(i),
                       classes_->class_object(cls).bits(), true);
    }
  }

  // Literals.
  literal_values_.reserve(program_->literals.size());
  for (const Literal& lit : program_->literals) {
    switch (lit.kind) {
      case Literal::Kind::kInt:
        literal_values_.push_back(Value::fixnum(lit.ival));
        break;
      case Literal::Kind::kFloat:
        literal_values_.push_back(heap_->new_float(*host_, lit.fval));
        break;
      case Literal::Kind::kString:
        literal_values_.push_back(heap_->new_string(*host_, lit.sval));
        break;
      case Literal::Kind::kSymbol:
        literal_values_.push_back(
            Value::symbol(program_->symbols.intern(lit.sval)));
        break;
    }
  }

  main_object_ = heap_->new_object(*host_, kClassObject);
}

void Interp::init_main_frame(VmThread& t) {
  GILFREE_CHECK(program_->top_iseq >= 0);
  ThreadRegs& r = t.regs();
  r.iseq = program_->top_iseq;
  r.pc = 0;
  r.fp = 0;
  const ISeq& seq = program_->iseq(r.iseq);
  // Build the root frame directly (pre-scheduler).
  u64* s = t.stack_base();
  s[kFrCallerFp] = kNone64;
  s[kFrCallerPc] = 0;
  s[kFrCallerIseq] = kNone64;
  s[kFrSpRestore] = 0;
  s[kFrSelf] = main_object_.bits();
  s[kFrEnvParent] = kNone64;
  s[kFrBlockIseq] = kNone64;
  s[kFrBlockEnvFp] = kNone64;
  s[kFrBlockSelf] = Value::nil().bits();
  s[kFrFlags] = 0;
  for (u32 i = 0; i < seq.num_locals; ++i)
    s[kFrameHeaderSlots + i] = Value::nil().bits();
  r.sp = kFrameHeaderSlots + seq.num_locals;
}

void Interp::init_proc_frame(VmThread& t, Value proc_val,
                             const std::vector<Value>& args) {
  GILFREE_CHECK(proc_val.is_object() &&
                obj_type(*host_, proc_val.obj()) == ObjType::kProc);
  RBasic* proc = proc_val.obj();
  // Direct reads: thread creation happens outside transactions.
  const i32 iseq_id = static_cast<i32>(proc->slots[1]);
  const Value self = Value::from_bits(proc->slots[2]);
  const ISeq& seq = program_->iseq(iseq_id);

  ThreadRegs& r = t.regs();
  r.iseq = iseq_id;
  r.pc = 0;
  r.fp = 0;
  u64* s = t.stack_base();
  s[kFrCallerFp] = kNone64;
  s[kFrCallerPc] = 0;
  s[kFrCallerIseq] = kNone64;
  s[kFrSpRestore] = 0;
  s[kFrSelf] = self.bits();
  // Cross-thread lexical environments are not supported: the block body of
  // Thread.new must take its data through block parameters, as the Ruby NPB
  // does via Thread.new(i) { |tid| ... }.
  s[kFrEnvParent] = kNone64;
  s[kFrBlockIseq] = kNone64;
  s[kFrBlockEnvFp] = kNone64;
  s[kFrBlockSelf] = Value::nil().bits();
  s[kFrFlags] = 0;
  for (u32 i = 0; i < seq.num_locals; ++i) {
    s[kFrameHeaderSlots + i] =
        (i < args.size() ? args[i] : Value::nil()).bits();
  }
  r.sp = kFrameHeaderSlots + seq.num_locals;
}

const Insn& Interp::current_insn(const VmThread& t) const {
  const ThreadRegs& r = t.regs();
  return program_->iseq(r.iseq).insns.at(r.pc);
}

// --- stack helpers -----------------------------------------------------------

void Interp::push(VmThread& t, Value v) {
  ThreadRegs& r = t.regs();
  host_->priv_store(t.slot(r.sp), v.bits());
  ++r.sp;
}

Value Interp::pop(VmThread& t) {
  ThreadRegs& r = t.regs();
  GILFREE_CHECK(r.sp > 0);
  --r.sp;
  return Value::from_bits(host_->priv_load(t.slot(r.sp)));
}

Value Interp::stack_at(VmThread& t, u64 index) {
  return Value::from_bits(host_->priv_load(t.slot(index)));
}

u64 Interp::load_frame(VmThread& t, u64 fp, u32 slot) {
  return host_->priv_load(t.slot(fp + slot));
}

void Interp::store_frame(VmThread& t, u64 fp, u32 slot, u64 v) {
  host_->priv_store(t.slot(fp + slot), v);
}

u64 Interp::env_fp_at_level(VmThread& t, u32 level) {
  u64 fp = t.regs().fp;
  for (u32 i = 0; i < level; ++i) {
    fp = load_frame(t, fp, kFrEnvParent);
    GILFREE_CHECK_MSG(fp != kNone64, "broken lexical scope chain");
  }
  return fp;
}

void Interp::push_frame(VmThread& t, i32 iseq_id, Value self, u64 env_parent,
                        i32 block_iseq, u64 block_env_fp, Value block_self,
                        u32 argc, u32 args_below, u64 flags) {
  ThreadRegs& r = t.regs();
  const ISeq& seq = program_->iseq(iseq_id);
  const u64 new_fp = r.sp;
  GILFREE_CHECK_MSG(
      new_fp + kFrameHeaderSlots + seq.num_locals + 64 < t.stack_slots(),
      "VM stack overflow in " << seq.name);

  store_frame(t, new_fp, kFrCallerFp, r.fp);
  store_frame(t, new_fp, kFrCallerPc, r.pc);
  store_frame(t, new_fp, kFrCallerIseq, static_cast<u64>(r.iseq));
  store_frame(t, new_fp, kFrSpRestore, r.sp - args_below);
  store_frame(t, new_fp, kFrSelf, self.bits());
  store_frame(t, new_fp, kFrEnvParent, env_parent);
  store_frame(t, new_fp, kFrBlockIseq,
              block_iseq < 0 ? kNone64 : static_cast<u64>(block_iseq));
  store_frame(t, new_fp, kFrBlockEnvFp, block_env_fp);
  store_frame(t, new_fp, kFrBlockSelf, block_self.bits());
  store_frame(t, new_fp, kFrFlags, flags);

  // Parameters: copy from the argument area below sp.
  for (u32 i = 0; i < seq.num_locals; ++i) {
    u64 v;
    if (i < seq.num_params && i < argc) {
      v = host_->priv_load(t.slot(r.sp - argc + i));
    } else {
      v = Value::nil().bits();
    }
    store_frame(t, new_fp, kFrameHeaderSlots + i, v);
  }

  r.fp = new_fp;
  r.iseq = iseq_id;
  r.pc = 0;
  r.sp = new_fp + kFrameHeaderSlots + seq.num_locals;
}

void Interp::do_leave(VmThread& t) {
  ThreadRegs& r = t.regs();
  Value ret = pop(t);
  const u64 fp = r.fp;
  const u64 flags = load_frame(t, fp, kFrFlags);
  if (flags & kFrameFlagConstructor) {
    ret = Value::from_bits(load_frame(t, fp, kFrSelf));
  }
  const u64 caller_iseq = load_frame(t, fp, kFrCallerIseq);
  if (caller_iseq == kNone64) {
    t.finish(ret);
    return;
  }
  const u64 caller_fp = load_frame(t, fp, kFrCallerFp);
  const u64 caller_pc = load_frame(t, fp, kFrCallerPc);
  const u64 sp_restore = load_frame(t, fp, kFrSpRestore);
  r.iseq = static_cast<i32>(caller_iseq);
  r.pc = static_cast<u32>(caller_pc);
  r.fp = caller_fp;
  r.sp = sp_restore;
  push(t, ret);
}

// --- sends -------------------------------------------------------------------

void Interp::do_send(VmThread& t, const Insn& in) {
  ++stats_.sends;
  const auto mid = static_cast<SymbolId>(in.a);
  const auto argc = static_cast<u32>(in.b);
  const i32 blk = in.c;
  ThreadRegs& r = t.regs();
  const Value recv = stack_at(t, r.sp - argc - 1);

  // Proc#call pushes a bytecode frame directly (cannot be a builtin: it
  // must re-enter the interpreter).
  if (recv.is_object() && obj_type(*host_, recv.obj()) == ObjType::kProc &&
      mid == sym_call_) {
    RBasic* proc = recv.obj();
    const i32 piseq = static_cast<i32>(obj_load(*host_, proc, 1));
    const Value pself = obj_load_value(*host_, proc, 2);
    const u64 penv = obj_load(*host_, proc, 3);
    const u64 owner = obj_load(*host_, proc, 4);
    if (penv != kNone64 && owner != u64{t.tid()} + 1)
      throw RubyError("cannot call a Proc with a foreign stack environment");
    push_frame(t, piseq, pself, penv, -1, kNone64, Value::nil(), argc,
               argc + 1, 0);
    return;
  }

  bool class_side = false;
  ClassId dispatch_cls;
  if (recv.is_object() && obj_type(*host_, recv.obj()) == ObjType::kClass) {
    class_side = true;
    dispatch_cls =
        static_cast<ClassId>(obj_load(*host_, recv.obj(), 1));
  } else {
    dispatch_cls = classes_->class_of(*host_, recv);
  }
  const u64 guard = method_guard(dispatch_cls, class_side);

  // Inline cache (2 slots in the shared IC slab).
  i32 midx = -1;
  if (in.ic >= 0) {
    const u64 tag = host_->mem_load(ic_slot_fast(in.ic, 0), true);
    if (tag == guard + 1) {
      midx = static_cast<i32>(host_->mem_load(ic_slot_fast(in.ic, 1), true));
      ++stats_.ic_method_hits;
      host_->charge(2);
    }
  }
  if (midx < 0) {
    midx = class_side ? classes_->lookup_class_method(dispatch_cls, mid)
                      : classes_->lookup(dispatch_cls, mid);
    ++stats_.ic_method_misses;
    host_->charge(42);  // hash-table method search (§4.4)
    if (in.ic >= 0 && midx >= 0) {
      const u64 tag = host_->mem_load(ic_slot_fast(in.ic, 0), true);
      // §4.4 (d): HTM-friendly method caches are filled only when empty, so
      // polymorphic sites stop writing the shared cache line on every miss.
      if (!options_.htm_friendly_method_caches || tag == 0) {
        host_->mem_store(ic_slot_fast(in.ic, 0), guard + 1, true);
        host_->mem_store(ic_slot_fast(in.ic, 1), static_cast<u64>(midx),
                         true);
      }
    }
  }

  if (midx < 0) {
    if (class_side && mid == sym_new_) {
      // Generic constructor for user-defined classes.
      const Value obj = heap_->new_object(*host_, dispatch_cls);
      ++stats_.allocations;
      host_->mem_store(t.slot(r.sp - argc - 1), obj.bits(), false);
      const i32 init = classes_->lookup(dispatch_cls, sym_initialize_);
      if (init >= 0) {
        dispatch_method(t, init, obj, argc, blk, kFrameFlagConstructor);
      } else {
        r.sp -= argc + 1;
        push(t, obj);
      }
      return;
    }
    throw RubyError("undefined method '" + program_->symbols.name(mid) +
                    "' for " + classes_->class_name(dispatch_cls) +
                    (class_side ? " (class method)" : ""));
  }
  dispatch_method(t, midx, recv, argc, blk, 0);
}

void Interp::dispatch_method(VmThread& t, i32 method_index, Value recv,
                             u32 argc, i32 block_iseq, u64 flags) {
  const MethodInfo& m = classes_->method(method_index);
  ThreadRegs& r = t.regs();
  if (m.kind == MethodInfo::Kind::kBytecode) {
    const Value caller_self = Value::from_bits(load_frame(t, r.fp, kFrSelf));
    push_frame(t, m.iseq, recv, kNone64, block_iseq, r.fp, caller_self,
               argc, argc + 1, flags);
    return;
  }

  // Builtin (C function). Blocking builtins cannot run transactionally.
  if (m.blocking) host_->require_nontx();
  host_->charge(m.extra_cost > 0 ? m.extra_cost : 12);

  std::vector<Value> args(argc);
  for (u32 i = 0; i < argc; ++i)
    args[i] = stack_at(t, r.sp - argc + i);
  const Value caller_self = Value::from_bits(load_frame(t, r.fp, kFrSelf));
  BuiltinCtx ctx{*this,
                 *host_,
                 *heap_,
                 *classes_,
                 *program_,
                 t,
                 recv,
                 args.data(),
                 argc,
                 block_iseq,
                 r.fp,
                 caller_self};
  const Value result = m.fn(ctx);
  // A blocking builtin asked to park: the send stays incomplete (receiver
  // and arguments on the stack, nothing pushed) until it re-executes.
  if (t.park_requested()) return;
  r.sp -= argc + 1;
  push(t, result);
}

void Interp::send_generic(VmThread& t, SymbolId mid, u32 argc,
                          i32 block_iseq) {
  ThreadRegs& r = t.regs();
  const Value recv = stack_at(t, r.sp - argc - 1);
  const ClassId cls = classes_->class_of(*host_, recv);
  const i32 midx = classes_->lookup(cls, mid);
  host_->charge(42);
  if (midx < 0) {
    throw RubyError("undefined method '" + program_->symbols.name(mid) +
                    "' for " + classes_->class_name(cls));
  }
  dispatch_method(t, midx, recv, argc, block_iseq, 0);
}

void Interp::do_invokeblock(VmThread& t, const Insn& in) {
  const auto argc = static_cast<u32>(in.a);
  ThreadRegs& r = t.regs();
  const u64 blk_iseq = load_frame(t, r.fp, kFrBlockIseq);
  if (blk_iseq == kNone64) throw RubyError("no block given (yield)");
  const u64 blk_env = load_frame(t, r.fp, kFrBlockEnvFp);
  const Value blk_self = Value::from_bits(load_frame(t, r.fp, kFrBlockSelf));

  // The new block frame inherits the block of its lexical method frame, so
  // `yield` inside nested blocks reaches the method's block.
  i32 inherited_iseq = -1;
  u64 inherited_env = kNone64;
  Value inherited_self = Value::nil();
  if (blk_env != kNone64) {
    const u64 bi = load_frame(t, blk_env, kFrBlockIseq);
    inherited_iseq = bi == kNone64 ? -1 : static_cast<i32>(bi);
    inherited_env = load_frame(t, blk_env, kFrBlockEnvFp);
    inherited_self =
        Value::from_bits(load_frame(t, blk_env, kFrBlockSelf));
  }
  push_frame(t, static_cast<i32>(blk_iseq), blk_self, blk_env,
             inherited_iseq, inherited_env, inherited_self, argc, argc, 0);
}

// --- variables ---------------------------------------------------------------

u32 Interp::ivar_resolve(VmThread& t, const Insn& in, Value recv,
                         bool create) {
  (void)t;
  const auto name = static_cast<SymbolId>(in.a);
  const ClassId cls = classes_->class_of(*host_, recv);
  const u64 guard = options_.ivar_cache_table_guard
                        ? (u64{classes_->ivar_table_id(cls)} << 1) | 1
                        : u64{cls} << 1;
  if (in.ic >= 0) {
    const u64 tag = host_->mem_load(ic_slot_fast(in.ic, 0), true);
    if (tag == guard + 1) {
      ++stats_.ic_ivar_hits;
      host_->charge(2);
      return static_cast<u32>(
          host_->mem_load(ic_slot_fast(in.ic, 1), true));
    }
  }
  ++stats_.ic_ivar_misses;
  host_->charge(30);
  const u32 index = classes_->ivar_index(cls, name, create);
  if (in.ic >= 0 && index != ClassRegistry::kNoIvar) {
    // Ivar caches are refilled on every miss in both modes; the §4.4 change
    // is the guard, which makes misses rare.
    host_->mem_store(ic_slot_fast(in.ic, 0), guard + 1, true);
    host_->mem_store(ic_slot_fast(in.ic, 1), index, true);
  }
  return index;
}

void Interp::do_getivar(VmThread& t, const Insn& in) {
  const Value self = Value::from_bits(load_frame(t, t.regs().fp, kFrSelf));
  if (!self.is_object() || obj_type(*host_, self.obj()) != ObjType::kObject)
    throw RubyError("instance variables require a plain object receiver");
  const u32 index = ivar_resolve(t, in, self, /*create=*/false);
  if (index == ClassRegistry::kNoIvar) {
    push(t, Value::nil());
    return;
  }
  RBasic* o = self.obj();
  Value v;
  if (index < kInlineIvars) {
    v = obj_load_value(*host_, o, 1 + index);
  } else {
    const u64 spill = obj_load(*host_, o, 7);
    if (spill == 0 ||
        index - kInlineIvars >= Heap::spill_capacity_slots(spill)) {
      v = Value::undef();
    } else {
      v = Value::from_bits(
          host_->mem_load(&spill_ptr(spill)[index - kInlineIvars], true));
    }
  }
  push(t, v.is_undef() ? Value::nil() : v);
}

void Interp::do_setivar(VmThread& t, const Insn& in) {
  const Value self = Value::from_bits(load_frame(t, t.regs().fp, kFrSelf));
  if (!self.is_object() || obj_type(*host_, self.obj()) != ObjType::kObject)
    throw RubyError("instance variables require a plain object receiver");
  const Value v = pop(t);
  const u32 index = ivar_resolve(t, in, self, /*create=*/true);
  RBasic* o = self.obj();
  heap_->ref_barrier(*host_, o, v);
  if (index < kInlineIvars) {
    obj_store(*host_, o, 1 + index, v.bits());
    return;
  }
  const u32 spill_index = index - kInlineIvars;
  u64 spill = obj_load(*host_, o, 7);
  const u32 cap = spill ? Heap::spill_capacity_slots(spill) : 0;
  if (spill_index >= cap) {
    const u32 needed = std::max<u32>(cap * 2, spill_index + 1);
    const u64 new_spill = heap_->alloc_spill(*host_, needed);
    const u32 new_cap = Heap::spill_capacity_slots(new_spill);
    u64* nd = spill_ptr(new_spill);
    for (u32 i = 0; i < new_cap; ++i) {
      u64 old = Value::undef().bits();
      if (i < cap) old = host_->mem_load(&spill_ptr(spill)[i], true);
      host_->mem_store(&nd[i], old, true);
    }
    if (spill) heap_->free_spill(*host_, spill);
    obj_store(*host_, o, 7, new_spill);
    spill = new_spill;
  }
  host_->mem_store(&spill_ptr(spill)[spill_index], v.bits(), true);
}

void Interp::do_cvar(VmThread& t, const Insn& in, bool set) {
  const auto name = static_cast<SymbolId>(in.a);
  const Value self = Value::from_bits(load_frame(t, t.regs().fp, kFrSelf));
  ClassId cls;
  if (self.is_object() && obj_type(*host_, self.obj()) == ObjType::kClass) {
    cls = static_cast<ClassId>(obj_load(*host_, self.obj(), 1));
  } else {
    cls = classes_->class_of(*host_, self);
  }

  auto find_in = [&](ClassId c, u64& pair_addr) -> bool {
    RBasic* cobj = classes_->class_object(c).obj();
    const u64 spill = obj_load(*host_, cobj, 2);
    if (spill == 0) return false;
    const u64 count = obj_load(*host_, cobj, 3);
    u64* data = spill_ptr(spill);
    for (u64 i = 0; i < count; ++i) {
      if (host_->mem_load(&data[i * 2], true) == u64{name}) {
        pair_addr = reinterpret_cast<u64>(&data[i * 2 + 1]);
        return true;
      }
    }
    return false;
  };

  // Search the superclass chain (Ruby cvar semantics).
  ClassId c = cls;
  u64 value_addr = 0;
  bool found = false;
  for (;;) {
    if (find_in(c, value_addr)) {
      found = true;
      break;
    }
    if (c == kClassObject) break;
    c = classes_->superclass(c);
  }

  if (set) {
    const Value v = pop(t);
    if (found) {
      // The slot belongs to class `c`'s cvar table (possibly a superclass).
      heap_->ref_barrier(*host_, classes_->class_object(c).obj(), v);
      host_->mem_store(reinterpret_cast<u64*>(value_addr), v.bits(), true);
      return;
    }
    // Append to this class's cvar table (growing its spill).
    RBasic* cobj = classes_->class_object(cls).obj();
    heap_->ref_barrier(*host_, cobj, v);
    u64 spill = obj_load(*host_, cobj, 2);
    const u64 count = obj_load(*host_, cobj, 3);
    const u32 cap_pairs =
        spill ? Heap::spill_capacity_slots(spill) / 2 : 0;
    if (count >= cap_pairs) {
      const u32 needed = std::max<u32>(8, cap_pairs * 4);
      const u64 ns = heap_->alloc_spill(*host_, needed * 2);
      u64* nd = spill_ptr(ns);
      for (u64 i = 0; i < count * 2; ++i)
        host_->mem_store(&nd[i], host_->mem_load(&spill_ptr(spill)[i], true),
                         true);
      if (spill) heap_->free_spill(*host_, spill);
      obj_store(*host_, cobj, 2, ns);
      spill = ns;
    }
    u64* data = spill_ptr(spill);
    host_->mem_store(&data[count * 2], name, true);
    host_->mem_store(&data[count * 2 + 1], v.bits(), true);
    obj_store(*host_, cobj, 3, count + 1);
    return;
  }

  if (!found)
    throw RubyError("uninitialized class variable @@" +
                    program_->symbols.name(name));
  push(t, Value::from_bits(
              host_->mem_load(reinterpret_cast<u64*>(value_addr), true)));
}

// --- definitions -------------------------------------------------------------

void Interp::do_define_class(VmThread& t, const Insn& in) {
  const u32 const_idx = static_cast<u32>(in.a);
  const SymbolId name = program_->constant_names.at(const_idx);
  ClassId super = kClassObject;
  if (in.c >= 0) {
    const Value sup =
        Value::from_bits(host_->mem_load(heap_->constant_slot(in.c), true));
    if (!sup.is_object() || obj_type(*host_, sup.obj()) != ObjType::kClass)
      throw RubyError("superclass must be a Class");
    super = static_cast<ClassId>(obj_load(*host_, sup.obj(), 1));
  }
  const ClassId cls = classes_->define_class(name, super);
  Value cobj = classes_->class_object(cls);
  if (cobj.is_nil()) {
    cobj = heap_->new_class_object(*host_, cls);
    classes_->set_class_object(cls, cobj);
  }
  host_->mem_store(heap_->constant_slot(const_idx), cobj.bits(), true);
  // Execute the class body with self = the class object.
  push_frame(t, in.b, cobj, kNone64, -1, kNone64, Value::nil(), 0, 0, 0);
}

void Interp::do_define_method(VmThread& t, const Insn& in) {
  const auto mid = static_cast<SymbolId>(in.a);
  const Value self = Value::from_bits(load_frame(t, t.regs().fp, kFrSelf));
  ClassId target = kClassObject;
  if (self.is_object() && obj_type(*host_, self.obj()) == ObjType::kClass)
    target = static_cast<ClassId>(obj_load(*host_, self.obj(), 1));

  MethodInfo m;
  m.name = mid;
  m.kind = MethodInfo::Kind::kBytecode;
  m.iseq = in.b;
  if (in.c == 1) {
    classes_->define_class_method(target, m);
  } else {
    classes_->define_method(target, m);
  }
  host_->charge(60);
}

// --- operators ---------------------------------------------------------------

namespace {
bool both_fixnum(Value a, Value b) { return a.is_fixnum() && b.is_fixnum(); }

i64 floor_div(i64 a, i64 b) {
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

i64 floor_mod(i64 a, i64 b) { return a - floor_div(a, b) * b; }
}  // namespace

void Interp::do_opt_binary(VmThread& t, const Insn& in) {
  ThreadRegs& r = t.regs();
  const Value b = stack_at(t, r.sp - 1);
  const Value a = stack_at(t, r.sp - 2);
  const Op op = in.op;

  // Fixnum fast paths (the reason these opt_ instructions exist).
  if (both_fixnum(a, b)) {
    const i64 x = a.fixnum_val();
    const i64 y = b.fixnum_val();
    r.sp -= 2;
    switch (op) {
      case Op::kOptPlus: {
        i64 s;
        if (__builtin_add_overflow(x, y, &s) || !Value::fixnum_fits(s))
          throw RubyError("Fixnum overflow (Bignum unsupported)");
        push(t, Value::fixnum(s));
        return;
      }
      case Op::kOptMinus: {
        i64 s;
        if (__builtin_sub_overflow(x, y, &s) || !Value::fixnum_fits(s))
          throw RubyError("Fixnum overflow (Bignum unsupported)");
        push(t, Value::fixnum(s));
        return;
      }
      case Op::kOptMult: {
        i64 s;
        if (__builtin_mul_overflow(x, y, &s) || !Value::fixnum_fits(s))
          throw RubyError("Fixnum overflow (Bignum unsupported)");
        push(t, Value::fixnum(s));
        return;
      }
      case Op::kOptDiv:
        if (y == 0) throw RubyError("divided by 0");
        push(t, Value::fixnum(floor_div(x, y)));
        return;
      case Op::kOptMod:
        if (y == 0) throw RubyError("divided by 0");
        push(t, Value::fixnum(floor_mod(x, y)));
        return;
      case Op::kOptLt: push(t, Value::boolean(x < y)); return;
      case Op::kOptLe: push(t, Value::boolean(x <= y)); return;
      case Op::kOptGt: push(t, Value::boolean(x > y)); return;
      case Op::kOptGe: push(t, Value::boolean(x >= y)); return;
      case Op::kOptEq: push(t, Value::boolean(x == y)); return;
      case Op::kOptNeq: push(t, Value::boolean(x != y)); return;
      default: break;
    }
    GILFREE_CHECK(false);
  }

  // Equality is fully generic.
  if (op == Op::kOptEq || op == Op::kOptNeq) {
    r.sp -= 2;
    const bool eq = objops::value_eq(*host_, a, b);
    push(t, Value::boolean(op == Op::kOptEq ? eq : !eq));
    return;
  }

  // Float paths (allocating — every float result is a heap object in
  // CRuby 1.9, which drives the allocation-conflict story).
  const bool a_num = a.is_fixnum() || objops::value_is_float(*host_, a);
  const bool b_num = b.is_fixnum() || objops::value_is_float(*host_, b);
  if (a_num && b_num) {
    const double x = objops::value_to_double(*host_, a);
    const double y = objops::value_to_double(*host_, b);
    r.sp -= 2;
    switch (op) {
      case Op::kOptPlus: push(t, heap_->new_float(*host_, x + y)); break;
      case Op::kOptMinus: push(t, heap_->new_float(*host_, x - y)); break;
      case Op::kOptMult: push(t, heap_->new_float(*host_, x * y)); break;
      case Op::kOptDiv: push(t, heap_->new_float(*host_, x / y)); break;
      case Op::kOptMod:
        push(t, heap_->new_float(*host_, std::fmod(x, y)));
        break;
      case Op::kOptLt: push(t, Value::boolean(x < y)); return;
      case Op::kOptLe: push(t, Value::boolean(x <= y)); return;
      case Op::kOptGt: push(t, Value::boolean(x > y)); return;
      case Op::kOptGe: push(t, Value::boolean(x >= y)); return;
      default: GILFREE_CHECK(false);
    }
    ++stats_.allocations;
    return;
  }

  // String concatenation / comparison.
  if (a.is_object() && obj_type(*host_, a.obj()) == ObjType::kString &&
      b.is_object() && obj_type(*host_, b.obj()) == ObjType::kString) {
    if (op == Op::kOptPlus) {
      r.sp -= 2;
      push(t, objops::string_concat_new(*host_, *heap_, a.obj(), b.obj()));
      ++stats_.allocations;
      return;
    }
  }

  // Fall back to a real method dispatch (user-defined operators).
  SymbolId mid;
  switch (op) {
    case Op::kOptPlus: mid = sym_plus_; break;
    case Op::kOptMinus: mid = sym_minus_; break;
    case Op::kOptMult: mid = sym_mult_; break;
    case Op::kOptDiv: mid = sym_div_; break;
    case Op::kOptMod: mid = sym_mod_; break;
    case Op::kOptLt: mid = sym_lt_; break;
    case Op::kOptLe: mid = sym_le_; break;
    case Op::kOptGt: mid = sym_gt_; break;
    case Op::kOptGe: mid = sym_ge_; break;
    default:
      throw RubyError(std::string("unsupported operand types for ") +
                      std::string(op_name(op)));
  }
  send_generic(t, mid, 1, -1);
}

void Interp::do_opt_aref(VmThread& t, const Insn& in) {
  (void)in;
  ThreadRegs& r = t.regs();
  const Value idx = stack_at(t, r.sp - 1);
  const Value recv = stack_at(t, r.sp - 2);
  if (recv.is_object()) {
    RBasic* o = recv.obj();
    if (obj_type(*host_, o) == ObjType::kArray && idx.is_fixnum()) {
      r.sp -= 2;
      push(t, objops::array_get(*host_, o, idx.fixnum_val()));
      return;
    }
    if (obj_type(*host_, o) == ObjType::kHash) {
      r.sp -= 2;
      push(t, objops::hash_get(*host_, o, idx));
      return;
    }
    if (obj_type(*host_, o) == ObjType::kString && idx.is_fixnum()) {
      r.sp -= 2;
      push(t, objops::string_slice(*host_, *heap_, o, idx.fixnum_val(), 1));
      return;
    }
  }
  send_generic(t, sym_aref_, 1, -1);
}

void Interp::do_opt_aset(VmThread& t, const Insn& in) {
  (void)in;
  ThreadRegs& r = t.regs();
  const Value val = stack_at(t, r.sp - 1);
  const Value idx = stack_at(t, r.sp - 2);
  const Value recv = stack_at(t, r.sp - 3);
  if (recv.is_object()) {
    RBasic* o = recv.obj();
    if (obj_type(*host_, o) == ObjType::kArray && idx.is_fixnum()) {
      r.sp -= 3;
      objops::array_set(*host_, *heap_, o, idx.fixnum_val(), val);
      push(t, val);  // a[i] = v evaluates to v
      return;
    }
    if (obj_type(*host_, o) == ObjType::kHash) {
      r.sp -= 3;
      objops::hash_set(*host_, *heap_, o, idx, val);
      push(t, val);
      return;
    }
  }
  send_generic(t, sym_aset_, 2, -1);
}

// --- main dispatch ------------------------------------------------------------

namespace {
#define GILFREE_OP_ENUM_ENTRY(Name) Op::k##Name,
constexpr Op kOpOrder[] = {GILFREE_FOR_EACH_OP(GILFREE_OP_ENUM_ENTRY)};
#undef GILFREE_OP_ENUM_ENTRY
static_assert(sizeof(kOpOrder) / sizeof(kOpOrder[0]) == kNumOps,
              "GILFREE_FOR_EACH_OP must list every opcode exactly once");
static_assert(
    [] {
      for (std::size_t i = 0; i < kNumOps; ++i)
        if (static_cast<std::size_t>(kOpOrder[i]) != i) return false;
      return true;
    }(),
    "GILFREE_FOR_EACH_OP must list opcodes in enum order");

/// True when `in` ends a span under `stop`: the engine must run its
/// yield-point logic before this instruction executes.
inline bool yield_relevant(const Insn& in, YieldStop stop) {
  if (in.yp < 0) return false;
  if (stop == YieldStop::kAll) return true;
  return stop == YieldStop::kOriginal && !is_extended_yield_op(in.op);
}
}  // namespace

// Direct-threaded dispatch (computed goto, a GCC/Clang extension): the
// opcode bodies live in one switch with a label attached to each case, and
// every instruction jumps straight to its body through a label table
// indexed by opcode (`break` still exits the switch normally).
#define GILFREE_OPC(Name) case Op::k##Name: L_##Name:

void Interp::run_span(VmThread& t, int& fuel, YieldStop stop) {
  GILFREE_CHECK(!t.span_stopped());
  ThreadRegs& r = t.regs();
  const bool fuse = options_.fuse_superinsns;
#define GILFREE_LABEL_ENTRY(Name) &&L_##Name,
  static const void* const kLabels[] = {
      GILFREE_FOR_EACH_OP(GILFREE_LABEL_ENTRY)};
#undef GILFREE_LABEL_ENTRY
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumOps);

  const Insn* in = nullptr;
  i32 tail_iseq = -1;
  u32 tail_pc = 0;
  bool first = true;
  for (;;) {
    const ISeq& seq = program_->iseqs[static_cast<u32>(r.iseq)];
    GILFREE_CHECK_MSG(r.pc < seq.insns.size(),
                      "pc out of range in " << seq.name);
    in = &seq.insns[r.pc];
    // A yield point ends the span unless the host handles it in place
    // (inside a hardware transaction, when only the counter needs work).
    if (!first && yield_relevant(*in, stop) && !host_->span_yield(fuel))
      return;
    first = false;

    // Superinstruction pair: execute head and tail back to back, skipping
    // one dispatch-loop round trip. Declined when the tail is
    // yield-relevant in this stop mode (fusion never moves a yield point)
    // or when the burst budget cannot cover both instructions.
    tail_iseq = -1;
    if (fuse && in->fuse != 0 && fuel >= 2 &&
        !yield_relevant(seq.insns[r.pc + 1], stop)) {
      tail_iseq = r.iseq;
      tail_pc = r.pc + 1;
    }

  exec_one:
    host_->charge_fast(host_->fast.dispatch_cost + op_extra_cost(in->op));
    ++r.pc;  // Default fallthrough; control-flow ops overwrite.
    ++stats_.insns_retired;
    --fuel;
    goto* kLabels[static_cast<u8>(in->op)];
    switch (in->op) {
      GILFREE_OPC(Nop)
        break;
      GILFREE_OPC(PutNil)
        push(t, Value::nil());
        break;
      GILFREE_OPC(PutTrue)
        push(t, Value::true_v());
        break;
      GILFREE_OPC(PutFalse)
        push(t, Value::false_v());
        break;
      GILFREE_OPC(PutSelf)
        push(t, Value::from_bits(load_frame(t, r.fp, kFrSelf)));
        break;
      GILFREE_OPC(PutObject)
        push(t, literal_values_.at(static_cast<u32>(in->a)));
        break;
      GILFREE_OPC(PutString) {
        // CRuby's putstring duplicates the literal: one allocation per
        // execution.
        const Value lit = literal_values_.at(static_cast<u32>(in->a));
        const std::string s = objops::string_to_cpp(*host_, lit.obj());
        push(t, heap_->new_string(*host_, s));
        ++stats_.allocations;
        break;
      }
      GILFREE_OPC(NewArray) {
        const auto n = static_cast<u32>(in->a);
        const Value arr = heap_->new_array(*host_, std::max<u32>(4, n));
        ++stats_.allocations;
        for (u32 i = 0; i < n; ++i) {
          const Value v = stack_at(t, r.sp - n + i);
          objops::array_push(*host_, *heap_, arr.obj(), v);
        }
        r.sp -= n;
        push(t, arr);
        break;
      }
      GILFREE_OPC(NewHash) {
        const auto n = static_cast<u32>(in->a);  // 2 * pairs
        const Value h = heap_->new_hash(*host_);
        ++stats_.allocations;
        for (u32 i = 0; i < n; i += 2) {
          const Value k = stack_at(t, r.sp - n + i);
          const Value v = stack_at(t, r.sp - n + i + 1);
          objops::hash_set(*host_, *heap_, h.obj(), k, v);
        }
        r.sp -= n;
        push(t, h);
        break;
      }
      GILFREE_OPC(NewRange) {
        const Value hi = pop(t);
        const Value lo = pop(t);
        push(t, heap_->new_range(*host_, lo, hi, in->a != 0));
        ++stats_.allocations;
        break;
      }
      GILFREE_OPC(Pop)
        (void)pop(t);
        break;
      GILFREE_OPC(Dup) {
        const Value v = stack_at(t, r.sp - 1);
        push(t, v);
        break;
      }
      GILFREE_OPC(GetLocal) {
        const u64 fp = env_fp_at_level(t, static_cast<u32>(in->b));
        push(t, Value::from_bits(
                    load_frame(t, fp, kFrameHeaderSlots +
                                          static_cast<u32>(in->a))));
        break;
      }
      GILFREE_OPC(SetLocal) {
        const Value v = pop(t);
        const u64 fp = env_fp_at_level(t, static_cast<u32>(in->b));
        store_frame(t, fp, kFrameHeaderSlots + static_cast<u32>(in->a),
                    v.bits());
        break;
      }
      GILFREE_OPC(GetIvar)
        do_getivar(t, *in);
        break;
      GILFREE_OPC(SetIvar)
        do_setivar(t, *in);
        break;
      GILFREE_OPC(GetCvar)
        do_cvar(t, *in, /*set=*/false);
        break;
      GILFREE_OPC(SetCvar)
        do_cvar(t, *in, /*set=*/true);
        break;
      GILFREE_OPC(GetGlobal)
        push(t, Value::from_bits(host_->mem_load(
                    heap_->global_var_slot(static_cast<u32>(in->a)), true)));
        break;
      GILFREE_OPC(SetGlobal) {
        const Value v = pop(t);
        host_->mem_store(heap_->global_var_slot(static_cast<u32>(in->a)),
                         v.bits(), true);
        break;
      }
      GILFREE_OPC(GetConst) {
        const Value v = Value::from_bits(host_->mem_load(
            heap_->constant_slot(static_cast<u32>(in->a)), true));
        if (v.is_undef())
          throw RubyError("uninitialized constant " +
                          program_->symbols.name(
                              program_->constant_names.at(
                                  static_cast<u32>(in->a))));
        push(t, v);
        break;
      }
      GILFREE_OPC(SetConst) {
        const Value v = pop(t);
        host_->mem_store(heap_->constant_slot(static_cast<u32>(in->a)),
                         v.bits(), true);
        break;
      }
      GILFREE_OPC(Send)
        do_send(t, *in);
        break;
      GILFREE_OPC(InvokeBlock)
        do_invokeblock(t, *in);
        break;
      GILFREE_OPC(Leave)
        do_leave(t);
        break;
      GILFREE_OPC(Jump)
        r.pc = static_cast<u32>(in->a);
        break;
      GILFREE_OPC(BranchIf) {
        const Value v = pop(t);
        if (v.truthy()) r.pc = static_cast<u32>(in->a);
        break;
      }
      GILFREE_OPC(BranchUnless) {
        const Value v = pop(t);
        if (!v.truthy()) r.pc = static_cast<u32>(in->a);
        break;
      }
      GILFREE_OPC(DefineMethod)
        do_define_method(t, *in);
        break;
      GILFREE_OPC(DefineClass)
        do_define_class(t, *in);
        break;
      GILFREE_OPC(OptPlus)
      GILFREE_OPC(OptMinus)
      GILFREE_OPC(OptMult)
      GILFREE_OPC(OptDiv)
      GILFREE_OPC(OptMod)
      GILFREE_OPC(OptEq)
      GILFREE_OPC(OptNeq)
      GILFREE_OPC(OptLt)
      GILFREE_OPC(OptLe)
      GILFREE_OPC(OptGt)
      GILFREE_OPC(OptGe)
        do_opt_binary(t, *in);
        break;
      GILFREE_OPC(OptUMinus) {
        const Value a = pop(t);
        if (a.is_fixnum()) {
          push(t, Value::fixnum(-a.fixnum_val()));
        } else if (objops::value_is_float(*host_, a)) {
          push(t, heap_->new_float(*host_,
                                   -objops::value_to_double(*host_, a)));
          ++stats_.allocations;
        } else {
          throw RubyError("unary minus on non-numeric value");
        }
        break;
      }
      GILFREE_OPC(OptNot) {
        const Value a = pop(t);
        push(t, Value::boolean(!a.truthy()));
        break;
      }
      GILFREE_OPC(OptAref)
        do_opt_aref(t, *in);
        break;
      GILFREE_OPC(OptAset)
        do_opt_aset(t, *in);
        break;
      GILFREE_OPC(OptLtLt) {
        const Value v = stack_at(t, r.sp - 1);
        const Value recv = stack_at(t, r.sp - 2);
        if (recv.is_object() &&
            obj_type(*host_, recv.obj()) == ObjType::kArray) {
          r.sp -= 2;
          objops::array_push(*host_, *heap_, recv.obj(), v);
          push(t, recv);  // a << v evaluates to a (chaining)
          break;
        }
        if (recv.is_object() &&
            obj_type(*host_, recv.obj()) == ObjType::kString &&
            v.is_object() && obj_type(*host_, v.obj()) == ObjType::kString) {
          r.sp -= 2;
          objops::string_append(*host_, *heap_, recv.obj(), v.obj());
          push(t, recv);
          break;
        }
        send_generic(t, sym_ltlt_, 1, -1);
        break;
      }
      GILFREE_OPC(OptLength) {
        const Value recv = stack_at(t, r.sp - 1);
        if (recv.is_object()) {
          RBasic* o = recv.obj();
          if (obj_type(*host_, o) == ObjType::kArray) {
            r.sp -= 1;
            push(t, Value::fixnum(objops::array_len(*host_, o)));
            break;
          }
          if (obj_type(*host_, o) == ObjType::kString) {
            r.sp -= 1;
            push(t, Value::fixnum(objops::string_len(*host_, o)));
            break;
          }
          if (obj_type(*host_, o) == ObjType::kHash) {
            r.sp -= 1;
            push(t, Value::fixnum(objops::hash_size(*host_, o)));
            break;
          }
        }
        send_generic(t, sym_length_, 0, -1);
        break;
      }
      case Op::kMaxOp:
        GILFREE_CHECK(false);
    }

    if (t.span_stopped()) return;
    if (tail_iseq >= 0) {
      // The head may have grown a frame instead of completing in place (an
      // opt_ fallback dispatching a bytecode method); fuse only when
      // control actually reached the annotated tail.
      if (r.iseq == tail_iseq && r.pc == tail_pc) {
        ++stats_.fused_instructions;
        tail_iseq = -1;
        in = &program_->iseqs[static_cast<u32>(r.iseq)].insns[r.pc];
        goto exec_one;
      }
      tail_iseq = -1;
    }
    if (fuel <= 0) return;
  }
}
#undef GILFREE_OPC

std::pair<const u64*, std::size_t> Interp::root_range(const VmThread& t) {
  return {t.stack_base(), t.regs().sp};
}

}  // namespace gilfree::vm
