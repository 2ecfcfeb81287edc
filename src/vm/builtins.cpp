#include "vm/builtins.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "vm/heap.hpp"
#include "vm/interp.hpp"
#include "vm/objops.hpp"

namespace gilfree::vm {

namespace {

RBasic* as_type(BuiltinCtx& c, Value v, ObjType t, const char* what) {
  if (!v.is_object() || obj_type(c.host, v.obj()) != t)
    throw RubyError(std::string("expected ") + what);
  return v.obj();
}

i64 as_fixnum(Value v, const char* what) {
  if (!v.is_fixnum())
    throw RubyError(std::string("expected Integer for ") + what);
  return v.fixnum_val();
}

double as_number(BuiltinCtx& c, Value v) {
  return objops::value_to_double(c.host, v);
}

/// Leaves the send incomplete: the engine parks the caller and re-executes
/// the send on waking. The returned value is never pushed.
Value park(BuiltinCtx& c, const ParkRequest& pr) {
  c.thread.request_park(pr);
  return Value::nil();
}

// --- Kernel -------------------------------------------------------------------

Value bi_puts(BuiltinCtx& c) {
  // Blocking (writev under the GIL); direct reads are safe here.
  if (c.argc == 0) {
    c.host.write_stdout("\n");
    return Value::nil();
  }
  for (u32 i = 0; i < c.argc; ++i) {
    c.host.write_stdout(objops::value_inspect_direct(c.arg(i)));
    c.host.write_stdout("\n");
  }
  return Value::nil();
}

Value bi_print(BuiltinCtx& c) {
  for (u32 i = 0; i < c.argc; ++i)
    c.host.write_stdout(objops::value_inspect_direct(c.arg(i)));
  return Value::nil();
}

Value bi_rand(BuiltinCtx& c) {
  if (c.argc == 0) {
    const double d =
        static_cast<double>(c.host.random_u64() >> 11) * 0x1.0p-53;
    return c.heap.new_float(c.host, d);
  }
  const i64 n = as_fixnum(c.arg(0), "rand bound");
  if (n <= 0) throw RubyError("rand bound must be positive");
  return Value::fixnum(static_cast<i64>(c.host.random_u64() %
                                        static_cast<u64>(n)));
}

Value bi_block_given(BuiltinCtx& c) {
  // The caller's frame holds the block handler of the enclosing method call.
  const u64* slot = c.thread.slot(c.block_env_fp + kFrBlockIseq);
  const u64 blk = c.host.mem_load(slot, false);
  return Value::boolean(blk != ~u64{0});
}

// --- Numerics -----------------------------------------------------------------

Value bi_int_to_f(BuiltinCtx& c) {
  return c.heap.new_float(c.host, static_cast<double>(
                                      as_fixnum(c.self, "receiver")));
}
Value bi_int_to_i(BuiltinCtx& c) { return c.self; }
Value bi_int_abs(BuiltinCtx& c) {
  return Value::fixnum(std::abs(as_fixnum(c.self, "receiver")));
}
Value bi_int_to_s(BuiltinCtx& c) {
  return c.heap.new_string(c.host,
                           std::to_string(as_fixnum(c.self, "receiver")));
}

Value bi_float_to_i(BuiltinCtx& c) {
  return Value::fixnum(static_cast<i64>(as_number(c, c.self)));
}
Value bi_float_to_f(BuiltinCtx& c) { return c.self; }
Value bi_float_abs(BuiltinCtx& c) {
  return c.heap.new_float(c.host, std::fabs(as_number(c, c.self)));
}
Value bi_float_floor(BuiltinCtx& c) {
  return Value::fixnum(static_cast<i64>(std::floor(as_number(c, c.self))));
}
Value bi_float_to_s(BuiltinCtx& c) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", as_number(c, c.self));
  return c.heap.new_string(c.host, buf);
}

Value bi_math_sqrt(BuiltinCtx& c) {
  c.need_args(1);
  return c.heap.new_float(c.host, std::sqrt(as_number(c, c.arg(0))));
}
Value bi_math_sin(BuiltinCtx& c) {
  c.need_args(1);
  return c.heap.new_float(c.host, std::sin(as_number(c, c.arg(0))));
}
Value bi_math_cos(BuiltinCtx& c) {
  c.need_args(1);
  return c.heap.new_float(c.host, std::cos(as_number(c, c.arg(0))));
}
Value bi_math_exp(BuiltinCtx& c) {
  c.need_args(1);
  return c.heap.new_float(c.host, std::exp(as_number(c, c.arg(0))));
}
Value bi_math_log(BuiltinCtx& c) {
  c.need_args(1);
  return c.heap.new_float(c.host, std::log(as_number(c, c.arg(0))));
}
Value bi_math_pow(BuiltinCtx& c) {
  c.need_args(2);
  return c.heap.new_float(
      c.host, std::pow(as_number(c, c.arg(0)), as_number(c, c.arg(1))));
}

// --- String -------------------------------------------------------------------

Value bi_str_length(BuiltinCtx& c) {
  return Value::fixnum(objops::string_len(
      c.host, as_type(c, c.self, ObjType::kString, "String")));
}
Value bi_str_to_i(BuiltinCtx& c) {
  return Value::fixnum(objops::string_to_i(
      c.host, as_type(c, c.self, ObjType::kString, "String")));
}
Value bi_str_index(BuiltinCtx& c) {
  RBasic* s = as_type(c, c.self, ObjType::kString, "String");
  RBasic* needle = as_type(c, c.arg(0), ObjType::kString, "String needle");
  const i64 from = c.argc >= 2 ? as_fixnum(c.arg(1), "index start") : 0;
  const i64 at = objops::string_index(c.host, s, needle, from);
  return at < 0 ? Value::nil() : Value::fixnum(at);
}
Value bi_str_slice(BuiltinCtx& c) {
  RBasic* s = as_type(c, c.self, ObjType::kString, "String");
  const i64 start = as_fixnum(c.arg(0), "slice start");
  const i64 len = c.argc >= 2 ? as_fixnum(c.arg(1), "slice length") : 1;
  return objops::string_slice(c.host, c.heap, s, start, len);
}
Value bi_str_dup(BuiltinCtx& c) {
  RBasic* s = as_type(c, c.self, ObjType::kString, "String");
  return c.heap.new_string(c.host, objops::string_to_cpp(c.host, s));
}
Value bi_str_empty(BuiltinCtx& c) {
  return Value::boolean(objops::string_len(c.host,
                                           as_type(c, c.self, ObjType::kString,
                                                   "String")) == 0);
}

// --- Array / Hash ---------------------------------------------------------------

Value bi_array_new(BuiltinCtx& c) {
  const i64 n = c.argc >= 1 ? as_fixnum(c.arg(0), "Array.new size") : 0;
  const Value fill = c.argc >= 2 ? c.arg(1) : Value::nil();
  const Value arr = c.heap.new_array(c.host, static_cast<u32>(n));
  RBasic* a = arr.obj();
  for (i64 i = 0; i < n; ++i)
    objops::array_set(c.host, c.heap, a, i, fill);
  return arr;
}
Value bi_array_push(BuiltinCtx& c) {
  RBasic* a = as_type(c, c.self, ObjType::kArray, "Array");
  for (u32 i = 0; i < c.argc; ++i)
    objops::array_push(c.host, c.heap, a, c.arg(i));
  return c.self;
}
Value bi_array_pop(BuiltinCtx& c) {
  return objops::array_pop(c.host, as_type(c, c.self, ObjType::kArray, "Array"));
}
Value bi_array_length(BuiltinCtx& c) {
  return Value::fixnum(
      objops::array_len(c.host, as_type(c, c.self, ObjType::kArray, "Array")));
}

Value bi_hash_new(BuiltinCtx& c) {
  (void)c;
  return c.heap.new_hash(c.host);
}
Value bi_hash_size(BuiltinCtx& c) {
  return Value::fixnum(
      objops::hash_size(c.host, as_type(c, c.self, ObjType::kHash, "Hash")));
}
Value bi_hash_has_key(BuiltinCtx& c) {
  c.need_args(1);
  RBasic* h = as_type(c, c.self, ObjType::kHash, "Hash");
  // hash_get returns nil both for missing keys and nil values; a stored nil
  // is indistinguishable, which our workloads avoid.
  return Value::boolean(
      !objops::hash_get(c.host, h, c.arg(0)).is_nil());
}

// --- Range ----------------------------------------------------------------------

Value bi_range_first(BuiltinCtx& c) {
  return obj_load_value(c.host, as_type(c, c.self, ObjType::kRange, "Range"), 1);
}
Value bi_range_last(BuiltinCtx& c) {
  return obj_load_value(c.host, as_type(c, c.self, ObjType::kRange, "Range"), 2);
}
Value bi_range_exclude_end(BuiltinCtx& c) {
  return Value::boolean(
      obj_load(c.host, as_type(c, c.self, ObjType::kRange, "Range"), 3) != 0);
}

// --- Threads ---------------------------------------------------------------------

Value bi_thread_new(BuiltinCtx& c) {
  if (c.block_iseq < 0) throw RubyError("Thread.new requires a block");
  // The block runs on a different stack: sever the lexical environment; data
  // flows through the block parameters (Thread.new(i) { |tid| ... }).
  const Value proc = c.heap.new_proc(c.host, c.block_iseq, c.block_self,
                                     ~u64{0}, c.thread.tid());
  std::vector<Value> args(c.argv, c.argv + c.argc);
  return c.host.spawn_thread(proc, std::move(args));
}

Value bi_thread_join(BuiltinCtx& c) {
  RBasic* th = as_type(c, c.self, ObjType::kThread, "Thread");
  const u32 tid = static_cast<u32>(obj_load(c.host, th, 1));
  // CRuby raises ThreadError here; waiting on its own exit would park the
  // thread forever.
  if (tid == c.thread.tid())
    throw RubyError("Target thread must not be current thread");
  if (!c.host.thread_finished(tid)) {
    return park(c, {kParkPollCycles, false, static_cast<i32>(tid)});
  }
  return c.self;
}

// --- Mutex / ConditionVariable -----------------------------------------------------

Value bi_mutex_new(BuiltinCtx& c) { return c.heap.new_mutex(c.host); }

Value bi_mutex_lock(BuiltinCtx& c) {
  RBasic* m = as_type(c, c.self, ObjType::kMutex, "Mutex");
  const u64 locked = obj_load(c.host, m, 1);
  if (!locked) {
    // Transactional fast path: two concurrent lockers conflict on the mutex
    // line and one aborts — exactly the atomicity the elision relies on.
    obj_store(c.host, m, 1, 1);
    obj_store(c.host, m, 2, u64{c.thread.tid()} + 1);
    return c.self;
  }
  if (obj_load(c.host, m, 2) == u64{c.thread.tid()} + 1)
    throw RubyError("deadlock; recursive locking");
  // Contended: park and retry (CRuby releases the GIL while waiting).
  c.host.require_nontx();
  return park(c, {kParkPollCycles, false});
}

Value bi_mutex_try_lock(BuiltinCtx& c) {
  RBasic* m = as_type(c, c.self, ObjType::kMutex, "Mutex");
  if (obj_load(c.host, m, 1)) return Value::false_v();
  obj_store(c.host, m, 1, 1);
  obj_store(c.host, m, 2, u64{c.thread.tid()} + 1);
  return Value::true_v();
}

Value bi_mutex_unlock(BuiltinCtx& c) {
  RBasic* m = as_type(c, c.self, ObjType::kMutex, "Mutex");
  if (obj_load(c.host, m, 2) != u64{c.thread.tid()} + 1)
    throw RubyError("Attempt to unlock a mutex which is not locked by this thread");
  obj_store(c.host, m, 1, 0);
  obj_store(c.host, m, 2, 0);
  return c.self;
}

Value bi_condvar_new(BuiltinCtx& c) { return c.heap.new_condvar(c.host); }

Value bi_condvar_seq(BuiltinCtx& c) {
  RBasic* cv = as_type(c, c.self, ObjType::kCondVar, "ConditionVariable");
  return Value::fixnum(static_cast<i64>(obj_load(c.host, cv, 1)));
}

Value bi_condvar_wait_change(BuiltinCtx& c) {
  c.need_args(1);
  RBasic* cv = as_type(c, c.self, ObjType::kCondVar, "ConditionVariable");
  const i64 old_seq = as_fixnum(c.arg(0), "sequence");
  if (static_cast<i64>(obj_load(c.host, cv, 1)) != old_seq)
    return Value::nil();
  c.host.require_nontx();
  return park(c, {kParkPollCycles, false});
}

Value bi_condvar_signal(BuiltinCtx& c) {
  RBasic* cv = as_type(c, c.self, ObjType::kCondVar, "ConditionVariable");
  obj_store(c.host, cv, 1, obj_load(c.host, cv, 1) + 1);
  return c.self;
}

// --- Server / library simulation ----------------------------------------------------

Value bi_accept_request(BuiltinCtx& c) {
  // Blocking accept(2): GIL released while parked.
  const i64 id = c.host.accept_request();
  if (id >= 0) return Value::fixnum(id);
  if (c.host.server_shutdown()) return Value::nil();
  return park(c, {kIoPollCycles, true, -1, /*idle_accept=*/true});
}

Value bi_read_request(BuiltinCtx& c) {
  c.need_args(1);
  const i64 id = as_fixnum(c.arg(0), "request id");
  const std::string payload = c.host.take_request_payload(id);
  c.host.charge(static_cast<Cycles>(20 + payload.size()));
  return c.heap.new_string(c.host, payload);
}

Value bi_send_response(BuiltinCtx& c) {
  c.need_args(2);
  const i64 id = as_fixnum(c.arg(0), "request id");
  RBasic* s = as_type(c, c.arg(1), ObjType::kString, "response payload");
  const std::string payload = objops::string_to_cpp(c.host, s);
  c.host.charge(static_cast<Cycles>(40 + payload.size()));
  c.host.respond(id, payload);
  return Value::nil();
}

Value bi_io_wait(BuiltinCtx& c) {
  // Generic blocking I/O of `arg0` microseconds of virtual time.
  const i64 usec = c.argc >= 1 ? as_fixnum(c.arg(0), "duration") : 100;
  if (!c.thread.io_pending) {
    c.thread.io_pending = true;
    return park(c, {static_cast<Cycles>(usec) * 3'500, true});
  }
  c.thread.io_pending = false;
  return Value::nil();
}

Value bi_record(BuiltinCtx& c) {
  c.need_args(2);
  RBasic* key = as_type(c, c.arg(0), ObjType::kString, "result key");
  const double v = objops::value_to_double(c.host, c.arg(1));
  c.host.record_result(objops::string_to_cpp(c.host, key), v);
  return Value::nil();
}

Value bi_clock_us(BuiltinCtx& c) {
  // Virtual-time clock (like gettimeofday); reading it transactionally is
  // harmless — the simulator is deterministic.
  return Value::fixnum(static_cast<i64>(c.host.now_cycles() / 3'500));
}

/// A C library call's scratch working set: allocates `slots` slots of
/// spill memory, stores fill(i) into each (one store run), and frees them.
template <typename Fill>
void touch_scratch(BuiltinCtx& c, u32 slots, Fill fill) {
  const u64 scratch = c.heap.alloc_spill(c.host, slots);
  const u32 n = std::min(Heap::spill_capacity_slots(scratch), slots);
  std::vector<u64> values(n);
  for (u32 i = 0; i < n; ++i) values[i] = fill(i);
  c.host.mem_store_run(spill_ptr(scratch), values.data(), n);
  c.heap.free_spill(c.host, scratch);
}

/// The C regular-expression library (§5.6): pure C compute with a scratch
/// working set and no internal yield point. Long subjects overflow the
/// transaction's write footprint — the WEBrick/Rails abort source.
Value bi_regex_match(BuiltinCtx& c) {
  c.need_args(2);
  RBasic* subject = as_type(c, c.arg(0), ObjType::kString, "regex subject");
  RBasic* pattern = as_type(c, c.arg(1), ObjType::kString, "regex pattern");
  const std::string subj = objops::string_to_cpp(c.host, subject);
  const std::string pat = objops::string_to_cpp(c.host, pattern);

  // Scratch state proportional to the subject (NFA state rows + the
  // backtracking stack). For request-sized subjects this approaches the
  // zEC12 8 KB store cache — the §5.6 "aborts in the regular-expression
  // library" regime.
  const u32 scratch_slots =
      static_cast<u32>(std::max<std::size_t>(8, 32 + subj.size() * 8));
  touch_scratch(c, scratch_slots, [](u32 i) { return u64{i}; });
  c.host.charge(static_cast<Cycles>(6 * subj.size() + 2 * pat.size()));

  const auto pos = subj.find(pat);
  return pos == std::string::npos ? Value::nil()
                                  : Value::fixnum(static_cast<i64>(pos));
}

/// SQLite3 stand-in for the Rails workload: in-process C compute with a
/// sizable scratch footprint, returning row strings.
Value bi_db_query(BuiltinCtx& c) {
  c.need_args(2);
  RBasic* table = as_type(c, c.arg(0), ObjType::kString, "table name");
  const i64 rows = as_fixnum(c.arg(1), "row count");
  const std::string tname = objops::string_to_cpp(c.host, table);

  // B-tree walk scratch (page images + row decoding buffers): a row fetch
  // touches ~2 KB of SQLite page data per row, which overflows both HTM
  // write sets — the reason 87% of the paper's Rails aborts are footprint
  // overflows (§5.6).
  const u32 scratch_slots = static_cast<u32>(160 + rows * 250);
  touch_scratch(c, scratch_slots, [](u32 i) { return mix64(i); });
  c.host.charge(static_cast<Cycles>(900 + rows * 160));

  const Value arr = c.heap.new_array(c.host, static_cast<u32>(rows));
  for (i64 i = 0; i < rows; ++i) {
    objops::array_push(
        c.host, c.heap, arr.obj(),
        c.heap.new_string(c.host, tname + " row #" + std::to_string(i)));
  }
  return arr;
}

}  // namespace

void install_builtins(ClassRegistry& classes, SymbolTable& symbols) {
  auto def = [&](ClassId cls, const char* name, BuiltinFn fn, Cycles cost = 0,
                 bool blocking = false) {
    MethodInfo m;
    m.name = symbols.intern(name);
    m.kind = MethodInfo::Kind::kBuiltin;
    m.fn = fn;
    m.extra_cost = cost;
    m.blocking = blocking;
    classes.define_method(cls, m);
  };
  auto def_c = [&](ClassId cls, const char* name, BuiltinFn fn,
                   Cycles cost = 0, bool blocking = false) {
    MethodInfo m;
    m.name = symbols.intern(name);
    m.kind = MethodInfo::Kind::kBuiltin;
    m.fn = fn;
    m.extra_cost = cost;
    m.blocking = blocking;
    classes.define_class_method(cls, m);
  };

  // Kernel.
  def(kClassObject, "puts", bi_puts, 300, /*blocking=*/true);
  def(kClassObject, "print", bi_print, 300, true);
  def(kClassObject, "rand", bi_rand, 30);
  def(kClassObject, "block_given?", bi_block_given, 6);
  def(kClassObject, "accept_request", bi_accept_request, 400, true);
  def(kClassObject, "read_request", bi_read_request, 200, true);
  def(kClassObject, "send_response", bi_send_response, 400, true);
  def(kClassObject, "io_wait", bi_io_wait, 200, true);
  def(kClassObject, "regex_match", bi_regex_match, 80);
  def(kClassObject, "db_query", bi_db_query, 200);
  def(kClassObject, "__record", bi_record, 50, /*blocking=*/true);
  def(kClassObject, "clock_us", bi_clock_us, 20);

  // Numerics.
  def(kClassInteger, "to_f", bi_int_to_f, 8);
  def(kClassInteger, "to_i", bi_int_to_i, 4);
  def(kClassInteger, "abs", bi_int_abs, 4);
  def(kClassInteger, "to_s", bi_int_to_s, 40);
  def(kClassFloat, "to_i", bi_float_to_i, 8);
  def(kClassFloat, "to_f", bi_float_to_f, 4);
  def(kClassFloat, "abs", bi_float_abs, 8);
  def(kClassFloat, "floor", bi_float_floor, 8);
  def(kClassFloat, "to_s", bi_float_to_s, 60);
  def_c(kClassMath, "sqrt", bi_math_sqrt, 20);
  def_c(kClassMath, "sin", bi_math_sin, 40);
  def_c(kClassMath, "cos", bi_math_cos, 40);
  def_c(kClassMath, "exp", bi_math_exp, 40);
  def_c(kClassMath, "log", bi_math_log, 40);
  def_c(kClassMath, "pow", bi_math_pow, 50);

  // String.
  def(kClassString, "length", bi_str_length, 4);
  def(kClassString, "size", bi_str_length, 4);
  def(kClassString, "to_i", bi_str_to_i, 30);
  def(kClassString, "index", bi_str_index, 30);
  def(kClassString, "slice", bi_str_slice, 30);
  def(kClassString, "dup", bi_str_dup, 20);
  def(kClassString, "empty?", bi_str_empty, 4);

  // Array / Hash.
  def_c(kClassArray, "new", bi_array_new, 20);
  def(kClassArray, "push", bi_array_push, 8);
  def(kClassArray, "pop", bi_array_pop, 8);
  def(kClassArray, "length", bi_array_length, 4);
  def(kClassArray, "size", bi_array_length, 4);
  def_c(kClassHash, "new", bi_hash_new, 20);
  def(kClassHash, "size", bi_hash_size, 4);
  def(kClassHash, "length", bi_hash_size, 4);
  def(kClassHash, "has_key?", bi_hash_has_key, 20);

  // Range.
  def(kClassRange, "first", bi_range_first, 4);
  def(kClassRange, "begin", bi_range_first, 4);
  def(kClassRange, "last", bi_range_last, 4);
  def(kClassRange, "end", bi_range_last, 4);
  def(kClassRange, "exclude_end?", bi_range_exclude_end, 4);

  // Threads & synchronization.
  def_c(kClassThread, "new", bi_thread_new, 4000, /*blocking=*/true);
  def(kClassThread, "join", bi_thread_join, 100, true);
  def_c(kClassMutex, "new", bi_mutex_new, 20);
  def(kClassMutex, "lock", bi_mutex_lock, 30);
  def(kClassMutex, "try_lock", bi_mutex_try_lock, 30);
  def(kClassMutex, "unlock", bi_mutex_unlock, 30);
  def_c(kClassConditionVariable, "new", bi_condvar_new, 20);
  def(kClassConditionVariable, "__seq", bi_condvar_seq, 6);
  def(kClassConditionVariable, "__wait_for_change", bi_condvar_wait_change,
      30);
  def(kClassConditionVariable, "signal", bi_condvar_signal, 30);
  def(kClassConditionVariable, "broadcast", bi_condvar_signal, 30);
}

}  // namespace gilfree::vm
