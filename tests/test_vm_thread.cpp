// VmThread's two host-side contracts, tested on the interpreter directly
// (no engine):
//
//   - Park by return value: a blocking builtin records a ParkRequest on its
//     thread and returns. run_span then ends normally right after the
//     parking send — pc advanced by one, fuel and insns_retired spent by
//     one, the receiver and arguments still on the stack, nothing pushed —
//     whether the send is a plain instruction or the tail of a fused pair.
//   - Zero-on-demand stacks: constructing a thread maps its stack without
//     touching it, so resident memory follows the depth actually used and
//     a fresh stack reads as zero.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "testutil_rss.hpp"
#include "vm/builtins.hpp"
#include "vm/compiler.hpp"
#include "vm/heap.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"
#include "vm/thread.hpp"

namespace gilfree::vm {
namespace {

/// Direct-memory host: no transactions, no cycle accounting.
class DirectHost : public Host {
 public:
  u64 host_load(const u64* p, bool) override { return *p; }
  void host_store(u64* p, u64 v, bool) override { *p = v; }
  void charge(Cycles) override {}
  void require_nontx() override {}
  void full_gc() override { FAIL() << "unexpected GC"; }
  u32 current_tid() override { return 0; }
  Value spawn_thread(Value, std::vector<Value>) override {
    return Value::nil();
  }
  bool thread_finished(u32) override { return true; }
  void write_stdout(std::string_view) override {}
  u64 random_u64() override { return 0; }
  void record_result(std::string_view, double) override {}
  Cycles now_cycles() override { return 0; }
};

constexpr Cycles kTestParkDelay = 777;

/// A blocking builtin that always parks.
Value bi_test_park(BuiltinCtx& c) {
  c.thread.request_park({kTestParkDelay, true});
  return Value::fixnum(99);  // must never reach the stack
}

/// Compiles `src` after the prelude, installs the builtins plus
/// Mutex#park_me and Mutex#[] (both parking), boots the interpreter and
/// builds the main frame.
struct Harness {
  explicit Harness(const std::string& src, bool fuse)
      : program(compile_sources({prelude_source(), src})),
        classes(&program.symbols),
        heap(heap_config()) {
    install_builtins(classes, program.symbols);
    for (const char* name : {"park_me", "[]"}) {
      MethodInfo m;
      m.name = program.symbols.intern(name);
      m.kind = MethodInfo::Kind::kBuiltin;
      m.fn = bi_test_park;
      m.blocking = true;
      classes.define_method(kClassMutex, m);
    }
    for (std::size_t i = 0; i < program.global_names.size(); ++i)
      heap.register_global_var();
    for (std::size_t i = 0; i < program.constant_names.size(); ++i)
      heap.register_constant();
    VmOptions opts;
    opts.fuse_superinsns = fuse;
    interp = std::make_unique<Interp>(&program, &heap, &classes, &host, opts);
    interp->boot();
    interp->init_main_frame(thread);
  }

  static HeapConfig heap_config() {
    HeapConfig c;
    c.initial_slots = 20'000;
    c.max_threads = 2;
    return c;
  }

  /// Steps single instructions until `pred(current insn, next insn)` holds.
  template <typename Pred>
  void step_until(Pred pred) {
    for (int guard = 0; guard < 10'000; ++guard) {
      const ThreadRegs& r = thread.regs();
      const ISeq& seq = program.iseq(r.iseq);
      if (r.pc + 1 < seq.insns.size() &&
          pred(seq.insns[r.pc], seq.insns[r.pc + 1]))
        return;
      interp->step(thread);
      ASSERT_FALSE(thread.span_stopped()) << "program ended or parked early";
    }
    FAIL() << "instruction never reached";
  }

  Program program;
  ClassRegistry classes;
  Heap heap;
  DirectHost host;
  std::unique_ptr<Interp> interp;
  VmThread thread{0, 4096};
};

TEST(ParkPath, BlockingSendEndsSpanWithArgumentsOnStack) {
  Harness h(R"(
m = Mutex.new
i = 5
m.park_me(i)
__record("unreachable", 1)
)",
            /*fuse=*/true);
  const SymbolId park_me = h.program.symbols.intern("park_me");
  ASSERT_NO_FATAL_FAILURE(h.step_until([&](const Insn& in, const Insn&) {
    return in.op == Op::kSend && static_cast<SymbolId>(in.a) == park_me;
  }));
  const ThreadRegs before = h.thread.regs();
  const u64 insns_before = h.interp->stats().insns_retired;
  const u64 sentinel = 0x5e17'11e1'0000'0001ull;
  *h.thread.slot(before.sp) = sentinel;

  int fuel = 10;
  h.interp->run_span(h.thread, fuel, YieldStop::kNone);

  ASSERT_TRUE(h.thread.park_requested());
  EXPECT_FALSE(h.thread.finished());
  EXPECT_EQ(h.thread.regs().iseq, before.iseq);
  EXPECT_EQ(h.thread.regs().pc, before.pc + 1);
  EXPECT_EQ(h.thread.regs().fp, before.fp);
  EXPECT_EQ(h.thread.regs().sp, before.sp) << "receiver + argument stay";
  EXPECT_EQ(fuel, 9);
  EXPECT_EQ(h.interp->stats().insns_retired, insns_before + 1);
  EXPECT_EQ(*h.thread.slot(before.sp), sentinel) << "nothing pushed";
  EXPECT_EQ(Value::from_bits(*h.thread.slot(before.sp - 1)).fixnum_val(), 5);

  const ParkRequest pr = h.thread.take_park();
  EXPECT_EQ(pr.delay, kTestParkDelay);
  EXPECT_TRUE(pr.is_io);
  EXPECT_EQ(pr.wake_on_thread_exit, -1);
  EXPECT_FALSE(h.thread.span_stopped());
}

TEST(ParkPath, FusedTailParkEndsSpanAfterTheTail) {
  // `m[i]` compiles to getlocal m, getlocal i, opt_aref; the last two are a
  // fused pair, and opt_aref on a Mutex falls back to the parking Mutex#[].
  Harness h(R"(
m = Mutex.new
i = 3
x = m[i]
__record("unreachable", x)
)",
            /*fuse=*/true);
  ASSERT_NO_FATAL_FAILURE(h.step_until([](const Insn& in, const Insn& next) {
    return in.op == Op::kGetLocal && in.fuse != 0 && next.op == Op::kOptAref;
  }));
  const ThreadRegs before = h.thread.regs();
  const u64 insns_before = h.interp->stats().insns_retired;
  const u64 fused_before = h.interp->stats().fused_instructions;
  const u64 sentinel = 0x5e17'11e1'0000'0002ull;
  *h.thread.slot(before.sp + 1) = sentinel;

  int fuel = 10;
  h.interp->run_span(h.thread, fuel, YieldStop::kNone);

  ASSERT_TRUE(h.thread.park_requested());
  EXPECT_EQ(h.interp->stats().fused_instructions, fused_before + 1)
      << "the pair executed fused";
  // Head retired normally; the parked tail advanced pc and spent one unit
  // of fuel and one retired instruction, exactly like an unfused send.
  EXPECT_EQ(h.thread.regs().pc, before.pc + 2);
  EXPECT_EQ(h.thread.regs().sp, before.sp + 1) << "only the head pushed";
  EXPECT_EQ(fuel, 8);
  EXPECT_EQ(h.interp->stats().insns_retired, insns_before + 2);
  EXPECT_EQ(Value::from_bits(*h.thread.slot(before.sp)).fixnum_val(), 3);
  EXPECT_EQ(*h.thread.slot(before.sp + 1), sentinel) << "nothing pushed";
  EXPECT_EQ(h.thread.take_park().delay, kTestParkDelay);
}

using testutil::resident_bytes;

TEST(VmThreadStack, IsZeroOnDemand) {
  constexpr u32 kThreads = 2'000;
  constexpr u32 kSlots = 65'536;  // 512 KiB, the engine default
  const u64 before = resident_bytes();
  ASSERT_GT(before, 0u) << "/proc/self/statm unreadable";
  std::vector<std::unique_ptr<VmThread>> threads;
  threads.reserve(kThreads);
  for (u32 i = 0; i < kThreads; ++i)
    threads.push_back(std::make_unique<VmThread>(i, kSlots));
  const u64 grown = resident_bytes() - before;
  const u64 eager = u64{kThreads} * kSlots * 8;
  EXPECT_LT(grown, eager / 16)
      << "constructing threads must not touch their stacks";

  for (const u32 i : {0u, kThreads / 2, kThreads - 1}) {
    const VmThread& t = *threads[i];
    EXPECT_EQ(t.stack_base()[0], 0u);
    EXPECT_EQ(t.stack_base()[kSlots / 2], 0u);
    EXPECT_EQ(t.stack_base()[kSlots - 1], 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.stack_base()) %
                  (VmThread::kStackAlignSlots * 8),
              0u);
  }
}

}  // namespace
}  // namespace gilfree::vm
