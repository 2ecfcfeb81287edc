// Engine-level behavioural tests: the GIL-mode timer yields (§3.2),
// blocking I/O releasing the GIL, scheduler fairness, and the sync-mode
// comparators.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/zero_pages.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/client_driver.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/server_programs.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "vm/interp.hpp"
#include "workloads/workload.hpp"

namespace gilfree {
namespace {

using runtime::Engine;
using runtime::EngineConfig;
using runtime::RunStats;

RunStats run_cfg(EngineConfig cfg, const std::string& src) {
  cfg.heap.initial_slots = 80'000;
  Engine engine(std::move(cfg));
  engine.load_program({src});
  return engine.run();
}

TEST(EngineBehavior, GilTimerYieldsRotateThreads) {
  // §3.2: the timer thread flags the runner every quantum; it yields at the
  // next original yield point. With two compute threads both must finish.
  auto cfg = EngineConfig::gil(htm::SystemProfile::zec12());
  cfg.gil_quantum = 20'000;  // small quantum → many yields
  const RunStats stats = run_cfg(std::move(cfg), R"(
ts = []
2.times do |i|
  ts << Thread.new(i) do |tid|
    x = 0
    k = 0
    while k < 20000
      x += 1
      k += 1
    end
    __record("x" + tid.to_s, x)
  end
end
ts.each do |t|
  t.join
end
)");
  EXPECT_DOUBLE_EQ(stats.results.at("x0"), 20000.0);
  EXPECT_DOUBLE_EQ(stats.results.at("x1"), 20000.0);
  EXPECT_GT(stats.gil.yields, 5u) << "timer-driven GIL yields happened";
}

TEST(EngineBehavior, NoYieldsWithSingleThreadUnderGil) {
  auto cfg = EngineConfig::gil(htm::SystemProfile::zec12());
  cfg.gil_quantum = 10'000;
  const RunStats stats = run_cfg(std::move(cfg), R"(
x = 0
k = 0
while k < 20000
  x += 1
  k += 1
end
__record("x", x)
)");
  EXPECT_EQ(stats.gil.yields, 0u)
      << "§3.2: no yield operations with one application thread";
}

TEST(EngineBehavior, BlockingIoOverlapsUnderGil) {
  // §3.2: the GIL is released around blocking operations, so two threads
  // each sleeping 2000 µs overlap instead of serializing.
  auto run_threads = [](unsigned n) {
    auto cfg = EngineConfig::gil(htm::SystemProfile::xeon_e3());
    cfg.heap.initial_slots = 60'000;
    Engine engine(std::move(cfg));
    engine.load_program(
        {"$n = " + std::to_string(n) + "\n", R"(
ts = []
$n.times do |i|
  ts << Thread.new(i) do |tid|
    io_wait(2000)
  end
end
ts.each do |t|
  t.join
end
__record("done", 1)
)"});
    return engine.run();
  };
  const RunStats one = run_threads(1);
  const RunStats four = run_threads(4);
  // Four overlapping sleeps take well under 4x one sleep.
  EXPECT_LT(static_cast<double>(four.total_cycles),
            2.0 * static_cast<double>(one.total_cycles));
  EXPECT_GT(four.breakdown.blocked_io, 0u);
}

TEST(EngineBehavior, FineGrainedBeatsGilOnComputeBoundWork) {
  const std::string src = R"(
$out = Array.new(8, 0)
ts = []
4.times do |i|
  ts << Thread.new(i) do |tid|
    x = 0
    k = 0
    while k < 8000
      x += k
      k += 1
    end
    $out[tid] = x
  end
end
ts.each do |t|
  t.join
end
__record("sum", $out[0] + $out[1] + $out[2] + $out[3])
)";
  const RunStats gil =
      run_cfg(EngineConfig::gil(htm::SystemProfile::zec12()), src);
  const RunStats fine =
      run_cfg(EngineConfig::fine_grained(htm::SystemProfile::zec12()), src);
  const RunStats unsync =
      run_cfg(EngineConfig::unsynced(htm::SystemProfile::zec12()), src);
  EXPECT_EQ(gil.results.at("sum"), fine.results.at("sum"));
  EXPECT_EQ(gil.results.at("sum"), unsync.results.at("sum"));
  EXPECT_LT(fine.total_cycles, gil.total_cycles / 2);
  EXPECT_LE(unsync.total_cycles, fine.total_cycles)
      << "no internal locks beats fine-grained locks";
}

TEST(EngineBehavior, MutexDeadlockHitsInstructionBudget) {
  // A never-released Mutex leaves the worker polling forever; the polling
  // retries retire instructions, so the instruction budget catches the
  // deadlock deterministically.
  auto cfg = EngineConfig::gil(htm::SystemProfile::xeon_e3());
  cfg.heap.initial_slots = 30'000;
  cfg.max_insns = 100'000;
  Engine engine(std::move(cfg));
  engine.load_program({R"(
$m = Mutex.new
$m.lock
t = Thread.new(0) do |z|
  $m.lock
end
t.join
)"});
  EXPECT_THROW(engine.run(), CheckFailure);
}

TEST(EngineBehavior, MaxInsnsBudgetGuards) {
  auto cfg = EngineConfig::gil(htm::SystemProfile::xeon_e3());
  cfg.heap.initial_slots = 30'000;
  cfg.max_insns = 1'000;
  Engine engine(std::move(cfg));
  engine.load_program({R"(
x = 0
while true
  x += 1
end
)"});
  EXPECT_THROW(engine.run(), CheckFailure);
}

TEST(EngineBehavior, TryLockSemantics) {
  const RunStats stats = run_cfg(
      EngineConfig::htm_dynamic(htm::SystemProfile::xeon_e3()), R"(
m = Mutex.new
a = m.try_lock
b = m.try_lock
m.unlock
c = m.try_lock
r = 0
if a
  r += 100
end
if b
  r += 10
end
if c
  r += 1
end
__record("r", r)
)");
  EXPECT_DOUBLE_EQ(stats.results.at("r"), 101.0);
}

TEST(EngineBehavior, CondvarBroadcastWakesAllWaiters) {
  const RunStats stats = run_cfg(
      EngineConfig::htm_dynamic(htm::SystemProfile::zec12()), R"(
$m = Mutex.new
$cv = ConditionVariable.new
$ready = 0
$go = false
$woke = 0
ts = []
3.times do |i|
  ts << Thread.new(i) do |tid|
    $m.lock
    $ready += 1
    while !$go
      $cv.wait($m)
    end
    $woke += 1
    $m.unlock
  end
end
while true
  $m.lock
  r = $ready
  $m.unlock
  if r == 3
    break
  end
  io_wait(50)
end
$m.lock
$go = true
$cv.broadcast
$m.unlock
ts.each do |t|
  t.join
end
__record("woke", $woke)
)");
  EXPECT_DOUBLE_EQ(stats.results.at("woke"), 3.0);
}

// --- Blocking builtins and the park path ------------------------------------

/// Runs `src` under GIL and HTM-dynamic. Each run must fail fast with an
/// `E` whose message contains `needle`, instead of hanging.
template <typename E>
void expect_fails_fast(const std::string& src, const std::string& needle) {
  const auto zec12 = htm::SystemProfile::zec12();
  for (auto& [name, cfg] :
       std::vector<std::pair<std::string, EngineConfig>>{
           {"gil", EngineConfig::gil(zec12)},
           {"htm-dynamic", EngineConfig::htm_dynamic(zec12)}}) {
    SCOPED_TRACE(name);
    cfg.max_insns = 10'000'000;
    try {
      run_cfg(cfg, src);
      ADD_FAILURE() << "run completed";
    } catch (const E& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(EngineBehavior, SelfJoinRaisesInsteadOfHanging) {
  // CRuby raises ThreadError; waiting for its own exit would park the
  // thread forever.
  expect_fails_fast<vm::RubyError>(R"(
$t = Thread.new do
  io_wait(10)
  $t.join
end
$t.join
)",
                                   "current thread");
}

TEST(EngineBehavior, JoinCycleFailsTheDeadlockCheck) {
  // Two threads join each other and main joins the first: no thread can
  // ever wake, so the scheduler reports the deadlock instead of spinning
  // the clock toward the join-park horizon.
  expect_fails_fast<CheckFailure>(R"(
$a = Thread.new do
  io_wait(10)
  $b.join
end
$b = Thread.new do
  io_wait(10)
  $a.join
end
$a.join
)",
                                  "blocked in Thread#join");
}

/// Four threads churn short-lived arrays, so spill chunks are popped and
/// freed under the STM tier while other software transactions hold the
/// spill free-list lines.
const char* const kSpillChurnSrc = R"(
ts = []
4.times do |i|
  ts << Thread.new(i) do |tid|
    acc = []
    1000.times do |k|
      acc << [tid, k, "row"]
      if acc.length > 16 then acc = [] end
    end
    __record("len" + tid.to_s, acc.length)
  end
end
ts.each do |t|
  t.join
end
)";

/// A software commit that pops a spill chunk and reuses its link word must
/// stop every transaction still holding the old free-list head before it
/// loads that word as a pointer (which fails GuestSpace::locate).
void expect_spill_churn_matches_gil(stm::GilSubscription sub) {
  const auto zec12 = htm::SystemProfile::zec12();
  auto shape = [](EngineConfig cfg) {
    cfg.seed = 5;
    cfg.heap.initial_slots = 20'000;
    cfg.heap.per_thread_arenas = true;
    cfg.heap.nursery = true;
    Engine engine(std::move(cfg));
    engine.load_program({kSpillChurnSrc});
    return engine.run();
  };
  EngineConfig cfg = EngineConfig::htm_dynamic(zec12);
  cfg.stm.enabled = true;
  cfg.stm.subscription = sub;
  cfg.fault.persistent_all_yps = true;
  RunStats got;
  ASSERT_NO_THROW(got = shape(cfg));
  const RunStats want = shape(EngineConfig::gil(zec12));
  ASSERT_EQ(want.results.size(), 4u);
  EXPECT_EQ(got.results, want.results);
  EXPECT_GT(got.stm.commits, 0u);
}

TEST(EngineBehavior, StmSpillChurnMatchesGilEager) {
  expect_spill_churn_matches_gil(stm::GilSubscription::kEager);
}

TEST(EngineBehavior, StmSpillChurnMatchesGilLazy) {
  expect_spill_churn_matches_gil(stm::GilSubscription::kLazy);
}

/// Serves `n` requests, one arriving every `gap` cycles, each echoed back.
class ScriptedPort : public runtime::ServerPort {
 public:
  ScriptedPort(i64 n, Cycles gap) : n_(n), gap_(gap) {}
  i64 accept(Cycles now) override {
    if (next_ < n_ && now >= static_cast<Cycles>(next_) * gap_) return next_++;
    return -1;
  }
  std::string payload(i64 id) override { return "GET /" + std::to_string(id); }
  void respond(i64, std::string_view body, Cycles now) override {
    ++done_;
    log_ += std::string(body) + "@" + std::to_string(now) + "\n";
  }
  bool shutdown(Cycles) override { return next_ == n_ && done_ == n_; }
  const std::string& log() const { return log_; }

 private:
  i64 n_;
  Cycles gap_;
  i64 next_ = 0;
  i64 done_ = 0;
  std::string log_;
};

/// Reaches four park sites in every engine: io_wait, contended Mutex#lock
/// (a holder blocks in io_wait), ConditionVariable#wait, and Thread#join.
const char* const kParkThreadsSrc = R"(
$m = Mutex.new
$cv = ConditionVariable.new
$count = 0
ts = []
4.times do |i|
  ts << Thread.new(i) do |tid|
    io_wait(2 + tid)
    $m.lock
    io_wait(1)
    $count += 1
    $cv.signal
    $m.unlock
    k = 0
    s = 0
    while k < 3000
      s += k * tid
      k += 1
    end
    __record("s" + tid.to_s, s)
  end
end
$m.lock
while $count < 4
  $cv.wait($m)
end
$m.unlock
ts.each do |t|
  t.join
end
__record("count", $count)
)";

/// Adds the fifth, accept_request: the acceptor parks until each request
/// arrives, and overlapping handlers contend on a mutex held across
/// blocking I/O.
const char* const kParkServerSrc = R"(
$m = Mutex.new
$served = 0
$workers = []
req = accept_request()
while !(req == nil)
  $workers << Thread.new(req) do |rid|
    raw = read_request(rid)
    io_wait(4)
    $m.lock
    io_wait(2)
    $served += 1
    $m.unlock
    send_response(rid, "ok " + raw)
  end
  req = accept_request()
end
$workers.each do |t|
  t.join
end
__record("served", $served)
)";

/// FNV-1a of the run's metrics document (every RunStats counter plus the
/// per-yield-point detail), its recorded results, program output and, for
/// server runs, the response log with completion times.
std::string park_digest(EngineConfig cfg, const std::string& src, bool server,
                        const std::string& key) {
  obs::ObsConfig oc;
  // The sink writes this file on flush; keyed so concurrent ctest processes
  // never share it.
  oc.metrics_path = ::testing::TempDir() + "park_golden_" +
                    std::to_string(httpsim::cluster::fnv1a64(key)) + ".json";
  std::string all;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.heap.initial_slots = 80'000;
    cfg.max_insns = 10'000'000;
    ScriptedPort port(12, 4'000);
    Engine engine(std::move(cfg));
    if (server) engine.attach_server(&port);
    engine.load_program({src});
    const RunStats stats = engine.run();
    all = obs::metrics_to_json(sink.runs());
    for (const auto& [k, v] : stats.results)
      all += k + "=" + std::to_string(v) + "\n";
    all += stats.output;
    all += port.log();
  }
  std::remove(oc.metrics_path.c_str());
  return std::to_string(httpsim::cluster::fnv1a64(all));
}

TEST(EngineBehavior, ParkPathGoldenDigests) {
  // How a blocking builtin hands its park to the engine is host-side
  // only: these values pin every simulated counter, cycle and output byte
  // of runs that park at all five sites, and move only when a change
  // re-baselines simulated output on purpose.
  const std::map<std::string, std::string> golden = {
      {"threads/gil", "14391381438901522111"},
      {"threads/htm-dynamic", "8320160780265732206"},
      {"threads/htm-dynamic-stm", "4845494282682241646"},
      {"server/gil", "7112801237137344763"},
      {"server/htm-dynamic", "5219341304971080623"},
      {"server/htm-dynamic-stm", "9805675612369322756"},
  };
  const auto zec12 = htm::SystemProfile::zec12();
  // Persistent aborts at every yield point push spans onto the STM tier.
  EngineConfig stm = EngineConfig::htm_dynamic(zec12);
  stm.stm.enabled = true;
  stm.fault.persistent_all_yps = true;
  stm.fault.seed = 1;
  const std::vector<std::pair<std::string, EngineConfig>> engines = {
      {"gil", EngineConfig::gil(zec12)},
      {"htm-dynamic", EngineConfig::htm_dynamic(zec12)},
      {"htm-dynamic-stm", stm}};
  for (const auto& [name, cfg] : engines) {
    for (const bool server : {false, true}) {
      const std::string key = (server ? "server/" : "threads/") + name;
      const std::string d = park_digest(
          cfg, server ? kParkServerSrc : kParkThreadsSrc, server, key);
      EXPECT_EQ(d, golden.at(key)) << key;
    }
  }
}

/// A racy program for the transactional access path: threads share an
/// array, a counter and a hash without locks, and recurse so that stack
/// (private-window) lines make up a good part of every footprint.
const char* const kAccessPathSrc = R"(
def deep(x, n)
  if n == 0
    x
  else
    deep(x + 1, n - 1) + 1
  end
end
$a = [0, 0, 0, 0, 0, 0, 0, 0]
$h = {}
$count = 0
ts = []
6.times do |i|
  ts << Thread.new(i) do |tid|
    mine = [0, 0, 0, 0, 0, 0, 0, 0]
    k = 0
    s = 0
    while k < 400
      mine[k % 8] = mine[(k + 3) % 8] + deep(tid, 2 + k % 6)
      s += mine[k % 8] % 7
      if k % 12 == tid
        $a[k % 8] = $a[(k + tid) % 8] + tid
        $count += 1
        $h[k % 4] = s
      end
      k += 1
    end
    __record("s" + tid.to_s, s)
  end
end
ts.each do |t|
  t.join
end
__record("count", $count)
__record("a", $a[0] + $a[3] + $a[7])
)";

/// A contended Mutex: lockers that find it held inside a transaction call
/// require_nontx, whose persistent abort must go straight to the GIL.
const char* const kContendedMutexSrc = R"(
$m = Mutex.new
$c = 0
ts = []
4.times do |i|
  ts << Thread.new(i) do |tid|
    200.times do |k|
      $m.synchronize do
        $c += 1
      end
    end
  end
end
ts.each do |t|
  t.join
end
__record("c", $c)
)";

/// One access-path run: FNV-1a of its metrics document, trace, recorded
/// results and program output, plus the stats and trace the escalation
/// cells check their branch against.
struct AccessPathRun {
  std::string digest;
  RunStats stats;
  std::string trace;
};

AccessPathRun access_path_run(EngineConfig cfg, const std::string& key,
                              const char* src) {
  obs::ObsConfig oc;
  const std::string stem =
      ::testing::TempDir() + "access_golden_" +
      std::to_string(httpsim::cluster::fnv1a64(key));
  oc.metrics_path = stem + ".json";
  oc.trace_path = stem + ".jsonl";
  AccessPathRun run;
  std::string all;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.heap.initial_slots = 80'000;
    cfg.max_insns = 10'000'000;
    Engine engine(std::move(cfg));
    engine.load_program({src});
    run.stats = engine.run();
    sink.flush();
    all = obs::metrics_to_json(sink.runs());
    for (const auto& [k, v] : run.stats.results)
      all += k + "=" + std::to_string(v) + "\n";
    all += run.stats.output;
  }
  std::ifstream trace(oc.trace_path);
  std::stringstream buf;
  buf << trace.rdbuf();
  run.trace = buf.str();
  all += run.trace;
  std::remove(oc.metrics_path.c_str());
  std::remove(oc.trace_path.c_str());
  run.digest = std::to_string(httpsim::cluster::fnv1a64(all));
  return run;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(EngineBehavior, HtmAccessPathGoldenDigests) {
  // How a transactional access reaches the facility, how the facility
  // tracks private (stack) lines and checks for due events, and where yield
  // points run are host-side only: these values pin every simulated
  // counter, cycle, trace event and output byte across the machine
  // profiles, capacity regimes and fault campaigns the access path
  // branches on, and move only when a change re-baselines simulated output
  // on purpose.
  const std::map<std::string, std::string> golden = {
      {"zec12/htm-fixed", "9535708653243162322"},
      {"zec12/htm-dynamic", "9847349727154399261"},
      {"xeon/htm-dynamic", "12690000229998060354"},
      {"xeon/smt-capacity", "9341782687404022639"},
      {"zec12/capacity-factor", "16373670448587567039"},
      {"zec12/spurious", "17227743816739148674"},
      {"zec12/interrupt-storm", "9409142119595609085"},
      {"zec12/stm", "11070274524522398899"},
      {"zec12/persistent-all", "6372413627330700372"},
      {"zec12/persistent-all-stm-eager", "3448007796499394241"},
      {"zec12/persistent-all-stm-lazy", "2919295267485271930"},
      {"zec12/require-nontx", "8922652495207433859"},
  };
  const auto zec12 = htm::SystemProfile::zec12();
  const auto xeon = htm::SystemProfile::xeon_e3();
  std::vector<std::pair<std::string, EngineConfig>> engines = {
      {"zec12/htm-fixed", EngineConfig::htm_fixed(zec12, 16)},
      {"zec12/htm-dynamic", EngineConfig::htm_dynamic(zec12)},
      {"xeon/htm-dynamic", EngineConfig::htm_dynamic(xeon)},
  };
  // Xeon cores run two SMT threads each; with more live threads than cores
  // the halved write capacity overflows on stack and heap lines together.
  auto smt = xeon;
  smt.htm.max_write_lines = 24;
  engines.emplace_back("xeon/smt-capacity", EngineConfig::htm_dynamic(smt));
  EngineConfig capacity = EngineConfig::htm_dynamic(zec12);
  capacity.fault.seed = 7;
  capacity.fault.capacity_factor = 0.15;
  engines.emplace_back("zec12/capacity-factor", capacity);
  EngineConfig spurious = EngineConfig::htm_dynamic(zec12);
  spurious.fault.seed = 7;
  spurious.fault.spurious_mean_cycles = 20'000;
  engines.emplace_back("zec12/spurious", spurious);
  EngineConfig storm = EngineConfig::htm_dynamic(zec12);
  storm.fault.seed = 7;
  storm.fault.interrupt_storm_mean_cycles = 30'000;
  engines.emplace_back("zec12/interrupt-storm", storm);
  // Overflow aborts under a tight capacity escalate spans to the STM tier.
  EngineConfig stm = EngineConfig::htm_dynamic(zec12);
  stm.stm.enabled = true;
  stm.fault.seed = 7;
  stm.fault.capacity_factor = 0.15;
  engines.emplace_back("zec12/stm", stm);
  for (const auto& [key, cfg] : engines) {
    EXPECT_EQ(access_path_run(cfg, key, kAccessPathSrc).digest,
              golden.at(key))
        << key;
  }

  // The escalation branches (docs/TIERS.md § When each transition fires),
  // each checked to fire. Persistent aborts at every yield point without
  // the STM tier: spinners trip the spin-loop watchdog, quarantined yield
  // points take GIL slices. A fixed length has no shrink phase, so every
  // abort counts toward the quarantine streak.
  EngineConfig persistent = EngineConfig::htm_fixed(zec12, 16);
  persistent.fault.seed = 7;
  persistent.fault.persistent_all_yps = true;
  {
    const AccessPathRun r =
        access_path_run(persistent, "zec12/persistent-all", kAccessPathSrc);
    EXPECT_EQ(r.digest, golden.at("zec12/persistent-all"));
    EXPECT_GT(r.stats.watchdog_events, 0u);
    EXPECT_GT(count_of(r.trace, "\"kind\":\"spin-loop\""), 0u);
    EXPECT_GT(r.stats.quarantine_enters, 0u);
    EXPECT_GT(r.stats.gil_fallbacks, 0u);
  }
  // The same with the STM tier, both subscriptions: quarantined yield
  // points run STM slices, and overflows and retry exhaustion hand spans
  // on to the GIL.
  for (const auto sub : {stm::GilSubscription::kEager,
                         stm::GilSubscription::kLazy}) {
    EngineConfig cfg = persistent;
    cfg.stm.enabled = true;
    cfg.stm.subscription = sub;
    const std::string key = std::string("zec12/persistent-all-stm-") +
                            stm::gil_subscription_name(sub);
    const AccessPathRun r = access_path_run(cfg, key, kAccessPathSrc);
    EXPECT_EQ(r.digest, golden.at(key)) << key;
    EXPECT_GT(r.stats.quarantine_enters, 0u) << key;
    EXPECT_GT(r.stats.stm_escalations, 0u) << key;
    EXPECT_GT(r.stats.stm.commits, 0u) << key;
    EXPECT_GT(r.stats.stm_gil_fallbacks, 0u) << key;
  }
  // A restricted operation inside a transaction (a contended Mutex#lock):
  // its require_nontx abort goes to the GIL regardless of retry budgets.
  {
    const AccessPathRun r = access_path_run(EngineConfig::htm_dynamic(zec12),
                                            "zec12/require-nontx",
                                            kContendedMutexSrc);
    EXPECT_EQ(r.digest, golden.at("zec12/require-nontx"));
    EXPECT_GT(r.stats.htm.aborts_by_reason[static_cast<std::size_t>(
                  htm::AbortReason::kUnsupported)],
              0u);
    EXPECT_GT(r.stats.gil_fallbacks, 0u);
    EXPECT_DOUBLE_EQ(r.stats.results.at("c"), 800.0);
  }
}

/// The open-loop load of the serving tests: 24 Poisson requests whose first
/// arrives after `lead_in` cycles, in bursts of eight separated by idle
/// gaps of 2e7 cycles. Within a burst the handlers overlap (conflicts, and
/// SMT siblings busy on the Xeon); between bursts a sole acceptor thread
/// polls through empty time, like every (shard, epoch) engine of a fleet
/// before its first arrival.
httpsim::DriverConfig lead_in_load() {
  httpsim::DriverConfig d;
  d.arrival = httpsim::Arrival::kPoisson;
  d.rps = 400'000.0;
  d.total_requests = 24;
  return d;
}

std::vector<httpsim::ScheduledRequest> lead_in_slice(
    const httpsim::DriverConfig& d, double ghz, Cycles lead_in) {
  std::vector<httpsim::ScheduledRequest> s = httpsim::make_schedule(d, ghz);
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i].at += lead_in + Cycles{20'000'000} * (i / 8);
  return s;
}

/// FNV-1a of an open-loop slice's metrics document, trace, request log,
/// recorded results and program output.
std::string serve_digest(EngineConfig cfg, const std::string& program,
                         const std::string& key) {
  obs::ObsConfig oc;
  const std::string stem = ::testing::TempDir() + "serve_golden_" +
                           std::to_string(httpsim::cluster::fnv1a64(key));
  oc.metrics_path = stem + ".json";
  oc.trace_path = stem + ".jsonl";
  std::string all;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.heap.initial_slots = 80'000;
    cfg.max_insns = 10'000'000;
    const httpsim::DriverConfig d = lead_in_load();
    const double ghz = cfg.profile.machine.ghz;
    const httpsim::ServerRunResult r = httpsim::run_open_loop_slice(
        std::move(cfg), program, d, lead_in_slice(d, ghz, 120'000'000),
        d.total_requests);
    sink.flush();
    all = obs::metrics_to_json(sink.runs());
    all += r.request_log;
    for (const auto& [k, v] : r.stats.results)
      all += k + "=" + std::to_string(v) + "\n";
    all += r.stats.output;
  }
  std::ifstream trace(oc.trace_path);
  std::stringstream buf;
  buf << trace.rdbuf();
  all += buf.str();
  std::remove(oc.metrics_path.c_str());
  std::remove(oc.trace_path.c_str());
  return std::to_string(httpsim::cluster::fnv1a64(all));
}

/// The serving engine modes: GIL, HTM-dynamic, and HTM-dynamic with the
/// STM tier under persistent aborts at every yield point.
std::vector<std::pair<std::string, EngineConfig>> serve_engines(
    const htm::SystemProfile& p) {
  EngineConfig stm = EngineConfig::htm_dynamic(p);
  stm.stm.enabled = true;
  stm.fault.persistent_all_yps = true;
  stm.fault.seed = 1;
  return {{"gil", EngineConfig::gil(p)},
          {"htm-dynamic", EngineConfig::htm_dynamic(p)},
          {"htm-dynamic-stm", stm}};
}

TEST(EngineBehavior, ServePathGoldenDigests) {
  // How an idle acceptor's polls and a library builtin's scratch stores
  // reach the clock and the memory model is host-side only: these values
  // pin every simulated counter, cycle, trace event and output byte of
  // open-loop webrick and rails slices with a long lead-in, and move only
  // when a change re-baselines simulated output on purpose. Rails covers
  // db_query's scratch; the Xeon's SMT siblings inflate charges.
  const std::map<std::string, std::string> golden = {
      {"webrick/zec12/gil", "10038883959520072473"},
      {"rails/zec12/gil", "4011541470307822712"},
      {"webrick/zec12/htm-dynamic", "18098113865965708514"},
      {"rails/zec12/htm-dynamic", "4946367029033732901"},
      {"webrick/zec12/htm-dynamic-stm", "9690642301006185191"},
      {"rails/zec12/htm-dynamic-stm", "6550727590144937614"},
      {"webrick/xeon/gil", "13499113289756334812"},
      {"rails/xeon/gil", "17215501301175918909"},
      {"webrick/xeon/htm-dynamic", "13036464695684766670"},
      {"rails/xeon/htm-dynamic", "16795229391889992365"},
      {"webrick/xeon/htm-dynamic-stm", "3305547692052332366"},
      {"rails/xeon/htm-dynamic-stm", "9639914956854085944"},
  };
  const std::vector<std::pair<std::string, htm::SystemProfile>> machines = {
      {"zec12", htm::SystemProfile::zec12()},
      {"xeon", htm::SystemProfile::xeon_e3()}};
  const std::vector<std::pair<std::string, const std::string*>> programs = {
      {"webrick", &httpsim::webrick_source()},
      {"rails", &httpsim::rails_source()}};
  for (const auto& [mname, profile] : machines) {
    for (const auto& [ename, cfg] : serve_engines(profile)) {
      for (const auto& [pname, src] : programs) {
        const std::string key = pname + "/" + mname + "/" + ename;
        EXPECT_EQ(serve_digest(cfg, *src, key), golden.at(key)) << key;
      }
    }
  }
}

/// Forwards to an OpenLoopDriver and counts accept() calls. With
/// `hide_next_event` it answers next_event_at() with 0 ("unknown"), so the
/// engine runs every idle accept poll: the uncoalesced reference.
class CountingPort final : public runtime::ServerPort {
 public:
  CountingPort(httpsim::OpenLoopDriver& driver, bool hide_next_event)
      : d_(driver), hide_(hide_next_event) {}
  i64 accept(Cycles now) override {
    ++accepts_;
    return d_.accept(now);
  }
  std::string payload(i64 id) override { return d_.payload(id); }
  void respond(i64 id, std::string_view body, Cycles now) override {
    d_.respond(id, body, now);
  }
  bool shutdown(Cycles now) override { return d_.shutdown(now); }
  Cycles next_event_at() const override {
    return hide_ ? 0 : d_.next_event_at();
  }
  Cycles request_issued_at(i64 id) override {
    return d_.request_issued_at(id);
  }
  Cycles request_accepted_at(i64 id) override {
    return d_.request_accepted_at(id);
  }
  void annotate_request_metrics(obs::RequestMetrics& m) const override {
    d_.annotate_request_metrics(m);
  }
  u64 accepts() const { return accepts_; }

 private:
  httpsim::OpenLoopDriver& d_;
  bool hide_;
  u64 accepts_ = 0;
};

struct CountedRun {
  std::string metrics;  ///< metrics_to_json of the run.
  std::string log;      ///< The driver's request log.
  std::string results;  ///< Recorded results and program output.
  u64 accepts = 0;
  u32 completed = 0;
};

CountedRun run_counted(EngineConfig cfg, const std::string& program,
                       bool hide_next_event, Cycles lead_in) {
  obs::ObsConfig oc;
  oc.metrics_path = ::testing::TempDir() + "idle_polls_" +
                    std::to_string(hide_next_event) + ".json";
  CountedRun out;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.heap.initial_slots = 80'000;
    const httpsim::DriverConfig d = lead_in_load();
    cfg.heap.max_threads = d.total_requests + 8;
    httpsim::OpenLoopDriver driver(
        d, lead_in_slice(d, cfg.profile.machine.ghz, lead_in));
    CountingPort port(driver, hide_next_event);
    Engine engine(std::move(cfg));
    engine.load_program({program});
    engine.attach_server(&port);
    const RunStats stats = engine.run();
    out.metrics = obs::metrics_to_json(sink.runs());
    out.log = driver.log_to_string();
    for (const auto& [k, v] : stats.results)
      out.results += k + "=" + std::to_string(v) + "\n";
    out.results += stats.output;
    out.accepts = port.accepts();
    out.completed = driver.completed();
  }
  std::remove(oc.metrics_path.c_str());
  return out;
}

TEST(EngineBehavior, CoalescedIdlePollsMatchEveryPoll) {
  // The first request arrives after 6e8 cycles: the reference polls
  // through it (and the idle gaps between bursts) one accept at a time;
  // the coalescing side skips each steady run of polls to the next
  // arrival. Everything simulated must come out byte-identical.
  for (const auto& profile :
       {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
    for (const auto& [name, cfg] : serve_engines(profile)) {
      const std::string key = profile.machine.name + "/" + name;
      const CountedRun every = run_counted(cfg, httpsim::webrick_source(),
                                           /*hide_next_event=*/true,
                                           600'000'000);
      const CountedRun coalesced = run_counted(
          cfg, httpsim::webrick_source(), false, 600'000'000);
      EXPECT_EQ(coalesced.metrics, every.metrics) << key;
      EXPECT_EQ(coalesced.log, every.log) << key;
      EXPECT_EQ(coalesced.results, every.results) << key;
      EXPECT_EQ(coalesced.completed, lead_in_load().total_requests) << key;
      EXPECT_GT(every.accepts, 100'000u) << key;
      EXPECT_LE(coalesced.accepts, 4u * coalesced.completed) << key;
    }
  }
}

/// Racy workers that abort persistently at every yield point: spinners
/// wait on each other's GIL slices. `waves` batches of `per_wave` threads
/// are spawned, each wave while the previous one still runs.
std::string spinner_src(int waves, int per_wave) {
  return "$a = [0, 0, 0, 0, 0, 0, 0, 0]\nts = []\n" +
         std::to_string(waves) + R"(.times do |w|
  )" + std::to_string(per_wave) + R"(.times do |i|
    ts << Thread.new(w * 100 + i) do |tid|
      k = 0
      s = 0
      while k < 300
        s += (k * tid) % 7
        if k % 9 == tid % 9
          $a[k % 8] = $a[(k + tid) % 8] + 1
        end
        k += 1
      end
      __record("s" + tid.to_s, s)
    end
  end
  j = 0
  while j < 200
    j += 1
  end
end
ts.each do |t|
  t.join
end
__record("a", $a[0] + $a[3] + $a[7])
)";
}

/// One run's simulated output: stats, metrics document, full-sample trace
/// and, for a server slice, the request log.
struct SpinRun {
  RunStats stats;
  std::string metrics;
  std::string trace;
  std::string log;
};

/// Runs an engine with the given config; a server slice sets `log`.
using SpinRunner = std::function<RunStats(EngineConfig, std::string* log)>;

SpinRunner program_runner(std::vector<std::string> sources) {
  return [sources](EngineConfig cfg, std::string*) {
    Engine engine(std::move(cfg));
    engine.load_program(sources);
    return engine.run();
  };
}

/// A webrick open-loop slice after a short lead-in.
RunStats webrick_slice(EngineConfig cfg, std::string* log) {
  const httpsim::DriverConfig d = lead_in_load();
  const double ghz = cfg.profile.machine.ghz;
  cfg.heap.initial_slots = 80'000;
  httpsim::ServerRunResult r = httpsim::run_open_loop_slice(
      std::move(cfg), httpsim::webrick_source(), d,
      lead_in_slice(d, ghz, 1'000'000), d.total_requests);
  *log = std::move(r.request_log);
  return r.stats;
}

/// Runs `runner`, with a recorder attached when `record` (every spin poll
/// is then a scheduling decision the run takes).
SpinRun spin_run(EngineConfig cfg, const SpinRunner& runner,
                 const std::string& key, bool record) {
  obs::ObsConfig oc;
  const std::string stem = ::testing::TempDir() + "dormant_" +
                           std::to_string(httpsim::cluster::fnv1a64(key)) +
                           (record ? "_rec" : "_plain");
  oc.metrics_path = stem + ".json";
  oc.trace_path = stem + ".jsonl";
  oc.ring_capacity = std::size_t{1} << 24;
  // The recorder's in-memory stream keeps one event; it still sees them all.
  obs::RunRecorder recorder(obs::RecordConfig{.path = "", .limit = 1});
  SpinRun run;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    if (record) cfg.recorder = &recorder;
    run.stats = runner(std::move(cfg), &run.log);
    sink.flush();
    run.metrics = obs::metrics_to_json(sink.runs());
  }
  std::ifstream trace(oc.trace_path);
  std::stringstream buf;
  buf << trace.rdbuf();
  run.trace = buf.str();
  std::remove(oc.metrics_path.c_str());
  std::remove(oc.trace_path.c_str());
  return run;
}

TEST(EngineBehavior, DormantSpinnersMatchEveryPoll) {
  // A spinner that finds the GIL held sleeps through its polls until its
  // spin-loop trip or the first burst that frees the GIL, and they are
  // booked when it wakes. A recorder keeps every spinner on the per-poll
  // path, which is the reference: both runs must agree on everything
  // simulated.
  const auto zec12 = htm::SystemProfile::zec12();
  const auto xeon = htm::SystemProfile::xeon_e3();
  const auto persistent = [](EngineConfig c) {
    c.fault.seed = 1;
    c.fault.persistent_all_yps = true;
    return c;
  };
  const auto with_stm = [](EngineConfig c, stm::GilSubscription sub) {
    c.stm.enabled = true;
    c.stm.subscription = sub;
    return c;
  };
  const auto npb = [](const char* name) {
    const workloads::Workload* w = workloads::by_name(name);
    EXPECT_NE(w, nullptr) << name;
    return program_runner(workloads::sources_for(*w, 12, 1));
  };
  struct Cell {
    std::string key;
    EngineConfig cfg;
    SpinRunner runner;
    bool spin_loop;  ///< Expect spin-loop watchdog reports.
  };
  const SpinRunner racy = program_runner({spinner_src(1, 10)});
  // The NPB cells each include GIL-free bursts picked at exactly a dormant
  // spinner's poll time, on both sides of the tie rule.
  std::vector<Cell> cells = {
      // The hostbench bt-stm-fallback configuration, at scale 1.
      {"zec12/bt-stm-fallback",
       persistent(with_stm(EngineConfig::htm_dynamic(zec12),
                           stm::GilSubscription::kEager)),
       npb("BT"), true},
      {"zec12/htm16-persistent",
       persistent(EngineConfig::htm_fixed(zec12, 16)), racy, true},
      {"zec12/stm-eager",
       persistent(with_stm(EngineConfig::htm_dynamic(zec12),
                           stm::GilSubscription::kEager)),
       racy, true},
      {"zec12/stm-lazy",
       persistent(with_stm(EngineConfig::htm_dynamic(zec12),
                           stm::GilSubscription::kLazy)),
       npb("CG"), true},
      // 13 threads on 4 cores x 2 SMT: spinners share CPUs.
      {"xeon/smt-oversubscribed",
       persistent(with_stm(EngineConfig::htm_dynamic(xeon),
                           stm::GilSubscription::kEager)),
       npb("CG"), true},
      // Later waves land on CPUs whose only thread is a dormant spinner.
      {"zec12/spawn-onto-spinner",
       persistent(EngineConfig::htm_fixed(zec12, 16)),
       program_runner({spinner_src(4, 8)}), true},
  };
  // Handler threads spin on each other's GIL slices between idle
  // stretches of the acceptor.
  for (auto& [name, cfg] : serve_engines(zec12)) {
    if (name != "gil")
      cells.push_back({"webrick/" + name, cfg, webrick_slice, false});
  }
  for (const Cell& c : cells) {
    const SpinRun every = spin_run(c.cfg, c.runner, c.key, true);
    const SpinRun dormant = spin_run(c.cfg, c.runner, c.key, false);
    EXPECT_EQ(dormant.metrics, every.metrics) << c.key;
    EXPECT_TRUE(dormant.stats == every.stats) << c.key;
    EXPECT_EQ(dormant.stats.breakdown.gil_wait,
              every.stats.breakdown.gil_wait) << c.key;
    EXPECT_EQ(dormant.stats.watchdogs_by_kind, every.stats.watchdogs_by_kind)
        << c.key;
    EXPECT_TRUE(dormant.trace == every.trace) << c.key;
    EXPECT_EQ(dormant.log, every.log) << c.key;
    EXPECT_GT(every.stats.gil_fallbacks, 0u) << c.key;
    if (c.spin_loop) {
      EXPECT_GT(every.stats.watchdogs(obs::WatchdogKind::kSpinLoop), 0u)
          << c.key;
    }
  }
}

TEST(EngineBehavior, RecycledMemoryMatchesFreshMemory) {
  // Heap slabs, VM stacks and HTM windows come from the process-wide
  // ZeroPages pool. Each cell's first engine starts from an empty pool; the
  // second finds every mapping it needs there, re-zeroed at other host
  // addresses than a fresh map would give. Host addresses never reach
  // simulated output, so both must agree on everything.
  const auto zec12 = htm::SystemProfile::zec12();
  EngineConfig stm_fallback = EngineConfig::htm_dynamic(zec12);
  stm_fallback.stm.enabled = true;
  stm_fallback.fault.seed = 1;
  stm_fallback.fault.persistent_all_yps = true;
  const workloads::Workload* bt = workloads::by_name("BT");
  ASSERT_NE(bt, nullptr);
  const SpinRunner bt_runner =
      program_runner(workloads::sources_for(*bt, 12, 1));
  const std::vector<std::tuple<std::string, EngineConfig, SpinRunner>> cells =
      {{"zec12/bt-htm-dynamic", EngineConfig::htm_dynamic(zec12), bt_runner},
       {"zec12/bt-stm-fallback", stm_fallback, bt_runner},
       {"webrick/htm-dynamic", EngineConfig::htm_dynamic(zec12),
        webrick_slice}};
  for (const auto& [key, cfg, runner] : cells) {
    zero_pages::trim();
    const SpinRun fresh = spin_run(cfg, runner, key, false);
    const zero_pages::PoolStats pool = zero_pages::pool_stats();
    const SpinRun recycled = spin_run(cfg, runner, key, false);
    EXPECT_EQ(zero_pages::pool_stats().mapped, pool.mapped)
        << key << ": the second engine maps no memory";
    EXPECT_GT(zero_pages::pool_stats().recycled, pool.recycled) << key;
    EXPECT_TRUE(recycled.stats == fresh.stats) << key;
    EXPECT_EQ(recycled.stats.results, fresh.stats.results) << key;
    EXPECT_EQ(recycled.metrics, fresh.metrics) << key;
    EXPECT_TRUE(recycled.trace == fresh.trace) << key;
    EXPECT_EQ(recycled.log, fresh.log) << key;
    EXPECT_GT(fresh.stats.htm.begins, 0u) << key;
  }
}

/// Never has a request and is always shut down, so accept_request returns
/// nil at once. Unless hidden, it announces an event far ahead.
class ClosedPort final : public runtime::ServerPort {
 public:
  explicit ClosedPort(bool hide_next_event) : hide_(hide_next_event) {}
  i64 accept(Cycles) override { return -1; }
  std::string payload(i64) override { return ""; }
  void respond(i64, std::string_view, Cycles) override {}
  bool shutdown(Cycles) override { return true; }
  Cycles next_event_at() const override {
    return hide_ ? 0 : Cycles{1} << 50;
  }

 private:
  bool hide_;
};

/// The metrics document and recorded results of `src` run on `port`.
std::string run_on_port(EngineConfig cfg, const std::string& src,
                        runtime::ServerPort& port) {
  obs::ObsConfig oc;
  oc.metrics_path = ::testing::TempDir() + "io_wait_polls.json";
  std::string all;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.heap.initial_slots = 80'000;
    Engine engine(std::move(cfg));
    engine.load_program({src});
    engine.attach_server(&port);
    const RunStats stats = engine.run();
    all = obs::metrics_to_json(sink.runs());
    for (const auto& [k, v] : stats.results)
      all += k + "=" + std::to_string(v) + "\n";
  }
  std::remove(oc.metrics_path.c_str());
  return all;
}

TEST(EngineBehavior, SoleThreadIoWaitIsNotCoalesced) {
  // A sole thread checks accept and then parks in io_wait, over and over:
  // every cycle moves the counters alike, with the accept check at the
  // same offset, but each iteration does guest work. Only idle accept
  // parks may be skipped; skipping these io_wait parks up to the port's
  // far-ahead event would drop iterations.
  const std::string src = R"(
n = 0
while n < 400
  accept_request()
  io_wait(1)
  n += 1
end
__record("n", n)
)";
  for (const auto& [name, cfg] : serve_engines(htm::SystemProfile::zec12())) {
    ClosedPort hidden(true);
    ClosedPort announced(false);
    const std::string every = run_on_port(cfg, src, hidden);
    EXPECT_EQ(run_on_port(cfg, src, announced), every) << name;
    EXPECT_NE(every.find("n=400"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace gilfree
