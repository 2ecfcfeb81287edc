// Fault-injection tests (docs/ROBUSTNESS.md): the deterministic injector in
// isolation, injected aborts at the HTM-facility level, the engine-level
// robustness contracts (quarantine keeps persistent-abort campaigns within
// the pure-GIL envelope, recovers after the fault window, and converts
// starvation into watchdog events instead of hangs), trace determinism with
// a campaign active, and mid-bytecode abort unwinding as a property over
// seeded random programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "htm/htm.hpp"
#include "htm/profile.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "testutil_programs.hpp"
#include "workloads/workload.hpp"

namespace gilfree {
namespace {

using fault::FaultConfig;
using fault::FaultInjector;
using fault::FaultKind;
using runtime::EngineConfig;

// --- Injector in isolation --------------------------------------------------

TEST(FaultInjector, SameConfigReplaysIdenticalSpuriousArrivals) {
  FaultConfig fc;
  fc.spurious_mean_cycles = 1'000;
  auto sample = [](FaultInjector& inj) {
    std::vector<int> hits;
    inj.begin_fault(0, 0, 0);  // arms the spurious-arrival clock
    for (Cycles t = 0; t < 200'000; t += 500)
      hits.push_back(inj.spurious_due(0, t) ? 1 : 0);
    return hits;
  };
  FaultInjector a(fc, 4);
  FaultInjector b(fc, 4);
  const std::vector<int> ha = sample(a);
  EXPECT_EQ(ha, sample(b)) << "same seed, same arrivals";
  a.reset();
  EXPECT_EQ(ha, sample(a)) << "reset() must replay the identical campaign";
  EXPECT_GT(std::count(ha.begin(), ha.end(), 1), 10);
  EXPECT_EQ(a.stats().count(FaultKind::kSpurious),
            static_cast<u64>(std::count(ha.begin(), ha.end(), 1)));
}

TEST(FaultInjector, PersistentWindowPinsTargetedYieldPoints) {
  FaultConfig fc;
  fc.persistent_yps = {2};
  fc.persistent_window.from = 100;
  fc.persistent_window.until = 200;
  FaultInjector inj(fc, 1);
  EXPECT_FALSE(inj.begin_fault(0, 2, 50)) << "before the window";
  EXPECT_TRUE(inj.begin_fault(0, 2, 150));
  EXPECT_FALSE(inj.begin_fault(0, 1, 150)) << "untargeted yield point";
  EXPECT_FALSE(inj.begin_fault(0, 2, 250)) << "after the window";
  EXPECT_EQ(inj.stats().count(FaultKind::kPersistent), 1u);
}

TEST(FaultInjector, PersistentAllTargetsEveryYieldPointForever) {
  FaultConfig fc;
  fc.persistent_all_yps = true;  // until == 0: open-ended window
  FaultInjector inj(fc, 1);
  EXPECT_TRUE(inj.begin_fault(0, 0, 0));
  EXPECT_TRUE(inj.begin_fault(0, 57, 1'000'000'000));
  EXPECT_TRUE(inj.begin_fault(0, -1, 5)) << "thread-entry pseudo yield point";
}

TEST(FaultInjector, CapacityFactorAppliesOnlyInsideItsWindow) {
  FaultConfig fc;
  fc.capacity_factor = 0.25;
  fc.capacity_window.from = 1'000;
  fc.capacity_window.until = 2'000;
  FaultInjector inj(fc, 1);
  EXPECT_EQ(inj.capacity_factor(500), 1.0);
  EXPECT_EQ(inj.capacity_factor(1'500), 0.25);
  EXPECT_EQ(inj.capacity_factor(2'500), 1.0);
  EXPECT_TRUE(inj.capacity_active(1'500));
  EXPECT_FALSE(inj.capacity_active(2'500));
}

// --- Facility level ---------------------------------------------------------

struct FacilityFixture {
  explicit FacilityFixture(const FaultConfig& fc)
      : profile(htm::SystemProfile::zec12()),
        machine(profile.machine),
        htm(profile.htm, &machine, &guest),
        injector(fc, 12) {
    htm.set_fault_injector(&injector);
  }
  /// The facility's only guest segment: one 256-B line of words.
  struct alignas(256) Line {
    u64 words[32] = {};
  } mem;
  sim::GuestSpace guest = [this] {
    sim::GuestSpace g;
    g.add_segment("mem", mem.words, sizeof mem.words);
    return g;
  }();
  htm::SystemProfile profile;
  sim::Machine machine;
  htm::HtmFacility htm;
  FaultInjector injector;
};

TEST(FaultFacility, SpuriousArrivalsAbortAsTransientConflicts) {
  FaultConfig fc;
  fc.spurious_mean_cycles = 2'000;
  FacilityFixture f(fc);
  u64& word = f.mem.words[0];
  u64 conflicts = 0;
  for (int i = 0; i < 300; ++i) {
    if (f.htm.tx_begin(0) != htm::AbortReason::kNone) continue;
    try {
      for (int j = 0; j < 8; ++j) {
        f.machine.advance(0, 400);
        (void)f.htm.tx_load(0, &word, true);
      }
      (void)f.htm.tx_commit(0);
    } catch (const htm::TxAbort& ab) {
      if (ab.reason == htm::AbortReason::kConflict) ++conflicts;
    }
  }
  // Single CPU, no other transactions: every kConflict abort is injected.
  EXPECT_GT(f.injector.stats().count(FaultKind::kSpurious), 0u);
  EXPECT_EQ(conflicts, f.injector.stats().count(FaultKind::kSpurious));
}

TEST(FaultFacility, PersistentBeginFaultRefusesTheTransaction) {
  FaultConfig fc;
  fc.persistent_all_yps = true;
  FacilityFixture f(fc);
  const htm::AbortReason r = f.htm.tx_begin(0, /*yp=*/3);
  EXPECT_NE(r, htm::AbortReason::kNone);
  EXPECT_TRUE(htm::is_persistent(r))
      << "injected begin faults must look unretryable to the TLE layer";
  EXPECT_FALSE(f.htm.in_tx(0));
  EXPECT_EQ(f.injector.stats().count(FaultKind::kPersistent), 1u);
}

// --- Engine level -----------------------------------------------------------

runtime::RunStats run_micro(EngineConfig cfg, unsigned threads = 4,
                            unsigned scale = 1) {
  runtime::Engine engine(std::move(cfg));
  engine.load_program(
      workloads::sources_for(workloads::micro_while(), threads, scale));
  return engine.run();
}

TEST(FaultEngine, PersistentAbortsEverywhereStayWithinTheGilEnvelope) {
  const auto profile = htm::SystemProfile::zec12();
  const runtime::RunStats gil = run_micro(EngineConfig::gil(profile));

  auto cfg = EngineConfig::htm_dynamic(profile);
  cfg.fault.persistent_all_yps = true;
  const runtime::RunStats storm = run_micro(std::move(cfg));

  EXPECT_EQ(storm.results.at("verify"), gil.results.at("verify"));
  EXPECT_GT(storm.quarantine_enters, 0u)
      << "100% persistent aborts must trip the yield-point breaker";
  EXPECT_GT(storm.faults.count(FaultKind::kPersistent), 0u);
  // The headline robustness contract: with every yield point aborting
  // persistently, quarantined GIL slices keep the run within ~10% of the
  // pure-GIL interpreter instead of degrading to retry storms.
  EXPECT_LE(storm.total_cycles, gil.total_cycles + gil.total_cycles / 10);
  // The watchdog converts GIL-saturated spinning into reported events
  // rather than silent starvation; the run still finishes.
  EXPECT_GT(storm.watchdog_events, 0u);
  // Every report is a spinner's: the quarantined GIL slices keep the GIL
  // held through whole spin budgets, while no retry loop runs away and no
  // hand-off waits anywhere near the GIL-wait budget.
  EXPECT_EQ(storm.watchdogs(obs::WatchdogKind::kSpinLoop),
            storm.watchdog_events);
  EXPECT_EQ(storm.watchdogs(obs::WatchdogKind::kAbortLoop), 0u);
  EXPECT_EQ(storm.watchdogs(obs::WatchdogKind::kGilWait), 0u);
}

TEST(FaultEngine, QuarantineRecoversAfterThePersistentWindow) {
  const auto profile = htm::SystemProfile::zec12();
  const runtime::RunStats clean = run_micro(EngineConfig::htm_dynamic(profile));

  auto cfg = EngineConfig::htm_dynamic(profile);
  cfg.fault.persistent_all_yps = true;
  cfg.fault.persistent_window.until = clean.total_cycles / 3;
  const runtime::RunStats run = run_micro(std::move(cfg));

  EXPECT_EQ(run.results.at("verify"), clean.results.at("verify"));
  EXPECT_GT(run.quarantine_enters, 0u);
  EXPECT_GE(run.quarantine_exits, 1u)
      << "recovery probes must leave quarantine once the faults stop";
  EXPECT_LT(run.total_cycles, clean.total_cycles * 3)
      << "post-window throughput must recover towards the fault-free run";
}

TEST(FaultEngine, IdenticalSeedAndCampaignReplayAnIdenticalTrace) {
  auto run_trace = [&](const char* name) {
    obs::ObsConfig oc;
    oc.trace_path = ::testing::TempDir() + "fault_" + name;
    std::string text;
    {
      obs::Sink sink(oc);
      auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
      cfg.seed = 42;
      cfg.fault.spurious_mean_cycles = 20'000;
      cfg.obs_sink = &sink;
      (void)run_micro(std::move(cfg));
    }
    std::ifstream f(oc.trace_path);
    std::stringstream buf;
    buf << f.rdbuf();
    std::remove(oc.trace_path.c_str());
    return buf.str();
  };
  const std::string a = run_trace("det_a.jsonl");
  const std::string b = run_trace("det_b.jsonl");
  ASSERT_FALSE(a.empty());
  std::stringstream sa(a), sb(b);
  std::string la, lb;
  u64 lines = 0, fault_events = 0;
  while (std::getline(sa, la) && std::getline(sb, lb)) {
    const obs::JsonValue ea = obs::JsonValue::parse(la);
    const obs::JsonValue eb = obs::JsonValue::parse(lb);
    ASSERT_EQ(ea.at("ev").as_string(), eb.at("ev").as_string())
        << "line " << lines;
    if (ea.at("ev").as_string() == "fault") ++fault_events;
    ++lines;
  }
  EXPECT_GT(lines, 100u);
  EXPECT_GT(fault_events, 0u) << "the campaign must be visible in the trace";
}

// --- Mid-bytecode abort unwinding as a property -----------------------------
//
// Seeded random MiniRuby programs (tests/testutil_programs.hpp) exercise
// every extended-yield-point opcode across threads; the recorded sum is
// schedule-independent, so any divergence from the pure-GIL run means an
// abort rolled back VM state incorrectly.

using testutil::random_program;

runtime::RunStats run_src(EngineConfig cfg, const std::string& src) {
  cfg.heap.initial_slots = 80'000;
  runtime::Engine engine(std::move(cfg));
  engine.load_program({src});
  return engine.run();
}

TEST(FaultProperty, RandomProgramsSurviveAbortStormsUnchanged) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    const std::string src = random_program(seed);
    const runtime::RunStats gil =
        run_src(EngineConfig::gil(htm::SystemProfile::zec12()), src);

    // Heavy spurious-abort storms: transactions die mid-opcode at random
    // points on both machine models, including the TSX learning profile.
    for (const htm::SystemProfile& profile :
         {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
      auto cfg = EngineConfig::htm_dynamic(profile);
      cfg.fault.spurious_mean_cycles = 5'000;
      const runtime::RunStats storm = run_src(std::move(cfg), src);
      EXPECT_EQ(storm.results.at("sum"), gil.results.at("sum"))
          << "seed " << seed << " on " << profile.machine.name;
      EXPECT_EQ(storm.output, gil.output) << "seed " << seed;
      EXPECT_GT(storm.faults.count(FaultKind::kSpurious), 0u);
    }

    // A persistent-abort window at every yield point exercises the unwind
    // path of each extended-yield-point opcode plus quarantine re-entry.
    auto pcfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
    pcfg.fault.persistent_all_yps = true;
    pcfg.fault.persistent_window.until = 2'000'000;
    const runtime::RunStats pers = run_src(std::move(pcfg), src);
    EXPECT_EQ(pers.results.at("sum"), gil.results.at("sum"))
        << "seed " << seed << " under persistent aborts";
  }
}

}  // namespace
}  // namespace gilfree
