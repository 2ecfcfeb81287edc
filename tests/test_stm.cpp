// Tier-2 STM engine tests (docs/TIERS.md).
//
// Unit level (StmEngine with no HTM facility):
//   - conflicting writers of one line never both commit, across seeded
//     random interleavings (including blind stores neither reader saw),
//   - the lazy-subscription zombie hazard: a transaction that read half of
//     a two-word invariant before a non-transactional writer broke it
//     observes torn state, and commit-time validation refuses the commit,
//   - incremental yield-point validation catches the same zombie early,
//   - eager subscription dooms live transactions at GIL acquisition,
//   - lazy subscription refuses to commit while the GIL word is held,
//   - read/write capacity overflows abort with the dedicated causes.
//
// Engine level:
//   - with the tier disabled, traces/metrics/stats are byte-identical no
//     matter how the other --stm-* knobs are set, on both machine profiles
//     and both engines (the differential guarantee vs the seed),
//   - under a persistent-abort campaign the tier engages (escalations and
//     commits > 0), produces the same program results as the GIL and
//     STM-off paths, and serializes measurably less time on the GIL,
//   - the same seeded run is trace-deterministic,
//   - strict-CLI rejection for every new flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "htm/profile.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "stm/stm.hpp"
#include "testutil_programs.hpp"

namespace gilfree {
namespace {

using runtime::EngineConfig;
using stm::GilSubscription;
using stm::StmAbortCause;
using stm::StmConfig;
using stm::StmEngine;

StmConfig unit_config() {
  StmConfig c;
  c.enabled = true;
  c.line_bytes = 256;
  return c;
}

// 256 B = 32 u64 slots per line; the array spans exactly four lines.
struct alignas(256) SharedLines {
  u64 slots[128] = {};
};

u64 aborts_of(const StmEngine& e, StmAbortCause c) {
  return e.stats().aborts_by_cause[static_cast<std::size_t>(c)];
}

// --- conflicting writers ----------------------------------------------------

TEST(StmUnit, ConflictingWritersNeverBothCommit) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    StmEngine e(unit_config(), /*htm=*/nullptr);
    SharedLines mem;

    e.begin(0);
    e.begin(1);
    std::vector<std::set<LineId>> written(2);
    // Six random shared accesses each, interleaved by coin flip. Slots are
    // spread over all four lines, so write sets sometimes collide and
    // sometimes do not.
    std::vector<u32> ops_left = {6, 6};
    while (ops_left[0] + ops_left[1] > 0) {
      u32 tid = static_cast<u32>(rng.next_below(2));
      if (ops_left[tid] == 0) tid = 1 - tid;
      --ops_left[tid];
      u64* addr = &mem.slots[rng.next_below(128)];
      const LineId line = reinterpret_cast<std::uintptr_t>(addr) / 256;
      if (rng.next_below(2) == 0) {
        e.store(tid, /*cpu=*/tid, addr, 100 * (tid + 1) + ops_left[tid],
                /*shared=*/true);
        written[tid].insert(line);
      } else {
        (void)e.load(tid, /*cpu=*/tid, addr, /*shared=*/true);
      }
    }
    const u32 first = static_cast<u32>(rng.next_below(2));
    const bool first_ok = e.commit(first, first) == StmAbortCause::kNone;
    const bool second_ok = e.commit(1 - first, 1 - first) ==
                           StmAbortCause::kNone;

    // With no third party, the first committer always validates.
    EXPECT_TRUE(first_ok) << "seed " << seed;
    bool overlap = false;
    for (LineId l : written[0]) overlap |= written[1].count(l) > 0;
    if (overlap) {
      EXPECT_FALSE(second_ok)
          << "seed " << seed
          << ": two writers of one line must never both commit";
      EXPECT_EQ(e.last_cause(1 - first), StmAbortCause::kValidation)
          << "seed " << seed;
    }
    EXPECT_EQ(e.stats().begins, 2u);
    EXPECT_EQ(e.stats().commits, second_ok ? 2u : 1u);
  }
}

// --- the lazy zombie hazard -------------------------------------------------

// A lazily-subscribed transaction keeps running while a non-transactional
// writer (a GIL holder, from the runtime's point of view) mutates memory.
// It can observe a torn two-word invariant — the hazard — but commit-time
// validation sees the stale read marker and refuses the commit.
TEST(StmUnit, LazyZombieObservesTornStateButCannotCommit) {
  StmConfig cfg = unit_config();
  cfg.subscription = GilSubscription::kLazy;
  StmEngine e(cfg, nullptr);
  u64 gil_word = 0;
  e.set_gil_word(&gil_word);
  SharedLines mem;
  u64* a = &mem.slots[0];   // line 0
  u64* b = &mem.slots[32];  // line 1
  *a = 5;
  *b = 5;  // invariant: *a == *b

  e.begin(0);
  const u64 read_a = e.load(0, 0, a, true);

  // The "GIL holder": writes both words non-transactionally, mid-span.
  gil_word = 1;
  *a = 6;
  e.on_nontx_write(a);
  *b = 6;
  e.on_nontx_write(b);
  gil_word = 0;

  const u64 read_b = e.load(0, 0, b, true);
  EXPECT_NE(read_a, read_b) << "the zombie really does see the torn pair";

  e.store(0, 0, a, read_a + read_b, true);
  EXPECT_EQ(e.commit(0, 0), StmAbortCause::kValidation)
      << "commit-time validation must contain the hazard";
  EXPECT_EQ(*a, 6u) << "the refused buffer must not publish";
  EXPECT_EQ(e.last_cause(0), StmAbortCause::kValidation);
  EXPECT_EQ(aborts_of(e, StmAbortCause::kValidation), 1u);
}

TEST(StmUnit, IncrementalValidationKillsTheZombieEarly) {
  StmConfig cfg = unit_config();
  cfg.subscription = GilSubscription::kLazy;
  StmEngine e(cfg, nullptr);
  SharedLines mem;
  e.begin(0);
  (void)e.load(0, 0, &mem.slots[0], true);
  EXPECT_TRUE(e.validate(0)) << "nothing invalidated yet";

  mem.slots[0] = 9;
  e.on_nontx_write(&mem.slots[0]);
  EXPECT_FALSE(e.validate(0)) << "yield-point validation must catch it";
  EXPECT_EQ(e.stats().zombie_kills, 1u);
  EXPECT_FALSE(e.in_tx(0)) << "validate rolls the transaction back";
}

TEST(StmUnit, LazyCommitRefusesWhileGilHeld) {
  StmConfig cfg = unit_config();
  cfg.subscription = GilSubscription::kLazy;
  StmEngine e(cfg, nullptr);
  u64 gil_word = 1;  // held for the whole span
  e.set_gil_word(&gil_word);
  SharedLines mem;
  e.begin(0);
  e.store(0, 0, &mem.slots[0], 7, true);
  EXPECT_EQ(e.commit(0, 0), StmAbortCause::kGilSubscription);
  EXPECT_EQ(mem.slots[0], 0u);
}

TEST(StmUnit, EagerSubscriptionDoomsAtAcquisition) {
  StmEngine e(unit_config(), nullptr);  // default subscription: eager
  SharedLines mem;
  e.begin(0);
  (void)e.load(0, 0, &mem.slots[0], true);
  e.on_gil_acquired();
  EXPECT_TRUE(e.doomed(0));
  EXPECT_THROW((void)e.load(0, 0, &mem.slots[1], true), htm::TxAbort);
  EXPECT_EQ(e.last_cause(0), StmAbortCause::kGilSubscription);

  // Lazy configuration ignores the acquisition signal entirely.
  StmConfig lazy = unit_config();
  lazy.subscription = GilSubscription::kLazy;
  StmEngine e2(lazy, nullptr);
  e2.begin(0);
  e2.on_gil_acquired();
  EXPECT_FALSE(e2.doomed(0));
}

// --- capacity ---------------------------------------------------------------

TEST(StmUnit, OverflowAbortsWithDedicatedCauses) {
  StmConfig cfg = unit_config();
  cfg.max_read_lines = 2;
  cfg.max_write_entries = 2;
  StmEngine e(cfg, nullptr);
  SharedLines mem;

  e.begin(0);
  (void)e.load(0, 0, &mem.slots[0], true);   // line 0
  (void)e.load(0, 0, &mem.slots[32], true);  // line 1
  EXPECT_THROW((void)e.load(0, 0, &mem.slots[64], true), htm::TxAbort);
  EXPECT_EQ(e.last_cause(0), StmAbortCause::kOverflowRead);

  e.begin(0);
  e.store(0, 0, &mem.slots[0], 1, true);
  e.store(0, 0, &mem.slots[1], 2, true);
  e.store(0, 0, &mem.slots[1], 3, true);  // same entry: no new slot
  EXPECT_THROW(e.store(0, 0, &mem.slots[2], 4, true), htm::TxAbort);
  EXPECT_EQ(e.last_cause(0), StmAbortCause::kOverflowWrite);
}

// --- engine level -----------------------------------------------------------

struct Observed {
  runtime::RunStats stats;
  obs::RunMetrics metrics;
  std::string trace;
};

/// The run's entry in its exported metrics document.
obs::JsonValue exported_run(const Observed& o) {
  return obs::JsonValue::parse(obs::metrics_to_json({o.metrics}))
      .at("runs")
      .as_array()
      .at(0);
}

Observed run_config(EngineConfig cfg, const std::string& src) {
  obs::ObsConfig oc;
  // Keyed by test name: ctest -j runs this suite's tests as concurrent
  // processes, and a shared path races (write / read-back / remove).
  oc.trace_path =
      ::testing::TempDir() + "stm_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_trace.jsonl";
  Observed o;
  {
    obs::Sink sink(oc);
    cfg.heap.initial_slots = 80'000;
    cfg.obs_sink = &sink;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({src});
    o.stats = engine.run();
    sink.flush();
    o.metrics = sink.runs().at(0);
  }
  std::ifstream f(oc.trace_path);
  std::stringstream buf;
  buf << f.rdbuf();
  o.trace = buf.str();
  std::remove(oc.trace_path.c_str());
  return o;
}

// The differential guarantee: with the tier disabled (the default), every
// other --stm-* knob is inert — traces, metrics documents, and stats stay
// byte-identical, i.e. the seed behavior is preserved exactly.
TEST(StmEngineLevel, DisabledTierIsByteIdenticalToSeedBehavior) {
  u64 seed = 11;
  for (const htm::SystemProfile& profile :
       {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
    for (const bool htm_mode : {false, true}) {
      const std::string src = testutil::random_program(seed++);
      EngineConfig base = htm_mode ? EngineConfig::htm_dynamic(profile)
                                   : EngineConfig::gil(profile);
      const Observed plain = run_config(base, src);
      ASSERT_FALSE(plain.trace.empty());
      EXPECT_FALSE(exported_run(plain).has("stm"))
          << "a disabled tier must never report an stm metrics block";

      EngineConfig tweaked = base;
      tweaked.stm.enabled = false;  // the one knob that matters
      tweaked.stm.subscription = GilSubscription::kLazy;
      tweaked.stm.commit_retry_max = 9;
      tweaked.stm.slice_yields = 3;
      tweaked.stm.max_read_lines = 16;
      tweaked.stm.max_write_entries = 16;
      tweaked.stm.yield_validation = false;
      const Observed other = run_config(tweaked, src);

      const std::string tag = std::string(profile.machine.name) + "/" +
                              (htm_mode ? "HTM" : "GIL");
      EXPECT_EQ(other.stats.total_cycles, plain.stats.total_cycles) << tag;
      EXPECT_EQ(other.stats.results, plain.stats.results) << tag;
      EXPECT_EQ(other.trace, plain.trace)
          << tag << ": STM-off trace must be byte-identical";
      EXPECT_EQ(obs::metrics_to_json({other.metrics}),
                obs::metrics_to_json({plain.metrics}))
          << tag << ": STM-off metrics document must be byte-identical";
    }
  }
}

// Under a campaign that makes every TBEGIN fail persistently, the tier
// engages, keeps the program's results identical, and removes most of the
// serialized-on-GIL time the STM-off escalation pays.
TEST(StmEngineLevel, TierEngagesUnderPersistentAbortCampaign) {
  const htm::SystemProfile profile = htm::SystemProfile::zec12();
  const std::string src = testutil::random_program(23);

  EngineConfig off = EngineConfig::htm_dynamic(profile);
  off.fault.persistent_all_yps = true;
  const Observed off_run = run_config(off, src);

  const Observed gil_run = run_config(EngineConfig::gil(profile), src);
  EXPECT_EQ(off_run.stats.results, gil_run.stats.results);

  for (const GilSubscription sub :
       {GilSubscription::kEager, GilSubscription::kLazy}) {
    EngineConfig on = off;
    on.stm.enabled = true;
    on.stm.subscription = sub;
    const Observed r = run_config(on, src);
    const std::string tag = stm::gil_subscription_name(sub);

    EXPECT_EQ(r.stats.results, gil_run.stats.results)
        << tag << ": the tier must not change program results";
    EXPECT_GT(r.stats.stm_escalations, 0u) << tag;
    EXPECT_GT(r.stats.stm.commits, 0u) << tag;
    EXPECT_LT(r.stats.breakdown.gil_held, off_run.stats.breakdown.gil_held)
        << tag << ": STM must remove serialized-on-GIL time";
    const obs::JsonValue run = exported_run(r);
    ASSERT_TRUE(run.has("stm"))
        << tag << ": the stm metrics block must be exported";
    EXPECT_EQ(run.at("stm").at("commits").as_u64(), r.stats.stm.commits)
        << tag;

    // Determinism: the identical configuration replays bit for bit.
    const Observed again = run_config(on, src);
    EXPECT_EQ(again.trace, r.trace) << tag << ": trace must be deterministic";
    EXPECT_EQ(again.stats.total_cycles, r.stats.total_cycles) << tag;
  }
}

// --- strict CLI -------------------------------------------------------------

void expect_rejected(const std::string& flag) {
  std::string arg = flag;
  std::vector<char*> argv = {const_cast<char*>("test"), arg.data()};
  CliFlags flags(static_cast<int>(argv.size()), argv.data(),
                 /*throw_errors=*/true);
  EXPECT_THROW(StmConfig::from_flags(flags), std::invalid_argument) << flag;
}

TEST(StmCli, EveryNewFlagRejectsBadValues) {
  expect_rejected("--gil-subscription=bogus");
  expect_rejected("--gil-subscription=");
  expect_rejected("--stm-commit-retry=0");
  expect_rejected("--stm-commit-retry=-1");
  expect_rejected("--stm-commit-retry=lots");
  expect_rejected("--stm-slice-yields=0");
  expect_rejected("--stm-max-read=0");
  expect_rejected("--stm-max-write=0");
  // Bool flags (--stm, --stm-yield-validation) follow the CliFlags
  // convention: false/0/no mean false, anything else true — same as every
  // other bool flag in the repo, so no strictness test for those.
}

TEST(StmCli, GoodValuesParseIntoTheConfig) {
  std::vector<std::string> args = {
      "test",          "--stm",          "--gil-subscription=lazy",
      "--stm-commit-retry=7", "--stm-slice-yields=12",
      "--stm-max-read=64",    "--stm-max-write=48",
      "--stm-yield-validation=false"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  CliFlags flags(static_cast<int>(argv.size()), argv.data(),
                 /*throw_errors=*/true);
  const StmConfig c = StmConfig::from_flags(flags);
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.subscription, GilSubscription::kLazy);
  EXPECT_EQ(c.commit_retry_max, 7u);
  EXPECT_EQ(c.slice_yields, 12u);
  EXPECT_EQ(c.max_read_lines, 64u);
  EXPECT_EQ(c.max_write_entries, 48u);
  EXPECT_FALSE(c.yield_validation);
}

}  // namespace
}  // namespace gilfree
