// TLE algorithm tests: the Fig. 3 length table in isolation, the Gil class,
// the sim machine, and engine-level TLE semantics (single-thread GIL
// reversion, transaction counts vs configured lengths, dynamic shrinkage
// under conflicts, atomicity as a property over engines).
#include <gtest/gtest.h>

#include "gil/gil.hpp"
#include "runtime/engine.hpp"
#include "sim/machine.hpp"
#include "tle/length_table.hpp"

namespace gilfree {
namespace {

using runtime::Engine;
using runtime::EngineConfig;

// --- Fig. 3 length table ----------------------------------------------------

tle::TleConfig dynamic_config() {
  tle::TleConfig c;
  c.fixed_length = -1;
  c.initial_transaction_length = 255;
  c.profiling_period = 300;
  c.adjustment_threshold = 3;
  c.attenuation_rate = 0.75;
  return c;
}

TEST(LengthTable, InitializesLazilyTo255) {
  tle::LengthTable t(4, dynamic_config());
  EXPECT_EQ(t.set_transaction_length(0), 255u);
  EXPECT_EQ(t.length(0), 255u);
  EXPECT_EQ(t.length(3), 255u);  // uninitialized reads report the default
}

TEST(LengthTable, FixedModeIgnoresAdjustment) {
  auto cfg = dynamic_config();
  cfg.fixed_length = 16;
  tle::LengthTable t(4, cfg);
  EXPECT_EQ(t.set_transaction_length(0), 16u);
  for (int i = 0; i < 100; ++i) t.adjust_transaction_length(0);
  EXPECT_EQ(t.set_transaction_length(0), 16u);
  EXPECT_EQ(t.adjustments(), 0u);
}

TEST(LengthTable, ShortensAfterThresholdExceeded) {
  tle::LengthTable t(4, dynamic_config());
  (void)t.set_transaction_length(0);
  // ADJUSTMENT_THRESHOLD = 3: the first 4 aborted transactions only count
  // (Fig. 3 lines 16-17); the 5th crosses the threshold and shortens.
  for (int i = 0; i < 4; ++i) t.adjust_transaction_length(0);
  EXPECT_EQ(t.length(0), 255u);
  t.adjust_transaction_length(0);
  EXPECT_EQ(t.length(0), static_cast<u32>(255 * 0.75));
  EXPECT_EQ(t.adjustments(), 1u);
}

TEST(LengthTable, ConvergesToMinimumUnderSustainedAborts) {
  tle::LengthTable t(2, dynamic_config());
  for (int round = 0; round < 2'000; ++round) {
    (void)t.set_transaction_length(0);
    t.adjust_transaction_length(0);
  }
  EXPECT_EQ(t.length(0), 1u);
  EXPECT_EQ(t.length(1), 255u) << "other yield points are unaffected";
  EXPECT_GT(t.fraction_at_length_one(), 0.99);
}

TEST(LengthTable, StopsAdjustingAfterProfilingPeriod) {
  auto cfg = dynamic_config();
  cfg.profiling_period = 10;
  cfg.adjustment_threshold = 3;
  tle::LengthTable t(2, cfg);
  // Reach steady state: more than PROFILING_PERIOD transactions with few
  // aborts.
  for (int i = 0; i < 20; ++i) (void)t.set_transaction_length(0);
  const u32 before = t.length(0);
  for (int i = 0; i < 50; ++i) t.adjust_transaction_length(0);
  EXPECT_EQ(t.length(0), before)
      << "no shortening once the profiling period has elapsed (Fig. 3 l.14)";
}

TEST(LengthTable, PseudoYieldPointForThreadStart) {
  tle::LengthTable t(4, dynamic_config());
  EXPECT_EQ(t.set_transaction_length(-1), 255u);  // does not throw
}

// --- Yield-point quarantine (circuit breaker; docs/ROBUSTNESS.md) -----------

tle::TleConfig quarantine_config() {
  auto c = dynamic_config();
  c.quarantine_enabled = true;
  c.quarantine_abort_streak = 6;
  c.quarantine_probe_initial = 2;
  c.quarantine_probe_max = 8;
  c.initial_transaction_length = 1;  // every abort is a floor-length abort
  return c;
}

/// Aborts `n` transactions at `yp`; returns true if one tripped the breaker.
bool abort_n(tle::LengthTable& t, i32 yp, int n) {
  bool entered = false;
  for (int i = 0; i < n; ++i) {
    (void)t.set_transaction_length(yp);
    entered = t.adjust_transaction_length(yp).entered_quarantine || entered;
  }
  return entered;
}

TEST(Quarantine, FloorAbortStreakTripsTheBreaker) {
  tle::LengthTable t(4, quarantine_config());
  EXPECT_FALSE(abort_n(t, 0, 5)) << "below the streak threshold";
  EXPECT_TRUE(abort_n(t, 0, 1)) << "the 6th consecutive floor abort trips";
  EXPECT_TRUE(t.quarantined(0));
  EXPECT_FALSE(t.quarantined(1)) << "quarantine is per yield point";
  EXPECT_EQ(t.quarantine_enters(), 1u);
  EXPECT_EQ(t.quarantine_enters_at(0), 1u);
  EXPECT_EQ(t.begin_route(1), tle::Route::kHtm);
}

TEST(Quarantine, CommitResetsTheAbortStreak) {
  tle::LengthTable t(4, quarantine_config());
  EXPECT_FALSE(abort_n(t, 0, 5));
  EXPECT_FALSE(t.on_commit(0)) << "a healthy commit is not a probe exit";
  EXPECT_FALSE(abort_n(t, 0, 5)) << "the streak restarted at the commit";
  EXPECT_FALSE(t.quarantined(0));
}

TEST(Quarantine, ProbesOnExponentialBackoffAndExitsOnCommit) {
  tle::LengthTable t(4, quarantine_config());
  ASSERT_TRUE(abort_n(t, 0, 6));

  // probe_initial = 2 GIL slices, then one minimum-length HTM probe.
  EXPECT_EQ(t.begin_route(0), tle::Route::kGil);
  EXPECT_EQ(t.begin_route(0), tle::Route::kGil);
  EXPECT_EQ(t.begin_route(0), tle::Route::kProbe);
  EXPECT_EQ(t.quarantine_probes(), 1u);

  // The probe aborts: backoff doubles to 4, then 8, then caps at 8.
  for (const int gap : {4, 8, 8}) {
    EXPECT_TRUE(t.adjust_transaction_length(0).probe_failed);
    for (int i = 0; i < gap; ++i)
      EXPECT_EQ(t.begin_route(0), tle::Route::kGil) << "gap " << gap;
    EXPECT_EQ(t.begin_route(0), tle::Route::kProbe);
  }

  // A committing probe leaves quarantine.
  EXPECT_TRUE(t.on_commit(0));
  EXPECT_FALSE(t.quarantined(0));
  EXPECT_EQ(t.quarantine_exits(), 1u);
  EXPECT_EQ(t.quarantine_exits_at(0), 1u);
  EXPECT_EQ(t.begin_route(0), tle::Route::kHtm);
}

TEST(Quarantine, ExitRestartsTheLengthEntryFromScratch) {
  auto cfg = dynamic_config();
  cfg.quarantine_enabled = true;
  cfg.quarantine_abort_streak = 6;
  cfg.quarantine_probe_initial = 1;
  tle::LengthTable t(2, cfg);
  // Drive the Fig. 3 entry down to the floor, then through quarantine.
  for (int round = 0; round < 2'000 && !t.quarantined(0); ++round) {
    (void)t.set_transaction_length(0);
    (void)t.adjust_transaction_length(0);
  }
  ASSERT_TRUE(t.quarantined(0));
  EXPECT_EQ(t.length(0), 1u);
  EXPECT_EQ(t.begin_route(0), tle::Route::kGil);
  EXPECT_EQ(t.begin_route(0), tle::Route::kProbe);
  ASSERT_TRUE(t.on_commit(0));
  EXPECT_EQ(t.set_transaction_length(0), 255u)
      << "the length re-learns from INITIAL_TRANSACTION_LENGTH after exit";
}

TEST(Quarantine, DisabledConfigNeverRoutesAwayFromHtm) {
  auto cfg = quarantine_config();
  cfg.quarantine_enabled = false;
  tle::LengthTable t(2, cfg);
  EXPECT_FALSE(abort_n(t, 0, 100));
  EXPECT_EQ(t.begin_route(0), tle::Route::kHtm);
  EXPECT_EQ(t.quarantine_enters(), 0u);
}

// --- Gil ---------------------------------------------------------------------

TEST(Gil, AcquireReleaseAndWaiters) {
  u64 word = 0;
  gil::Gil g(&word, nullptr);
  EXPECT_FALSE(g.is_acquired());
  EXPECT_TRUE(g.try_acquire(0, 7, 100));
  EXPECT_TRUE(g.is_acquired());
  EXPECT_EQ(g.owner_tid(), 7);
  EXPECT_FALSE(g.try_acquire(1, 8, 110));
  g.enqueue_waiter(8);
  g.enqueue_waiter(9);
  g.enqueue_waiter(8);  // duplicate ignored
  EXPECT_EQ(g.num_waiters(), 2u);
  EXPECT_EQ(g.release(0, 7, 200), 8);
  EXPECT_FALSE(g.is_acquired());
  g.remove_waiter(8);
  EXPECT_EQ(g.head_waiter(), 9);
  EXPECT_EQ(g.stats().acquisitions, 1u);
  EXPECT_EQ(g.stats().contended_acquisitions, 2u);
  EXPECT_EQ(g.stats().held_cycles, 100u);
}

// --- sim::Machine --------------------------------------------------------------

TEST(Machine, ClocksAndSmtContention) {
  sim::Machine m(sim::xeon_e3_machine());  // 4 cores x 2 SMT
  EXPECT_EQ(m.num_cpus(), 8u);
  EXPECT_EQ(m.sibling_of(0), 4u);
  EXPECT_EQ(m.sibling_of(5), 1u);
  EXPECT_EQ(m.core_of(0), m.core_of(4));

  m.set_busy(0, true);
  EXPECT_EQ(m.advance(0, 100), 100u) << "no contention: sibling idle";
  m.set_busy(4, true);
  EXPECT_GT(m.advance(0, 100), 100u) << "SMT contention inflates cost";
  m.advance_to(2, 5'000);
  EXPECT_EQ(m.clock(2), 5'000u);
  m.advance_to(2, 100);  // never moves backward
  EXPECT_EQ(m.clock(2), 5'000u);
  EXPECT_GE(m.global_time(), 5'000u);
}

TEST(Machine, NoSmtOnZec12) {
  sim::Machine m(sim::zec12_machine());
  EXPECT_EQ(m.num_cpus(), 12u);
  EXPECT_EQ(m.sibling_of(3), kInvalidCpu);
  EXPECT_EQ(m.config().line_bytes, 256u);
}

// --- engine-level TLE semantics -------------------------------------------------

TEST(TleEngine, SingleThreadRevertsToGil) {
  // Fig. 1 lines 2-3: with one live thread the GIL is kept — no
  // transactions at all.
  auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.heap.initial_slots = 30'000;
  Engine engine(std::move(cfg));
  engine.load_program({R"(
x = 0
i = 0
while i < 5000
  x += i
  i += 1
end
__record("x", x)
)"});
  const auto stats = engine.run();
  EXPECT_EQ(stats.htm.begins, 0u);
  EXPECT_DOUBLE_EQ(stats.results.at("x"), 5000.0 * 4999.0 / 2.0);
}

TEST(TleEngine, ShorterFixedLengthsBeginMoreTransactions) {
  auto run_with = [](i32 len) {
    auto cfg = EngineConfig::htm_fixed(htm::SystemProfile::zec12(), len);
    cfg.heap.initial_slots = 60'000;
    Engine engine(std::move(cfg));
    engine.load_program({R"(
ts = []
2.times do |i|
  ts << Thread.new(i) do |tid|
    x = 0
    k = 0
    while k < 3000
      x += k
      k += 1
    end
    __record("x" + tid.to_s, x)
  end
end
ts.each do |t|
  t.join
end
)"});
    return engine.run();
  };
  const auto s1 = run_with(1);
  const auto s16 = run_with(16);
  const auto s256 = run_with(256);
  EXPECT_GT(s1.htm.begins, s16.htm.begins * 8);
  EXPECT_GT(s16.htm.begins, s256.htm.begins * 8);
  EXPECT_DOUBLE_EQ(s1.results.at("x0"), 3000.0 * 2999.0 / 2.0);
  EXPECT_DOUBLE_EQ(s256.results.at("x1"), 3000.0 * 2999.0 / 2.0);
}

TEST(TleEngine, DynamicShrinksHotYieldPointsUnderConflicts) {
  // Two threads hammering one shared counter through a Mutex: heavy
  // conflicts force the adjuster to shorten lengths.
  auto cfg = EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.heap.initial_slots = 60'000;
  Engine engine(std::move(cfg));
  engine.load_program({R"(
$m = Mutex.new
$c = 0
ts = []
2.times do |i|
  ts << Thread.new(i) do |tid|
    2000.times do |k|
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
)"});
  const auto stats = engine.run();
  EXPECT_DOUBLE_EQ(stats.results.at("c"), 4000.0);
  EXPECT_GT(stats.length_adjustments, 0u);
  EXPECT_GT(stats.fraction_length_one, 0.0);
}

TEST(TleEngine, CycleBreakdownCoversRun) {
  auto cfg = EngineConfig::htm_fixed(htm::SystemProfile::zec12(), 16);
  cfg.heap.initial_slots = 60'000;
  Engine engine(std::move(cfg));
  engine.load_program({R"(
ts = []
3.times do |i|
  ts << Thread.new(i) do |tid|
    x = 0.0
    k = 0
    while k < 1500
      x = x + 1.5
      k += 1
    end
  end
end
ts.each do |t|
  t.join
end
__record("done", 1)
)"});
  const auto stats = engine.run();
  const auto& b = stats.breakdown;
  EXPECT_GT(b.tx_success, 0u);
  EXPECT_GT(b.begin_end, 0u);
  // The breakdown accounts for a dominant share of machine time across all
  // CPUs (some idle time on unused CPUs is expected).
  EXPECT_GT(b.total(), stats.total_cycles / 2);
}

// Atomicity property: a mutex-protected read-modify-write ends exactly right
// across every engine/machine/length combination.
struct AtomicityParam {
  const char* name;
  i32 fixed_length;  // 0 GIL, -1 dynamic
  bool xeon;
  unsigned threads;
};

// Without this gtest prints the raw bytes of the struct, including the
// `name` pointer, so the listed test names would change with ASLR on every
// run of the binary.
void PrintTo(const AtomicityParam& p, std::ostream* os) { *os << p.name; }

class Atomicity : public ::testing::TestWithParam<AtomicityParam> {};

TEST_P(Atomicity, MutexCounterIsExact) {
  const auto& p = GetParam();
  const auto profile =
      p.xeon ? htm::SystemProfile::xeon_e3() : htm::SystemProfile::zec12();
  EngineConfig cfg = p.fixed_length == 0
                         ? EngineConfig::gil(profile)
                         : (p.fixed_length < 0
                                ? EngineConfig::htm_dynamic(profile)
                                : EngineConfig::htm_fixed(profile,
                                                          p.fixed_length));
  cfg.heap.initial_slots = 80'000;
  Engine engine(std::move(cfg));
  const std::string src = "$m = Mutex.new\n$c = 0\nts = []\n" +
                          std::to_string(p.threads) + R"(.times do |i|
  ts << Thread.new(i) do |tid|
    500.times do |k|
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
  engine.load_program({src});
  const auto stats = engine.run();
  EXPECT_DOUBLE_EQ(stats.results.at("c"), 500.0 * p.threads) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, Atomicity,
    ::testing::Values(AtomicityParam{"gil-z-4", 0, false, 4},
                      AtomicityParam{"htm1-z-4", 1, false, 4},
                      AtomicityParam{"htm16-z-8", 16, false, 8},
                      AtomicityParam{"htm256-z-4", 256, false, 4},
                      AtomicityParam{"dyn-z-12", -1, false, 12},
                      AtomicityParam{"htm16-x-8", 16, true, 8},
                      AtomicityParam{"dyn-x-8", -1, true, 8}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (char& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

}  // namespace
}  // namespace gilfree
