// TLE algorithm tests: the Fig. 3 length table in isolation, the tier
// policy's transitions as a table, the Gil class, the sim machine, and
// engine-level TLE semantics (single-thread GIL
// reversion, transaction counts vs configured lengths, dynamic shrinkage
// under conflicts, atomicity as a property over engines).
#include <gtest/gtest.h>

#include <cstdint>

#include "gil/gil.hpp"
#include "runtime/engine.hpp"
#include "sim/machine.hpp"
#include "tle/length_table.hpp"
#include "tle/tier_policy.hpp"

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
  EXPECT_EQ(t.begin_route(1), tle::BreakerRoute::kClosed);
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
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kOpen);
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kOpen);
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kProbe);
  EXPECT_EQ(t.quarantine_probes(), 1u);

  // The probe aborts: backoff doubles to 4, then 8, then caps at 8.
  for (const int gap : {4, 8, 8}) {
    EXPECT_TRUE(t.adjust_transaction_length(0).probe_failed);
    for (int i = 0; i < gap; ++i)
      EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kOpen) << "gap " << gap;
    EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kProbe);
  }

  // A committing probe leaves quarantine.
  EXPECT_TRUE(t.on_commit(0));
  EXPECT_FALSE(t.quarantined(0));
  EXPECT_EQ(t.quarantine_exits(), 1u);
  EXPECT_EQ(t.quarantine_exits_at(0), 1u);
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kClosed);
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
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kOpen);
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kProbe);
  ASSERT_TRUE(t.on_commit(0));
  EXPECT_EQ(t.set_transaction_length(0), 255u)
      << "the length re-learns from INITIAL_TRANSACTION_LENGTH after exit";
}

TEST(Quarantine, DisabledConfigNeverRoutesAwayFromHtm) {
  auto cfg = quarantine_config();
  cfg.quarantine_enabled = false;
  tle::LengthTable t(2, cfg);
  EXPECT_FALSE(abort_n(t, 0, 100));
  EXPECT_EQ(t.begin_route(0), tle::BreakerRoute::kClosed);
  EXPECT_EQ(t.quarantine_enters(), 0u);
}

// --- Tier policy (Fig. 1 + docs/TIERS.md + docs/ROBUSTNESS.md) ------------

using tle::GilView;
using tle::TierStep;
using AR = htm::AbortReason;
using SC = stm::StmAbortCause;

/// What happened to the thread before the policy is asked.
enum class TierEvent : u8 {
  kBegin,             ///< on_begin, not a probe.
  kProbeBegin,        ///< on_begin for a recovery probe.
  kQuarantinedBegin,  ///< on_quarantined_begin.
  kHtmAbort,          ///< on_htm_abort(reason, gil == kHeld).
  kStmAbort,          ///< on_stm_abort(cause).
  kSpinWake,          ///< on_spin_wake(gil).
};

constexpr u32 kStmRetry = 4;  // StmConfig::commit_retry_max

/// A thread right after on_begin at a healthy yield point.
constexpr tle::TierState kFresh = {.transient_retries = tle::kTransientRetryMax,
                                   .gil_retries = tle::kGilRetryMax,
                                   .first_retry = true};

struct PolicyRow {
  const char* name;
  bool stm_tier = false;
  bool eager = true;
  tle::TierState before = kFresh;
  TierEvent event = TierEvent::kHtmAbort;
  AR reason = AR::kConflict;
  SC cause = SC::kValidation;
  GilView gil = GilView::kFree;
  TierStep step = TierStep::kGil;
  tle::TierState after = kFresh;
  bool adjust_length = false;
  u32 backoff_attempt = 0;
  obs::WatchdogKind watchdog = obs::WatchdogKind::kAbortLoop;
};

tle::TierState with(tle::TierState s, void (*f)(tle::TierState&)) {
  f(s);
  return s;
}

// One row per transition of docs/TIERS.md § When each transition fires, the
// HTM → GIL fallbacks of Fig. 1, and the robustness rows (watchdogs,
// anti-lemming, backoff).
const PolicyRow kPolicyRows[] = {
    // --- begins ------------------------------------------------------------
    {.name = "begin with the GIL free: TBEGIN, fresh budgets (stm-htm)",
     .before = {.transient_retries = 0, .gil_retries = 0, .first_retry = false,
                .abort_streak = 5},
     .event = TierEvent::kBegin,
     .step = TierStep::kRetryHtm,
     .after = with(kFresh, [](tle::TierState& s) { s.abort_streak = 5; })},
    {.name = "begin with the GIL held: spin first (Fig. 1 lines 6-8)",
     .event = TierEvent::kBegin,
     .gil = GilView::kHeld,
     .step = TierStep::kSpin},
    {.name = "a probe begins with one transient retry",
     .event = TierEvent::kProbeBegin,
     .step = TierStep::kRetryHtm,
     .after = with(kFresh, [](tle::TierState& s) { s.transient_retries = 1; })},
    {.name = "quarantined begin without STM: GIL slice",
     .event = TierEvent::kQuarantinedBegin,
     .step = TierStep::kGil},
    {.name = "quarantined begin with STM: htm-stm",
     .stm_tier = true,
     .event = TierEvent::kQuarantinedBegin,
     .step = TierStep::kEnterStm,
     .after = with(kFresh,
                   [](tle::TierState& s) { s.stm_retries = kStmRetry; })},
    // --- HTM aborts --------------------------------------------------------
    {.name = "first transient abort: adjust length, back off, retry",
     .step = TierStep::kBackoffRetryHtm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.transient_retries = 2;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true,
     .backoff_attempt = 1},
    {.name = "second transient abort: backoff attempt 2, no adjust",
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.transient_retries = 2;
                      s.first_retry = false;
                    }),
     .reason = AR::kInterrupt,
     .step = TierStep::kBackoffRetryHtm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.transient_retries = 1;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .backoff_attempt = 2},
    {.name = "transient budget spent without STM: GIL (Fig. 1 line 35)",
     .before = with(kFresh, [](tle::TierState& s) { s.transient_retries = 1; }),
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.transient_retries = 0;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "transient budget spent with STM: htm-stm",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.transient_retries = 1; }),
     .step = TierStep::kEnterStm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.transient_retries = 0;
                     s.stm_retries = kStmRetry;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "persistent abort without STM: GIL (Fig. 1 lines 28-29)",
     .reason = AR::kOverflowWrite,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "persistent abort with STM: htm-stm",
     .stm_tier = true,
     .reason = AR::kOverflowRead,
     .step = TierStep::kEnterStm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = kStmRetry;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "require_nontx abort: GIL regardless of budgets",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.force_gil = true; }),
     .reason = AR::kUnsupported,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "GIL held at the abort: spin (Fig. 1 lines 21-27)",
     .reason = AR::kExplicit,
     .gil = GilView::kHeld,
     .step = TierStep::kSpin,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.gil_retries = tle::kGilRetryMax - 1;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   }),
     .adjust_length = true},
    {.name = "GIL held, spin budget spent: blocking acquire",
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.gil_retries = 1;
                      s.first_retry = false;
                    }),
     .reason = AR::kExplicit,
     .gil = GilView::kHeld,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.gil_retries = 0;
                     s.first_retry = false;
                     s.abort_streak = 1;
                   })},
    {.name = "anti-lemming: GIL-word abort, GIL free again: retry, no budget",
     .before = with(kFresh, [](tle::TierState& s) { s.first_retry = false; }),
     .reason = AR::kExplicit,
     .step = TierStep::kRetryHtm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.first_retry = false;
                     s.abort_streak = 1;
                   })},
    {.name = "abort-loop watchdog on an HTM abort",
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.first_retry = false;
                      s.force_gil = true;
                      s.abort_streak = tle::kAbortStreakBudget - 1;
                    }),
     .step = TierStep::kWatchdogGil,
     .after = with(kFresh, [](tle::TierState& s) { s.first_retry = false; }),
     .watchdog = obs::WatchdogKind::kAbortLoop},
    // --- STM aborts --------------------------------------------------------
    {.name = "stm validation abort with budget left: retry STM",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 2; }),
     .event = TierEvent::kStmAbort,
     .step = TierStep::kRetryStm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 1;
                     s.abort_streak = 1;
                   })},
    {.name = "stm-gil: commit-retry budget spent",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 1; }),
     .event = TierEvent::kStmAbort,
     .step = TierStep::kGil,
     .after = with(kFresh, [](tle::TierState& s) { s.abort_streak = 1; })},
    {.name = "stm-gil: unsupported operation",
     .stm_tier = true,
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.stm_retries = 3;
                      s.force_gil = true;
                    }),
     .event = TierEvent::kStmAbort,
     .cause = SC::kUnsupported,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 3;
                     s.abort_streak = 1;
                   })},
    {.name = "stm-gil: read-set overflow",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 3; }),
     .event = TierEvent::kStmAbort,
     .cause = SC::kOverflowRead,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 3;
                     s.abort_streak = 1;
                   })},
    {.name = "stm-gil: write-buffer overflow",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 3; }),
     .event = TierEvent::kStmAbort,
     .cause = SC::kOverflowWrite,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 3;
                     s.abort_streak = 1;
                   })},
    {.name = "stm-gil: eager GIL-subscription doom",
     .stm_tier = true,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 3; }),
     .event = TierEvent::kStmAbort,
     .cause = SC::kGilSubscription,
     .step = TierStep::kGil,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 3;
                     s.abort_streak = 1;
                   })},
    {.name = "lazy GIL-subscription abort: retry STM",
     .stm_tier = true,
     .eager = false,
     .before = with(kFresh, [](tle::TierState& s) { s.stm_retries = 3; }),
     .event = TierEvent::kStmAbort,
     .cause = SC::kGilSubscription,
     .step = TierStep::kRetryStm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = 2;
                     s.abort_streak = 1;
                   })},
    {.name = "a commit-retry budget above INT32_MAX keeps retrying",
     .stm_tier = true,
     .before = with(kFresh,
                    [](tle::TierState& s) { s.stm_retries = UINT32_MAX; }),
     .event = TierEvent::kStmAbort,
     .step = TierStep::kRetryStm,
     .after = with(kFresh,
                   [](tle::TierState& s) {
                     s.stm_retries = UINT32_MAX - 1;
                     s.abort_streak = 1;
                   })},
    {.name = "stm-gil: the cross-tier abort-loop watchdog",
     .stm_tier = true,
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.stm_retries = 3;
                      s.abort_streak = tle::kAbortStreakBudget - 1;
                    }),
     .event = TierEvent::kStmAbort,
     .step = TierStep::kWatchdogGil,
     .after = with(kFresh, [](tle::TierState& s) { s.stm_retries = 3; }),
     .watchdog = obs::WatchdogKind::kAbortLoop},
    // --- spin wakes ----------------------------------------------------------
    {.name = "spin wake, GIL released: retry HTM",
     .before = with(kFresh, [](tle::TierState& s) { s.spin_streak = 9; }),
     .event = TierEvent::kSpinWake,
     .step = TierStep::kRetryHtm},
    {.name = "spin wake, GIL still held: spin again",
     .before = with(kFresh, [](tle::TierState& s) { s.spin_streak = 9; }),
     .event = TierEvent::kSpinWake,
     .gil = GilView::kHeld,
     .step = TierStep::kSpin,
     .after = with(kFresh, [](tle::TierState& s) { s.spin_streak = 10; })},
    {.name = "spin wake, handed the GIL while parked: carry on under it",
     .before = with(kFresh, [](tle::TierState& s) { s.spin_streak = 9; }),
     .event = TierEvent::kSpinWake,
     .gil = GilView::kOwn,
     .step = TierStep::kGil},
    {.name = "spin-loop watchdog",
     .before = with(kFresh,
                    [](tle::TierState& s) {
                      s.spin_streak = tle::kSpinStreakBudget - 1;
                    }),
     .event = TierEvent::kSpinWake,
     .gil = GilView::kHeld,
     .step = TierStep::kWatchdogGil,
     .watchdog = obs::WatchdogKind::kSpinLoop},
};

void expect_state(const tle::TierState& got, const tle::TierState& want,
                  const char* row) {
  EXPECT_EQ(got.transient_retries, want.transient_retries) << row;
  EXPECT_EQ(got.gil_retries, want.gil_retries) << row;
  EXPECT_EQ(got.stm_retries, want.stm_retries) << row;
  EXPECT_EQ(got.first_retry, want.first_retry) << row;
  EXPECT_EQ(got.force_gil, want.force_gil) << row;
  EXPECT_EQ(got.abort_streak, want.abort_streak) << row;
  EXPECT_EQ(got.spin_streak, want.spin_streak) << row;
}

TEST(TierPolicy, EveryTransitionRow) {
  for (const PolicyRow& row : kPolicyRows) {
    const tle::TierPolicy policy(row.stm_tier, row.eager, kStmRetry);
    tle::TierState s = row.before;
    const bool gil_held = row.gil == GilView::kHeld;
    tle::TierDecision d;
    switch (row.event) {
      case TierEvent::kBegin:
        d = policy.on_begin(s, /*probe=*/false, gil_held);
        break;
      case TierEvent::kProbeBegin:
        d = policy.on_begin(s, /*probe=*/true, gil_held);
        break;
      case TierEvent::kQuarantinedBegin:
        d = policy.on_quarantined_begin(s);
        break;
      case TierEvent::kHtmAbort:
        d = policy.on_htm_abort(s, row.reason, gil_held);
        break;
      case TierEvent::kStmAbort:
        d = policy.on_stm_abort(s, row.cause);
        break;
      case TierEvent::kSpinWake:
        d = policy.on_spin_wake(s, row.gil);
        break;
    }
    EXPECT_EQ(d.step, row.step) << row.name;
    EXPECT_EQ(d.adjust_length, row.adjust_length) << row.name;
    EXPECT_EQ(d.backoff_attempt, row.backoff_attempt) << row.name;
    if (d.step == TierStep::kWatchdogGil) {
      EXPECT_EQ(d.watchdog, row.watchdog) << row.name;
    }
    expect_state(s, row.after, row.name);
  }
}

TEST(TierPolicy, WatchdogsTripExactlyAtTheirBudgets) {
  const tle::TierPolicy policy(false, true, kStmRetry);
  // Abort loop: conflicts under a held GIL spin until the spin budget is
  // spent, then block; every abort counts toward the streak until progress.
  tle::TierState s = kFresh;
  for (u32 i = 1; i < tle::kAbortStreakBudget; ++i)
    EXPECT_NE(policy.on_htm_abort(s, AR::kExplicit, true).step,
              TierStep::kWatchdogGil)
        << i;
  s.on_progress();
  EXPECT_EQ(s.abort_streak, 0u);
  for (u32 i = 1; i < tle::kAbortStreakBudget; ++i)
    (void)policy.on_htm_abort(s, AR::kExplicit, false);
  EXPECT_EQ(policy.on_htm_abort(s, AR::kExplicit, false).step,
            TierStep::kWatchdogGil);
  EXPECT_EQ(s.abort_streak, 0u);

  // Spin loop: kSpinStreakBudget - 1 wakes on a held GIL keep spinning.
  tle::TierState w = kFresh;
  for (u32 i = 1; i < tle::kSpinStreakBudget; ++i)
    EXPECT_EQ(policy.on_spin_wake(w, GilView::kHeld).step, TierStep::kSpin);
  const tle::TierDecision d = policy.on_spin_wake(w, GilView::kHeld);
  EXPECT_EQ(d.step, TierStep::kWatchdogGil);
  EXPECT_EQ(d.watchdog, obs::WatchdogKind::kSpinLoop);
  EXPECT_EQ(w.spin_streak, 0u);
}

TEST(TierPolicy, BackoffDelayDoublesPerAttemptWithJitter) {
  using tle::TierPolicy;
  EXPECT_EQ(TierPolicy::backoff_delay(1, 0.0), tle::kBackoffBaseCycles / 2);
  EXPECT_EQ(TierPolicy::backoff_delay(1, 0.5), tle::kBackoffBaseCycles);
  EXPECT_EQ(TierPolicy::backoff_delay(2, 0.5), 2 * tle::kBackoffBaseCycles);
  EXPECT_EQ(TierPolicy::backoff_delay(3, 0.5), 4 * tle::kBackoffBaseCycles);
  // The jitter spans [0.5, 1.5) of the nominal delay.
  EXPECT_LT(TierPolicy::backoff_delay(2, 0.999),
            3 * tle::kBackoffBaseCycles);
  // The exponent saturates at 2^16.
  EXPECT_EQ(TierPolicy::backoff_delay(40, 0.5),
            TierPolicy::backoff_delay(17, 0.5));
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
