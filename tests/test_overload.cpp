// Overload-protection correctness (docs/ROBUSTNESS.md): strict-CLI
// rejection for the --deadline-*/--shed-* families and the cluster's
// --breaker-* family, exact disposition accounting under overload and
// connection churn at 1 and 4 shards, and deterministic deadline/backoff
// keying. The breaker's brown-out runs need shard worker processes and live
// in test_cluster.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "htm/profile.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/client_driver.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/overload.hpp"
#include "httpsim/server_programs.hpp"
#include "runtime/engine.hpp"
#include "testutil_cli.hpp"
#include "testutil_httpsim.hpp"

namespace gilfree {
namespace {

using httpsim::Arrival;
using httpsim::DriverConfig;
using httpsim::OverloadConfig;
using httpsim::RequestOutcome;
using httpsim::ShardOptions;
using httpsim::cluster::ClusterOptions;
using testutil::expect_rejected;
using testutil::make_flags;

void reject_overload_flag(const std::string& flag) {
  expect_rejected(flag, [](const CliFlags& f) { DriverConfig::from_flags(f); });
}

TEST(OverloadCli, EveryOverloadFlagRejectsBadValues) {
  reject_overload_flag("--deadline=-1");
  reject_overload_flag("--deadline=soon");
  reject_overload_flag("--deadline-jitter=1.0");
  reject_overload_flag("--deadline-jitter=-0.1");
  reject_overload_flag("--deadline-retries=17");
  reject_overload_flag("--deadline-retries=-1");
  reject_overload_flag("--deadline-backoff=0");
  reject_overload_flag("--shed=sometimes");
  reject_overload_flag("--shed-target=0");
  reject_overload_flag("--shed-interval=0");
}

/// The breakers are a cluster supervisor policy: ClusterOptions parses them.
void reject_breaker_flag(const std::string& flag) {
  expect_rejected(flag,
                  [](const CliFlags& f) { ClusterOptions::from_flags(f); });
}

TEST(OverloadCli, EveryBreakerFlagRejectsBadValues) {
  reject_breaker_flag("--breaker=maybe");
  reject_breaker_flag("--breaker-streak=0");
  reject_breaker_flag("--breaker-probe=0");
  reject_breaker_flag("--breaker-probe-max=0");
  reject_breaker_flag("--breaker-shed-ratio=0");
  reject_breaker_flag("--breaker-shed-ratio=1.5");
  reject_breaker_flag("--breaker-latency=-1");
  reject_breaker_flag("--breaker-fault-shard=-2");
}

TEST(OverloadCli, BreakerRequiresShardsAndOpenLoopConstraintsHold) {
  const auto rejects = [](std::vector<std::string> args) {
    CliFlags f = make_flags(std::move(args));
    EXPECT_THROW(ClusterOptions::from_flags(f), std::invalid_argument);
  };
  // Breakers need at least two shards to spill between and at least two
  // epochs to judge health between.
  rejects({"--breaker=on", "--shards=1", "--cluster-epochs=8"});
  rejects({"--breaker=on", "--shards=4"});
  // Neither stealing nor autoscaling may move work under the breakers.
  rejects({"--breaker=on", "--cluster-epochs=8", "--steal=on"});
  rejects({"--breaker=on", "--cluster-epochs=8", "--shards=2",
           "--scale-max=4", "--autoscale=on"});
  // --breaker-fault-shard must name a shard below --shards.
  rejects({"--shards=4", "--cluster-epochs=8", "--breaker=on",
           "--breaker-fault-shard=4"});
  // Deadlines belong to the open-loop driver only.
  {
    CliFlags f = make_flags({"--arrival=closed", "--deadline=1000000"});
    EXPECT_THROW(DriverConfig::from_flags(f), std::invalid_argument);
  }
}

TEST(OverloadCli, GoodValuesParseIntoTheConfig) {
  CliFlags f = make_flags(
      {"--arrival=poisson", "--deadline=1500000", "--deadline-jitter=0.25",
       "--deadline-retries=3", "--deadline-backoff=40000", "--shed=codel",
       "--shed-target=300000", "--shed-interval=1000000", "--shards=4",
       "--cluster-epochs=10", "--breaker=on", "--breaker-streak=3",
       "--breaker-probe=2", "--breaker-probe-max=16",
       "--breaker-shed-ratio=0.5", "--breaker-latency=400000",
       "--breaker-fault-shard=1"});
  const DriverConfig d = DriverConfig::from_flags(f);
  const ClusterOptions co = ClusterOptions::from_flags(f);
  f.reject_unknown();  // every flag above must be consumed
  EXPECT_EQ(d.overload.deadline, 1'500'000u);
  EXPECT_DOUBLE_EQ(d.overload.deadline_jitter, 0.25);
  EXPECT_EQ(d.overload.retry_budget, 3u);
  EXPECT_EQ(d.overload.retry_backoff, 40'000u);
  EXPECT_TRUE(d.overload.codel);
  EXPECT_EQ(d.overload.codel_target, 300'000u);
  EXPECT_EQ(d.overload.codel_interval, 1'000'000u);
  EXPECT_EQ(co.epochs, 10u);
  EXPECT_TRUE(co.breaker.enabled);
  EXPECT_EQ(co.breaker.trip_streak, 3u);
  EXPECT_EQ(co.breaker.probe_initial, 2u);
  EXPECT_EQ(co.breaker.probe_max, 16u);
  EXPECT_DOUBLE_EQ(co.breaker.shed_ratio, 0.5);
  EXPECT_EQ(co.breaker.latency_budget, 400'000u);
  EXPECT_EQ(co.breaker.fault_shard, 1);
}

// --- deterministic keying ---------------------------------------------------

TEST(Overload, DeadlineAndBackoffArePureFunctionsOfIdAttemptSeed) {
  OverloadConfig o;
  o.deadline = 1'000'000;
  o.deadline_jitter = 0.3;
  o.retry_budget = 4;
  const Cycles d1 = httpsim::request_deadline(o, 42, 0, 500, 7);
  EXPECT_EQ(d1, httpsim::request_deadline(o, 42, 0, 500, 7));
  EXPECT_NE(d1, httpsim::request_deadline(o, 43, 0, 500, 7));
  EXPECT_NE(d1, httpsim::request_deadline(o, 42, 1, 500, 7));
  // Jitter is bounded: deadline * [1-j, 1+j) past `from`.
  for (i64 id = 0; id < 200; ++id) {
    const Cycles d = httpsim::request_deadline(o, id, 0, 0, 7);
    EXPECT_GE(d, static_cast<Cycles>(700'000));
    EXPECT_LT(d, static_cast<Cycles>(1'300'000));
  }
  const Cycles b1 = httpsim::retry_backoff_cycles(o, 42, 1, 7);
  EXPECT_EQ(b1, httpsim::retry_backoff_cycles(o, 42, 1, 7));
  // Exponential growth: attempt 3's floor (0.5 * base << 2) sits above
  // attempt 1's ceiling (1.5 * base).
  EXPECT_GT(httpsim::retry_backoff_cycles(o, 42, 3, 7),
            httpsim::retry_backoff_cycles(o, 42, 1, 7));
}

// --- disposition accounting under churn, 1 and 4 shards ---------------------

DriverConfig overload_config() {
  DriverConfig d;
  d.arrival = Arrival::kPoisson;
  d.total_requests = 200;
  d.rps = 3'000'000.0;  // far past the service rate: drops + sheds happen
  d.queue_limit = 8;
  d.churn = 0.3;
  d.overload.deadline = 1'000'000;
  d.overload.deadline_jitter = 0.2;
  d.overload.retry_budget = 2;
  d.overload.codel = true;
  return d;
}

void check_accounting(const std::vector<httpsim::RequestRecord>& records,
                      u32 scheduled, u64 completed, u64 dropped, u64 shed,
                      u64 retries) {
  // Every scheduled request ends in exactly one final disposition; retries
  // are re-admissions of the same request, not extra dispositions.
  EXPECT_EQ(completed + dropped + shed, scheduled);
  u64 ok = 0, drop = 0, shed_in_log = 0, attempts = 0;
  for (const auto& r : records) {
    attempts += r.attempts;
    switch (r.outcome) {
      case RequestOutcome::kOk:
        ++ok;
        EXPECT_GT(r.responded, 0u) << r.id;
        break;
      case RequestOutcome::kDropped:
        ++drop;
        EXPECT_TRUE(r.dropped) << r.id;
        EXPECT_EQ(r.responded, 0u) << r.id;
        break;
      default:
        ++shed_in_log;
        EXPECT_EQ(r.responded, 0u) << r.id;
        break;
    }
  }
  // The per-request log reconciles with the counters exactly.
  EXPECT_EQ(ok, completed);
  EXPECT_EQ(drop, dropped);
  EXPECT_EQ(shed_in_log, shed);
  EXPECT_EQ(attempts, retries);
}

TEST(Overload, AccountingReconcilesUnderChurnSingleShard) {
  const auto base = runtime::EngineConfig::gil(htm::SystemProfile::zec12());
  const DriverConfig d = overload_config();
  const auto r =
      httpsim::run_server(base, httpsim::webrick_source(), d);
  EXPECT_GT(r.dropped + r.shed, 0u) << "overload must drop or shed";
  EXPECT_GT(r.retries, 0u) << "retry budget must be exercised";
  check_accounting(r.records, d.total_requests, r.completed, r.dropped,
                   r.shed, r.retries);
  // Histograms sample completions only.
  EXPECT_EQ(r.latency_hist.total(), r.completed);
  EXPECT_EQ(r.queue_hist.total(), r.completed);
}

TEST(Overload, AccountingReconcilesUnderChurnFourShards) {
  const auto base = runtime::EngineConfig::gil(htm::SystemProfile::zec12());
  DriverConfig d = overload_config();
  d.rps = 12'000'000.0;  // 4-way sharding splits the load: stay past capacity
  ShardOptions so;
  so.shards = 4;
  const auto r =
      httpsim::run_sharded(base, httpsim::webrick_source(), d, so);
  ASSERT_EQ(r.shards.size(), 4u);
  EXPECT_GT(r.dropped + r.shed, 0u);
  u64 scheduled = 0;
  std::vector<httpsim::RequestRecord> merged;
  for (const auto& s : r.shards) {
    scheduled += s.records.size();
    merged.insert(merged.end(), s.records.begin(), s.records.end());
    // Each shard reconciles independently too.
    EXPECT_EQ(s.completed + s.dropped + s.shed,
              static_cast<u32>(s.records.size()));
  }
  EXPECT_EQ(scheduled, d.total_requests);
  check_accounting(merged, d.total_requests, r.completed, r.dropped, r.shed,
                   r.retries);
  EXPECT_EQ(r.latency_hist.total(), r.completed);
  EXPECT_EQ(r.queue_hist.total(), r.completed);
}

// --- fleet merge invariants -------------------------------------------------

TEST(Overload, OpenLoopShardedFleetIsTheSumOfItsShards) {
  const auto base = runtime::EngineConfig::gil(htm::SystemProfile::zec12());
  DriverConfig d = overload_config();
  d.rps = 9'000'000.0;
  ShardOptions so;
  so.shards = 3;
  const auto r = httpsim::run_sharded(base, httpsim::webrick_source(), d, so);
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_GT(r.dropped + r.shed, 0u);
  testutil::expect_fleet_invariants(r, d.paths);
}

// --- flags-off byte identity ------------------------------------------------

TEST(Overload, DisabledOverloadKeepsRequestLogBytesIdentical) {
  const auto base = runtime::EngineConfig::gil(htm::SystemProfile::zec12());
  DriverConfig d;
  d.arrival = Arrival::kPoisson;
  d.total_requests = 150;
  d.rps = 2'000'000.0;
  d.queue_limit = 16;
  const auto off = httpsim::run_server(base, httpsim::webrick_source(), d);
  // A default-constructed OverloadConfig is the disabled state; parsing an
  // empty command line must produce the same bytes.
  DriverConfig parsed = d;
  parsed.overload = OverloadConfig::from_flags(make_flags({}));
  const auto off2 =
      httpsim::run_server(base, httpsim::webrick_source(), parsed);
  EXPECT_FALSE(parsed.overload.enabled());
  EXPECT_EQ(off.request_log, off2.request_log);
  // With overload off, only ok/drop can appear in the log.
  for (const auto& rec : off.records) {
    EXPECT_TRUE(rec.outcome == RequestOutcome::kOk ||
                rec.outcome == RequestOutcome::kDropped);
    EXPECT_EQ(rec.deadline, 0u);
    EXPECT_EQ(rec.attempts, 0u);
  }
}

}  // namespace
}  // namespace gilfree
