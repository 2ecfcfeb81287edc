// Multi-process cluster serving (docs/ARCHITECTURE.md cluster section):
// strict-CLI rejection and round-trip for the --shards/--steal-*/--scale-*/
// --breaker-* family, the flags-off differential pinning the cluster
// supervisor to the in-process sharded runner byte for byte, same-seed
// byte-identity of merged logs / per-shard artifacts / record streams across
// worker processes, steal-protocol effectiveness under a Zipf-skewed key
// space, queue-driven autoscale spawn + drain-and-retire against a
// trace-replayed burst, per-shard circuit-breaker brown-outs (pinned to the
// in-process breaker runner they replaced), and the
// gilfree.record/httpsim.1 write/read/verify round trip.
//
// Like test_cross_process, the supervisor re-execs this binary
// (/proc/self/exe) as its shard workers, so the test brings its own main
// and dispatches --cluster-worker before gtest sees argv.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "htm/profile.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/client_driver.hpp"
#include "httpsim/cluster/record.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/cluster/worker.hpp"
#include "httpsim/server_programs.hpp"
#include "runtime/engine.hpp"
#include "testutil_cli.hpp"
#include "testutil_httpsim.hpp"

namespace gilfree {
namespace {

using httpsim::DriverConfig;
using httpsim::ScheduledRequest;
using httpsim::cluster::ClusterOptions;
using httpsim::cluster::ClusterRecord;
using httpsim::cluster::ClusterRunResult;
using httpsim::cluster::ClusterSpec;
using testutil::expect_rejected;
using testutil::make_flags;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A small open-loop spec every cluster test starts from: 4 shard
/// processes, 4 epochs, 1200 Poisson arrivals at 600k rps on the default
/// zec12 / HTM-dynamic / webrick scenario.
ClusterSpec small_spec() {
  ClusterSpec spec;
  spec.driver.arrival = httpsim::Arrival::kPoisson;
  spec.driver.rps = 600'000.0;
  spec.driver.total_requests = 1'200;
  spec.options.shards = 4;
  spec.options.epochs = 4;
  return spec;
}

void reject_cluster_flag(const std::string& flag) {
  expect_rejected(flag,
                  [](const CliFlags& f) { ClusterOptions::from_flags(f); });
}

TEST(ClusterCli, EveryClusterFlagRejectsBadValues) {
  reject_cluster_flag("--shards=0");
  reject_cluster_flag("--shards=65");
  reject_cluster_flag("--router=random");
  reject_cluster_flag("--scale-max=65");
  reject_cluster_flag("--cluster-epochs=0");
  reject_cluster_flag("--cluster-epochs=4097");
  reject_cluster_flag("--steal=maybe");
  reject_cluster_flag("--steal-margin=0");
  reject_cluster_flag("--steal-batch=0");
  reject_cluster_flag("--steal-rounds=0");
  reject_cluster_flag("--steal-rounds=1025");
  reject_cluster_flag("--autoscale=maybe");
  reject_cluster_flag("--scale-min=0");
  reject_cluster_flag("--scale-up-depth=0");
  reject_cluster_flag("--scale-up-p99=-1");
  reject_cluster_flag("--scale-down-depth=-1");
  reject_cluster_flag("--scale-sustain=0");
  reject_cluster_flag("--scale-idle=0");
}

TEST(ClusterCli, SemanticCombinationsReject) {
  // --scale-max below --shards leaves no room for the configured fleet.
  {
    CliFlags f = make_flags({"--shards=8", "--scale-max=4"});
    EXPECT_THROW(ClusterOptions::from_flags(f), std::invalid_argument);
  }
  // --scale-min may not exceed --shards.
  {
    CliFlags f = make_flags({"--shards=2", "--scale-min=3"});
    EXPECT_THROW(ClusterOptions::from_flags(f), std::invalid_argument);
  }
  // Autoscale with neither headroom above --shards nor drain room below it
  // could never act.
  {
    CliFlags f = make_flags({"--shards=2", "--autoscale=on", "--scale-min=2"});
    EXPECT_THROW(ClusterOptions::from_flags(f), std::invalid_argument);
  }
}

TEST(ClusterCli, ToFlagsRoundTripsNonDefaults) {
  ClusterOptions o;
  o.shards = 3;
  o.max_shards = 7;
  o.epochs = 12;
  o.router = httpsim::Router::kRoundRobin;
  o.steal = true;
  o.steal_margin = 5;
  o.steal_batch = 33;
  o.steal_rounds = 2;
  o.autoscale = true;
  o.scale_min = 2;
  o.scale_up_depth = 17;
  o.scale_up_p99 = 123'456;
  o.scale_down_depth = 4;
  o.scale_sustain = 3;
  o.scale_idle = 5;

  const ClusterOptions back =
      ClusterOptions::from_flags(make_flags(o.to_flags()));
  EXPECT_EQ(back.shards, o.shards);
  EXPECT_EQ(back.max_shards, o.max_shards);
  EXPECT_EQ(back.epochs, o.epochs);
  EXPECT_EQ(back.router, o.router);
  EXPECT_EQ(back.steal, o.steal);
  EXPECT_EQ(back.steal_margin, o.steal_margin);
  EXPECT_EQ(back.steal_batch, o.steal_batch);
  EXPECT_EQ(back.steal_rounds, o.steal_rounds);
  EXPECT_EQ(back.autoscale, o.autoscale);
  EXPECT_EQ(back.scale_min, o.scale_min);
  EXPECT_EQ(back.scale_up_depth, o.scale_up_depth);
  EXPECT_EQ(back.scale_up_p99, o.scale_up_p99);
  EXPECT_EQ(back.scale_down_depth, o.scale_down_depth);
  EXPECT_EQ(back.scale_sustain, o.scale_sustain);
  EXPECT_EQ(back.scale_idle, o.scale_idle);

  // Defaults emit no flags at all.
  EXPECT_TRUE(ClusterOptions{}.to_flags().empty());

  // The breaker family (which excludes stealing and autoscaling).
  ClusterOptions b;
  b.epochs = 8;
  b.breaker.enabled = true;
  b.breaker.trip_streak = 3;
  b.breaker.probe_initial = 2;
  b.breaker.probe_max = 16;
  b.breaker.shed_ratio = 0.1;
  b.breaker.latency_budget = 400'000;
  b.breaker.fault_shard = 1;
  // Every field above is non-default, so equal canonical flags mean every
  // field survived the trip.
  EXPECT_EQ(ClusterOptions::from_flags(make_flags(b.to_flags())).to_flags(),
            b.to_flags());
  EXPECT_EQ(b.to_flags().size(), 8u);
}

TEST(ClusterRun, RejectsClosedLoopAndZeroRequests) {
  ClusterSpec closed = small_spec();
  closed.driver.arrival = httpsim::Arrival::kClosed;
  EXPECT_THROW(httpsim::cluster::run_cluster(closed), std::invalid_argument);

  ClusterSpec empty = small_spec();
  empty.driver.total_requests = 0;
  EXPECT_THROW(httpsim::cluster::run_cluster(empty), std::invalid_argument);
}

// The flags-off differential: with one epoch and no steal/autoscale, the
// multi-process cluster is the in-process sharded runner spread across OS
// processes — the merged request log and every counter must match byte for
// byte. This is what pins the worker's per-slice engine setup (rps share,
// thread budget, shard_id/shard_count) to run_open_loop_slice.
TEST(ClusterRun, FlagsOffMatchesInProcessSharding) {
  ClusterSpec spec = small_spec();
  spec.options.epochs = 1;
  const ClusterRunResult cluster = httpsim::cluster::run_cluster(spec);

  runtime::EngineConfig base =
      runtime::EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  base.seed = spec.engine_seed;
  httpsim::ShardOptions sharding;
  sharding.shards = spec.options.shards;
  sharding.router = spec.options.router;
  const httpsim::FleetResult inproc = httpsim::run_sharded(
      base, httpsim::webrick_source(), spec.driver, sharding);

  EXPECT_EQ(cluster.request_log, inproc.request_log);
  EXPECT_EQ(cluster.completed, inproc.completed);
  EXPECT_EQ(cluster.dropped, inproc.dropped);
  EXPECT_EQ(cluster.shed, inproc.shed);
  EXPECT_EQ(cluster.retries, inproc.retries);
  EXPECT_EQ(cluster.makespan, inproc.makespan);
  for (u32 s = 0; s < spec.options.shards; ++s)
    EXPECT_EQ(cluster.shards[s].request_log, inproc.shards[s].request_log)
        << "shard " << s;
  EXPECT_EQ(cluster.completed + cluster.dropped + cluster.shed,
            spec.driver.total_requests);
}

// Two same-seed runs — separate worker process fleets — must agree byte for
// byte: merged log, per-shard logs, the supervisor decision stream, and the
// per-shard trace/metrics artifact files.
TEST(ClusterRun, SameSeedRunsAreByteIdentical) {
  ClusterSpec spec = small_spec();
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.options.steal = true;
  spec.options.steal_margin = 8;
  spec.artifact_stem = testing::TempDir() + "cluster_idA";
  const ClusterRunResult a = httpsim::cluster::run_cluster(spec);

  ClusterSpec again = spec;
  again.artifact_stem = testing::TempDir() + "cluster_idB";
  const ClusterRunResult b = httpsim::cluster::run_cluster(again);

  EXPECT_EQ(a.request_log, b.request_log);
  EXPECT_EQ(a.record_lines, b.record_lines);
  EXPECT_EQ(httpsim::cluster::fnv1a64(a.request_log),
            httpsim::cluster::fnv1a64(b.request_log));
  for (u32 s = 0; s < spec.options.slots(); ++s) {
    const std::string shard = ".shard" + std::to_string(s);
    EXPECT_EQ(a.shards[s].request_log, b.shards[s].request_log)
        << "shard " << s;
    const std::string trace_a = slurp(spec.artifact_stem + shard +
                                      ".trace.jsonl");
    EXPECT_FALSE(trace_a.empty()) << "shard " << s;
    EXPECT_EQ(trace_a, slurp(again.artifact_stem + shard + ".trace.jsonl"))
        << "shard " << s;
    EXPECT_EQ(slurp(spec.artifact_stem + shard + ".metrics.json"),
              slurp(again.artifact_stem + shard + ".metrics.json"))
        << "shard " << s;
  }
}

// The supervisor's epoch accumulation and final merge: with stealing
// moving requests between slots, the fleet is still exactly the sum of its
// per-slot results.
TEST(ClusterRun, FleetIsTheSumOfItsSlots) {
  ClusterSpec spec = small_spec();
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.options.shards = 2;
  spec.options.epochs = 2;
  spec.options.steal = true;
  spec.options.steal_margin = 8;
  const ClusterRunResult r = httpsim::cluster::run_cluster(spec);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_GT(r.stolen, 0u);
  testutil::expect_fleet_invariants(r, spec.driver.paths);
}

// Under a hot Zipf key space the hash router concentrates load on one
// shard; the boundary steal pass must visibly move work (steal events in
// the decision stream), flatten the worst dispatch depth, and never lose
// goodput relative to the same run with stealing off.
TEST(ClusterRun, StealingFlattensSkewedQueues) {
  ClusterSpec spec = small_spec();
  spec.driver.total_requests = 2'400;
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.options.epochs = 8;
  const ClusterRunResult nosteal = httpsim::cluster::run_cluster(spec);
  EXPECT_EQ(nosteal.stolen, 0u);
  EXPECT_EQ(nosteal.peak_depth, nosteal.peak_depth_presteal);

  spec.options.steal = true;
  spec.options.steal_margin = 8;
  const ClusterRunResult steal = httpsim::cluster::run_cluster(spec);
  EXPECT_GT(steal.stolen, 0u);
  EXPECT_FALSE(steal.steals.empty());
  EXPECT_LT(steal.peak_depth, steal.peak_depth_presteal);
  EXPECT_LE(steal.peak_depth, nosteal.peak_depth);
  EXPECT_GE(steal.completed, nosteal.completed);

  // Every steal event shows up in the decision stream, and moved totals
  // reconcile with the result's counter.
  u64 moved = 0;
  for (const auto& ev : steal.steals) {
    EXPECT_NE(ev.from, ev.to);
    EXPECT_GT(ev.moved, 0u);
    moved += ev.moved;
  }
  EXPECT_EQ(moved, steal.stolen);
  u32 steal_lines = 0;
  for (const std::string& line : steal.record_lines)
    if (line.find("\"ev\":\"steal\"") != std::string::npos) ++steal_lines;
  EXPECT_EQ(steal_lines, steal.steals.size());
}

// Queue-driven autoscaling against a trace-replayed burst-then-quiet
// arrival profile: the supervisor must spawn into the burst and
// drain-and-retire through the quiet tail, and the scale events must land
// in the decision stream.
TEST(ClusterRun, AutoscaleSpawnsIntoBurstAndRetiresAfter) {
  const double ghz = htm::SystemProfile::zec12().machine.ghz;
  DriverConfig head;
  head.arrival = httpsim::Arrival::kPoisson;
  head.total_requests = 1'200;
  head.rps = 1'200'000.0;
  DriverConfig quiet = head;
  quiet.total_requests = 600;
  quiet.rps = 80'000.0;
  quiet.seed = head.seed + 1;
  auto sched = httpsim::make_schedule(head, ghz);
  const Cycles offset = sched.back().at + 1'000'000;
  for (ScheduledRequest r : httpsim::make_schedule(quiet, ghz)) {
    r.id += static_cast<i64>(head.total_requests);
    r.at += offset;
    sched.push_back(r);
  }
  const std::string arrivals = testing::TempDir() + "cluster_burst.arrivals";
  {
    std::ofstream out(arrivals, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << httpsim::dump_schedule(sched);
  }

  ClusterSpec spec = small_spec();
  spec.driver.arrival = httpsim::Arrival::kTrace;
  spec.driver.arrival_file = arrivals;
  spec.driver.total_requests = 1'800;
  spec.options.shards = 2;
  spec.options.max_shards = 4;
  spec.options.epochs = 12;
  spec.options.autoscale = true;
  spec.options.scale_up_depth = 8;
  spec.options.scale_down_depth = 2;
  spec.options.scale_sustain = 1;
  spec.options.scale_idle = 2;
  const ClusterRunResult r = httpsim::cluster::run_cluster(spec);

  u32 ups = 0, downs = 0;
  for (const auto& ev : r.scales) (ev.up ? ups : downs) += 1;
  EXPECT_GE(ups, 1u);
  EXPECT_GE(downs, 1u);
  EXPECT_GT(r.max_active, spec.options.shards);
  EXPECT_LE(r.max_active, spec.options.slots());
  u32 scale_lines = 0;
  for (const std::string& line : r.record_lines)
    if (line.find("\"ev\":\"scale\"") != std::string::npos) ++scale_lines;
  EXPECT_EQ(scale_lines, r.scales.size());
  EXPECT_EQ(r.completed + r.dropped + r.shed, spec.driver.total_requests);
}

/// The chaos campaign's worst-fault httpsim phase: Poisson load past the
/// faulted shard's service rate but within the healthy shards' spill
/// headroom, deadlines + one retry + CoDel, and breakers on 4 shards over 8
/// epochs with every fault confined to shard 1.
ClusterSpec breaker_spec() {
  ClusterSpec spec;
  spec.driver.arrival = httpsim::Arrival::kPoisson;
  spec.driver.total_requests = 240;
  spec.driver.rps = 2'400'000.0;
  spec.driver.queue_limit = 64;
  spec.driver.overload.deadline = 2'000'000;
  spec.driver.overload.retry_budget = 1;
  spec.driver.overload.codel = true;
  spec.options.shards = 4;
  spec.options.epochs = 8;
  spec.options.breaker.enabled = true;
  spec.options.breaker.trip_streak = 2;
  spec.options.breaker.latency_budget = 400'000;
  spec.options.breaker.fault_shard = 1;
  spec.engine_flags = {"--fault-seed=7", "--fault-persistent-yps=all",
                       "--fault-handoff-delay=150000"};
  return spec;
}

// The golden pin: the numbers the in-process breaker runner produced on
// breaker_spec() before the supervisor took the breakers over. The request
// log hash, the spill count, every transition and the totals must match.
TEST(ClusterRun, BreakerMatchesTheInProcessRunnerItReplaced) {
  const ClusterSpec spec = breaker_spec();
  const ClusterRunResult r = httpsim::cluster::run_cluster(spec);
  EXPECT_EQ(httpsim::cluster::fnv1a64(r.request_log),
            3668277289948523399ULL);
  EXPECT_EQ(r.spilled, 4u);
  EXPECT_EQ(r.completed, 240u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.makespan, 972'301u);
  const std::vector<httpsim::cluster::BreakerTransition> expected = {
      {5, 1, "open"}, {7, 1, "probe"}, {7, 1, "closed"}};
  EXPECT_EQ(r.breaker_transitions, expected);
  // Every transition is also a `breaker` line of the decision stream.
  u32 breaker_lines = 0;
  for (const std::string& line : r.record_lines)
    if (line.find("\"ev\":\"breaker\"") != std::string::npos) ++breaker_lines;
  EXPECT_EQ(breaker_lines, r.breaker_transitions.size());
}

// The epoch accumulation and final merge with breaker spill moving keys
// between slots: the fleet is still exactly the sum of its slots.
TEST(ClusterRun, BreakerFleetIsTheSumOfItsEpochAccumulatedShards) {
  ClusterSpec spec = breaker_spec();
  spec.driver.queue_limit = DriverConfig{}.queue_limit;
  spec.options.epochs = 4;
  spec.options.breaker.latency_budget = 0;
  const ClusterRunResult r = httpsim::cluster::run_cluster(spec);
  ASSERT_EQ(r.shards.size(), 4u);
  EXPECT_EQ(r.completed + r.dropped + r.shed, spec.driver.total_requests);
  testutil::expect_fleet_invariants(r, spec.driver.paths);
}

TEST(ClusterRun, BreakerBrownOutIsByteDeterministicForAFixedSeed) {
  ClusterSpec spec = breaker_spec();
  spec.driver.queue_limit = DriverConfig{}.queue_limit;
  const ClusterRunResult a = httpsim::cluster::run_cluster(spec);
  const ClusterRunResult b = httpsim::cluster::run_cluster(spec);
  EXPECT_EQ(a.request_log, b.request_log);
  EXPECT_EQ(a.record_lines, b.record_lines);
  EXPECT_EQ(a.spilled, b.spilled);
  EXPECT_EQ(a.breaker_transitions, b.breaker_transitions);
  // The faulted shard's brown-out must actually engage under this load.
  EXPECT_GE(a.breaker_transitions.size(), 1u);
  // Transitions arrive in deterministic (epoch, shard) order.
  for (std::size_t i = 1; i < a.breaker_transitions.size(); ++i) {
    EXPECT_GE(a.breaker_transitions[i].epoch,
              a.breaker_transitions[i - 1].epoch);
  }
  // Accounting holds across the epoch-sliced breaker path as well.
  EXPECT_EQ(a.completed + a.dropped + a.shed, spec.driver.total_requests);
}

// gilfree.record/httpsim.1 round trip: write, read back the scenario from
// the header's flag strings alone, and replay-verify — then show a
// tampered decision stream is caught.
TEST(ClusterRecordTest, WriteReadVerifyAndTamperDetect) {
  ClusterSpec spec = small_spec();
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.options.steal = true;
  spec.options.steal_margin = 8;
  const ClusterRunResult r = httpsim::cluster::run_cluster(spec);
  ASSERT_FALSE(r.record_lines.empty());

  const std::string path = testing::TempDir() + "cluster.rec";
  httpsim::cluster::write_cluster_record(path, spec, r);

  const ClusterRecord rec = httpsim::cluster::read_cluster_record(path);
  EXPECT_EQ(rec.spec.machine, spec.machine);
  EXPECT_EQ(rec.spec.config, spec.config);
  EXPECT_EQ(rec.spec.program, spec.program);
  EXPECT_EQ(rec.spec.engine_seed, spec.engine_seed);
  EXPECT_EQ(rec.spec.driver.key_space, spec.driver.key_space);
  EXPECT_EQ(rec.spec.options.steal, spec.options.steal);
  EXPECT_EQ(rec.spec.options.steal_margin, spec.options.steal_margin);
  EXPECT_EQ(rec.lines, r.record_lines);

  EXPECT_EQ(httpsim::cluster::verify_cluster_record(path), "");

  // Flip one digit of the end line's log hash: the replay must diverge.
  std::string contents = slurp(path);
  const auto pos = contents.find("\"log_fnv\":\"");
  ASSERT_NE(pos, std::string::npos);
  char& digit = contents[pos + std::strlen("\"log_fnv\":\"")];
  digit = digit == '9' ? '1' : '9';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_NE(httpsim::cluster::verify_cluster_record(path), "");
}

// The Zipf key generator and keyed routing that feed the steal protocol:
// dump/parse round trip preserves keys, keys are guest-segment-style
// handles, and keyless schedules route exactly as before keys existed.
TEST(ClusterSchedule, KeyedScheduleRoundTripsAndRoutes) {
  DriverConfig cfg;
  cfg.arrival = httpsim::Arrival::kPoisson;
  cfg.total_requests = 500;
  cfg.rps = 600'000.0;
  cfg.key_space = 16;
  cfg.zipf = 1.2;
  const double ghz = htm::SystemProfile::zec12().machine.ghz;
  const auto sched = httpsim::make_schedule(cfg, ghz);
  ASSERT_EQ(sched.size(), cfg.total_requests);

  u64 max_key = 0;
  for (const auto& r : sched) {
    ASSERT_NE(r.key, 0u);                // Keyed run: every request keyed.
    EXPECT_EQ(r.key & 0xffffffffu, 0u);  // (rank + 1) << 32, never raw.
    max_key = std::max(max_key, r.key);
  }
  EXPECT_LE(max_key >> 32, cfg.key_space);

  const auto back = httpsim::parse_schedule(httpsim::dump_schedule(sched));
  ASSERT_EQ(back.size(), sched.size());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    EXPECT_EQ(back[i].id, sched[i].id);
    EXPECT_EQ(back[i].at, sched[i].at);
    EXPECT_EQ(back[i].key, sched[i].key);
  }

  // route_key falls back to the id-hash router when the key is 0.
  for (i64 id = 0; id < 64; ++id)
    EXPECT_EQ(httpsim::route_key(httpsim::Router::kHash, id, 0, 4, cfg.seed),
              httpsim::route_request(httpsim::Router::kHash, id, 4, cfg.seed));
  // A hot key pins to one shard regardless of request id — the
  // concentration the steal pass exists to flatten.
  const u64 hot = sched.front().key;
  const u32 home =
      httpsim::route_key(httpsim::Router::kHash, 0, hot, 4, cfg.seed);
  for (i64 id = 1; id < 64; ++id)
    EXPECT_EQ(httpsim::route_key(httpsim::Router::kHash, id, hot, 4, cfg.seed),
              home);
}

}  // namespace
}  // namespace gilfree

int main(int argc, char** argv) {
  // The supervisor spawns this binary as its shard workers; serve that
  // before gtest init, exactly like the bench front ends do.
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return gilfree::httpsim::cluster::worker_main();
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
