// Shared helpers for the httpsim differential tests (mirrors the
// run/trace-capture pattern of test_interp_modes.cpp): run a (possibly
// sharded) server workload while capturing the request log, the trace file
// bytes, and the metrics document; plus an independent "serialized
// reference" that re-partitions the same load by hand and runs the shard
// engines in reverse order, proving shards are isolated simulations whose
// merged result is execution-order independent.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "httpsim/bench_server.hpp"
#include "httpsim/client_driver.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"

namespace gilfree::testutil {

struct HttpObserved {
  httpsim::FleetResult result;
  std::string trace;    ///< Trace file bytes (all shard runs).
  std::string metrics;  ///< metrics_to_json over the sink's runs.
};

/// Runs the workload through the production run_sharded() path with a
/// capturing sink, and returns everything a differential comparison needs.
inline HttpObserved run_observed(const runtime::EngineConfig& base,
                                 const std::string& program,
                                 const httpsim::DriverConfig& d,
                                 const httpsim::ShardOptions& so,
                                 const std::string& tag) {
  static std::atomic<u64> counter{0};
  obs::ObsConfig oc;
  oc.trace_path = ::testing::TempDir() + "httpsim_modes_" + tag + "_" +
                  std::to_string(counter.fetch_add(1)) + ".jsonl";
  HttpObserved o;
  {
    obs::Sink sink(oc);
    o.result = httpsim::run_sharded(base, program, d, so, &sink,
                                    {{"figure", "test_httpsim_modes"}});
    sink.flush();
    o.metrics = obs::metrics_to_json(sink.runs());
  }
  std::ifstream f(oc.trace_path);
  std::stringstream buf;
  buf << f.rdbuf();
  o.trace = buf.str();
  std::remove(oc.trace_path.c_str());
  return o;
}

struct ReferenceResult {
  std::string request_log;  ///< Global-id-ordered merge.
  obs::LatencyHistogram latency_hist;
  obs::LatencyHistogram queue_hist;
  u64 completed = 0;
  u64 dropped = 0;
  std::vector<runtime::RunStats> stats;  ///< Indexed by shard id.
};

/// Independent reimplementation of the sharded run: partitions the load
/// with the same deterministic rules (router over the pre-generated
/// schedule, round-robin client/request split for the closed loop) but
/// builds each engine by hand and executes the shards in REVERSE order.
/// If shards are truly independent simulations, the merged result must be
/// identical to run_sharded()'s.
inline ReferenceResult run_serialized_reference(
    const runtime::EngineConfig& base, const std::string& program,
    const httpsim::DriverConfig& d, const httpsim::ShardOptions& so) {
  using httpsim::Arrival;
  const double ghz = base.profile.machine.ghz;
  const u32 shards = so.shards;

  std::vector<httpsim::DriverConfig> shard_cfg(shards, d);
  std::vector<std::vector<httpsim::ScheduledRequest>> shard_sched(shards);
  if (d.arrival == Arrival::kClosed) {
    i64 next_id = d.first_id;
    for (u32 s = 0; s < shards; ++s) {
      shard_cfg[s].clients = d.clients / shards + (s < d.clients % shards);
      shard_cfg[s].total_requests =
          d.total_requests / shards + (s < d.total_requests % shards);
      shard_cfg[s].first_id = next_id;
      next_id += shard_cfg[s].total_requests;
    }
  } else {
    for (const auto& r : httpsim::make_schedule(d, ghz)) {
      shard_sched[httpsim::route_request(so.router, r.id, shards, d.seed)]
          .push_back(r);
    }
  }

  ReferenceResult out;
  out.stats.resize(shards);
  std::vector<httpsim::RequestRecord> merged;
  for (u32 i = 0; i < shards; ++i) {
    const u32 s = shards - 1 - i;  // reverse execution order
    runtime::EngineConfig cfg = base;
    cfg.shard_id = s;
    cfg.shard_count = shards;
    std::unique_ptr<httpsim::HttpDriver> driver;
    if (d.arrival == Arrival::kClosed) {
      cfg.heap.max_threads = shard_cfg[s].total_requests + 8;
      driver = std::make_unique<httpsim::ClosedLoopDriver>(shard_cfg[s]);
    } else {
      cfg.heap.max_threads = static_cast<u32>(shard_sched[s].size()) + 8;
      driver = std::make_unique<httpsim::OpenLoopDriver>(shard_cfg[s],
                                                         shard_sched[s]);
    }
    runtime::Engine engine(std::move(cfg));
    engine.load_program({program});
    engine.attach_server(driver.get());
    out.stats[s] = engine.run();
    out.latency_hist.merge(driver->latency_hist());
    out.queue_hist.merge(driver->queue_hist());
    out.completed += driver->completed();
    out.dropped += driver->dropped();
    merged.insert(merged.end(), driver->log().begin(), driver->log().end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const httpsim::RequestRecord& a,
               const httpsim::RequestRecord& b) { return a.id < b.id; });
  out.request_log = httpsim::format_request_log(merged, d.paths);
  return out;
}

/// The invariants of a sharded runner's fleet merge: the fleet counts and
/// histogram totals are the per-shard sums, the makespan is the latest shard
/// response, and the fleet log is format_request_log over the id-sorted
/// union of the shard records. A template, so the in-process and cluster
/// results are read alike.
template <class Fleet>
void expect_fleet_invariants(const Fleet& fleet,
                             const std::vector<std::string>& paths) {
  u64 completed = 0, dropped = 0, shed = 0, retries = 0;
  u64 latency_total = 0, queue_total = 0;
  Cycles makespan = 0;
  std::vector<httpsim::RequestRecord> all;
  for (const httpsim::ServerRunResult& s : fleet.shards) {
    completed += s.completed;
    dropped += s.dropped;
    shed += s.shed;
    retries += s.retries;
    latency_total += s.latency_hist.total();
    queue_total += s.queue_hist.total();
    makespan = std::max(makespan, s.last_response);
    all.insert(all.end(), s.records.begin(), s.records.end());
  }
  EXPECT_GT(fleet.completed, 0u);
  EXPECT_EQ(fleet.completed, completed);
  EXPECT_EQ(fleet.dropped, dropped);
  EXPECT_EQ(fleet.shed, shed);
  EXPECT_EQ(fleet.retries, retries);
  EXPECT_EQ(fleet.makespan, makespan);
  EXPECT_EQ(fleet.latency_hist.total(), latency_total);
  EXPECT_EQ(fleet.queue_hist.total(), queue_total);
  std::stable_sort(all.begin(), all.end(),
                   [](const httpsim::RequestRecord& a,
                      const httpsim::RequestRecord& b) { return a.id < b.id; });
  EXPECT_EQ(fleet.request_log, httpsim::format_request_log(all, paths));
}

}  // namespace gilfree::testutil
