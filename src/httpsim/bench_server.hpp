// Runners for the server-simulation experiments: the closed-loop WEBrick /
// Rails throughput panels (Fig. 7) and the open-loop latency/queueing runs,
// optionally sharded across multiple independent engines.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "httpsim/client_driver.hpp"
#include "obs/latency_hist.hpp"
#include "runtime/engine.hpp"

namespace gilfree::obs {
class Sink;
}

namespace gilfree::httpsim {

struct ServerRunResult {
  double throughput_rps = 0.0;  ///< Requests per virtual second.
  u32 completed = 0;
  u32 dropped = 0;  ///< Tail-dropped by the bounded admission queue.
  u32 shed = 0;     ///< Deadline sheds + CoDel drops (docs/ROBUSTNESS.md).
  u32 retries = 0;  ///< Retry re-admissions consumed by retry budgets.
  double queue_mean_cycles = 0.0;  ///< Mean arrival→accept queueing delay.
  obs::LatencyHistogram latency_hist;
  obs::LatencyHistogram queue_hist;
  Cycles last_response = 0;
  /// Canonical per-request log (format_request_log); differential-test
  /// ground truth, byte-identical across same-seed runs.
  std::string request_log;
  std::vector<RequestRecord> records;
  runtime::RunStats stats;

  double latency_p(double p) const { return latency_hist.percentile(p); }

  /// Adds one epoch slice's result into this shard's running totals: the
  /// four counts, both histograms, the latest response and the records
  /// (appended; FleetResult::finish sorts them). Engine stats are the last
  /// epoch's.
  void add_epoch(ServerRunResult epoch);
};

/// A sharded run's merged view plus the per-shard results: what the
/// in-process runner (run_sharded) and the multi-process cluster supervisor
/// both produce.
struct FleetResult {
  std::vector<ServerRunResult> shards;
  obs::LatencyHistogram latency_hist;  ///< Merged across shards.
  obs::LatencyHistogram queue_hist;
  u64 completed = 0;
  u64 dropped = 0;
  u64 shed = 0;     ///< Deadline sheds + CoDel drops across shards.
  u64 retries = 0;  ///< Retry re-admissions across shards.
  Cycles makespan = 0;  ///< Latest response across shards (shared t=0 epoch).
  double throughput_rps = 0.0;  ///< completed / makespan.
  std::string request_log;  ///< Global-id-ordered merge of the shard logs.

  /// Completes shards built with ServerRunResult::add_epoch (id-sorted
  /// records, request_log, queue_mean_cycles, throughput_rps), then
  /// merge()s them.
  void finish(const std::vector<std::string>& paths, double ghz);
  /// Merges complete shards into the fleet fields: counts, histograms,
  /// makespan, throughput and the id-sorted global request log.
  void merge(const std::vector<std::string>& paths, double ghz);
};

/// Multi-engine sharding of one logical server run (--shards=, --router=).
struct ShardOptions {
  u32 shards = 1;
  Router router = Router::kHash;

  /// Reads --shards= and --router=; throws std::invalid_argument on
  /// semantic errors (strict-CLI convention).
  static ShardOptions from_flags(const CliFlags& flags);
};

/// Runs `program_source` (webrick_source()/rails_source()) against the load
/// described by `driver_config` — closed-loop or open-loop per
/// driver_config.arrival — on the given engine config.
ServerRunResult run_server(runtime::EngineConfig cfg,
                           const std::string& program_source,
                           const DriverConfig& driver_config);

/// Runs one open-loop schedule slice on a fresh engine. `cfg` must already
/// carry shard_id/shard_count (and obs_sink/labels if tracing); this helper
/// owns the slice-dependent sizing — the rps share
/// (rps * slice/schedule_total) and the VM thread budget
/// (slice * (1 + retry_budget) + 8). Those formulas living in exactly one
/// place is what keeps the in-process sharded runner and the multi-process
/// cluster worker byte-identical on the same slice.
ServerRunResult run_open_loop_slice(runtime::EngineConfig cfg,
                                    const std::string& program_source,
                                    const DriverConfig& driver_config,
                                    std::vector<ScheduledRequest> slice,
                                    std::size_t schedule_total);

/// Runs one logical server workload split across `options.shards`
/// independent engines. Every shard engine is cloned from `base` (with
/// shard_id/shard_count set), shares the t=0 virtual epoch, and executes its
/// deterministic slice of the load: the open-loop arrival schedule is
/// pre-generated once and partitioned by the router; closed-loop clients and
/// request counts are split round-robin. Shards run sequentially (they are
/// independent simulations), and the merged result combines histograms,
/// counts, and the global request log; throughput uses the makespan across
/// shards. When `sink` is set, each shard's run is delivered to it tagged
/// with `labels` plus shard=<i>/shards=<n>.
FleetResult run_sharded(const runtime::EngineConfig& base,
                        const std::string& program_source,
                        const DriverConfig& driver_config,
                        const ShardOptions& options, obs::Sink* sink = nullptr,
                        std::map<std::string, std::string> labels = {});

}  // namespace gilfree::httpsim
