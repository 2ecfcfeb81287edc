// The cluster supervisor: forks one shared-nothing simulator process per
// shard (the `/proc/self/exe` re-exec pattern), partitions the open-loop
// arrival schedule into epochs, routes each epoch's arrivals to the active
// shards, and drives the workers over the pipe protocol. At every epoch
// boundary it may rebalance queued work from the deepest to the shallowest
// admission queue (cross-shard work stealing, trace-visible as `steal`
// events) and grow or shrink the active shard set from queue-depth / p99
// signals (autoscaling, trace-visible as `scale` events). Everything is
// deterministic: routing, stealing, and scaling depend only on the seeded
// schedule and the workers' (deterministic) results, so two same-seed runs
// produce byte-identical merged logs, per-shard artifacts, and record
// streams. docs/ARCHITECTURE.md has the state machines.
#pragma once

#include <string>
#include <vector>

#include "httpsim/bench_server.hpp"
#include "httpsim/cluster/protocol.hpp"

namespace gilfree::obs {
class Sink;
}

namespace gilfree::httpsim::cluster {

struct ClusterOptions {
  u32 shards = 4;      ///< Initial worker processes (--shards=).
  /// Shard slot capacity (--scale-max=): the ceiling autoscaling may grow
  /// to, and the stable shard_count every engine derives its RNG streams
  /// from. 0 = same as `shards` (no headroom).
  u32 max_shards = 0;
  u32 epochs = 1;      ///< Schedule windows per run (--cluster-epochs=).
  Router router = Router::kHash;

  // --- Cross-shard work stealing (--steal=on) ------------------------------
  bool steal = false;
  /// Minimum depth gap (deepest - shallowest, in requests) before a steal.
  u32 steal_margin = 32;
  /// Requests moved per steal operation, at most.
  u32 steal_batch = 256;
  /// Steal operations per epoch boundary, at most.
  u32 steal_rounds = 8;

  // --- Queue-driven autoscaling (--autoscale=on) ---------------------------
  bool autoscale = false;
  u32 scale_min = 1;        ///< Never drain below this many shards.
  /// Scale-up signal: some shard's epoch-boundary backlog at or above this.
  u32 scale_up_depth = 256;
  /// Additional scale-up signal: some shard's epoch p99 above this; 0 = off.
  Cycles scale_up_p99 = 0;
  /// Scale-down signal: an epoch is idle when every shard's boundary
  /// backlog is at or below this. 0 demands exactly-empty queues, which a
  /// busy fleet almost never shows (the window's last arrivals are still
  /// being accepted) — raise it a little to let drains engage.
  u32 scale_down_depth = 0;
  /// Consecutive overloaded epochs before a spawn.
  u32 scale_sustain = 2;
  /// Consecutive idle epochs before a drain-and-retire.
  u32 scale_idle = 2;

  /// Slot capacity after defaulting.
  u32 slots() const { return max_shards == 0 ? shards : max_shards; }

  /// Reads --shards=, --router=, --cluster-epochs=, --steal[=on|off],
  /// --steal-margin=, --steal-batch=, --steal-rounds=,
  /// --autoscale[=on|off], --scale-min=, --scale-max=, --scale-up-depth=,
  /// --scale-up-p99=, --scale-down-depth=, --scale-sustain=,
  /// --scale-idle=. Throws
  /// std::invalid_argument on semantic errors (strict-CLI convention).
  static ClusterOptions from_flags(const CliFlags& flags);
  /// Canonical non-default flags; from_flags(to_flags(o)) == o. Used by the
  /// httpsim record header.
  std::vector<std::string> to_flags() const;
};

/// Everything one cluster run needs; the supervisor forwards the names and
/// flag strings to every worker's Init frame.
struct ClusterSpec {
  std::string machine = "zec12";       ///< Profile name.
  std::string config = "HTM-dynamic";  ///< GIL | HTM-<len> | HTM-dynamic.
  std::string program = "webrick";     ///< webrick | rails.
  u64 engine_seed = 0x6112024;
  /// Engine flag families, verbatim (--gc-*, --fault-*, --stm*).
  std::vector<std::string> engine_flags;
  DriverConfig driver;  ///< Global load; must be open-loop.
  ClusterOptions options;
  /// Per-shard artifact stem: slot k writes <stem>.shard<k>.trace.jsonl and
  /// <stem>.shard<k>.metrics.json; "" disables per-shard artifacts.
  std::string artifact_stem;
};

struct StealEvent {
  u32 epoch = 0;
  u32 from = 0;
  u32 to = 0;
  u64 moved = 0;
};

struct ScaleEvent {
  u32 epoch = 0;
  bool up = false;
  u32 slot = 0;
};

struct ClusterRunResult {
  /// Per-slot accumulated results (size = options.slots(); never-spawned
  /// slots stay zero — see slot_used).
  std::vector<ServerRunResult> shards;
  std::vector<bool> slot_used;
  obs::LatencyHistogram latency_hist;  ///< Merged across shard processes.
  obs::LatencyHistogram queue_hist;
  u64 completed = 0;
  u64 dropped = 0;
  u64 shed = 0;
  u64 retries = 0;
  Cycles makespan = 0;
  double throughput_rps = 0.0;
  std::string request_log;  ///< Global-id-ordered merge of all records.
  std::vector<StealEvent> steals;
  std::vector<ScaleEvent> scales;
  u64 stolen = 0;  ///< Total requests migrated by stealing.
  /// Worst per-shard dispatch depth (batch size + carried backlog) over all
  /// epochs, before and after the steal pass — the pair the bench gates
  /// compare to show stealing flattens the skew.
  u64 peak_depth_presteal = 0;
  u64 peak_depth = 0;
  u32 max_active = 0;  ///< Peak simultaneous shard processes.
  /// The run's deterministic decision stream: one JSONL line per epoch /
  /// steal / dispatch / scale event plus the end summary. The record writer
  /// persists these; replay verification re-runs and compares them.
  std::vector<std::string> record_lines;
};

/// FNV-1a 64 of a byte string; the record end line carries this hash of the
/// merged request log so replays can verify it without storing the log.
u64 fnv1a64(const std::string& s);

/// Runs one multi-process cluster serve. `sink`, when enabled, receives the
/// supervisor-level steal/scale trace events (worker engine runs land in
/// the per-shard artifacts instead). Throws std::invalid_argument on bad
/// specs and std::runtime_error on worker/protocol failures.
ClusterRunResult run_cluster(const ClusterSpec& spec,
                             obs::Sink* sink = nullptr);

}  // namespace gilfree::httpsim::cluster
