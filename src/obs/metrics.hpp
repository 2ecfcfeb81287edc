// The metrics registry: exact (non-sampled) aggregates of one engine run —
// per-yield-point abort-reason × transaction-length histograms, GIL-fallback
// counts, request latencies, and the Fig. 8-style cycle accounting — plus
// the machine-readable JSON document format ("gilfree.metrics/1") they are
// exported as. docs/OBSERVABILITY.md documents every field.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "htm/abort_reason.hpp"
#include "obs/latency_hist.hpp"
#include "runtime/run_stats.hpp"

namespace gilfree::obs {

/// Exact per-yield-point counters. The yield-point id is the compile-time
/// "pc" of the paper; -1 is the thread-entry pseudo yield point.
struct YieldPointMetrics {
  u64 begins = 0;    ///< Transaction attempts started at this yield point.
  u64 commits = 0;   ///< Attempts that reached TEND successfully.
  u64 fallbacks = 0; ///< GIL acquisitions that gave up on this yield point.
  std::array<u64, htm::kNumAbortReasons> aborts_by_reason{};
  /// Abort-reason × transaction-length histogram: for each reason, how many
  /// aborts happened to transactions of each chosen length.
  std::array<std::map<u32, u64>, htm::kNumAbortReasons> abort_length;
  /// Transaction-length histogram of attempts (chosen length → count).
  std::map<u32, u64> begins_by_length;
  u32 final_length = 0;        ///< Length-table entry at the end of the run.
  u64 length_adjustments = 0;  ///< Fig. 3 shrink events at this yield point.
  u64 quarantine_enters = 0;   ///< Circuit-breaker trips at this yield point.
  u64 quarantine_exits = 0;    ///< Successful recovery probes.

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_reason) t += a;
    return t;
  }
};

/// httpsim per-request latency aggregate (cycles are virtual). Total latency
/// is client arrival → server response, i.e. queue delay + service time; the
/// queue component (arrival → accept) is additionally tracked on its own so
/// open-loop runs expose queueing delay explicitly. Percentiles come from
/// the fixed-bucket log2 histograms (docs/OBSERVABILITY.md).
struct RequestMetrics {
  u64 completed = 0;
  u64 dropped = 0;  ///< Admission-queue rejections (open-loop drivers only).
  u64 shed = 0;     ///< Deadline sheds (admission + dispatch + mid-service).
  u64 codel_dropped = 0;  ///< CoDel adaptive-admission drops.
  u64 retries = 0;        ///< Retry re-admissions consumed by retry budgets.
  Cycles latency_min = 0;
  Cycles latency_max = 0;
  Cycles latency_sum = 0;
  Cycles queue_sum = 0;
  Cycles queue_max = 0;
  LatencyHistogram latency_hist;  ///< queue delay + service, per request.
  LatencyHistogram queue_hist;    ///< queue delay alone, per request.

  // Stamped by the attached ServerPort when the run finishes (engine calls
  // ServerPort::annotate_request_metrics); empty/0 for ports that predate
  // the open-loop drivers.
  std::string arrival;       ///< Arrival process: "closed"/"poisson"/"mmpp".
  double offered_rps = 0.0;  ///< Configured open-loop rate; 0 = closed loop.

  double latency_mean() const {
    return completed ? static_cast<double>(latency_sum) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  double queue_mean() const {
    return completed ? static_cast<double>(queue_sum) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  /// Cross-shard / cross-run merge: histograms add, extrema combine.
  void merge(const RequestMetrics& o);
};

/// Everything one engine run exports into the metrics document: the run's
/// RunStats, rendered as-is, next to what only the observability layer
/// computes (labels, per-yield-point detail, requests, flight-recorder
/// accounting).
struct RunMetrics {
  u32 run_id = 0;
  std::map<std::string, std::string> labels;  ///< Harness-assigned tags.
  u64 seed = 0;
  std::string mode;     ///< Engine sync mode name (GIL/HTM/...).
  std::string machine;  ///< Machine profile name.

  /// Engine totals: the RunStats the binaries print.
  runtime::RunStats stats;

  std::map<i32, YieldPointMetrics> per_yield_point;
  RequestMetrics requests;

  // Flight-recorder accounting (sampling/eviction transparency).
  double trace_sample = 1.0;
  u64 events_seen = 0;
  u64 events_recorded = 0;
  u64 events_evicted = 0;
};

/// Renders the "gilfree.metrics/1" document: {"schema", "runs":[...],
/// "totals":{...}}. Deterministic byte-for-byte for identical inputs.
std::string metrics_to_json(const std::vector<RunMetrics>& runs);

}  // namespace gilfree::obs
