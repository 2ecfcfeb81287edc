// RunObserver: the per-run observability front end. The engine (or a raw
// HtmFacility harness like the Fig. 6a probe) offers every trace event to
// on_event; the observer feeds the bounded flight recorder (sampled trace)
// and the exact metrics aggregates in one step. on_event is O(1); a disabled
// engine simply has no observer (one null check per event site).
#pragma once

#include <memory>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gilfree::obs {

struct ObsConfig;

class RunObserver {
 public:
  /// `seed` drives only the sampling RNG; pass the engine seed so the same
  /// seed yields an identical trace.
  RunObserver(std::size_t ring_capacity, double sample, u64 seed);

  /// Offers one event: the exact per-yield-point and request aggregates
  /// count begins, commits, aborts, fallbacks and requests, and the event
  /// goes on to the sampled flight recorder. Every other kind is trace-only
  /// (RunStats, the length table and the serving port own those counters),
  /// and kSched is record-only and ignored here.
  void on_event(const TraceEvent& e);

  /// Moves the aggregates out (per-yield-point tables, request latencies,
  /// recorder accounting). The caller fills in the run's RunStats and
  /// labels afterwards.
  RunMetrics finalize();

  /// Drains the retained trace events in sequence order.
  std::vector<TraceEvent> drain_events() { return recorder_.drain(); }

  const FlightRecorder& recorder() const { return recorder_; }

 private:
  YieldPointMetrics& yp_metrics(i32 yp) { return metrics_.per_yield_point[yp]; }

  FlightRecorder recorder_;
  RunMetrics metrics_;
};

}  // namespace gilfree::obs
