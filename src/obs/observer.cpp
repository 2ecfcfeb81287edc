#include "obs/observer.hpp"

namespace gilfree::obs {

RunObserver::RunObserver(std::size_t ring_capacity, double sample, u64 seed)
    : recorder_(ring_capacity, sample, seed) {}

void RunObserver::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kTxBegin: {
      YieldPointMetrics& m = yp_metrics(e.yp);
      ++m.begins;
      ++m.begins_by_length[e.length];
      break;
    }
    case EventKind::kTxCommit:
      ++yp_metrics(e.yp).commits;
      break;
    case EventKind::kTxAbort: {
      YieldPointMetrics& m = yp_metrics(e.yp);
      const auto r = static_cast<std::size_t>(e.reason);
      ++m.aborts_by_reason[r];
      ++m.abort_length[r][e.length];
      break;
    }
    case EventKind::kGilFallback:
      ++yp_metrics(e.yp).fallbacks;
      break;
    case EventKind::kRequest: {
      RequestMetrics& r = metrics_.requests;
      if (r.completed == 0 || e.latency < r.latency_min)
        r.latency_min = e.latency;
      if (e.latency > r.latency_max) r.latency_max = e.latency;
      r.latency_sum += e.latency;
      r.queue_sum += e.queue;
      if (e.queue > r.queue_max) r.queue_max = e.queue;
      r.latency_hist.add(e.latency);
      r.queue_hist.add(e.queue);
      ++r.completed;
      break;
    }
    case EventKind::kSched:
      return;
    default:
      break;
  }
  recorder_.record(e);
}

RunMetrics RunObserver::finalize() {
  metrics_.trace_sample = recorder_.sample();
  metrics_.events_seen = recorder_.seen();
  metrics_.events_recorded = recorder_.recorded();
  metrics_.events_evicted = recorder_.evicted();
  return std::move(metrics_);
}

}  // namespace gilfree::obs
