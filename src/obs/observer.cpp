#include "obs/observer.hpp"

namespace gilfree::obs {

RunObserver::RunObserver(std::size_t ring_capacity, double sample, u64 seed)
    : recorder_(ring_capacity, sample, seed) {}

void RunObserver::on_tx_begin(Cycles t, u32 tid, CpuId cpu, i32 yp,
                              u32 length) {
  YieldPointMetrics& m = yp_metrics(yp);
  ++m.begins;
  ++m.begins_by_length[length];
  TraceEvent e;
  e.kind = EventKind::kTxBegin;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.length = length;
  recorder_.record(e);
}

void RunObserver::on_tx_commit(Cycles t, u32 tid, CpuId cpu, i32 yp,
                               u32 length) {
  ++yp_metrics(yp).commits;
  TraceEvent e;
  e.kind = EventKind::kTxCommit;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.length = length;
  recorder_.record(e);
}

void RunObserver::on_tx_abort(Cycles t, u32 tid, CpuId cpu, i32 yp,
                              u32 length, htm::AbortReason reason, u64 gaddr,
                              u16 src_line) {
  YieldPointMetrics& m = yp_metrics(yp);
  const auto r = static_cast<std::size_t>(reason);
  ++m.aborts_by_reason[r];
  ++m.abort_length[r][length];
  TraceEvent e;
  e.kind = EventKind::kTxAbort;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.length = length;
  e.reason = reason;
  e.gaddr = gaddr;
  e.src_line = src_line;
  recorder_.record(e);
}

void RunObserver::on_gil_fallback(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  ++yp_metrics(yp).fallbacks;
  TraceEvent e;
  e.kind = EventKind::kGilFallback;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_request(Cycles t, u32 tid, i64 req_id, Cycles latency,
                             Cycles queue) {
  RequestMetrics& r = metrics_.requests;
  if (r.completed == 0 || latency < r.latency_min) r.latency_min = latency;
  if (latency > r.latency_max) r.latency_max = latency;
  r.latency_sum += latency;
  r.queue_sum += queue;
  if (queue > r.queue_max) r.queue_max = queue;
  r.latency_hist.add(latency);
  r.queue_hist.add(queue);
  ++r.completed;
  TraceEvent e;
  e.kind = EventKind::kRequest;
  e.t = t;
  e.tid = tid;
  e.req = req_id;
  e.latency = latency;
  e.queue = queue;
  recorder_.record(e);
}

void RunObserver::on_stm_begin(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  TraceEvent e;
  e.kind = EventKind::kStmBegin;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_stm_commit(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  TraceEvent e;
  e.kind = EventKind::kStmCommit;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_stm_abort(Cycles t, u32 tid, CpuId cpu, i32 yp,
                               stm::StmAbortCause cause, u16 src_line) {
  TraceEvent e;
  e.kind = EventKind::kStmAbort;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.detail = static_cast<u8>(cause);
  e.src_line = src_line;
  recorder_.record(e);
}

void RunObserver::on_tier(Cycles t, u32 tid, CpuId cpu, i32 yp,
                          TierTransition tr) {
  TraceEvent e;
  e.kind = EventKind::kTier;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.detail = static_cast<u8>(tr);
  recorder_.record(e);
}

void RunObserver::on_shed(Cycles t, u32 tid, CpuId cpu, i64 req_id) {
  TraceEvent e;
  e.kind = EventKind::kShed;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.req = req_id;
  recorder_.record(e);
}

void RunObserver::on_quarantine_enter(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  TraceEvent e;
  e.kind = EventKind::kQuarantineEnter;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_quarantine_probe(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  TraceEvent e;
  e.kind = EventKind::kQuarantineProbe;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_quarantine_exit(Cycles t, u32 tid, CpuId cpu, i32 yp) {
  TraceEvent e;
  e.kind = EventKind::kQuarantineExit;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  recorder_.record(e);
}

void RunObserver::on_fault(Cycles t, u32 tid, CpuId cpu,
                           fault::FaultKind kind) {
  TraceEvent e;
  e.kind = EventKind::kFault;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.detail = static_cast<u8>(kind);
  recorder_.record(e);
}

void RunObserver::on_watchdog(Cycles t, u32 tid, CpuId cpu, i32 yp,
                              WatchdogKind kind) {
  TraceEvent e;
  e.kind = EventKind::kWatchdog;
  e.t = t;
  e.tid = tid;
  e.cpu = cpu;
  e.yp = yp;
  e.detail = static_cast<u8>(kind);
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
