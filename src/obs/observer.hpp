// RunObserver: the per-run observability front end. The engine (or a raw
// HtmFacility harness like the Fig. 6a probe) calls the on_* hooks at every
// transaction begin/commit/abort, GIL fallback, and completed request; the
// observer feeds the bounded flight recorder (sampled trace) and the exact
// metrics aggregates in one step. Hooks are O(1); a disabled engine simply
// has no observer (one null check per event site).
#pragma once

#include <memory>

#include "common/types.hpp"
#include "htm/abort_reason.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gilfree::obs {

struct ObsConfig;

class RunObserver {
 public:
  /// `seed` drives only the sampling RNG; pass the engine seed so the same
  /// seed yields an identical trace.
  RunObserver(std::size_t ring_capacity, double sample, u64 seed);

  void on_tx_begin(Cycles t, u32 tid, CpuId cpu, i32 yp, u32 length);
  void on_tx_commit(Cycles t, u32 tid, CpuId cpu, i32 yp, u32 length);
  /// `gaddr` is the guest address of the conflicting line (0 = none, e.g.
  /// spurious conflicts or a facility without a guest space); `src_line` the MiniRuby source
  /// line executing at the abort (0 = unknown).
  void on_tx_abort(Cycles t, u32 tid, CpuId cpu, i32 yp, u32 length,
                   htm::AbortReason reason, u64 gaddr = 0, u16 src_line = 0);
  void on_gil_fallback(Cycles t, u32 tid, CpuId cpu, i32 yp);
  /// `queue` is the arrival→accept component of `latency`; ports that do
  /// not track accept times pass 0.
  void on_request(Cycles t, u32 tid, i64 req_id, Cycles latency,
                  Cycles queue = 0);

  // Tier-2 software-transaction events (docs/TIERS.md). Trace-only: the
  // `stm` metrics block renders the run's RunStats (the StmEngine is
  // authoritative), so the observer does not aggregate them.
  void on_stm_begin(Cycles t, u32 tid, CpuId cpu, i32 yp);
  void on_stm_commit(Cycles t, u32 tid, CpuId cpu, i32 yp);
  void on_stm_abort(Cycles t, u32 tid, CpuId cpu, i32 yp,
                    stm::StmAbortCause cause, u16 src_line = 0);
  void on_tier(Cycles t, u32 tid, CpuId cpu, i32 yp, TierTransition tr);

  /// A request past its deadline was shed mid-service. Trace-only: the
  /// serving port owns the shed/retry counters and stamps them into the
  /// metrics via ServerPort::annotate_request_metrics, so counting here too
  /// would double-report.
  void on_shed(Cycles t, u32 tid, CpuId cpu, i64 req_id);

  // Robustness events (docs/ROBUSTNESS.md): quarantine state transitions,
  // injected faults, and starvation-watchdog reports. Trace-only: the
  // length table, fault injector and engine own these counters (RunStats,
  // plus the per-yield-point quarantine counts the engine stamps).
  void on_quarantine_enter(Cycles t, u32 tid, CpuId cpu, i32 yp);
  void on_quarantine_probe(Cycles t, u32 tid, CpuId cpu, i32 yp);
  void on_quarantine_exit(Cycles t, u32 tid, CpuId cpu, i32 yp);
  void on_fault(Cycles t, u32 tid, CpuId cpu, fault::FaultKind kind);
  void on_watchdog(Cycles t, u32 tid, CpuId cpu, i32 yp, WatchdogKind kind);

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
