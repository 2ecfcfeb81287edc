// Aggregate statistics of one engine run — everything the paper's figures
// report: throughput (virtual time), abort ratios by reason, the Fig. 8
// cycle breakdown, GC and inline-cache counters. This is the one definition
// of every run counter: the metrics document (obs::RunMetrics) carries a
// RunStats and renders it directly. Header-only and built from each layer's
// header-only stats type, so the observability layer can include it without
// linking against the engine.
#pragma once

#include <map>
#include <string>

#include "common/types.hpp"
#include "fault/fault_stats.hpp"
#include "gil/gil_stats.hpp"
#include "htm/htm_stats.hpp"
#include "stm/stm_stats.hpp"
#include "vm/gc_stats.hpp"
#include "vm/interp_stats.hpp"

namespace gilfree::runtime {

/// Fig. 8 cycle buckets.
struct CycleBreakdown {
  Cycles begin_end = 0;     ///< TBEGIN/TEND instructions + surrounding code.
  Cycles tx_success = 0;    ///< Work inside committed transactions.
  Cycles tx_aborted = 0;    ///< Work discarded by aborts (incl. penalty).
  Cycles stm_work = 0;      ///< Work inside committed software transactions
                            ///< (tier 2, docs/TIERS.md).
  Cycles gil_held = 0;      ///< Execution with the GIL acquired.
  Cycles gil_wait = 0;      ///< Waiting/spinning for the GIL.
  Cycles blocked_io = 0;    ///< Parked in blocking operations.
  Cycles other = 0;         ///< Boot, non-classified.

  Cycles total() const {
    return begin_end + tx_success + tx_aborted + stm_work + gil_held +
           gil_wait + blocked_io + other;
  }
  void merge(const CycleBreakdown& o) {
    begin_end += o.begin_end;
    tx_success += o.tx_success;
    tx_aborted += o.tx_aborted;
    stm_work += o.stm_work;
    gil_held += o.gil_held;
    gil_wait += o.gil_wait;
    blocked_io += o.blocked_io;
    other += o.other;
  }
};

struct RunStats {
  Cycles total_cycles = 0;       ///< Machine-wide virtual time at the end.
  double virtual_seconds = 0.0;
  u64 insns_retired = 0;
  u64 live_thread_peak = 0;

  htm::HtmStats htm;
  gil::GilStats gil;
  CycleBreakdown breakdown;
  vm::GcStats gc;
  vm::InterpStats interp;

  u64 transactions_started = 0;  ///< TLE-level begins (excl. GIL fallbacks).
  u64 ctx_switch_aborts = 0;     ///< Transactions killed by context switches.
  u64 gil_fallbacks = 0;         ///< Times execution reverted to the GIL.
  u64 length_adjustments = 0;
  double fraction_length_one = 0.0;

  // Tier-2 software transactions (docs/TIERS.md).
  stm::StmStats stm;
  u64 stm_escalations = 0;    ///< Spans escalated HTM → STM.
  u64 stm_gil_fallbacks = 0;  ///< Spans the STM tier handed on to the GIL.

  // Robustness (docs/ROBUSTNESS.md).
  u64 quarantine_enters = 0;   ///< Yield-point circuit-breaker trips.
  u64 quarantine_probes = 0;   ///< Recovery probe attempts.
  u64 quarantine_exits = 0;    ///< Probes that committed (left quarantine).
  u64 watchdog_events = 0;     ///< Starvation-watchdog reports.
  fault::FaultStats faults;    ///< Injected-fault campaign totals.

  std::map<std::string, double> results;  ///< __record'ed values.
  std::string output;                     ///< puts/print output.

  /// True when the STM tier saw any traffic; gates the metrics `stm` block.
  bool stm_engaged() const {
    return stm.begins + stm_escalations + stm_gil_fallbacks != 0;
  }

  /// Abort ratio as the paper reports it: aborts / transaction begins.
  double abort_ratio() const {
    return htm.begins == 0
               ? 0.0
               : static_cast<double>(htm.total_aborts()) /
                     static_cast<double>(htm.begins);
  }
};

}  // namespace gilfree::runtime
