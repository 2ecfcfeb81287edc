#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace gilfree::obs {

namespace {

void append_reason_counts(
    std::string& out, const std::array<u64, htm::kNumAbortReasons>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t r = 1; r < counts.size(); ++r) {  // skip kNone
    if (counts[r] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, htm::abort_reason_name(static_cast<htm::AbortReason>(r)));
    out.push_back(':');
    json_append_number(out, counts[r]);
  }
  out.push_back('}');
}

void append_length_map(std::string& out, const std::map<u32, u64>& m) {
  out.push_back('{');
  bool first = true;
  for (const auto& [len, n] : m) {
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out, std::to_string(len));
    out.push_back(':');
    json_append_number(out, n);
  }
  out.push_back('}');
}

void append_fault_counts(
    std::string& out, const std::array<u64, fault::kNumFaultKinds>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out,
                       fault::fault_kind_name(static_cast<fault::FaultKind>(k)));
    out.push_back(':');
    json_append_number(out, counts[k]);
  }
  out.push_back('}');
}

void append_yield_point(std::string& out, i32 yp,
                        const YieldPointMetrics& m) {
  out += "{\"yp\":";
  json_append_number(out, static_cast<i64>(yp));
  out += ",\"begins\":";
  json_append_number(out, m.begins);
  out += ",\"commits\":";
  json_append_number(out, m.commits);
  out += ",\"aborts\":";
  json_append_number(out, m.total_aborts());
  out += ",\"fallbacks\":";
  json_append_number(out, m.fallbacks);
  out += ",\"final_length\":";
  json_append_number(out, static_cast<u64>(m.final_length));
  out += ",\"length_adjustments\":";
  json_append_number(out, m.length_adjustments);
  out += ",\"quarantine_enters\":";
  json_append_number(out, m.quarantine_enters);
  out += ",\"quarantine_exits\":";
  json_append_number(out, m.quarantine_exits);
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, m.aborts_by_reason);
  out += ",\"begins_by_length\":";
  append_length_map(out, m.begins_by_length);
  out += ",\"abort_reason_length\":{";
  bool first = true;
  for (std::size_t r = 1; r < m.abort_length.size(); ++r) {
    if (m.abort_length[r].empty()) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, htm::abort_reason_name(static_cast<htm::AbortReason>(r)));
    out.push_back(':');
    append_length_map(out, m.abort_length[r]);
  }
  out += "}}";
}

void append_requests(std::string& out, const RequestMetrics& r) {
  out += "{\"completed\":";
  json_append_number(out, r.completed);
  out += ",\"dropped\":";
  json_append_number(out, r.dropped);
  out += ",\"latency_min\":";
  json_append_number(out, r.latency_min);
  out += ",\"latency_max\":";
  json_append_number(out, r.latency_max);
  out += ",\"latency_mean\":";
  json_append_number(out, r.latency_mean());
  out += ",\"latency_p50\":";
  json_append_number(out, r.latency_hist.percentile(50.0));
  out += ",\"latency_p90\":";
  json_append_number(out, r.latency_hist.percentile(90.0));
  out += ",\"latency_p99\":";
  json_append_number(out, r.latency_hist.percentile(99.0));
  out += ",\"latency_p999\":";
  json_append_number(out, r.latency_hist.percentile(99.9));
  out += ",\"queue_mean\":";
  json_append_number(out, r.queue_mean());
  out += ",\"queue_max\":";
  json_append_number(out, r.queue_max);
  out += ",\"queue_p50\":";
  json_append_number(out, r.queue_hist.percentile(50.0));
  out += ",\"queue_p99\":";
  json_append_number(out, r.queue_hist.percentile(99.0));
  out += ",\"arrival\":";
  json_append_string(out, r.arrival);
  out += ",\"offered_rps\":";
  json_append_number(out, r.offered_rps);
  // Overload-protection accounting only appears once a run actually shed,
  // CoDel-dropped, or retried something: default runs keep their bytes.
  if (r.shed + r.codel_dropped + r.retries != 0) {
    out += ",\"shed\":";
    json_append_number(out, r.shed);
    out += ",\"codel_dropped\":";
    json_append_number(out, r.codel_dropped);
    out += ",\"retries\":";
    json_append_number(out, r.retries);
  }
  out += ",\"latency_hist\":";
  json_append_string(out, r.latency_hist.to_sparse_string());
  out.push_back('}');
}

void append_stm_causes(
    std::string& out,
    const std::array<u64, stm::kNumStmAbortCauses>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t c = 1; c < counts.size(); ++c) {  // skip kNone
    if (counts[c] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, stm::stm_abort_cause_name(static_cast<stm::StmAbortCause>(c)));
    out.push_back(':');
    json_append_number(out, counts[c]);
  }
  out.push_back('}');
}

/// The `stm` block: StmStats plus the engine's tier-transition totals.
void append_stm(std::string& out, const runtime::RunStats& r) {
  const stm::StmStats& s = r.stm;
  out += "{\"begins\":";
  json_append_number(out, s.begins);
  out += ",\"commits\":";
  json_append_number(out, s.commits);
  out += ",\"aborts\":";
  json_append_number(out, s.total_aborts());
  out += ",\"aborts_by_cause\":";
  append_stm_causes(out, s.aborts_by_cause);
  out += ",\"escalations\":";
  json_append_number(out, r.stm_escalations);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, r.stm_gil_fallbacks);
  out += ",\"validated_entries\":";
  json_append_number(out, s.validated_entries);
  out += ",\"committed_writes\":";
  json_append_number(out, s.committed_writes);
  out += ",\"zombie_kills\":";
  json_append_number(out, s.zombie_kills);
  out += ",\"max_read_lines\":";
  json_append_number(out, s.max_read_lines);
  out += ",\"max_write_entries\":";
  json_append_number(out, s.max_write_entries);
  out.push_back('}');
}

/// The `quarantine`, `watchdog_events` and `faults_injected` fields, shared
/// by each run and the totals.
void append_robustness(std::string& out, const runtime::RunStats& r) {
  out += ",\"quarantine\":{\"enters\":";
  json_append_number(out, r.quarantine_enters);
  out += ",\"probes\":";
  json_append_number(out, r.quarantine_probes);
  out += ",\"exits\":";
  json_append_number(out, r.quarantine_exits);
  out += "},\"watchdog_events\":";
  json_append_number(out, r.watchdog_events);
  out += ",\"faults_injected\":";
  json_append_number(out, r.faults.total());
}

double hit_rate(u64 hits, u64 misses) {
  const u64 total = hits + misses;
  return total == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(total);
}

void append_cycles(std::string& out, const runtime::CycleBreakdown& c) {
  out += "{\"begin_end\":";
  json_append_number(out, c.begin_end);
  out += ",\"tx_success\":";
  json_append_number(out, c.tx_success);
  out += ",\"tx_aborted\":";
  json_append_number(out, c.tx_aborted);
  if (c.stm_work != 0) {
    // Conditional so STM-less runs keep the pre-STM document bytes.
    out += ",\"stm_work\":";
    json_append_number(out, c.stm_work);
  }
  out += ",\"gil_held\":";
  json_append_number(out, c.gil_held);
  out += ",\"gil_wait\":";
  json_append_number(out, c.gil_wait);
  out += ",\"blocked_io\":";
  json_append_number(out, c.blocked_io);
  out += ",\"other\":";
  json_append_number(out, c.other);
  out += ",\"total\":";
  json_append_number(out, c.total());
  out.push_back('}');
}

void append_gc(std::string& out, const vm::GcStats& g) {
  out += "{\"collections\":";
  json_append_number(out, g.collections);
  out += ",\"total_marked\":";
  json_append_number(out, g.total_marked);
  out += ",\"total_swept\":";
  json_append_number(out, g.total_swept);
  out += ",\"grown_blocks\":";
  json_append_number(out, g.grown_blocks);
  out += ",\"arena_refills\":";
  json_append_number(out, g.arena_refills);
  out += ",\"arena_grows\":";
  json_append_number(out, g.arena_grows);
  out += ",\"arena_shrinks\":";
  json_append_number(out, g.arena_shrinks);
  out += ",\"pool_segments\":";
  json_append_number(out, g.pool_segments);
  out += ",\"segment_slots_min\":";
  json_append_number(out, static_cast<u64>(g.segment_slots_min));
  out += ",\"segment_slots_max\":";
  json_append_number(out, static_cast<u64>(g.segment_slots_max));
  out += ",\"sweep_quanta\":";
  json_append_number(out, g.sweep_quanta);
  out += ",\"sweep_quantum_cycles\":";
  json_append_number(out, g.sweep_quantum_cycles);
  if (g.minor_collections + g.mark_quanta + g.arena_steals != 0) {
    // Conditional so non-generational runs keep the pre-nursery document
    // bytes (same discipline as cycles.stm_work above).
    out += ",\"minor_collections\":";
    json_append_number(out, g.minor_collections);
    out += ",\"nursery_promoted\":";
    json_append_number(out, g.nursery_promoted);
    out += ",\"nursery_freed\":";
    json_append_number(out, g.nursery_freed);
    out += ",\"mark_quanta\":";
    json_append_number(out, g.mark_quanta);
    out += ",\"mark_quantum_cycles\":";
    json_append_number(out, g.mark_quantum_cycles);
    out += ",\"arena_steals\":";
    json_append_number(out, g.arena_steals);
    out += ",\"stolen_segments\":";
    json_append_number(out, g.stolen_segments);
  }
  out += ",\"pause_max\":";
  json_append_number(out, g.max_pause);
  out += ",\"pause_p50\":";
  json_append_number(out, g.pause_hist.percentile(50.0));
  out += ",\"pause_p99\":";
  json_append_number(out, g.pause_hist.percentile(99.0));
  out += ",\"pause_hist\":";
  json_append_string(out, g.pause_hist.to_sparse_string());
  out.push_back('}');
}

void append_run(std::string& out, const RunMetrics& m) {
  out += "{\"run\":";
  json_append_number(out, static_cast<u64>(m.run_id));
  out += ",\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out, k);
    out.push_back(':');
    json_append_string(out, v);
  }
  out += "},\"seed\":";
  json_append_number(out, m.seed);
  out += ",\"mode\":";
  json_append_string(out, m.mode);
  out += ",\"machine\":";
  json_append_string(out, m.machine);
  const runtime::RunStats& st = m.stats;
  out += ",\"begins\":";
  json_append_number(out, st.htm.begins);
  out += ",\"commits\":";
  json_append_number(out, st.htm.commits);
  out += ",\"aborts\":";
  json_append_number(out, st.htm.total_aborts());
  out += ",\"abort_ratio\":";
  json_append_number(out, st.abort_ratio());
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, st.htm.aborts_by_reason);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, st.gil_fallbacks);
  out += ",\"ctx_switch_aborts\":";
  json_append_number(out, st.ctx_switch_aborts);
  out += ",\"length_adjustments\":";
  json_append_number(out, st.length_adjustments);
  out += ",\"insns_retired\":";
  json_append_number(out, st.insns_retired);
  out += ",\"total_cycles\":";
  json_append_number(out, st.total_cycles);
  out += ",\"virtual_seconds\":";
  json_append_number(out, st.virtual_seconds);
  out += ",\"interp\":{\"fused_instructions\":";
  json_append_number(out, st.interp.fused_instructions);
  out += ",\"ic_method_hit_rate\":";
  json_append_number(out, hit_rate(st.interp.ic_method_hits,
                                   st.interp.ic_method_misses));
  out += ",\"ic_ivar_hit_rate\":";
  json_append_number(out,
                     hit_rate(st.interp.ic_ivar_hits, st.interp.ic_ivar_misses));
  out += "},\"gc\":";
  append_gc(out, st.gc);
  append_robustness(out, st);
  out += ",\"faults_by_kind\":";
  append_fault_counts(out, st.faults.injected);
  if (st.stm_engaged()) {
    // Conditional so STM-less runs keep the pre-STM document bytes.
    out += ",\"stm\":";
    append_stm(out, st);
  }
  out += ",\"cycles\":";
  append_cycles(out, st.breakdown);
  out += ",\"yield_points\":[";
  first = true;
  for (const auto& [yp, ym] : m.per_yield_point) {
    if (!first) out.push_back(',');
    first = false;
    append_yield_point(out, yp, ym);
  }
  out += "],\"requests\":";
  append_requests(out, m.requests);
  out += ",\"trace\":{\"sample\":";
  json_append_number(out, m.trace_sample);
  out += ",\"events_seen\":";
  json_append_number(out, m.events_seen);
  out += ",\"events_recorded\":";
  json_append_number(out, m.events_recorded);
  out += ",\"events_evicted\":";
  json_append_number(out, m.events_evicted);
  out += "}}";
}

}  // namespace

std::string metrics_to_json(const std::vector<RunMetrics>& runs) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"gilfree.metrics/1\",\"runs\":[";
  bool first = true;
  for (const RunMetrics& m : runs) {
    if (!first) out.push_back(',');
    first = false;
    append_run(out, m);
  }
  out += "],\"totals\":{";
  // One merge per counter struct; the scalar counters add.
  runtime::RunStats t;
  RequestMetrics requests;
  for (const RunMetrics& m : runs) {
    const runtime::RunStats& st = m.stats;
    t.htm.merge(st.htm);
    t.gc.merge(st.gc);
    t.stm.merge(st.stm);
    t.faults.merge(st.faults);
    t.gil_fallbacks += st.gil_fallbacks;
    t.stm_escalations += st.stm_escalations;
    t.stm_gil_fallbacks += st.stm_gil_fallbacks;
    t.quarantine_enters += st.quarantine_enters;
    t.quarantine_probes += st.quarantine_probes;
    t.quarantine_exits += st.quarantine_exits;
    t.watchdog_events += st.watchdog_events;
    requests.merge(m.requests);
  }
  out += "\"runs\":";
  json_append_number(out, static_cast<u64>(runs.size()));
  out += ",\"begins\":";
  json_append_number(out, t.htm.begins);
  out += ",\"commits\":";
  json_append_number(out, t.htm.commits);
  out += ",\"aborts\":";
  json_append_number(out, t.htm.total_aborts());
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, t.htm.aborts_by_reason);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, t.gil_fallbacks);
  append_robustness(out, t);
  if (t.stm_engaged()) {
    out += ",\"stm\":";
    append_stm(out, t);
  }
  out += ",\"requests_completed\":";
  json_append_number(out, requests.completed);
  out += ",\"gc\":";
  append_gc(out, t.gc);
  // Cross-run (per-shard) request merge: the histograms add, so the
  // percentiles here are the merged-population percentiles a single
  // unsharded histogram of every request would report.
  out += ",\"requests\":";
  append_requests(out, requests);
  out += "}}\n";
  return out;
}

void RequestMetrics::merge(const RequestMetrics& o) {
  if (o.completed > 0) {
    if (completed == 0 || o.latency_min < latency_min)
      latency_min = o.latency_min;
    if (o.latency_max > latency_max) latency_max = o.latency_max;
  }
  completed += o.completed;
  dropped += o.dropped;
  shed += o.shed;
  codel_dropped += o.codel_dropped;
  retries += o.retries;
  latency_sum += o.latency_sum;
  queue_sum += o.queue_sum;
  if (o.queue_max > queue_max) queue_max = o.queue_max;
  latency_hist.merge(o.latency_hist);
  queue_hist.merge(o.queue_hist);
  if (arrival.empty()) arrival = o.arrival;
  // Shards split one offered stream: rates add when both sides carry one.
  offered_rps += o.offered_rps;
}

}  // namespace gilfree::obs
