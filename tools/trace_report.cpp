// trace_report: turns a JSON Lines transaction trace (--trace-out= of any
// bench/example binary) back into the per-yield-point summary tables the
// paper prints — begins, commits, aborts by reason, GIL fallbacks, and the
// abort ratio, per run.
//
//   $ ./build/bench/fig8_abort_ratios --quick --trace-out=t.jsonl
//   $ ./build/tools/trace_report t.jsonl
//   $ ./build/tools/trace_report t.jsonl --csv --run=3 --top=10
//   $ ./build/tools/trace_report t.jsonl --metrics=m.json
//
// --metrics= additionally reads a "gilfree.metrics/1" document
// (--metrics-out= of the same binary) and prints each run's interpreter
// hot-path summary: fused superinstructions, IC hit rates.
//
// The input schema is documented field-by-field in docs/OBSERVABILITY.md.
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "htm/abort_reason.hpp"
#include "obs/json.hpp"
#include "obs/latency_hist.hpp"
#include "obs/trace.hpp"

using namespace gilfree;

namespace {

struct YpRow {
  u64 begins = 0;
  u64 commits = 0;
  u64 fallbacks = 0;
  std::array<u64, htm::kNumAbortReasons> aborts{};

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts) t += a;
    return t;
  }
};

struct RunAccum {
  std::map<std::string, std::string> labels;
  std::map<i64, YpRow> by_yp;
  u64 requests = 0;
  double latency_sum = 0.0;
  double queue_sum = 0.0;
  obs::LatencyHistogram latency_hist;
  obs::LatencyHistogram queue_hist;
  u64 events = 0;

  // Robustness events (docs/ROBUSTNESS.md): quarantine transitions per
  // yield point, injected faults by kind, watchdog reports by kind, and
  // requests shed mid-service past their deadline.
  u64 sheds = 0;
  std::map<i64, u64> quarantine_enters;
  std::map<i64, u64> quarantine_probes;
  std::map<i64, u64> quarantine_exits;
  std::map<std::string, u64> faults_by_kind;
  std::map<std::string, u64> watchdog_by_kind;

  // Tier-2 software-transaction events (docs/TIERS.md): per yield point,
  // plus abort causes and tier-boundary crossings by name.
  std::map<i64, u64> stm_begins;
  std::map<i64, u64> stm_commits;
  std::map<i64, u64> stm_aborts;
  std::map<std::string, u64> stm_abort_causes;
  std::map<std::string, u64> tier_transitions;

  u64 total(const std::map<i64, u64>& m) const {
    u64 t = 0;
    for (const auto& [k, v] : m) {
      (void)k;
      t += v;
    }
    return t;
  }
  u64 total_s(const std::map<std::string, u64>& m) const {
    u64 t = 0;
    for (const auto& [k, v] : m) {
      (void)k;
      t += v;
    }
    return t;
  }
};

void print_run(u32 run_id, const RunAccum& acc, bool csv, long top) {
  std::cout << "== run " << run_id;
  for (const auto& [k, v] : acc.labels) std::cout << " " << k << "=" << v;
  std::cout << " ==\n";

  std::vector<std::string> headers = {"yp", "begins", "commits", "aborts",
                                      "abort_pct", "fallbacks"};
  for (std::size_t r = 1; r < htm::kNumAbortReasons; ++r)
    headers.push_back(
        std::string(htm::abort_reason_name(static_cast<htm::AbortReason>(r))));
  TablePrinter table(headers);

  // Sort yield points by begins, busiest first, like the paper's per-site
  // discussion; --top limits the rows.
  std::vector<std::pair<i64, const YpRow*>> order;
  for (const auto& [yp, row] : acc.by_yp) order.emplace_back(yp, &row);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->begins > b.second->begins;
                   });
  if (top > 0 && order.size() > static_cast<std::size_t>(top))
    order.resize(static_cast<std::size_t>(top));

  YpRow total;
  for (const auto& [yp, row] : acc.by_yp) {
    (void)yp;
    total.begins += row.begins;
    total.commits += row.commits;
    total.fallbacks += row.fallbacks;
    for (std::size_t r = 0; r < total.aborts.size(); ++r)
      total.aborts[r] += row.aborts[r];
  }

  auto add = [&](const std::string& name, const YpRow& row) {
    std::vector<std::string> cells = {
        name, std::to_string(row.begins), std::to_string(row.commits),
        std::to_string(row.total_aborts()),
        TablePrinter::num(row.begins ? 100.0 * row.total_aborts() /
                                           static_cast<double>(row.begins)
                                     : 0.0,
                          2),
        std::to_string(row.fallbacks)};
    for (std::size_t r = 1; r < row.aborts.size(); ++r)
      cells.push_back(std::to_string(row.aborts[r]));
    table.add_row(cells);
  };
  for (const auto& [yp, row] : order)
    add(yp < 0 ? "entry" : std::to_string(yp), *row);
  add("TOTAL", total);

  if (csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }
  if (acc.requests > 0) {
    std::cout << "requests: " << acc.requests << ", mean latency "
              << TablePrinter::num(acc.latency_sum /
                                       static_cast<double>(acc.requests),
                                   0)
              << " cycles, p50 "
              << TablePrinter::num(acc.latency_hist.percentile(50.0), 0)
              << ", p90 "
              << TablePrinter::num(acc.latency_hist.percentile(90.0), 0)
              << ", p99 "
              << TablePrinter::num(acc.latency_hist.percentile(99.0), 0)
              << ", p99.9 "
              << TablePrinter::num(acc.latency_hist.percentile(99.9), 0)
              << "\n";
    if (acc.queue_hist.total() > 0) {
      std::cout << "queue delay: mean "
                << TablePrinter::num(
                       acc.queue_sum / static_cast<double>(acc.requests), 0)
                << " cycles, p50 "
                << TablePrinter::num(acc.queue_hist.percentile(50.0), 0)
                << ", p99 "
                << TablePrinter::num(acc.queue_hist.percentile(99.0), 0)
                << "\n";
    }
  }

  // Fault-campaign summary: only printed when the run saw robustness
  // events, so fault-free traces keep the original report shape.
  const u64 faults = acc.total_s(acc.faults_by_kind);
  const u64 quarantines = acc.total(acc.quarantine_enters) +
                          acc.total(acc.quarantine_probes) +
                          acc.total(acc.quarantine_exits);
  const u64 watchdogs = acc.total_s(acc.watchdog_by_kind);
  if (faults + quarantines + watchdogs + acc.sheds > 0) {
    std::cout << "-- robustness --\n";
    if (acc.sheds > 0)
      std::cout << "requests shed mid-service: " << acc.sheds << "\n";
    if (faults > 0) {
      std::cout << "faults injected: " << faults;
      for (const auto& [k, n] : acc.faults_by_kind)
        std::cout << "  " << k << "=" << n;
      std::cout << "\n";
    }
    if (quarantines > 0) {
      TablePrinter q({"yp", "quarantine_enters", "probes", "exits"});
      std::map<i64, std::array<u64, 3>> rows;
      for (const auto& [yp, n] : acc.quarantine_enters) rows[yp][0] = n;
      for (const auto& [yp, n] : acc.quarantine_probes) rows[yp][1] = n;
      for (const auto& [yp, n] : acc.quarantine_exits) rows[yp][2] = n;
      for (const auto& [yp, r] : rows) {
        q.add_row({yp < 0 ? "entry" : std::to_string(yp),
                   std::to_string(r[0]), std::to_string(r[1]),
                   std::to_string(r[2])});
      }
      if (csv) {
        std::cout << q.to_csv();
      } else {
        std::cout << q.to_string();
      }
    }
    if (watchdogs > 0) {
      std::cout << "watchdog events: " << watchdogs;
      for (const auto& [k, n] : acc.watchdog_by_kind)
        std::cout << "  " << k << "=" << n;
      std::cout << "\n";
    }
  }

  // STM-tier summary (docs/TIERS.md): only printed when the run escalated,
  // so STM-less traces keep the original report shape.
  const u64 stm_events = acc.total(acc.stm_begins) +
                         acc.total(acc.stm_commits) +
                         acc.total(acc.stm_aborts) +
                         acc.total_s(acc.tier_transitions);
  if (stm_events > 0) {
    std::cout << "-- stm tier --\n";
    TablePrinter s({"yp", "stm_begins", "stm_commits", "stm_aborts"});
    std::map<i64, std::array<u64, 3>> rows;
    for (const auto& [yp, n] : acc.stm_begins) rows[yp][0] = n;
    for (const auto& [yp, n] : acc.stm_commits) rows[yp][1] = n;
    for (const auto& [yp, n] : acc.stm_aborts) rows[yp][2] = n;
    for (const auto& [yp, r] : rows) {
      s.add_row({yp < 0 ? "entry" : std::to_string(yp), std::to_string(r[0]),
                 std::to_string(r[1]), std::to_string(r[2])});
    }
    if (csv) {
      std::cout << s.to_csv();
    } else {
      std::cout << s.to_string();
    }
    if (!acc.stm_abort_causes.empty()) {
      std::cout << "stm abort causes:";
      for (const auto& [k, n] : acc.stm_abort_causes)
        std::cout << "  " << k << "=" << n;
      std::cout << "\n";
    }
    if (!acc.tier_transitions.empty()) {
      std::cout << "tier transitions:";
      for (const auto& [k, n] : acc.tier_transitions)
        std::cout << "  " << k << "=" << n;
      std::cout << "\n";
    }
  }
  std::cout << "\n";
}

/// Fleet-level accumulator over every --metrics= document (one per shard
/// process of a cluster run): summed request dispositions across files.
struct FleetAccum {
  u64 files = 0;
  u64 runs = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 shed = 0;
  u64 codel = 0;
  u64 retries = 0;
};

/// Prints the per-run interpreter block of a "gilfree.metrics/1" document.
/// Returns false (after a diagnostic) when the file cannot be parsed.
bool print_interp_metrics(const std::string& path, long only_run,
                          FleetAccum* fleet) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "trace_report: cannot open " << path << "\n";
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(text);
  } catch (const std::exception& e) {
    std::cerr << "trace_report: " << path << ": " << e.what() << "\n";
    return false;
  }
  if (!doc.has("runs")) {
    std::cerr << "trace_report: " << path
              << ": not a gilfree.metrics document (no \"runs\" section)\n";
    return false;
  }
  // Every lookup below is guarded so a document from an older build — with
  // whole sections (interp/gc/requests) absent — degrades to "-" cells or a
  // skipped table, never a crash or a silently empty report.
  try {
    std::cout << "== interpreter (" << path << ") ==\n";
    TablePrinter table({"run", "mode", "machine", "fused_insns", "insns",
                        "ic_method_hit", "ic_ivar_hit"});
    for (const obs::JsonValue& run : doc.at("runs").as_array()) {
      const u32 id = static_cast<u32>(run.at("run").as_u64());
      if (only_run >= 0 && id != static_cast<u32>(only_run)) continue;
      // Absent on documents written before the interp block existed.
      const bool has_interp = run.has("interp");
      const obs::JsonValue* interp = has_interp ? &run.at("interp") : nullptr;
      table.add_row(
          {std::to_string(id),
           run.has("mode") ? run.at("mode").as_string() : "-",
           run.has("machine") ? run.at("machine").as_string() : "-",
           has_interp
               ? std::to_string(interp->at("fused_instructions").as_u64())
               : "-",
           run.has("insns_retired")
               ? std::to_string(run.at("insns_retired").as_u64())
               : "-",
           has_interp
               ? TablePrinter::num(
                     100.0 * interp->at("ic_method_hit_rate").as_number(), 2)
               : "-",
           has_interp
               ? TablePrinter::num(
                     100.0 * interp->at("ic_ivar_hit_rate").as_number(), 2)
               : "-"});
    }
    std::cout << table.to_string() << "\n";

    std::cout << "== gc (" << path << ") ==\n";
    TablePrinter gc_table({"run", "collections", "minor", "swept",
                           "arena_refills", "seg_min", "seg_max",
                           "sweep_quanta", "steals", "pause_max",
                           "pause_p99"});
    for (const obs::JsonValue& run : doc.at("runs").as_array()) {
      const u32 id = static_cast<u32>(run.at("run").as_u64());
      if (only_run >= 0 && id != static_cast<u32>(only_run)) continue;
      // Absent on documents written before the gc block existed.
      if (!run.has("gc")) {
        gc_table.add_row({std::to_string(id), "-", "-", "-", "-", "-", "-",
                          "-", "-", "-", "-"});
        continue;
      }
      const obs::JsonValue& gc = run.at("gc");
      // minor_collections / arena_steals are emitted only by generational
      // configs; "-" keeps older documents readable.
      gc_table.add_row({std::to_string(id),
                        std::to_string(gc.at("collections").as_u64()),
                        gc.has("minor_collections")
                            ? std::to_string(
                                  gc.at("minor_collections").as_u64())
                            : "-",
                        std::to_string(gc.at("total_swept").as_u64()),
                        std::to_string(gc.at("arena_refills").as_u64()),
                        std::to_string(gc.at("segment_slots_min").as_u64()),
                        std::to_string(gc.at("segment_slots_max").as_u64()),
                        std::to_string(gc.at("sweep_quanta").as_u64()),
                        gc.has("arena_steals")
                            ? std::to_string(gc.at("arena_steals").as_u64())
                            : "-",
                        std::to_string(gc.at("pause_max").as_u64()),
                        std::to_string(gc.at("pause_p99").as_u64())});
    }
    std::cout << gc_table.to_string() << "\n";

    // Per-run overload accounting (requests section); printed only when a
    // run actually shed/dropped/retried, so older documents and fault-free
    // runs add no output.
    bool any_overload = false;
    for (const obs::JsonValue& run : doc.at("runs").as_array()) {
      if (!run.has("requests")) continue;
      const obs::JsonValue& rq = run.at("requests");
      if (rq.has("shed") || rq.has("codel_dropped") || rq.has("retries"))
        any_overload = true;
    }
    if (any_overload) {
      std::cout << "== overload (" << path << ") ==\n";
      TablePrinter ov({"run", "completed", "dropped", "shed", "codel",
                       "retries"});
      for (const obs::JsonValue& run : doc.at("runs").as_array()) {
        const u32 id = static_cast<u32>(run.at("run").as_u64());
        if (only_run >= 0 && id != static_cast<u32>(only_run)) continue;
        if (!run.has("requests")) {
          ov.add_row({std::to_string(id), "-", "-", "-", "-", "-"});
          continue;
        }
        const obs::JsonValue& rq = run.at("requests");
        const auto cell = [&rq](const char* key) {
          return rq.has(key) ? std::to_string(rq.at(key).as_u64())
                             : std::string("0");
        };
        ov.add_row({std::to_string(id), cell("completed"), cell("dropped"),
                    cell("shed"), cell("codel_dropped"), cell("retries")});
      }
      std::cout << ov.to_string() << "\n";
    }

    if (fleet != nullptr) {
      ++fleet->files;
      for (const obs::JsonValue& run : doc.at("runs").as_array()) {
        const u32 id = static_cast<u32>(run.at("run").as_u64());
        if (only_run >= 0 && id != static_cast<u32>(only_run)) continue;
        ++fleet->runs;
        if (!run.has("requests")) continue;
        const obs::JsonValue& rq = run.at("requests");
        const auto n = [&rq](const char* key) {
          return rq.has(key) ? rq.at(key).as_u64() : 0;
        };
        fleet->completed += n("completed");
        fleet->dropped += n("dropped");
        fleet->shed += n("shed");
        fleet->codel += n("codel_dropped");
        fleet->retries += n("retries");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_report: " << path
              << ": malformed metrics document: " << e.what() << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const long only_run = flags.get_int("run", -1);
  const long top = flags.get_int("top", 0);
  const std::string metrics_path = flags.get("metrics", "");
  flags.reject_unknown();

  if (flags.positional().size() != 1) {
    std::cerr << "usage: trace_report <trace.jsonl> [--csv] [--run=N] "
                 "[--top=N] [--metrics=a.json[,b.json,...]]\n";
    return 2;
  }
  // --metrics= takes a comma-separated list — a cluster run writes one
  // metrics document per shard process; the fleet summary merges them.
  if (!metrics_path.empty()) {
    std::vector<std::string> metric_files;
    std::size_t start = 0;
    while (start <= metrics_path.size()) {
      const std::size_t comma = metrics_path.find(',', start);
      const std::string one =
          metrics_path.substr(start, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - start);
      if (!one.empty()) metric_files.push_back(one);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    FleetAccum fleet;
    for (const std::string& one : metric_files) {
      if (!print_interp_metrics(one, only_run, &fleet)) return 1;
    }
    if (metric_files.size() > 1) {
      std::cout << "== fleet (" << fleet.files << " metrics files, "
                << fleet.runs << " runs) ==\n"
                << "completed " << fleet.completed << ", dropped "
                << fleet.dropped << ", shed " << fleet.shed << ", codel "
                << fleet.codel << ", retries " << fleet.retries << "\n\n";
    }
  }
  const std::string path = *flags.positional().begin();
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "trace_report: cannot open " << path << "\n";
    return 2;
  }

  std::map<u32, RunAccum> runs;
  std::map<std::string, u64> breaker_by_state;
  u64 steal_ops = 0;
  u64 steal_moved = 0;
  u64 scale_ups = 0;
  u64 scale_downs = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    obs::JsonValue v;
    try {
      v = obs::JsonValue::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "trace_report: " << path << ":" << lineno << ": "
                << e.what() << "\n";
      return 1;
    }
    const std::string ev = v.at("ev").as_string();
    // Harness-level breaker lines carry no run id (they happen between
    // engine runs); collect them before touching per-run fields.
    if (ev == "breaker") {
      ++breaker_by_state[v.at("state").as_string()];
      continue;
    }
    // Cluster supervisor lines (work stealing / autoscaling) also carry no
    // run id; they happen between worker epochs.
    if (ev == "steal") {
      ++steal_ops;
      steal_moved += v.at("moved").as_u64();
      continue;
    }
    if (ev == "scale") {
      if (v.at("dir").as_string() == "up") {
        ++scale_ups;
      } else {
        ++scale_downs;
      }
      continue;
    }
    const u32 run = static_cast<u32>(v.at("run").as_u64());
    if (only_run >= 0 && run != static_cast<u32>(only_run)) continue;
    RunAccum& acc = runs[run];
    if (ev == "run") {
      for (const auto& [k, lv] : v.at("labels").as_object())
        acc.labels[k] = lv.as_string();
      continue;
    }
    obs::TraceEvent e;
    try {
      e = obs::trace_event_from_json(v);
    } catch (const std::exception& ex) {
      std::cerr << "trace_report: " << path << ":" << lineno << ": "
                << ex.what() << "\n";
      return 1;
    }
    ++acc.events;
    switch (e.kind) {
      case obs::EventKind::kTxBegin:
        ++acc.by_yp[e.yp].begins;
        break;
      case obs::EventKind::kTxCommit:
        ++acc.by_yp[e.yp].commits;
        break;
      case obs::EventKind::kTxAbort:
        ++acc.by_yp[e.yp].aborts[static_cast<std::size_t>(e.reason)];
        break;
      case obs::EventKind::kGilFallback:
        ++acc.by_yp[e.yp].fallbacks;
        break;
      case obs::EventKind::kRequest:
        ++acc.requests;
        acc.latency_sum += static_cast<double>(e.latency);
        acc.latency_hist.add(e.latency);
        acc.queue_sum += static_cast<double>(e.queue);
        acc.queue_hist.add(e.queue);
        break;
      case obs::EventKind::kQuarantineEnter:
        ++acc.quarantine_enters[e.yp];
        break;
      case obs::EventKind::kQuarantineProbe:
        ++acc.quarantine_probes[e.yp];
        break;
      case obs::EventKind::kQuarantineExit:
        ++acc.quarantine_exits[e.yp];
        break;
      case obs::EventKind::kFault:
        ++acc.faults_by_kind[std::string(
            fault::fault_kind_name(static_cast<fault::FaultKind>(e.detail)))];
        break;
      case obs::EventKind::kWatchdog:
        ++acc.watchdog_by_kind[std::string(obs::watchdog_kind_name(
            static_cast<obs::WatchdogKind>(e.detail)))];
        break;
      case obs::EventKind::kStmBegin:
        ++acc.stm_begins[e.yp];
        break;
      case obs::EventKind::kStmCommit:
        ++acc.stm_commits[e.yp];
        break;
      case obs::EventKind::kStmAbort:
        ++acc.stm_aborts[e.yp];
        ++acc.stm_abort_causes[stm::stm_abort_cause_name(
            static_cast<stm::StmAbortCause>(e.detail))];
        break;
      case obs::EventKind::kTier:
        ++acc.tier_transitions[std::string(obs::tier_transition_name(
            static_cast<obs::TierTransition>(e.detail)))];
        break;
      case obs::EventKind::kShed:
        ++acc.sheds;
        break;
      case obs::EventKind::kSched:
        break;  // record-only; a trace never carries it
    }
  }

  if (runs.empty() && breaker_by_state.empty() && steal_ops == 0 &&
      scale_ups + scale_downs == 0) {
    std::cout << "(no events" << (only_run >= 0 ? " for that run" : "")
              << " in " << path << ")\n";
    return 0;
  }
  for (const auto& [run_id, acc] : runs) print_run(run_id, acc, csv, top);
  if (!breaker_by_state.empty()) {
    std::cout << "== circuit breakers ==\n";
    for (const auto& [state, n] : breaker_by_state)
      std::cout << state << ": " << n << "\n";
  }
  if (steal_ops + scale_ups + scale_downs > 0) {
    std::cout << "== cluster ==\n";
    if (steal_ops > 0)
      std::cout << "steals: " << steal_ops << " (" << steal_moved
                << " requests moved)\n";
    if (scale_ups + scale_downs > 0)
      std::cout << "scale events: up " << scale_ups << ", down "
                << scale_downs << "\n";
  }
  return 0;
}
