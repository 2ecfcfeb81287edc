// Multi-process shard serving harness: a parent supervisor forks one
// shared-nothing simulator process per shard (src/httpsim/cluster), drives
// the fleet over the pipe protocol, and merges the per-shard results into
// the fleet-level report. Cross-shard work stealing (--steal=on) and
// queue-driven autoscaling (--autoscale=on) act at epoch boundaries; both
// are deterministic and trace-visible (`steal` / `scale` events).
//
// Single-run mode prints the per-slot + merged table (same columns as
// httpsim_openloop). --record-out= writes the gilfree.record/httpsim.1
// decision stream; --verify-record= replays such a file and checks the
// stream byte for byte. --artifact-stem=S makes every shard process write
// S.shard<k>.trace.jsonl / S.shard<k>.metrics.json.
//
// --campaign runs the committed serving campaign (≥ 240k requests across
// ≥ 4 shard processes): uniform baseline, Zipf-skewed runs with stealing
// off/on, a same-seed determinism pair, a trace-replayed burst-then-quiet
// autoscaling demo (--arrival=trace --arrival-file=), and a
// minor-GC tail-latency phase (--gc-nursery --gc-mark-quantum). Exit-code
// gates hold stealing to "no worse goodput, shallower worst queue" and the
// skewed p99.9 to <= 5x the fault-free uniform baseline; --json=FILE
// writes the machine-readable result (schema gilfree.serve/1).
//
//   $ ./build/bench/cluster_serve --arrival=poisson --rps=600000
//         --requests=8000 --shards=4 --cluster-epochs=8 --keys=16
//         --zipf=1.2 --steal=on
//   $ ./build/bench/cluster_serve --campaign --json=BENCH_serve.json
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "httpsim/cluster/record.hpp"
#include "httpsim/cluster/worker.hpp"

using namespace gilfree;
using namespace gilfree::bench;
using gilfree::httpsim::cluster::ClusterRunResult;
using gilfree::httpsim::cluster::ClusterSpec;

namespace {

struct GateResult {
  std::string name;
  double measured = 0.0;
  double threshold = 0.0;
  bool at_most = false;
  bool pass = false;
};

bool gate_line(std::vector<GateResult>* gates, const std::string& name,
               double measured, double threshold, bool at_most, int prec) {
  const bool pass = at_most ? measured <= threshold : measured >= threshold;
  std::cout << (pass ? "PASS" : "FAIL") << " gate " << name
            << ": measured=" << TablePrinter::num(measured, prec)
            << " threshold" << (at_most ? "<=" : ">=")
            << TablePrinter::num(threshold, prec) << "\n";
  if (gates != nullptr)
    gates->push_back({name, measured, threshold, at_most, pass});
  return pass;
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void add_result_row(TablePrinter& table, const std::string& name,
                    const httpsim::ServerRunResult& r) {
  table.add_row({name, std::to_string(r.completed + r.dropped + r.shed),
                 std::to_string(r.completed), std::to_string(r.dropped),
                 std::to_string(r.shed), std::to_string(r.retries),
                 TablePrinter::num(r.throughput_rps, 1),
                 TablePrinter::num(r.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(r.queue_hist.percentile(99.0), 0)});
}

u32 scales_up(const ClusterRunResult& r) {
  u32 n = 0;
  for (const auto& s : r.scales) n += s.up ? 1 : 0;
  return n;
}

u32 scales_down(const ClusterRunResult& r) {
  u32 n = 0;
  for (const auto& s : r.scales) n += s.up ? 0 : 1;
  return n;
}

/// Whole-file bytes, "" when unreadable (the caller treats mismatching
/// reads as a determinism failure, not an error).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- campaign --------------------------------------------------------------

struct PhaseRow {
  std::string name;
  u64 scheduled = 0;
  ClusterRunResult r;
};

void append_phase_json(std::ostringstream& os, const PhaseRow& ph) {
  const ClusterRunResult& r = ph.r;
  os << "    {\"name\": \"" << ph.name << "\", \"scheduled\": " << ph.scheduled
     << ", \"max_active\": " << r.max_active
     << ", \"completed\": " << r.completed << ", \"dropped\": " << r.dropped
     << ", \"shed\": " << r.shed << ", \"retries\": " << r.retries
     << ", \"stolen\": " << r.stolen << ", \"steals\": " << r.steals.size()
     << ", \"scales_up\": " << scales_up(r)
     << ", \"scales_down\": " << scales_down(r)
     << ",\n     \"peak_depth_presteal\": " << r.peak_depth_presteal
     << ", \"peak_depth\": " << r.peak_depth
     << ", \"throughput_rps\": " << jnum(r.throughput_rps)
     << ", \"latency_p50\": " << jnum(r.latency_hist.percentile(50.0))
     << ", \"latency_p99\": " << jnum(r.latency_hist.percentile(99.0))
     << ", \"latency_p999\": " << jnum(r.latency_hist.percentile(99.9))
     << ", \"queue_p99\": " << jnum(r.queue_hist.percentile(99.0)) << "}";
}

int run_campaign(const std::string& machine, const std::string& config,
                 const std::string& program, u64 engine_seed,
                 std::vector<std::string> engine_flags, bool quick,
                 const std::string& json_path,
                 const std::string& artifact_stem) {
  const u32 div = quick ? 16 : 1;

  ClusterSpec base;
  base.machine = machine;
  base.config = config;
  base.program = program;
  base.engine_seed = engine_seed;
  base.engine_flags = engine_flags;
  base.driver.arrival = httpsim::Arrival::kPoisson;
  base.driver.rps = 600'000.0;
  base.driver.total_requests = 60'000 / div;
  base.options.shards = 4;
  // Epoch count scales with run length so the steal granularity — the epoch
  // *window*, ~234 requests — stays fixed across --quick and full mode. A
  // hot shard's arrivals wait at most one window before the boundary steal
  // pass can move them, so the window length (not the run length) bounds the
  // skewed tail; with a fixed 16 epochs the full run's windows would be 16x
  // longer and p99.9 would grow with run length instead of staying stable.
  base.options.epochs = quick ? 16 : 256;

  std::vector<PhaseRow> phases;
  const auto run_phase = [&](const std::string& name, const ClusterSpec& s) {
    std::cout << "phase " << name << ": requests="
              << s.driver.total_requests << " shards=" << s.options.shards
              << (s.options.steal ? " steal=on" : "")
              << (s.options.autoscale ? " autoscale=on" : "") << "\n"
              << std::flush;
    phases.push_back({name, s.driver.total_requests,
                      httpsim::cluster::run_cluster(s)});
    return phases.back().r;
  };

  // Phase 1: uniform (keyless) baseline — the fault-free tail-latency floor.
  const ClusterRunResult uniform = run_phase("uniform-baseline", base);

  // Phases 2/3: one hot Zipf key space, stealing off vs on. The hot keys
  // hash-concentrate on one shard past its single-process service rate
  // (but well inside the fleet's), so the no-steal run tail-drops while
  // the steal run rebalances at every epoch boundary.
  ClusterSpec skew = base;
  skew.driver.key_space = 16;
  skew.driver.zipf = 1.2;
  const ClusterRunResult nosteal = run_phase("skew-nosteal", skew);

  ClusterSpec steal = skew;
  steal.options.steal = true;
  if (!artifact_stem.empty()) steal.artifact_stem = artifact_stem + ".runA";
  const ClusterRunResult stealA = run_phase("skew-steal", steal);

  // Determinism pair: the same seeded spec again, compared byte for byte.
  ClusterSpec stealB = steal;
  if (!artifact_stem.empty()) stealB.artifact_stem = artifact_stem + ".runB";
  std::cout << "phase skew-steal (same-seed rerun)\n" << std::flush;
  const ClusterRunResult runB = httpsim::cluster::run_cluster(stealB);
  bool identical = stealA.request_log == runB.request_log &&
                   stealA.record_lines == runB.record_lines;
  for (u32 s = 0; identical && s < stealA.shards.size(); ++s)
    identical = stealA.shards[s].request_log == runB.shards[s].request_log;
  if (!artifact_stem.empty()) {
    for (u32 s = 0; identical && s < steal.options.slots(); ++s) {
      const std::string shard = ".shard" + std::to_string(s);
      identical =
          slurp(steal.artifact_stem + shard + ".trace.jsonl") ==
              slurp(stealB.artifact_stem + shard + ".trace.jsonl") &&
          slurp(steal.artifact_stem + shard + ".metrics.json") ==
              slurp(stealB.artifact_stem + shard + ".metrics.json");
    }
  }

  // Phase 4: queue-driven autoscaling against a trace-replayed arrival
  // profile — a burst head well past the initial two shards' service rate,
  // then a quiet tail. The supervisor must grow into the burst and
  // drain-and-retire through the tail. Building the trace here also
  // exercises the dump/replay round trip (--arrival=trace).
  const double ghz =
      htm::SystemProfile::by_name(machine).machine.ghz;
  const std::string arrivals_path =
      (!artifact_stem.empty()  ? artifact_stem
       : !json_path.empty()    ? json_path
                               : std::string("cluster_campaign")) +
      ".arrivals";
  {
    httpsim::DriverConfig head = base.driver;
    head.total_requests = 20'000 / div;
    head.rps = 1'200'000.0;
    httpsim::DriverConfig quiet = head;
    quiet.total_requests = 10'000 / div;
    quiet.rps = 80'000.0;
    quiet.seed = head.seed + 1;
    auto sched = httpsim::make_schedule(head, ghz);
    const Cycles offset = sched.back().at + 1'000'000;
    for (httpsim::ScheduledRequest r : httpsim::make_schedule(quiet, ghz)) {
      r.id += static_cast<i64>(head.total_requests);
      r.at += offset;
      sched.push_back(r);
    }
    std::ofstream out(arrivals_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write " << arrivals_path << "\n";
      return 2;
    }
    out << httpsim::dump_schedule(sched);
  }
  ClusterSpec scale = base;
  scale.driver.arrival = httpsim::Arrival::kTrace;
  scale.driver.arrival_file = arrivals_path;
  scale.driver.total_requests = 30'000 / div;
  scale.options.shards = 2;
  scale.options.max_shards = 6;
  scale.options.epochs = 24;
  scale.options.autoscale = true;
  scale.options.scale_up_depth = div > 1 ? 8 : 64;
  scale.options.scale_down_depth = div > 1 ? 2 : 8;
  scale.options.scale_sustain = 1;
  scale.options.scale_idle = 2;
  const ClusterRunResult autoscaled = run_phase("autoscale-burst", scale);

  // Phases 5/6 (minor-GC tail impact): the skewed steal load with the
  // default heap vs the generational nursery + incremental marking.
  ClusterSpec gc_default = steal;
  gc_default.artifact_stem.clear();
  gc_default.driver.total_requests = 30'000 / div;
  gc_default.options.epochs = quick ? 16 : 128;  // Same ~234-request window.
  const ClusterRunResult gcdef = run_phase("gc-default", gc_default);

  ClusterSpec gc_tuned = gc_default;
  gc_tuned.engine_flags.push_back("--gc-arena");
  gc_tuned.engine_flags.push_back("--gc-nursery");
  gc_tuned.engine_flags.push_back("--gc-mark-quantum=64");
  const ClusterRunResult gctuned = run_phase("gc-tuned", gc_tuned);

  u64 scheduled_total = 0;
  for (const PhaseRow& ph : phases) scheduled_total += ph.scheduled;

  std::cout << "== Cluster serving campaign: " << program << " / " << machine
            << " / " << config << " (latencies in cycles) ==\n";
  TablePrinter table({"phase", "scheduled", "procs", "completed", "dropped",
                      "shed", "stolen", "peak_q_pre", "peak_q", "rps", "p50",
                      "p99", "p99.9"});
  for (const PhaseRow& ph : phases) {
    const ClusterRunResult& r = ph.r;
    table.add_row({ph.name, std::to_string(ph.scheduled),
                   std::to_string(r.max_active), std::to_string(r.completed),
                   std::to_string(r.dropped), std::to_string(r.shed),
                   std::to_string(r.stolen),
                   std::to_string(r.peak_depth_presteal),
                   std::to_string(r.peak_depth),
                   TablePrinter::num(r.throughput_rps, 1),
                   TablePrinter::num(r.latency_hist.percentile(50.0), 0),
                   TablePrinter::num(r.latency_hist.percentile(99.0), 0),
                   TablePrinter::num(r.latency_hist.percentile(99.9), 0)});
  }
  emit(table, /*csv=*/false);

  std::vector<GateResult> gates;
  bool ok = true;
  ok &= gate_line(&gates, "campaign-requests-total",
                  static_cast<double>(scheduled_total),
                  quick ? 240'000.0 / div : 240'000.0, /*at_most=*/false, 0);
  ok &= gate_line(&gates, "shard-processes",
                  static_cast<double>(uniform.max_active), 4.0,
                  /*at_most=*/false, 0);
  ok &= gate_line(&gates, "skew-steal-steals",
                  static_cast<double>(stealA.steals.size()), 1.0,
                  /*at_most=*/false, 0);
  const double goodput_ratio =
      nosteal.completed > 0 ? static_cast<double>(stealA.completed) /
                                  static_cast<double>(nosteal.completed)
                            : 0.0;
  ok &= gate_line(&gates, "skew-steal-goodput-vs-nosteal", goodput_ratio, 1.0,
                  /*at_most=*/false, 3);
  const double depth_ratio =
      nosteal.peak_depth > 0 ? static_cast<double>(stealA.peak_depth) /
                                   static_cast<double>(nosteal.peak_depth)
                             : 1.0;
  ok &= gate_line(&gates, "skew-steal-worst-depth-vs-nosteal", depth_ratio,
                  1.0, /*at_most=*/true, 3);
  const double base_p999 = uniform.latency_hist.percentile(99.9);
  ok &= gate_line(&gates, "skew-steal-p999-vs-uniform-baseline",
                  base_p999 > 0
                      ? stealA.latency_hist.percentile(99.9) / base_p999
                      : 0.0,
                  5.0, /*at_most=*/true, 2);
  ok &= gate_line(&gates, "same-seed-runs-identical", identical ? 1.0 : 0.0,
                  1.0, /*at_most=*/false, 0);
  ok &= gate_line(&gates, "autoscale-spawns",
                  static_cast<double>(scales_up(autoscaled)), 1.0,
                  /*at_most=*/false, 0);
  ok &= gate_line(&gates, "autoscale-retires",
                  static_cast<double>(scales_down(autoscaled)), 1.0,
                  /*at_most=*/false, 0);
  const double gc_p999_ratio =
      base_p999 > 0 ? gctuned.latency_hist.percentile(99.9) / base_p999 : 0.0;
  ok &= gate_line(&gates, "gc-tuned-p999-vs-uniform-baseline", gc_p999_ratio,
                  5.0, /*at_most=*/true, 2);

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"gilfree.serve/1\",\n  \"machine\": \""
       << machine << "\", \"config\": \"" << config << "\", \"program\": \""
       << program << "\",\n  \"quick\": " << (quick ? "true" : "false")
       << ", \"engine_seed\": " << engine_seed
       << ", \"load_seed\": " << base.driver.seed
       << ", \"requests_total\": " << scheduled_total << ",\n"
       << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      append_phase_json(os, phases[i]);
      os << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"determinism\": {\"identical\": "
       << (identical ? "true" : "false") << ", \"log_fnv\": \""
       << httpsim::cluster::fnv1a64(stealA.request_log) << "\"},\n"
       << "  \"gc\": {\"default_p999\": "
       << jnum(gcdef.latency_hist.percentile(99.9)) << ", \"tuned_p999\": "
       << jnum(gctuned.latency_hist.percentile(99.9))
       << ", \"tuned_vs_default\": "
       << jnum(gcdef.latency_hist.percentile(99.9) > 0
                   ? gctuned.latency_hist.percentile(99.9) /
                         gcdef.latency_hist.percentile(99.9)
                   : 0.0)
       << "},\n  \"gates\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const GateResult& g = gates[i];
      os << "    {\"name\": \"" << g.name
         << "\", \"measured\": " << jnum(g.measured)
         << ", \"threshold\": " << jnum(g.threshold) << ", \"op\": \""
         << (g.at_most ? "<=" : ">=") << "\", \"pass\": "
         << (g.pass ? "true" : "false") << "}"
         << (i + 1 < gates.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    out << os.str();
  }

  std::cout << (ok ? "serving campaign OK\n" : "serving campaign FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The supervisor re-execs /proc/self/exe with this marker; dispatch to the
  // worker body before any flag machinery.
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return httpsim::cluster::worker_main();

  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const bool campaign = flags.get_bool("campaign", false);
  const std::string json_path = flags.get("json", "");
  const std::string machine = flags.get("machine", "zec12");
  const std::string config_name = flags.get("config", "HTM-dynamic");
  const std::string program_name = flags.get("program", "webrick");
  const u64 seed = static_cast<u64>(flags.get_int("seed", 0x6112024));
  const std::string artifact_stem = flags.get("artifact-stem", "");
  const std::string record_out = flags.get("record-out", "");
  const std::string verify_record = flags.get("verify-record", "");
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;          // registers --gc-* for strict CLI; the
  parse_gc_flags(flags, gc_probe);  // values travel to workers as flag strings
  ClusterSpec spec;
  try {
    spec.driver = httpsim::DriverConfig::from_flags(flags);
    spec.options = httpsim::cluster::ClusterOptions::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  flags.reject_unknown();

  if (!verify_record.empty()) {
    try {
      const std::string mismatch =
          httpsim::cluster::verify_cluster_record(verify_record);
      if (!mismatch.empty()) {
        std::cerr << "verify FAILED: " << mismatch << "\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    std::cout << "verify OK: " << verify_record << "\n";
    return 0;
  }

  spec.machine = machine;
  spec.config = config_name;
  spec.program = program_name;
  spec.engine_seed = seed;
  spec.artifact_stem = artifact_stem;
  // The same canonical flag-string currency the record headers use carries
  // the engine families (--fault-*, --stm*, --gc-*) to every worker's Init
  // frame.
  spec.engine_flags = workloads::replay_flags(fault_cfg, stm_cfg, &flags);

  if (campaign)
    return run_campaign(machine, config_name, program_name, seed,
                        spec.engine_flags, quick, json_path, artifact_stem);
  if (spec.driver.arrival == httpsim::Arrival::kClosed) {
    std::cerr << "error: cluster serving is open-loop; pass "
                 "--arrival=poisson, mmpp, or trace\n";
    return 2;
  }

  ClusterRunResult result;
  try {
    result = httpsim::cluster::run_cluster(
        spec, sink.enabled() ? &sink : nullptr);
    if (!record_out.empty())
      httpsim::cluster::write_cluster_record(record_out, spec, result);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "== cluster serve: " << program_name << " / " << machine
            << " / " << config_name
            << " arrival=" << httpsim::arrival_name(spec.driver.arrival)
            << " rps=" << spec.driver.rps << " shards=" << spec.options.shards
            << "/" << spec.options.slots()
            << " router=" << httpsim::router_name(spec.options.router)
            << " epochs=" << spec.options.epochs
            << " steal=" << (spec.options.steal ? "on" : "off")
            << " autoscale=" << (spec.options.autoscale ? "on" : "off")
            << " (latencies in cycles) ==\n";
  TablePrinter table({"shard", "scheduled", "completed", "dropped", "shed",
                      "retries", "rps", "p50", "p99", "p99.9", "queue_p99"});
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    if (!result.slot_used[s]) continue;
    add_result_row(table, std::to_string(s), result.shards[s]);
  }
  table.add_row({"all",
                 std::to_string(result.completed + result.dropped +
                                result.shed),
                 std::to_string(result.completed),
                 std::to_string(result.dropped), std::to_string(result.shed),
                 std::to_string(result.retries),
                 TablePrinter::num(result.throughput_rps, 1),
                 TablePrinter::num(result.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(result.queue_hist.percentile(99.0), 0)});
  emit(table, csv);
  std::cout << "cluster: procs_peak=" << result.max_active
            << " stolen=" << result.stolen << " steals="
            << result.steals.size() << " scale_ups=" << scales_up(result)
            << " scale_downs=" << scales_down(result)
            << " peak_depth_presteal=" << result.peak_depth_presteal
            << " peak_depth=" << result.peak_depth << "\n";
  return 0;
}
