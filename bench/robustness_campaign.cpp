// Robustness campaign: throughput degradation of the TLE engine vs the
// pure-GIL engine under escalating injected-fault rates, plus quarantine
// engagement / recovery behavior (docs/ROBUSTNESS.md).
//
// Phases:
//   1. GIL baseline (the degradation floor: HTM should never fall far
//      below it, because every fallback path ends at the GIL).
//   2. HTM-dynamic fault-free (the recovery target).
//   3. Spurious-abort storms with escalating rates (Poisson arrivals).
//   4. Persistent aborts at every yield point for the whole run: the
//      quarantine breaker must route execution to the GIL, keeping
//      throughput within ~10% of the pure-GIL run.
//   5. The same persistent campaign limited to the first third of the
//      fault-free run's cycles: quarantine must exit after the window and
//      throughput must recover towards the fault-free HTM run.
//
// Any --fault-* flags add a sixth, user-defined campaign phase.
//
// --chaos switches to the cross-workload chaos matrix instead: the
// {While, NPB BT, NPB LU} kernels under {fault-free, interrupt-storm,
// capacity-loss, handoff-delay, stm-persistent, spurious-lazy} campaigns
// (the last two exercise the STM tier and lazy GIL subscription under
// faults), plus an httpsim open-loop pair served by a multi-process cluster
// fleet (src/httpsim/cluster) — fault-free vs the worst fault phase with
// deadlines, CoDel shedding, and per-shard circuit breakers enabled. With
// --trace-out/--metrics-out the breaker transitions land in the trace and
// each shard process writes <out>.<phase>.shard<k>.trace.jsonl /
// .metrics.json next to it. Exit-code gates: every faulted cell reproduces
// its workload's fault-free verify checksum, and the worst httpsim fault
// phase retains >= 70% of fault-free goodput with p99.9 <= 5x fault-free.
// --json=FILE writes the machine-readable result (schema gilfree.chaos/1).
//
//   $ ./build/bench/robustness_campaign --quick
//   $ ./build/bench/robustness_campaign --csv --trace-out=t.jsonl
//         --metrics-out=m.json
//   $ ./build/bench/robustness_campaign --chaos --json=BENCH_chaos.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/cluster/worker.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

struct PhaseResult {
  std::string name;
  workloads::RunPoint p;
  fault::FaultConfig campaign;
};

/// One gate check, printed as `PASS|FAIL gate <name>: measured=X
/// threshold<=|>=Y` so sweep scripts see both the measured value and the
/// envelope it is held to.
struct GateResult {
  std::string name;
  double measured = 0.0;
  double threshold = 0.0;
  bool at_most = false;  ///< true: pass iff measured <= threshold.
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

// --- chaos matrix ----------------------------------------------------------

/// One fault campaign of the chaos matrix. The stm-persistent and
/// spurious-lazy phases enable the tier-2 STM (eager / lazy GIL
/// subscription) so the chaos sweep also exercises the tier crossover
/// under faults (docs/TIERS.md).
struct ChaosFault {
  std::string name;
  fault::FaultConfig fc;
  stm::StmConfig stm;
};

std::vector<ChaosFault> chaos_faults(u64 fault_seed) {
  std::vector<ChaosFault> v(6);
  for (auto& f : v) f.fc.seed = fault_seed;
  v[0].name = "fault-free";
  v[1].name = "interrupt-storm";
  v[1].fc.interrupt_storm_mean_cycles = 30'000;
  v[2].name = "capacity-loss";
  v[2].fc.capacity_factor = 0.25;
  v[3].name = "handoff-delay";
  v[3].fc.gil_handoff_delay_cycles = 100'000;
  v[4].name = "stm-persistent";
  v[4].fc.persistent_all_yps = true;
  v[4].stm.enabled = true;
  v[5].name = "spurious-lazy";
  v[5].fc.spurious_mean_cycles = 50'000;
  v[5].stm.enabled = true;
  v[5].stm.subscription = stm::GilSubscription::kLazy;
  return v;
}

struct ChaosCell {
  std::string workload;
  std::string phase;
  workloads::RunPoint p;
  double ratio = 1.0;  ///< elapsed / same-workload fault-free elapsed.
  bool verify_ok = true;
};

/// Deterministic JSON number rendering (same bytes for the same run).
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_httpsim_json(std::ostringstream& os, const char* key,
                         const httpsim::cluster::ClusterRunResult& r) {
  os << "    \"" << key << "\": {\"completed\": " << r.completed
     << ", \"dropped\": " << r.dropped << ", \"shed\": " << r.shed
     << ", \"retries\": " << r.retries << ", \"spilled\": " << r.spilled
     << ", \"breaker_transitions\": " << r.breaker_transitions.size()
     << ",\n        \"latency_p50\": " << jnum(r.latency_hist.percentile(50.0))
     << ", \"latency_p99\": " << jnum(r.latency_hist.percentile(99.0))
     << ", \"latency_p999\": " << jnum(r.latency_hist.percentile(99.9))
     << ", \"throughput_rps\": " << jnum(r.throughput_rps) << "}";
}

int run_chaos(const htm::SystemProfile& profile, bool csv, bool quick,
              unsigned scale, unsigned threads, u64 fault_seed,
              const std::string& json_path, obs::Sink& sink,
              const CliFlags& flags, RecordWiring& record) {
  const auto faults = chaos_faults(fault_seed);
  const std::vector<const workloads::Workload*> kernels = {
      &workloads::micro_while(), &workloads::npb("BT"),
      &workloads::npb("LU")};

  // --- engine-workload matrix on HTM-dynamic -------------------------------
  std::vector<ChaosCell> cells;
  u64 verify_mismatches = 0;
  for (const workloads::Workload* w : kernels) {
    double base_us = 0.0;
    double base_verify = 0.0;
    for (const ChaosFault& f : faults) {
      auto cfg = make_config(profile, {"HTM-dynamic", -1}, f.fc, f.stm, &flags);
      record.wire(cfg, w->name, "HTM-dynamic", threads, scale);
      observe(cfg, sink,
              {{"figure", "chaos_campaign"},
               {"machine", profile.machine.name},
               {"workload", w->name},
               {"threads", std::to_string(threads)},
               {"config", "HTM-dynamic"},
               {"phase", f.name}});
      ChaosCell cell;
      cell.workload = w->name;
      cell.phase = f.name;
      cell.p = workloads::run_workload(std::move(cfg), *w, threads, scale);
      if (f.name == "fault-free") {
        base_us = cell.p.elapsed_us;
        base_verify = cell.p.verify;
      }
      cell.ratio = base_us > 0 ? cell.p.elapsed_us / base_us : 1.0;
      // The serializability oracle: every faulted run must still compute
      // the workload's fault-free checksum bit for bit.
      cell.verify_ok = cell.p.verify == base_verify;
      if (!cell.verify_ok) ++verify_mismatches;
      cells.push_back(std::move(cell));
    }
  }

  std::cout << "== Chaos matrix: HTM-dynamic on " << profile.machine.name
            << ", " << threads << " threads, scale=" << scale
            << " (ratio = elapsed vs same-workload fault-free) ==\n";
  TablePrinter table({"workload", "phase", "ratio", "abort_pct",
                      "gil_fallbacks", "stm_escalations", "quarantine",
                      "faults", "verify"});
  for (const ChaosCell& c : cells) {
    const runtime::RunStats& s = c.p.stats;
    table.add_row({c.workload, c.phase, TablePrinter::num(c.ratio, 2),
                   TablePrinter::num(100.0 * s.abort_ratio(), 1),
                   std::to_string(s.gil_fallbacks),
                   std::to_string(s.stm_escalations),
                   std::to_string(s.quarantine_enters),
                   std::to_string(s.faults.total()),
                   c.verify_ok ? "ok" : "MISMATCH"});
  }
  emit(table, csv);

  // --- httpsim open-loop: fault-free vs worst fault with the full overload
  // --- stack (deadlines + retries + CoDel + per-shard breakers) ------------
  // The load is a fixed point past the faulted shard's service rate but
  // within the healthy shards' spill headroom (quick only shrinks the
  // engine-workload matrix): the brown-out, spill, and recovery sequence
  // is deterministic for a fixed seed.
  httpsim::cluster::ClusterSpec spec;
  spec.machine = profile.machine.name;
  httpsim::DriverConfig& dcfg = spec.driver;
  dcfg.arrival = httpsim::Arrival::kPoisson;
  dcfg.total_requests = 240;
  dcfg.rps = 2'400'000.0;
  dcfg.queue_limit = 64;
  dcfg.overload.deadline = 2'000'000;
  dcfg.overload.retry_budget = 1;
  dcfg.overload.codel = true;
  spec.options.shards = 4;
  spec.options.epochs = 8;
  spec.options.breaker.enabled = true;
  spec.options.breaker.trip_streak = 2;
  spec.options.breaker.latency_budget = 400'000;
  spec.options.breaker.fault_shard = 1;  // worst phase: faults on shard 1 only

  auto run_httpsim = [&](const std::string& phase,
                         const fault::FaultConfig& fc) {
    httpsim::cluster::ClusterSpec s = spec;
    s.engine_flags = workloads::replay_flags(fc, {}, &flags);
    if (sink.enabled()) {
      const obs::ObsConfig& oc = sink.config();
      s.artifact_stem =
          (oc.trace_path.empty() ? oc.metrics_path : oc.trace_path) + "." +
          phase;
    }
    return httpsim::cluster::run_cluster(s, sink.enabled() ? &sink : nullptr);
  };

  // The worst fault phase of the matrix for a serving shard: every TBEGIN
  // fails persistently (GIL-serialized service) and every GIL hand-off is
  // delayed — confined to shard 1, whose breaker must brown it out and
  // spill its keys to the healthy shards.
  fault::FaultConfig worst_fc;
  worst_fc.seed = fault_seed;
  worst_fc.persistent_all_yps = true;
  worst_fc.gil_handoff_delay_cycles = 150'000;

  const auto ff = run_httpsim("httpsim-fault-free", {});
  const auto wf = run_httpsim("httpsim-worst-fault", worst_fc);

  std::cout << "== Chaos httpsim: webrick open-loop, poisson rps="
            << jnum(dcfg.rps) << ", " << spec.options.shards
            << " shards, deadlines+CoDel+breakers on ==\n";
  TablePrinter htable({"phase", "completed", "dropped", "shed", "retries",
                       "spilled", "transitions", "p50", "p99", "p99.9"});
  auto add_hrow = [&](const std::string& name,
                      const httpsim::cluster::ClusterRunResult& r) {
    htable.add_row({name, std::to_string(r.completed),
                    std::to_string(r.dropped), std::to_string(r.shed),
                    std::to_string(r.retries), std::to_string(r.spilled),
                    std::to_string(r.breaker_transitions.size()),
                    TablePrinter::num(r.latency_hist.percentile(50.0), 0),
                    TablePrinter::num(r.latency_hist.percentile(99.0), 0),
                    TablePrinter::num(r.latency_hist.percentile(99.9), 0)});
  };
  add_hrow("fault-free", ff);
  add_hrow("worst-fault", wf);
  emit(htable, csv);

  // --- gates ---------------------------------------------------------------
  std::vector<GateResult> gates;
  bool ok = true;
  ok &= gate_line(&gates, "matrix-verify-mismatches",
                  static_cast<double>(verify_mismatches), 0.0,
                  /*at_most=*/true, 0);
  const double goodput_ratio =
      ff.completed > 0
          ? static_cast<double>(wf.completed) / static_cast<double>(ff.completed)
          : 0.0;
  ok &= gate_line(&gates, "httpsim-worst-fault-goodput-vs-fault-free",
                  goodput_ratio, 0.70, /*at_most=*/false, 3);
  const double ff_p999 = ff.latency_hist.percentile(99.9);
  const double p999_ratio =
      ff_p999 > 0 ? wf.latency_hist.percentile(99.9) / ff_p999 : 0.0;
  ok &= gate_line(&gates, "httpsim-worst-fault-p999-vs-fault-free",
                  p999_ratio, 5.0, /*at_most=*/true, 2);
  ok &= gate_line(&gates, "httpsim-worst-fault-breaker-transitions",
                  static_cast<double>(wf.breaker_transitions.size()), 1.0,
                  /*at_most=*/false, 0);

  // --- JSON artifact (schema gilfree.chaos/1) ------------------------------
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"gilfree.chaos/1\",\n"
       << "  \"machine\": \"" << profile.machine.name << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false")
       << ", \"scale\": " << scale << ", \"threads\": " << threads
       << ", \"fault_seed\": " << fault_seed << ",\n  \"matrix\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const ChaosCell& c = cells[i];
      const runtime::RunStats& s = c.p.stats;
      os << "    {\"workload\": \"" << c.workload << "\", \"phase\": \""
         << c.phase << "\", \"elapsed_us\": " << jnum(c.p.elapsed_us)
         << ", \"ratio\": " << jnum(c.ratio)
         << ", \"abort_pct\": " << jnum(100.0 * s.abort_ratio())
         << ", \"gil_fallbacks\": " << s.gil_fallbacks
         << ", \"stm_escalations\": " << s.stm_escalations
         << ", \"quarantine_enters\": " << s.quarantine_enters
         << ", \"faults_injected\": " << s.faults.total()
         << ", \"verify_ok\": " << (c.verify_ok ? "true" : "false") << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"httpsim\": {\n    \"requests\": " << dcfg.total_requests
       << ", \"offered_rps\": " << jnum(dcfg.rps)
       << ", \"shards\": " << spec.options.shards
       << ", \"deadline\": " << dcfg.overload.deadline
       << ", \"retry_budget\": " << dcfg.overload.retry_budget << ",\n";
    append_httpsim_json(os, "fault_free", ff);
    os << ",\n";
    append_httpsim_json(os, "worst_fault", wf);
    os << ",\n    \"goodput_ratio\": " << jnum(goodput_ratio)
       << ", \"p999_ratio\": " << jnum(p999_ratio) << "\n  },\n"
       << "  \"gates\": [\n";
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

  std::cout << (ok ? "chaos campaign OK\n" : "chaos campaign FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The chaos httpsim pair re-execs /proc/self/exe as its shard workers;
  // dispatch to the worker body before any flag machinery.
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return httpsim::cluster::worker_main();

  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const bool chaos = flags.get_bool("chaos", false);
  const std::string json_path = flags.get("json", "");
  const auto scale =
      static_cast<unsigned>(flags.get_int("scale", quick ? 1 : 2));
  const std::string machine = flags.get("machine", "zec12");
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig custom = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  RecordWiring record(flags);
  flags.reject_unknown();
  if (!json_path.empty() && !chaos) {
    std::cerr << "error: --json requires --chaos\n";
    return 2;
  }

  const auto profile = htm::SystemProfile::by_name(machine);
  if (chaos)
    return run_chaos(profile, csv, quick, scale, threads, custom.seed,
                     json_path, sink, flags, record);
  const workloads::Workload& w = workloads::micro_while();

  auto run_phase = [&](const std::string& name, const NamedConfig& nc,
                       const fault::FaultConfig& fc) {
    auto cfg = make_config(profile, nc, fc, stm_cfg, &flags);
    record.wire(cfg, w.name, nc.name, threads, scale);
    observe(cfg, sink,
            {{"figure", "robustness_campaign"},
             {"machine", profile.machine.name},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", nc.name},
             {"phase", name}});
    return PhaseResult{name, workloads::run_workload(std::move(cfg), w,
                                                     threads, scale),
                       fc};
  };

  std::vector<PhaseResult> phases;
  phases.push_back(run_phase("gil-baseline", {"GIL", 0}, {}));
  phases.push_back(run_phase("htm-fault-free", {"HTM-dynamic", -1}, {}));
  const double gil_us = phases[0].p.elapsed_us;
  const double htm_us = phases[1].p.elapsed_us;
  const Cycles htm_cycles = phases[1].p.stats.total_cycles;

  for (Cycles mean : std::vector<Cycles>{200'000, 50'000, 10'000}) {
    fault::FaultConfig fc;
    fc.spurious_mean_cycles = mean;
    phases.push_back(run_phase("spurious-" + std::to_string(mean),
                               {"HTM-dynamic", -1}, fc));
  }

  {
    fault::FaultConfig fc;
    fc.persistent_all_yps = true;
    phases.push_back(
        run_phase("persistent-all", {"HTM-dynamic", -1}, fc));
  }

  {
    // Persistent aborts only during the first third of the fault-free
    // run's virtual time; quarantine must engage, then exit and recover.
    fault::FaultConfig fc;
    fc.persistent_all_yps = true;
    fc.persistent_window.until = htm_cycles / 3;
    phases.push_back(
        run_phase("persistent-window", {"HTM-dynamic", -1}, fc));
  }

  if (custom.enabled())
    phases.push_back(run_phase("custom", {"HTM-dynamic", -1}, custom));

  std::cout << "== Robustness campaign: " << w.name << " on "
            << profile.machine.name << ", " << threads
            << " threads (1.00 = pure-GIL throughput) ==\n";
  TablePrinter table({"phase", "vs_gil", "vs_htm", "abort_pct",
                      "gil_fallbacks", "quarantine", "q_exits", "watchdog",
                      "faults", "held_pct", "wait_pct"});
  for (const PhaseResult& ph : phases) {
    const runtime::RunStats& s = ph.p.stats;
    const double bt = static_cast<double>(s.breakdown.total());
    table.add_row(
        {ph.name, TablePrinter::num(gil_us / ph.p.elapsed_us, 2),
         TablePrinter::num(htm_us / ph.p.elapsed_us, 2),
         TablePrinter::num(100.0 * s.abort_ratio(), 1),
         std::to_string(s.gil_fallbacks),
         std::to_string(s.quarantine_enters),
         std::to_string(s.quarantine_exits),
         std::to_string(s.watchdog_events),
         std::to_string(s.faults.total()),
         TablePrinter::num(100.0 * s.breakdown.gil_held / bt, 1),
         TablePrinter::num(100.0 * s.breakdown.gil_wait / bt, 1)});
  }
  emit(table, csv);

  // The headline robustness properties, checked here so sweep scripts and
  // CI can assert on the exit code without parsing the table. Every gate
  // prints both the measured value and the threshold it is held to.
  const PhaseResult& all = phases[5];
  const PhaseResult& window = phases[6];
  bool ok = true;
  ok &= gate_line(nullptr, "persistent-all-degradation-vs-gil",
                  all.p.elapsed_us / gil_us, 1.10, /*at_most=*/true, 2);
  ok &= gate_line(nullptr, "persistent-all-quarantine-enters",
                  static_cast<double>(all.p.stats.quarantine_enters), 1.0,
                  /*at_most=*/false, 0);
  ok &= gate_line(nullptr, "persistent-window-quarantine-exits",
                  static_cast<double>(window.p.stats.quarantine_exits), 1.0,
                  /*at_most=*/false, 0);
  std::cout << (ok ? "campaign OK\n" : "campaign FAILED\n");
  return ok ? 0 : 1;
}
