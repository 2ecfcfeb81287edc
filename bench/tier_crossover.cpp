// Tier-crossover bench: how much serialized-on-GIL time the tier-2 STM
// fallback removes from the escalation path when HTM is persistently
// unavailable (docs/TIERS.md).
//
// Phases:
//   1. GIL baseline (the degradation floor, as in robustness_campaign).
//   2. HTM-dynamic fault-free (what a healthy machine does; the STM tier
//      must stay dormant here — default traces are byte-identical).
//   3. Persistent aborts at every yield point, STM off: the seed behavior,
//      every span escalates HTM → GIL.
//   4. The same campaign with --stm (eager GIL subscription): spans escalate
//      HTM → STM and commit concurrently instead of serializing.
//   5. The same campaign with lazy GIL subscription (--gil-subscription=
//      lazy): the GIL word is checked at commit instead of joining the read
//      set up front.
//
// Gates (exit code, for CI):
//   * the STM tier engages under the campaign (commits and escalations > 0);
//   * the STM phases spend measurably less serialized-on-GIL time than the
//     STM-off escalation path;
//   * throughput stays within the 1.10x-of-pure-GIL envelope the quarantine
//     breaker guarantees for the STM-off path.
//
//   $ ./build/bench/tier_crossover --quick
//   $ ./build/bench/tier_crossover --json=BENCH_stm.json --csv
#include <fstream>

#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

struct PhaseResult {
  std::string name;
  workloads::RunPoint p;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale =
      static_cast<unsigned>(flags.get_int("scale", quick ? 1 : 2));
  const std::string machine = flags.get("machine", "zec12");
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));
  const std::string json_path = flags.get("json", "");
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  // --stm-commit-retry= etc. tune the STM phases; --stm / --gil-subscription
  // themselves are implied by the phase matrix below.
  const stm::StmConfig stm_overrides = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::by_name(machine);
  const workloads::Workload& w = workloads::micro_while();

  // The deterministic hostile environment: every TBEGIN at every yield
  // point refuses with a persistent abort, for the whole run. Without the
  // STM tier this forces the full seed escalation HTM -> GIL.
  fault::FaultConfig campaign;
  campaign.persistent_all_yps = true;

  auto run_phase = [&](const std::string& name, const NamedConfig& nc,
                       const fault::FaultConfig& fc, bool stm_on,
                       stm::GilSubscription sub) {
    auto cfg = make_config(profile, nc, fc, {}, &flags);
    cfg.stm = stm_overrides;
    cfg.stm.enabled = stm_on;
    cfg.stm.subscription = sub;
    // Wired after the STM mutation so the record header carries the phase's
    // actual fault + tier state (both round-trip through to_flags).
    record.wire(cfg, w.name, nc.name, threads, scale);
    observe(cfg, sink,
            {{"figure", "tier_crossover"},
             {"machine", profile.machine.name},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", nc.name},
             {"phase", name}});
    return PhaseResult{name, workloads::run_workload(std::move(cfg), w,
                                                     threads, scale)};
  };

  std::vector<PhaseResult> phases;
  phases.push_back(run_phase("gil-baseline", {"GIL", 0}, {}, false,
                             stm::GilSubscription::kEager));
  phases.push_back(run_phase("htm-fault-free", {"HTM-dynamic", -1}, {}, false,
                             stm::GilSubscription::kEager));
  phases.push_back(run_phase("stm-off", {"HTM-dynamic", -1}, campaign, false,
                             stm::GilSubscription::kEager));
  phases.push_back(run_phase("stm-eager", {"HTM-dynamic", -1}, campaign, true,
                             stm::GilSubscription::kEager));
  phases.push_back(run_phase("stm-lazy", {"HTM-dynamic", -1}, campaign, true,
                             stm::GilSubscription::kLazy));

  const double gil_us = phases[0].p.elapsed_us;
  const double htm_us = phases[1].p.elapsed_us;

  std::cout << "== Tier crossover: " << w.name << " on "
            << profile.machine.name << ", " << threads
            << " threads, persistent-abort campaign (1.00 = pure-GIL "
               "throughput) ==\n";
  TablePrinter table({"phase", "vs_gil", "vs_htm", "gil_fallbacks",
                      "stm_escalations", "stm_commits", "stm_aborts",
                      "stm_to_gil", "zombie_kills", "held_pct"});
  for (const PhaseResult& ph : phases) {
    const runtime::RunStats& s = ph.p.stats;
    const double bt = static_cast<double>(s.breakdown.total());
    table.add_row({ph.name, TablePrinter::num(gil_us / ph.p.elapsed_us, 2),
                   TablePrinter::num(htm_us / ph.p.elapsed_us, 2),
                   std::to_string(s.gil_fallbacks),
                   std::to_string(s.stm_escalations),
                   std::to_string(s.stm.commits),
                   std::to_string(s.stm.total_aborts()),
                   std::to_string(s.stm_gil_fallbacks),
                   std::to_string(s.stm.zombie_kills),
                   TablePrinter::num(100.0 * s.breakdown.gil_held / bt, 1)});
  }
  emit(table, csv);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\"schema\":\"gilfree.tier_crossover/1\",\"workload\":\""
        << w.name << "\",\"machine\":\"" << profile.machine.name
        << "\",\"threads\":" << threads << ",\"scale\":" << scale
        << ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseResult& ph = phases[i];
      const runtime::RunStats& s = ph.p.stats;
      const double bt = static_cast<double>(s.breakdown.total());
      if (i) out << ',';
      out << "{\"phase\":\"" << ph.name
          << "\",\"vs_gil\":" << TablePrinter::num(gil_us / ph.p.elapsed_us, 4)
          << ",\"total_cycles\":" << s.total_cycles
          << ",\"gil_held\":" << s.breakdown.gil_held
          << ",\"gil_held_share\":"
          << TablePrinter::num(static_cast<double>(s.breakdown.gil_held) / bt,
                               4)
          << ",\"gil_fallbacks\":" << s.gil_fallbacks
          << ",\"quarantine_enters\":" << s.quarantine_enters
          << ",\"stm\":{\"begins\":" << s.stm.begins
          << ",\"commits\":" << s.stm.commits
          << ",\"aborts\":" << s.stm.total_aborts()
          << ",\"escalations\":" << s.stm_escalations
          << ",\"gil_fallbacks\":" << s.stm_gil_fallbacks
          << ",\"zombie_kills\":" << s.stm.zombie_kills << "}}";
    }
    out << "]}\n";
  }

  // The headline tier properties, checked here so CI can assert on the exit
  // code without parsing the table (.github/workflows/ci.yml, stm-smoke).
  const PhaseResult& off = phases[2];
  const PhaseResult& eager = phases[3];
  const PhaseResult& lazy = phases[4];
  bool ok = true;
  for (const PhaseResult* ph : {&eager, &lazy}) {
    if (ph->p.stats.stm.commits == 0 || ph->p.stats.stm_escalations == 0) {
      std::cout << "FAIL: " << ph->name
                << " never engaged the STM tier under the persistent-abort "
                   "campaign\n";
      ok = false;
    }
    if (ph->p.stats.breakdown.gil_held >= off.p.stats.breakdown.gil_held) {
      std::cout << "FAIL: " << ph->name << " serialized "
                << ph->p.stats.breakdown.gil_held
                << " cycles on the GIL, not less than the STM-off path's "
                << off.p.stats.breakdown.gil_held << "\n";
      ok = false;
    }
    if (ph->p.elapsed_us > gil_us * 1.10) {
      std::cout << "FAIL: " << ph->name << " ran "
                << TablePrinter::num(ph->p.elapsed_us / gil_us, 2)
                << "x the pure-GIL time (the escalation path should cap "
                   "this at ~1.10x)\n";
      ok = false;
    }
  }
  if (phases[1].p.stats.stm.begins != 0 ||
      phases[1].p.stats.stm_escalations != 0) {
    std::cout << "FAIL: the dormant STM tier saw traffic on the fault-free "
                 "run\n";
    ok = false;
  }
  std::cout << (ok ? "crossover OK\n" : "crossover FAILED\n");
  return ok ? 0 : 1;
}
