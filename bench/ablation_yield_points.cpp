// §5.4 ablation: without the extended yield points of §4.2 (keeping only
// CRuby's loop back-edges and method/block exits), transactions span far
// more work, overflow the store footprint, and fall back to the GIL —
// the paper saw >20% slowdowns versus the plain GIL in all NPB programs
// except CG.
#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Ablation: extended yield points (HTM-dynamic @" << threads
            << " threads, zEC12; speedup vs 1-thread GIL) ==\n";
  TablePrinter table({"benchmark", "with_extended_yp", "without_extended_yp",
                      "abort_ratio_without_pct"});

  for (const auto& w : workloads::npb_workloads()) {
    auto base_cfg = make_config(profile, {"GIL", 0}, fault_cfg, stm_cfg, &flags);
    record.wire(base_cfg, w.name, "GIL", 1, scale);
    const auto base = workloads::run_workload(std::move(base_cfg), w, 1, scale);

    auto with_cfg = make_config(profile, {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);
    record.wire(with_cfg, w.name, "HTM-dynamic", threads, scale);
    observe(with_cfg, sink,
            {{"figure", "ablation_yield_points"},
             {"machine", profile.machine.name},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", "with_extended_yp"}});
    const auto with_yp =
        workloads::run_workload(std::move(with_cfg), w, threads, scale);

    auto without_cfg = make_config(profile, {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);
    without_cfg.vm.extended_yield_points = false;
    observe(without_cfg, sink,
            {{"figure", "ablation_yield_points"},
             {"machine", profile.machine.name},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", "without_extended_yp"}});
    const auto without_yp =
        workloads::run_workload(std::move(without_cfg), w, threads, scale);

    table.add_row({w.name,
                   TablePrinter::num(base.elapsed_us / with_yp.elapsed_us, 2),
                   TablePrinter::num(base.elapsed_us / without_yp.elapsed_us,
                                     2),
                   TablePrinter::num(
                       100.0 * without_yp.stats.abort_ratio(), 1)});
  }
  emit(table, csv);
  return 0;
}
