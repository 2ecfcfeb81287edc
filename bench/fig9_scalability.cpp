// Fig. 9: three-way scalability comparison — HTM-dynamic (CRuby+TLE) vs the
// fine-grained-locking engine (JRuby analogue) vs the unsynchronized engine
// (Java NPB analogue), each normalized to ITS OWN single-thread run.
//
// Paper shape: even the Java NPB hits per-program scalability ceilings;
// HTM-dynamic tracks those ceilings, averaging ~3.6x at 12 threads, about
// the same as JRuby's ~3.5x.
#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  // HTM-dynamic runs are replayable; the FineGrained/Unsynced engines have
  // no record-header spelling and get no record stream.
  RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();

  struct EngineKind {
    const char* name;
    runtime::EngineConfig (*make)(htm::SystemProfile);
  };
  const EngineKind kinds[] = {
      {"HTM-dynamic", &runtime::EngineConfig::htm_dynamic},
      {"FineGrained(JRuby)", &runtime::EngineConfig::fine_grained},
      {"Unsynced(JavaNPB)", &runtime::EngineConfig::unsynced},
  };

  double sum_12t_htm = 0.0;
  double sum_12t_fine = 0.0;
  u32 counted = 0;

  for (const EngineKind& kind : kinds) {
    std::cout << "== Fig.9 scalability of " << kind.name
              << " (1 = its own 1-thread run) ==\n";
    std::vector<std::string> headers = {"threads"};
    for (const auto& w : workloads::npb_workloads()) headers.push_back(w.name);
    TablePrinter table(headers);

    std::vector<double> base;
    for (const auto& w : workloads::npb_workloads()) {
      auto bcfg = kind.make(profile);
      bcfg.fault = fault_cfg;
      bcfg.stm = stm_cfg;
      parse_gc_flags(flags, bcfg.heap);
      record.wire(bcfg, w.name, kind.name, 1, scale);
      base.push_back(
          workloads::run_workload(std::move(bcfg), w, 1, scale).elapsed_us);
    }
    for (unsigned threads : thread_counts(profile, quick)) {
      std::vector<std::string> row = {std::to_string(threads)};
      std::size_t i = 0;
      for (const auto& w : workloads::npb_workloads()) {
        auto cfg = kind.make(profile);
        cfg.fault = fault_cfg;
        cfg.stm = stm_cfg;
        parse_gc_flags(flags, cfg.heap);
        record.wire(cfg, w.name, kind.name, threads, scale);
        observe(cfg, sink,
                {{"figure", "fig9_scalability"},
                 {"machine", profile.machine.name},
                 {"workload", w.name},
                 {"threads", std::to_string(threads)},
                 {"config", kind.name}});
        const auto p =
            workloads::run_workload(std::move(cfg), w, threads, scale);
        const double speedup = base[i] / p.elapsed_us;
        row.push_back(TablePrinter::num(speedup, 2));
        if (threads == profile.machine.num_cpus()) {
          if (std::string(kind.name) == "HTM-dynamic") {
            sum_12t_htm += speedup;
            ++counted;
          } else if (std::string(kind.name) == "FineGrained(JRuby)") {
            sum_12t_fine += speedup;
          }
        }
        ++i;
      }
      table.add_row(row);
    }
    emit(table, csv);
    std::cout << "\n";
  }

  if (counted > 0) {
    std::cout << "Average speedup @" << profile.machine.num_cpus()
              << " threads: HTM-dynamic "
              << TablePrinter::num(sum_12t_htm / counted, 2)
              << "x vs FineGrained "
              << TablePrinter::num(sum_12t_fine / counted, 2)
              << "x (paper: 3.6x vs 3.5x)\n";
  }
  return 0;
}
