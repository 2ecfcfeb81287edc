// §5.1 sensitivity: the dynamic-adjustment constants. The paper argues the
// best target abort ratio depends on the HTM implementation (1% zEC12 / 6%
// Xeon), that INITIAL_TRANSACTION_LENGTH and PROFILING_PERIOD hardly matter
// unless set absurdly large, and that ATTENUATION_RATE = 0.75 works well.
#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  const std::string bench_name = flags.get("benchmark", "FT");
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();
  const auto& w = workloads::npb(bench_name);
  auto base_cfg = make_config(profile, {"GIL", 0}, fault_cfg, stm_cfg, &flags);
  record.wire(base_cfg, w.name, "GIL", 1, scale);
  const auto base = workloads::run_workload(std::move(base_cfg), w, 1, scale);

  auto run_with = [&](const char* variant, auto mutate) {
    auto cfg = make_config(profile, {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);
    mutate(cfg);
    observe(cfg, sink,
            {{"figure", "ablation_dynlen_params"},
             {"machine", profile.machine.name},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", variant}});
    const auto p = workloads::run_workload(std::move(cfg), w, threads, scale);
    return std::pair<double, double>(base.elapsed_us / p.elapsed_us,
                                     100.0 * p.stats.abort_ratio());
  };

  std::cout << "== Ablation: dynamic-adjustment constants (" << bench_name
            << " @" << threads << " threads, zEC12) ==\n";
  TablePrinter table({"variant", "speedup_vs_1t_gil", "abort_ratio_pct"});

  struct Variant {
    const char* name;
    void (*mutate)(runtime::EngineConfig&);
  };
  const Variant variants[] = {
      {"paper defaults (1% target, att 0.75, init 255)",
       [](runtime::EngineConfig&) {}},
      {"target 0.3% (threshold 1)",
       [](runtime::EngineConfig& c) { c.tle.adjustment_threshold = 1; }},
      {"target 6% (threshold 18)",
       [](runtime::EngineConfig& c) { c.tle.adjustment_threshold = 18; }},
      {"attenuation 0.5",
       [](runtime::EngineConfig& c) { c.tle.attenuation_rate = 0.5; }},
      {"attenuation 0.9",
       [](runtime::EngineConfig& c) { c.tle.attenuation_rate = 0.9; }},
      {"initial length 64",
       [](runtime::EngineConfig& c) {
         c.tle.initial_transaction_length = 64;
       }},
      {"initial length 10000 (paper's 'extremely large')",
       [](runtime::EngineConfig& c) {
         c.tle.initial_transaction_length = 10'000;
       }},
      {"profiling period 60",
       [](runtime::EngineConfig& c) {
         c.tle.profiling_period = 60;
         c.tle.adjustment_threshold = 1;
       }},
  };
  for (const Variant& v : variants) {
    const auto [speedup, abort_pct] = run_with(v.name, v.mutate);
    table.add_row({v.name, TablePrinter::num(speedup, 2),
                   TablePrinter::num(abort_pct, 2)});
  }
  emit(table, csv);
  return 0;
}
