// NPB evaluation driver: run any of the seven kernels on any machine and
// engine configuration. For example (one command line):
//
//   $ ./build/examples/npb_runner --benchmark=FT --machine=zec12
//        --engine=dynamic --threads=12 --scale=1
//
// Engines: gil | htm-1 | htm-16 | htm-256 | dynamic | fine | unsynced.
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "fault/fault_config.hpp"
#include "obs/sink.hpp"
#include "stm/stm_config.hpp"
#include "workloads/runner.hpp"

using namespace gilfree;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string bench = flags.get("benchmark", "FT");
  const std::string machine = flags.get("machine", "zec12");
  const std::string engine = flags.get("engine", "dynamic");
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  fault::FaultConfig fault_cfg;
  stm::StmConfig stm_cfg;
  try {
    fault_cfg = fault::FaultConfig::from_flags(flags);
    stm_cfg = stm::StmConfig::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::by_name(machine);
  runtime::EngineConfig cfg;
  if (engine == "gil") {
    cfg = runtime::EngineConfig::gil(profile);
  } else if (engine == "dynamic") {
    cfg = runtime::EngineConfig::htm_dynamic(profile);
  } else if (engine == "fine") {
    cfg = runtime::EngineConfig::fine_grained(profile);
  } else if (engine == "unsynced") {
    cfg = runtime::EngineConfig::unsynced(profile);
  } else if (engine.rfind("htm-", 0) == 0) {
    cfg = runtime::EngineConfig::htm_fixed(
        profile, std::stoi(engine.substr(4)));
  } else {
    std::cerr << "unknown engine: " << engine << "\n";
    return 2;
  }
  cfg.fault = fault_cfg;
  cfg.stm = stm_cfg;

  if (sink.enabled()) {
    sink.next_labels({{"example", "npb_runner"},
                      {"machine", profile.machine.name},
                      {"workload", bench},
                      {"threads", std::to_string(threads)},
                      {"config", engine}});
    cfg.obs_sink = &sink;
  }

  const auto p = workloads::run_workload(std::move(cfg),
                                         workloads::npb(bench), threads,
                                         scale);
  std::cout << bench << " on " << profile.machine.name << " / " << engine
            << " with " << threads << " threads (scale " << scale << ")\n"
            << "  timed region:      " << p.elapsed_us << " virtual µs\n"
            << "  verification:      " << p.verify << "\n"
            << "  bytecodes retired: " << p.stats.insns_retired << "\n"
            << "  transactions:      " << p.stats.htm.begins << " ("
            << p.stats.abort_ratio() * 100 << " % aborted)\n"
            << "  GIL fallbacks:     " << p.stats.gil_fallbacks << "\n"
            << "  GC collections:    " << p.stats.gc.collections << "\n";
  return 0;
}
