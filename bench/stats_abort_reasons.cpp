// §5.6: abort-reason breakdown per benchmark — the analysis behind the
// paper's "read-set conflicts accounted for more than 80% ... more than 50%
// of those occurred at object allocation" and "87% of Rails aborts were
// footprint overflows" observations. Conflict sites are classified by the
// memory region of the conflicting cache line.
#include <map>

#include "bench/bench_common.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

void report(const char* name, runtime::Engine& engine,
            const runtime::RunStats& stats, bool csv) {
  const auto& h = stats.htm;
  TablePrinter table({"metric", "count"});
  table.add_row({"begins", std::to_string(h.begins)});
  table.add_row({"commits", std::to_string(h.commits)});
  for (int r = 1; r < static_cast<int>(htm::kNumAbortReasons); ++r) {
    table.add_row({std::string("abort:") +
                       std::string(htm::abort_reason_name(
                           static_cast<htm::AbortReason>(r))),
                   std::to_string(h.aborts_by_reason[r])});
  }
  table.add_row({"gil_fallbacks", std::to_string(stats.gil_fallbacks)});

  std::map<std::string, u64> by_region;
  u64 total_conflict_sites = 0;
  for (const auto& [line, n] : engine.htm()->conflict_lines()) {
    by_region[engine.heap().describe_line(
        line, engine.config().profile.htm.line_bytes)] += n;
    total_conflict_sites += n;
  }
  for (const auto& [region, n] : by_region) {
    table.add_row(
        {"conflict-region:" + region,
         std::to_string(n) + " (" +
             TablePrinter::num(100.0 * n / std::max<u64>(1,
                                                         total_conflict_sites),
                               0) +
             "%)"});
  }
  std::cout << "== " << name << " ==\n";
  emit(table, csv);
  std::cout << "\n";
}

}  // namespace

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

  // NPB on zEC12 with HTM-dynamic.
  for (const auto& w : workloads::npb_workloads()) {
    auto cfg = make_config(htm::SystemProfile::zec12(), {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);
    record.wire(cfg, w.name, "HTM-dynamic", threads, scale);
    observe(cfg, sink,
            {{"figure", "stats_abort_reasons"},
             {"machine", "zEC12"},
             {"workload", w.name},
             {"threads", std::to_string(threads)},
             {"config", "HTM-dynamic"}});
    runtime::Engine engine(std::move(cfg));
    engine.load_program(workloads::sources_for(w, threads, scale));
    engine.htm()->set_collect_conflicts(true);
    const auto stats = engine.run();
    report(("NPB " + w.name + " / zEC12 / HTM-dynamic").c_str(), engine,
           stats, csv);
  }

  // Rails on the Xeon (87% overflow aborts in the paper).
  {
    auto cfg = make_config(htm::SystemProfile::xeon_e3(), {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);
    httpsim::DriverConfig d;
    d.clients = 4;
    d.total_requests = 600;
    cfg.heap.max_threads = d.total_requests + 8;
    observe(cfg, sink,
            {{"figure", "stats_abort_reasons"},
             {"machine", "XeonE3-1275v3"},
             {"workload", "Rails"},
             {"clients", "4"},
             {"config", "HTM-dynamic"}});
    httpsim::ClosedLoopDriver driver(d);
    runtime::Engine engine(std::move(cfg));
    engine.load_program({httpsim::rails_source()});
    engine.attach_server(&driver);
    engine.htm()->set_collect_conflicts(true);
    const auto stats = engine.run();
    report("Rails / Xeon / HTM-dynamic (4 clients)", engine, stats, csv);
  }
  return 0;
}
