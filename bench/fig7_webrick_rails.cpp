// Fig. 7: WEBrick throughput on zEC12 and Xeon, Rails throughput on the
// Xeon (the paper could not install Rails under z/OS), for 1-6 concurrent
// clients, normalized to the 1-client GIL; plus the abort-ratio panel for
// HTM-dynamic.
//
// Paper shape: HTM-1 and HTM-dynamic best (+14% over GIL on zEC12, +57% on
// Xeon for WEBrick, +24% for Rails); the GIL also gains from concurrency
// because it is released during I/O; abort ratios climb with clients since
// most transaction lengths are already 1 and cannot shrink further (§5.6).
#include "bench/bench_common.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

void run_panel(const htm::SystemProfile& profile, const std::string& program,
               const char* title, u32 requests, bool csv,
               TablePrinter* abort_table, obs::Sink& sink,
               const fault::FaultConfig& fault_cfg,
               const stm::StmConfig& stm_cfg, const CliFlags* flags) {
  std::cout << "== Fig.7 " << title << " (throughput, 1 = 1-client GIL) ==\n";
  std::vector<std::string> headers = {"clients"};
  for (const auto& nc : paper_configs()) headers.push_back(nc.name);
  TablePrinter table(headers);
  // Closed-loop request latency is the companion view of the throughput
  // panel: same runs, per-request arrival→response percentiles in cycles.
  TablePrinter latency_table(headers);

  auto run_one = [&](const NamedConfig& nc, u32 clients) {
    httpsim::DriverConfig d;
    d.clients = clients;
    d.total_requests = requests;
    auto cfg = make_config(profile, nc, fault_cfg, stm_cfg, flags);
    observe(cfg, sink,
            {{"figure", "fig7_webrick_rails"},
             {"machine", profile.machine.name},
             {"workload", title},
             {"clients", std::to_string(clients)},
             {"config", nc.name}});
    return httpsim::run_server(std::move(cfg), program, d);
  };

  const double base = run_one({"GIL", 0}, 1).throughput_rps;
  for (u32 clients = 1; clients <= 6; ++clients) {
    std::vector<std::string> row = {std::to_string(clients)};
    std::vector<std::string> latency_row = {std::to_string(clients)};
    for (const auto& nc : paper_configs()) {
      const auto r = run_one(nc, clients);
      row.push_back(TablePrinter::num(r.throughput_rps / base, 2));
      latency_row.push_back(
          TablePrinter::num(r.latency_hist.percentile(50.0), 0) + "/" +
          TablePrinter::num(r.latency_hist.percentile(99.0), 0));
      if (abort_table != nullptr && nc.fixed_length == -1) {
        abort_table->add_row({std::string(title), std::to_string(clients),
                              TablePrinter::num(
                                  100.0 * r.stats.abort_ratio(), 1)});
      }
    }
    table.add_row(row);
    latency_table.add_row(latency_row);
  }
  emit(table, csv);
  std::cout << "-- request latency p50/p99 (cycles) --\n";
  emit(latency_table, csv);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const auto requests =
      static_cast<u32>(flags.get_int("requests", quick ? 150 : 300));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  // Accepts --record-out like every harness; httpsim runs are not
  // replayable, so none is ever recorded.
  RecordWiring record(flags);
  flags.reject_unknown();

  TablePrinter abort_table({"server", "clients", "abort_ratio_pct"});

  run_panel(htm::SystemProfile::zec12(), httpsim::webrick_source(),
            "WEBrick / zEC12", requests, csv, &abort_table, sink, fault_cfg, stm_cfg, &flags);
  run_panel(htm::SystemProfile::xeon_e3(), httpsim::webrick_source(),
            "WEBrick / XeonE3-1275v3", requests, csv, &abort_table, sink, fault_cfg, stm_cfg, &flags);
  run_panel(htm::SystemProfile::xeon_e3(), httpsim::rails_source(),
            "Rails / XeonE3-1275v3", requests, csv, &abort_table, sink, fault_cfg, stm_cfg, &flags);

  std::cout << "== Fig.7 right: abort ratios of HTM-dynamic ==\n";
  emit(abort_table, csv);
  return 0;
}
