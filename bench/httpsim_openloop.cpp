// Open-loop httpsim harness: seeded arrival processes (Poisson / bursty
// MMPP, or the closed loop for comparison) against the WEBrick / Rails
// server programs, optionally sharded across independent engines
// (--shards=N with a hash or round-robin request router). Reports
// throughput, drops, and latency/queue-delay percentiles per shard and
// merged; with --trace-out/--metrics-out the per-shard runs land in the
// observability artifacts tagged shard=<i>.
//
// Everything is deterministic: the same --load-seed/--seed pair reproduces
// the arrival schedule, the request log, and the trace byte-for-byte.
#include "bench/bench_common.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

void add_result_row(TablePrinter& table, const std::string& name,
                    const httpsim::ServerRunResult& r) {
  table.add_row({name, std::to_string(r.completed + r.dropped + r.shed),
                 std::to_string(r.completed), std::to_string(r.dropped),
                 std::to_string(r.shed), std::to_string(r.retries),
                 TablePrinter::num(r.throughput_rps, 1),
                 TablePrinter::num(r.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(90.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(r.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(r.queue_mean_cycles, 0),
                 TablePrinter::num(r.queue_hist.percentile(99.0), 0)});
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const std::string machine = flags.get("machine", "zec12");
  const std::string config_name = flags.get("config", "HTM-dynamic");
  const std::string program_name = flags.get("program", "webrick");
  const u64 seed = static_cast<u64>(flags.get_int("seed", 0x6112024));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  httpsim::DriverConfig driver_cfg;
  httpsim::ShardOptions shard_opts;
  try {
    driver_cfg = httpsim::DriverConfig::from_flags(flags);
    shard_opts = httpsim::ShardOptions::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  flags.reject_unknown();

  htm::SystemProfile profile = htm::SystemProfile::zec12();
  if (machine == "xeon" || machine == "xeon_e3") {
    profile = htm::SystemProfile::xeon_e3();
  } else if (machine != "zec12") {
    std::cerr << "error: --machine must be zec12 or xeon\n";
    return 2;
  }

  const NamedConfig* nc = nullptr;
  const auto configs = paper_configs();
  for (const auto& c : configs) {
    if (c.name == config_name) nc = &c;
  }
  if (nc == nullptr) {
    std::cerr << "error: --config must be one of GIL, HTM-1, HTM-16, "
                 "HTM-256, HTM-dynamic\n";
    return 2;
  }

  std::string program;
  if (program_name == "webrick") {
    program = httpsim::webrick_source();
  } else if (program_name == "rails") {
    program = httpsim::rails_source();
  } else {
    std::cerr << "error: --program must be webrick or rails\n";
    return 2;
  }

  auto cfg = make_config(profile, *nc, fault_cfg, stm_cfg, &flags);
  cfg.seed = seed;

  std::map<std::string, std::string> labels = {
      {"figure", "httpsim_openloop"},
      {"machine", profile.machine.name},
      {"workload", program_name},
      {"config", nc->name},
      {"arrival", std::string(httpsim::arrival_name(driver_cfg.arrival))},
  };
  const auto result = httpsim::run_sharded(
      cfg, program, driver_cfg, shard_opts,
      sink.enabled() ? &sink : nullptr, labels);

  std::cout << "== httpsim open-loop: " << program_name << " / "
            << profile.machine.name << " / " << nc->name
            << " arrival=" << httpsim::arrival_name(driver_cfg.arrival)
            << " rps=" << driver_cfg.rps << " shards=" << shard_opts.shards
            << " router=" << httpsim::router_name(shard_opts.router)
            << " (latencies in cycles) ==\n";
  TablePrinter table({"shard", "scheduled", "completed", "dropped", "shed",
                      "retries", "rps", "p50", "p90", "p99", "p99.9",
                      "queue_mean", "queue_p99"});
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    add_result_row(table, std::to_string(s), result.shards[s]);
  }
  table.add_row({"all",
                 std::to_string(result.completed + result.dropped +
                                result.shed),
                 std::to_string(result.completed),
                 std::to_string(result.dropped),
                 std::to_string(result.shed),
                 std::to_string(result.retries),
                 TablePrinter::num(result.throughput_rps, 1),
                 TablePrinter::num(result.latency_hist.percentile(50.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(90.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.0), 0),
                 TablePrinter::num(result.latency_hist.percentile(99.9), 0),
                 TablePrinter::num(result.queue_hist.total() > 0
                                       ? static_cast<double>(
                                             result.queue_hist.sum()) /
                                             result.queue_hist.total()
                                       : 0.0,
                                   0),
                 TablePrinter::num(result.queue_hist.percentile(99.0), 0)});
  emit(table, csv);
  return 0;
}
