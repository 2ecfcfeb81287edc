// micro_overhead: host-cost comparison of the interpreter host paths.
//
// The simulator's *virtual* cycle streams are mode-invariant by design (the
// differential test asserts it); what the interpreter overhaul buys is host
// time per simulated bytecode. This benchmark runs the §5.6-style fixnum
// While loop under the GIL engine in three configurations —
//
//   virtual-host   host fast path disabled: one virtual call per charge and
//                  per memory access, the pre-overhaul interpreter cost
//                  profile
//   plain          host fast path, no fusion
//   fuse           + superinstruction pairs (the default path)
//
// — verifies that simulated cycles, results, and retired-instruction counts
// are identical across all three, and reports host ns per simulated bytecode
// (minimum over --repeats) plus the percentage reduction against the
// virtual-host baseline. --json=FILE writes the results (schema
// gilfree.bench_interp/2, committed as BENCH_interp.json) for the CI
// perf-smoke gate.
//
//   $ ./build/bench/micro_overhead --repeats=5 --json=BENCH_interp.json
//   $ ./build/bench/micro_overhead --quick            # fewer, shorter runs
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "htm/profile.hpp"
#include "runtime/engine.hpp"

using namespace gilfree;

namespace {

struct BenchConfig {
  const char* name;
  bool fuse;
  bool fast_path;
};

constexpr BenchConfig kConfigs[] = {
    {"virtual-host", false, false},
    {"plain", false, true},
    {"fuse", true, true},
};

struct BenchResult {
  double host_ns_total = 0.0;  ///< Minimum over repeats.
  u64 insns = 0;
  Cycles sim_cycles = 0;
  u64 fused = 0;
  double result_x = 0.0;

  double ns_per_insn() const {
    return insns ? host_ns_total / static_cast<double>(insns) : 0.0;
  }
};

std::string while_program(long iters) {
  return "x = 0\ni = 0\nwhile i < " + std::to_string(iters) +
         "\n  x += i\n  i += 1\nend\n__record(\"x\", x)\n";
}

BenchResult run_config(const BenchConfig& bc, const std::string& src,
                       long repeats) {
  BenchResult r;
  for (long rep = 0; rep < repeats; ++rep) {
    runtime::EngineConfig cfg =
        runtime::EngineConfig::gil(htm::SystemProfile::xeon_e3());
    cfg.vm.fuse_superinsns = bc.fuse;
    cfg.vm.host_fast_path = bc.fast_path;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({src});
    const auto t0 = std::chrono::steady_clock::now();
    const runtime::RunStats stats = engine.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (rep == 0 || ns < r.host_ns_total) r.host_ns_total = ns;
    r.insns = stats.insns_retired;
    r.sim_cycles = stats.total_cycles;
    r.fused = stats.interp.fused_instructions;
    r.result_x = stats.results.at("x");
  }
  return r;
}

void write_json(const std::string& path, long iters, long repeats,
                const std::vector<BenchResult>& results) {
  std::ofstream out(path);
  GILFREE_CHECK_MSG(out.good(), "cannot write " << path);
  const double base = results[0].ns_per_insn();
  out << "{\"schema\":\"gilfree.bench_interp/2\","
      << "\"machine\":\"XeonE3-1275v3\",\"engine\":\"GIL\","
      << "\"program\":\"while_fixnum_loop\",\"iters\":" << iters
      << ",\"repeats\":" << repeats << ",\"baseline\":\"virtual-host\","
      << "\"configs\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchConfig& bc = kConfigs[i];
    const BenchResult& r = results[i];
    const double red =
        base > 0.0 ? 100.0 * (1.0 - r.ns_per_insn() / base) : 0.0;
    if (i) out << ",";
    out << "{\"name\":\"" << bc.name
        << "\",\"fuse\":" << (bc.fuse ? "true" : "false")
        << ",\"host_fast_path\":" << (bc.fast_path ? "true" : "false")
        << ",\"host_ns_total\":" << r.host_ns_total
        << ",\"host_ns_per_insn\":" << r.ns_per_insn()
        << ",\"insns\":" << r.insns << ",\"sim_cycles\":" << r.sim_cycles
        << ",\"fused_instructions\":" << r.fused
        << ",\"reduction_pct\":" << red << "}";
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const long iters = flags.get_int("iters", quick ? 5000 : 20000);
  const long repeats = flags.get_int("repeats", quick ? 3 : 5);
  const std::string json_path = flags.get("json", "");
  flags.reject_unknown();

  const std::string src = while_program(iters);
  std::vector<BenchResult> results;
  for (const BenchConfig& bc : kConfigs) {
    results.push_back(run_config(bc, src, repeats));
    std::cerr << "measured " << bc.name << "\n";
  }

  // The host path must never change what is simulated — only how fast the
  // host simulates it.
  const BenchResult& base = results[0];
  for (const BenchResult& r : results) {
    GILFREE_CHECK_MSG(r.sim_cycles == base.sim_cycles,
                      "simulated cycles diverged across host paths");
    GILFREE_CHECK_MSG(r.insns == base.insns,
                      "retired instruction counts diverged");
    GILFREE_CHECK_MSG(r.result_x == base.result_x,
                      "program results diverged");
  }

  TablePrinter table({"config", "host_ns/insn", "reduction_pct",
                      "fused_insns", "sim_cycles", "insns"});
  const double base_ns = base.ns_per_insn();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double red =
        base_ns > 0.0 ? 100.0 * (1.0 - r.ns_per_insn() / base_ns) : 0.0;
    table.add_row({kConfigs[i].name, TablePrinter::num(r.ns_per_insn(), 2),
                   TablePrinter::num(red, 1), std::to_string(r.fused),
                   std::to_string(r.sim_cycles), std::to_string(r.insns)});
  }
  std::cout << table.to_string();
  if (!json_path.empty()) {
    write_json(json_path, iters, repeats, results);
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
