// §5.4 ablation: without the conflict removals of §4.4 (global running-
// thread variable rewritten by every transaction, single global free list,
// miss-updated inline caches, unpadded thread structures), "the HTM
// provided no acceleration in any of the benchmarks".
#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto scale = static_cast<unsigned>(flags.get_int("scale", 1));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 12));
  const std::string only = flags.get("benchmarks", "");
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  vm::HeapConfig gc_probe;   // registers --gc-* for strict CLI;
  parse_gc_flags(flags, gc_probe);  // applied per engine via make_config
  RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Ablation: §4.4 conflict removals (HTM-dynamic @" << threads
            << " threads, zEC12; speedup vs 1-thread GIL) ==\n";
  TablePrinter table({"benchmark", "all_removals", "no_tls_current_thread",
                      "no_thread_local_free_lists", "no_htm_inline_caches",
                      "no_padding", "none_of_them"});

  for (const auto& w : workloads::npb_workloads()) {
    if (!only.empty() && only.find(w.name) == std::string::npos) continue;
    auto base_cfg = make_config(profile, {"GIL", 0}, fault_cfg, stm_cfg, &flags);
    record.wire(base_cfg, w.name, "GIL", 1, scale);
    const auto base = workloads::run_workload(std::move(base_cfg), w, 1, scale);
    auto speedup = [&](runtime::EngineConfig cfg, const char* variant) {
      observe(cfg, sink,
              {{"figure", "ablation_conflict_removal"},
               {"machine", profile.machine.name},
               {"workload", w.name},
               {"threads", std::to_string(threads)},
               {"config", variant}});
      const auto p = workloads::run_workload(std::move(cfg), w, threads,
                                             scale);
      return TablePrinter::num(base.elapsed_us / p.elapsed_us, 2);
    };

    auto all = make_config(profile, {"HTM-dynamic", -1}, fault_cfg, stm_cfg, &flags);

    auto no_tls = all;
    no_tls.vm.thread_local_current_thread = false;

    auto no_lists = all;
    no_lists.heap.thread_local_free_lists = false;

    auto no_ic = all;
    no_ic.vm.htm_friendly_method_caches = false;
    no_ic.vm.ivar_cache_table_guard = false;

    auto no_pad = all;
    no_pad.heap.padded_thread_structs = false;

    auto none = all;
    none.vm.thread_local_current_thread = false;
    none.heap.thread_local_free_lists = false;
    none.vm.htm_friendly_method_caches = false;
    none.vm.ivar_cache_table_guard = false;
    none.heap.padded_thread_structs = false;

    table.add_row({w.name, speedup(all, "all_removals"),
                   speedup(no_tls, "no_tls_current_thread"),
                   speedup(no_lists, "no_thread_local_free_lists"),
                   speedup(no_ic, "no_htm_inline_caches"),
                   speedup(no_pad, "no_padding"),
                   speedup(none, "none_of_them")});
  }
  emit(table, csv);
  return 0;
}
