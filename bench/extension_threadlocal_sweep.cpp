// §5.6 / §7 future-work extension, evaluated: the paper identifies the
// residual global free-list manipulation as the dominant conflict source
// (">50% of read-set conflicts occurred at object allocation") and proposes
// thread-local lazy sweeping. This bench enables our implementation of that
// proposal (the sweeper deals freed objects straight onto per-thread lists)
// and measures the conflict-abort and throughput effect on an allocation-
// heavy NPB kernel under GC pressure.
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
  // Optional --gc-* overrides (arenas, lazy sweep, deal policy) so the
  // legacy two-variant table can be re-run on top of the new allocator
  // features; bench/gc_scaling covers the full matrix.
  vm::HeapConfig gc_overrides;
  parse_gc_flags(flags, gc_overrides);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();
  std::cout << "== Extension: thread-local sweeping (§7 future work), "
            << "HTM-16 @" << threads
            << " threads, zEC12, GC-pressured heap ==\n";
  TablePrinter table({"benchmark", "variant", "speedup_vs_1t_gil",
                      "conflict_aborts", "gc_count"});

  for (const char* name : {"FT", "BT", "MG"}) {
    const auto& w = workloads::npb(name);
    auto base_cfg = make_config(profile, {"GIL", 0}, fault_cfg, stm_cfg);
    base_cfg.heap.initial_slots = 90'000;  // force several GCs
    const auto base = workloads::run_workload(std::move(base_cfg), w, 1,
                                              scale);

    for (bool tls_sweep : {false, true}) {
      auto cfg = make_config(profile, {"HTM-16", 16}, fault_cfg, stm_cfg);
      cfg.heap.initial_slots = 90'000;
      cfg.heap.sweep_deal_threads = threads + 1;
      parse_gc_flags(flags, cfg.heap);
      if (!tls_sweep) cfg.heap.sweep_deal_threads = 0;  // the axis wins
      observe(cfg, sink,
              {{"figure", "extension_threadlocal_sweep"},
               {"machine", profile.machine.name},
               {"workload", name},
               {"threads", std::to_string(threads)},
               {"config",
                tls_sweep ? "thread-local sweep" : "global free list"}});
      const auto p =
          workloads::run_workload(std::move(cfg), w, threads, scale);
      table.add_row(
          {name, tls_sweep ? "thread-local sweep" : "global free list",
           TablePrinter::num(base.elapsed_us / p.elapsed_us, 2),
           std::to_string(p.stats.htm.aborts_by_reason[static_cast<int>(
               htm::AbortReason::kConflict)]),
           std::to_string(p.stats.gc.collections)});
    }
  }
  emit(table, csv);
  return 0;
}
