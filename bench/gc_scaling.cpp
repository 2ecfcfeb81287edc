// Allocator-scaling matrix (§5.6 residual conflicts, §7 future work):
// {global free list, bulk refill, line-mate deal, per-thread arenas,
// nursery} × {eager, lazy sweep} on one allocation-heavy NPB
// kernel under GC pressure. For every variant the harness reports speedup
// vs 1-thread GIL, conflict aborts, GC count, the allocation-machinery
// share of non-GIL conflict sites (arena* + free-list-head +
// malloc-class-heads — the number this PR is trying to push down), and the
// maximum stop-the-world pause. `--json=` emits the same rows as a small
// machine-readable document for CI gating (.github/workflows/ci.yml,
// gc-smoke job) against the committed BENCH_gc.json baseline.
#include <fstream>
#include <map>

#include "bench/bench_common.hpp"

using namespace gilfree;
using namespace gilfree::bench;

namespace {

struct Variant {
  const char* name;
  bool local_lists;
  u32 deal_threads;  ///< 0 = no dealing; otherwise threads to deal to.
  bool arenas;
  // Generational extensions (PR 8); defaulted so the pre-nursery variants
  // keep their positional initializers.
  bool nursery = false;
  u32 mark_quantum = 0;  ///< 0 = no incremental marking.
  bool steal = false;
};

struct Row {
  std::string variant;
  std::string sweep;
  double speedup = 0.0;
  u64 conflict_aborts = 0;
  u64 collections = 0;
  double alloc_conflict_share = 0.0;  ///< Of non-GIL conflict sites.
  u64 pause_max = 0;
  u64 sweep_quanta = 0;
  u64 arena_refills = 0;
  u64 minor_collections = 0;
  u64 nursery_promoted = 0;
  u64 nursery_freed = 0;
  u64 mark_quanta = 0;
  u64 arena_steals = 0;
};

// Allocation-machinery regions (arena* + free-list-head + malloc-class-heads).
// nursery-t<N> lines are young *object data* — app conflicts, not allocator
// contention — so they stay out of the numerator; arena-steal is stash
// machinery and stays in.
bool alloc_region(const std::string& region) {
  return region == "free-list-head" || region == "malloc-class-heads" ||
         region == "arena-pool" || region == "arena" ||
         region == "arena-steal" || region.rfind("arena-t", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool quick = flags.get_bool("quick", false);
  const bool regions = flags.get_bool("regions", false);
  const auto scale =
      static_cast<unsigned>(flags.get_int("scale", quick ? 2 : 4));
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 4));
  const std::string workload = flags.get("workload", "BT");
  const std::string json_path = flags.get("json", "");
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  const fault::FaultConfig fault_cfg = parse_fault_flags(flags);
  const stm::StmConfig stm_cfg = parse_stm_flags(flags);
  // --gc-* overrides apply on top of each variant's feature selection
  // (segment sizes, adaptation windows, sweep quantum).
  vm::HeapConfig gc_overrides;
  parse_gc_flags(flags, gc_overrides);
  // Every variant mutates the heap beyond what a record header carries, so
  // this harness takes --record-* (strict CLI) but never records.
  const RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::zec12();
  const auto& w = workloads::npb(workload);
  std::cout << "== GC scaling: NPB " << workload << " @" << threads
            << " threads, scale " << scale
            << ", HTM-16, zEC12, GC-pressured heap ==\n";

  auto pressured = [&](runtime::EngineConfig cfg) {
    cfg.heap.initial_slots = 90'000;  // force several GCs
    cfg.heap.arena_min_segment = gc_overrides.arena_min_segment;
    cfg.heap.arena_max_segment = gc_overrides.arena_max_segment;
    cfg.heap.arena_hot_refill_cycles = gc_overrides.arena_hot_refill_cycles;
    cfg.heap.arena_idle_cycles = gc_overrides.arena_idle_cycles;
    cfg.heap.sweep_quantum_blocks = gc_overrides.sweep_quantum_blocks;
    cfg.heap.nursery_slots = gc_overrides.nursery_slots;
    return cfg;
  };

  const auto base = workloads::run_workload(
      pressured(make_config(profile, {"GIL", 0}, fault_cfg, stm_cfg)), w, 1, scale);

  const Variant variants[] = {
      {"global-list", false, 0, false},
      {"bulk-refill", true, 0, false},
      {"linemate-deal", true, threads, false},
      {"arenas", true, threads, true},
      {"nursery", true, threads, true, true, 0, false},
      {"nursery-mark", true, threads, true, true, 1024, true},
  };

  std::vector<Row> rows;
  TablePrinter table({"variant", "sweep", "speedup_vs_1t_gil",
                      "conflict_aborts", "gc_count", "minor_gcs",
                      "alloc_conflict_share", "pause_max", "sweep_quanta"});
  for (const Variant& v : variants) {
    for (bool lazy : {false, true}) {
      auto cfg = pressured(make_config(profile, {"HTM-16", 16}, fault_cfg, stm_cfg));
      cfg.heap.thread_local_free_lists = v.local_lists;
      cfg.heap.sweep_deal_threads = v.deal_threads;
      cfg.heap.per_thread_arenas = v.arenas;
      cfg.heap.lazy_sweep = lazy;
      cfg.heap.nursery = v.nursery;
      cfg.heap.mark_quantum = v.mark_quantum;
      cfg.heap.arena_steal = v.steal;
      observe(cfg, sink,
              {{"figure", "gc_scaling"},
               {"machine", profile.machine.name},
               {"workload", workload},
               {"threads", std::to_string(threads)},
               {"config", std::string(v.name) + (lazy ? "/lazy" : "/eager")}});
      runtime::Engine engine(std::move(cfg));
      engine.load_program(workloads::sources_for(w, threads, scale));
      engine.htm()->set_collect_conflicts(true);
      const auto stats = engine.run();
      GILFREE_CHECK_MSG(stats.results.count("elapsed_us") == 1,
                        w.name << " did not record elapsed_us");

      std::map<std::string, u64> by_region;
      u64 total_sites = 0;
      for (const auto& [line, n] : engine.htm()->conflict_lines()) {
        const std::string region = engine.heap().describe_line(
            line, engine.config().profile.htm.line_bytes);
        if (region == "gil-word") continue;  // the GIL itself, not allocator
        by_region[region] += n;
        total_sites += n;
      }
      u64 alloc_sites = 0;
      for (const auto& [region, n] : by_region)
        if (alloc_region(region)) alloc_sites += n;
      if (regions) {
        std::cout << "-- " << v.name << (lazy ? "/lazy" : "/eager")
                  << " conflict sites --\n";
        for (const auto& [region, n] : by_region)
          std::cout << "  " << region << ": " << n << "\n";
      }

      Row r;
      r.variant = v.name;
      r.sweep = lazy ? "lazy" : "eager";
      r.speedup = base.elapsed_us / stats.results.at("elapsed_us");
      r.conflict_aborts = stats.htm.aborts_by_reason[static_cast<int>(
          htm::AbortReason::kConflict)];
      r.collections = stats.gc.collections;
      r.alloc_conflict_share =
          total_sites == 0 ? 0.0
                           : static_cast<double>(alloc_sites) /
                                 static_cast<double>(total_sites);
      r.pause_max = stats.gc.max_pause;
      r.sweep_quanta = stats.gc.sweep_quanta;
      r.arena_refills = stats.gc.arena_refills;
      r.minor_collections = stats.gc.minor_collections;
      r.nursery_promoted = stats.gc.nursery_promoted;
      r.nursery_freed = stats.gc.nursery_freed;
      r.mark_quanta = stats.gc.mark_quanta;
      r.arena_steals = stats.gc.arena_steals;
      rows.push_back(r);
      table.add_row({r.variant, r.sweep, TablePrinter::num(r.speedup, 2),
                     std::to_string(r.conflict_aborts),
                     std::to_string(r.collections),
                     std::to_string(r.minor_collections),
                     TablePrinter::num(100.0 * r.alloc_conflict_share, 1) + "%",
                     std::to_string(r.pause_max),
                     std::to_string(r.sweep_quanta)});
    }
  }
  emit(table, csv);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\"schema\":\"gilfree.gc_scaling/2\",\"workload\":\"" << workload
        << "\",\"threads\":" << threads << ",\"scale\":" << scale
        << ",\"variants\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i) out << ',';
      out << "{\"variant\":\"" << r.variant << "\",\"sweep\":\"" << r.sweep
          << "\",\"speedup\":" << TablePrinter::num(r.speedup, 4)
          << ",\"conflict_aborts\":" << r.conflict_aborts
          << ",\"collections\":" << r.collections
          << ",\"alloc_conflict_share\":"
          << TablePrinter::num(r.alloc_conflict_share, 4)
          << ",\"pause_max\":" << r.pause_max
          << ",\"sweep_quanta\":" << r.sweep_quanta
          << ",\"arena_refills\":" << r.arena_refills
          << ",\"minor_collections\":" << r.minor_collections
          << ",\"nursery_promoted\":" << r.nursery_promoted
          << ",\"nursery_freed\":" << r.nursery_freed
          << ",\"mark_quanta\":" << r.mark_quanta
          << ",\"arena_steals\":" << r.arena_steals << "}";
    }
    out << "]}\n";
  }
  return 0;
}
