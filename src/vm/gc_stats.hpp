// GC / allocator counters of the heap. A standalone header-only vocabulary
// type so runtime::RunStats (and through it the metrics document's `gc`
// block) can carry it without pulling in the heap.
#pragma once

#include "common/types.hpp"
#include "obs/latency_hist.hpp"

namespace gilfree::vm {

struct GcStats {
  u64 collections = 0;
  u64 last_marked = 0;
  u64 last_swept = 0;
  u64 total_marked = 0;
  u64 total_swept = 0;
  u64 grown_blocks = 0;

  // Per-thread-arena extension (zero while the feature is off).
  u64 arena_refills = 0;      ///< Segments carved from the shared pool.
  u64 arena_grows = 0;        ///< Adaptive segment-size doublings.
  u64 arena_shrinks = 0;      ///< Idle attenuations.
  u64 pool_segments = 0;      ///< Free-line runs the sweep turned into pool segments.
  u32 segment_slots_min = 0;  ///< Smallest / largest segment carved so far.
  u32 segment_slots_max = 0;

  // Lazy incremental sweeping (zero while the feature is off).
  u64 sweep_quanta = 0;            ///< Per-block quanta performed on slow paths.
  Cycles sweep_quantum_cycles = 0; ///< Cycles those quanta charged.

  // Generational nursery (zero while the feature is off).
  u64 minor_collections = 0;
  u64 nursery_promoted = 0;        ///< Young survivors promoted in place.
  u64 nursery_freed = 0;           ///< Dead young objects recycled by minor GCs.

  // Incremental marking (zero while the feature is off).
  u64 mark_quanta = 0;             ///< Mark quanta run on slow paths.
  Cycles mark_quantum_cycles = 0;  ///< Cycles those quanta charged.

  // Cross-thread stash stealing (zero while the feature is off).
  u64 arena_steals = 0;            ///< Successful steals (early GCs averted).
  u64 stolen_segments = 0;         ///< Segments moved between stash chains.

  // Stop-the-world pause per collection (mark+sweep when eager, mark only
  // when lazy). The histogram feeds the metrics document's percentiles.
  Cycles last_pause = 0;
  Cycles max_pause = 0;
  obs::LatencyHistogram pause_hist;

  bool operator==(const GcStats&) const = default;
  /// Cross-run merge: counters add, extrema combine, histograms add. The
  /// last_* fields describe one collection of one run and are left alone.
  void merge(const GcStats& o) {
    collections += o.collections;
    total_marked += o.total_marked;
    total_swept += o.total_swept;
    grown_blocks += o.grown_blocks;
    arena_grows += o.arena_grows;
    arena_shrinks += o.arena_shrinks;
    pool_segments += o.pool_segments;
    if (o.arena_refills > 0) {
      if (arena_refills == 0 || o.segment_slots_min < segment_slots_min)
        segment_slots_min = o.segment_slots_min;
      if (o.segment_slots_max > segment_slots_max)
        segment_slots_max = o.segment_slots_max;
    }
    arena_refills += o.arena_refills;
    sweep_quanta += o.sweep_quanta;
    sweep_quantum_cycles += o.sweep_quantum_cycles;
    minor_collections += o.minor_collections;
    nursery_promoted += o.nursery_promoted;
    nursery_freed += o.nursery_freed;
    mark_quanta += o.mark_quanta;
    mark_quantum_cycles += o.mark_quantum_cycles;
    arena_steals += o.arena_steals;
    stolen_segments += o.stolen_segments;
    if (o.max_pause > max_pause) max_pause = o.max_pause;
    pause_hist.merge(o.pause_hist);
  }
};

}  // namespace gilfree::vm
