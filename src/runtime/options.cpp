#include "runtime/options.hpp"

#include <stdexcept>
#include <string>

#include "common/cli.hpp"

namespace gilfree::runtime {

void apply_gc_flags(const CliFlags& flags, vm::HeapConfig& heap) {
  heap.per_thread_arenas = flags.get_bool("gc-arena", heap.per_thread_arenas);
  heap.arena_min_segment =
      flags.get_u32("gc-arena-min", heap.arena_min_segment);
  heap.arena_max_segment =
      flags.get_u32("gc-arena-max", heap.arena_max_segment);
  heap.arena_hot_refill_cycles = flags.get_u32(
      "gc-arena-hot-cycles", static_cast<u32>(heap.arena_hot_refill_cycles));
  heap.arena_idle_cycles = flags.get_u32(
      "gc-arena-idle-cycles", static_cast<u32>(heap.arena_idle_cycles));
  heap.lazy_sweep = flags.get_bool("gc-lazy-sweep", heap.lazy_sweep);
  heap.sweep_quantum_blocks =
      flags.get_u32("gc-sweep-quantum", heap.sweep_quantum_blocks);
  heap.sweep_deal_threads =
      flags.get_u32("gc-sweep-deal", heap.sweep_deal_threads, 0);

  heap.nursery = flags.get_bool("gc-nursery", heap.nursery);
  heap.nursery_slots = flags.get_u32("gc-nursery-slots", heap.nursery_slots);
  heap.mark_quantum = flags.get_u32("gc-mark-quantum", heap.mark_quantum, 0);
  heap.arena_steal = flags.get_bool("gc-steal", heap.arena_steal);

  // Mirror the Heap constructor's GILFREE_CHECKs as user-facing errors so a
  // bad sweep script fails with a message instead of an assertion.
  if (heap.per_thread_arenas && !heap.thread_local_free_lists)
    throw std::invalid_argument(
        "--gc-arena requires thread-local free lists to be enabled");
  if (heap.nursery && !heap.per_thread_arenas)
    throw std::invalid_argument(
        "--gc-nursery requires --gc-arena (the young space is carved from "
        "the thread's arena)");
  if (heap.nursery && heap.nursery_slots < 64)
    throw std::invalid_argument("--gc-nursery-slots must be >= 64");
  if (heap.arena_steal && !heap.per_thread_arenas)
    throw std::invalid_argument("--gc-steal requires --gc-arena");
  constexpr u32 kObjsPerLine = 4;  // 256 B line / 64 B RVALUE
  if (heap.arena_min_segment % kObjsPerLine != 0 ||
      heap.arena_max_segment % kObjsPerLine != 0)
    throw std::invalid_argument(
        "--gc-arena-min/--gc-arena-max must be multiples of 4 (one zEC12 "
        "line of RVALUEs)");
  if (heap.arena_max_segment < heap.arena_min_segment)
    throw std::invalid_argument(
        "--gc-arena-max must be >= --gc-arena-min");
  if (heap.arena_idle_cycles <= heap.arena_hot_refill_cycles)
    throw std::invalid_argument(
        "--gc-arena-idle-cycles must exceed --gc-arena-hot-cycles");
}

}  // namespace gilfree::runtime
