#include "runtime/options.hpp"

#include <stdexcept>
#include <string>

#include "common/cli.hpp"

namespace gilfree::runtime {

namespace {

u32 positive_u32(const CliFlags& flags, const std::string& name, u32 def) {
  const long v = flags.get_int(name, static_cast<long>(def));
  if (v <= 0)
    throw std::invalid_argument("--" + name + " must be positive");
  return static_cast<u32>(v);
}

}  // namespace

void apply_gc_flags(const CliFlags& flags, vm::HeapConfig& heap) {
  heap.per_thread_arenas = flags.get_bool("gc-arena", heap.per_thread_arenas);
  heap.arena_min_segment =
      positive_u32(flags, "gc-arena-min", heap.arena_min_segment);
  heap.arena_max_segment =
      positive_u32(flags, "gc-arena-max", heap.arena_max_segment);
  heap.arena_hot_refill_cycles = static_cast<Cycles>(positive_u32(
      flags, "gc-arena-hot-cycles",
      static_cast<u32>(heap.arena_hot_refill_cycles)));
  heap.arena_idle_cycles = static_cast<Cycles>(positive_u32(
      flags, "gc-arena-idle-cycles", static_cast<u32>(heap.arena_idle_cycles)));
  heap.lazy_sweep = flags.get_bool("gc-lazy-sweep", heap.lazy_sweep);
  heap.sweep_quantum_blocks =
      positive_u32(flags, "gc-sweep-quantum", heap.sweep_quantum_blocks);
  const long deal =
      flags.get_int("gc-sweep-deal", static_cast<long>(heap.sweep_deal_threads));
  if (deal < 0) throw std::invalid_argument("--gc-sweep-deal must be >= 0");
  heap.sweep_deal_threads = static_cast<u32>(deal);

  heap.nursery = flags.get_bool("gc-nursery", heap.nursery);
  heap.nursery_slots =
      positive_u32(flags, "gc-nursery-slots", heap.nursery_slots);
  const long mark_quantum = flags.get_int(
      "gc-mark-quantum", static_cast<long>(heap.mark_quantum));
  if (mark_quantum < 0)
    throw std::invalid_argument("--gc-mark-quantum must be >= 0");
  heap.mark_quantum = static_cast<u32>(mark_quantum);
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
