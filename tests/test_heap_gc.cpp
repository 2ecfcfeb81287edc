// Heap, allocator, and GC unit tests: free-list bulk splice, spill size
// classes, mark & sweep reachability, heap growth, region classification,
// per-thread arena carving/conservation, sweep-deal line invariants, lazy
// incremental sweeping, the generational nursery (promotion, conservation,
// write barrier), incremental marking, stash stealing, zero-page slabs
// (the on-demand initial free list keeps the eager order, construction
// touches almost nothing, overruns fault), and a trace-differential test
// pinning the default configuration to the seed allocator's behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "testutil_programs.hpp"
#include "testutil_rss.hpp"
#include "vm/heap.hpp"
#include "vm/objops.hpp"

namespace gilfree::vm {
namespace {

/// Direct-memory host: no transactions, no cycle accounting.
class DirectHost : public Host {
 public:
  u64 host_load(const u64* p, bool) override { return *p; }
  void host_store(u64* p, u64 v, bool) override { *p = v; }
  void charge(Cycles c) override { charged += c; }
  void require_nontx() override {}
  void full_gc() override {
    ++gc_calls;
    if (heap != nullptr) heap->run_gc(roots);
  }
  void minor_gc() override {
    ++minor_calls;
    if (heap != nullptr) heap->run_minor_gc(*this, roots);
  }
  void collect_gc_roots(GcRootSet& r) override { r = roots; }
  bool in_speculation() override { return speculating; }
  u32 current_tid() override { return tid; }
  Value spawn_thread(Value, std::vector<Value>) override {
    return Value::nil();
  }
  bool thread_finished(u32) override { return true; }
  void write_stdout(std::string_view) override {}
  u64 random_u64() override { return 4; }
  void record_result(std::string_view, double) override {}
  Cycles now_cycles() override { return now; }

  Heap* heap = nullptr;
  Heap::RootSet roots;
  u32 tid = 0;
  u64 gc_calls = 0;
  u64 minor_calls = 0;
  bool speculating = false;
  Cycles charged = 0;
  Cycles now = 0;
};

HeapConfig small_config() {
  HeapConfig c;
  c.initial_slots = 2048;
  c.block_slots = 1024;
  c.max_threads = 4;
  return c;
}

TEST(Heap, AllocatesDistinctAlignedObjects) {
  Heap heap(small_config());
  DirectHost host;
  host.heap = &heap;
  RBasic* a = heap.alloc_rvalue(host, ObjType::kObject, kClassObject);
  RBasic* b = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(a->type(), ObjType::kObject);
  EXPECT_EQ(b->klass(), kClassFloat);
  EXPECT_TRUE(heap.is_heap_object(a));
  EXPECT_FALSE(heap.is_heap_object(&host));
}

TEST(Heap, ThreadLocalRefillSplicesInBulk) {
  auto cfg = small_config();
  cfg.free_list_refill = 16;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const u64 before = *heap.global_free_count();
  (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(*heap.global_free_count(), before - 16);
  EXPECT_EQ(*heap.tcb_slot(0, kTcbFreeListCount), 15u);
  // Next 15 allocations never touch the global list.
  for (int i = 0; i < 15; ++i)
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(*heap.global_free_count(), before - 16);
  EXPECT_EQ(*heap.tcb_slot(0, kTcbFreeListCount), 0u);
}

TEST(Heap, GlobalListModeAllocates) {
  auto cfg = small_config();
  cfg.thread_local_free_lists = false;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const u64 before = *heap.global_free_count();
  (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(*heap.global_free_count(), before - 1);
}

TEST(Heap, SpillSizeClassesRoundUp) {
  auto cfg = small_config();
  cfg.thread_local_malloc = false;  // direct reuse via the global lists
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const u64 tiny = heap.alloc_spill(host, 1);
  EXPECT_GE(Heap::spill_capacity_slots(tiny), 1u);
  const u64 mid = heap.alloc_spill(host, 100);
  EXPECT_GE(Heap::spill_capacity_slots(mid), 100u);
  const u64 big = heap.alloc_spill(host, 40'000);
  EXPECT_GE(Heap::spill_capacity_slots(big), 40'000u);
  // Freed chunks are reused.
  heap.free_spill(host, mid);
  const u64 again = heap.alloc_spill(host, 100);
  EXPECT_EQ(again, mid);
}

TEST(Heap, GcFreesGarbageKeepsReachable) {
  Heap heap(small_config());
  DirectHost host;
  host.heap = &heap;
  const Value kept = heap.new_array(host, 4);
  objops::array_push(host, heap, kept.obj(), heap.new_float(host, 1.5));
  for (int i = 0; i < 100; ++i) (void)heap.new_float(host, i);

  host.roots.values.push_back(kept);
  const u64 free_before = heap.free_objects();
  heap.run_gc(host.roots);
  EXPECT_GT(heap.free_objects(), free_before);
  EXPECT_EQ(heap.gc_stats().last_marked, 2u);  // array + its float
  // The kept structure is intact.
  EXPECT_DOUBLE_EQ(
      objops::value_to_double(host,
                              objops::array_get(host, kept.obj(), 0)),
      1.5);
}

TEST(Heap, GcTracesHashesRangesObjectsAndFreesSpills) {
  Heap heap(small_config());
  DirectHost host;
  host.heap = &heap;
  const Value h = heap.new_hash(host);
  const Value key = heap.new_string(host, "k");
  const Value val = heap.new_float(host, 9.0);
  objops::hash_set(host, heap, h.obj(), key, val);
  const Value r = heap.new_range(host, Value::fixnum(1), val, false);
  const u64 spill_before = heap.spill_slots_allocated();
  (void)heap.new_string(host, "garbage string with its own spill buffer");

  host.roots.values.push_back(h);
  host.roots.values.push_back(r);
  heap.run_gc(host.roots);
  // hash + key string + float + range survive.
  EXPECT_EQ(heap.gc_stats().last_marked, 4u);
  EXPECT_TRUE(objops::value_eq(
      host, objops::hash_get(host, h.obj(), key), val));
  (void)spill_before;
}

TEST(Heap, ConservativeRangeScanRootsStackSlots) {
  Heap heap(small_config());
  DirectHost host;
  host.heap = &heap;
  const Value f = heap.new_float(host, 3.5);
  u64 fake_stack[4] = {Value::fixnum(1).bits(), f.bits(), 0, 0xdeadbeef};
  host.roots.ranges.emplace_back(fake_stack, 4);
  heap.run_gc(host.roots);
  EXPECT_EQ(heap.gc_stats().last_marked, 1u);
  EXPECT_DOUBLE_EQ(objops::value_to_double(host, f), 3.5);
}

TEST(Heap, GrowsWhenFullAndAllocationSucceeds) {
  auto cfg = small_config();
  cfg.initial_slots = 1024;
  cfg.growth_trigger = 0.3;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  // Keep everything alive so GC must grow the arena.
  const Value arr = heap.new_array(host, 8);
  host.roots.values.push_back(arr);
  const u64 total_before = heap.total_objects();
  for (int i = 0; i < 3000; ++i)
    objops::array_push(host, heap, arr.obj(), heap.new_float(host, i));
  EXPECT_GT(heap.total_objects(), total_before);
  EXPECT_GT(host.gc_calls, 0u);
  EXPECT_DOUBLE_EQ(
      objops::value_to_double(host,
                              objops::array_get(host, arr.obj(), 2999)),
      2999.0);
}

TEST(Heap, DescribeAddressClassifiesRegions) {
  Heap heap(small_config());
  DirectHost host;
  host.heap = &heap;
  EXPECT_EQ(heap.describe_address(heap.gil_word()), "gil-word");
  EXPECT_EQ(heap.describe_address(heap.global_free_head()),
            "free-list-head");
  EXPECT_EQ(heap.describe_address(heap.tcb_slot(1, kTcbYieldCounter)),
            "tcb");
  EXPECT_EQ(heap.describe_address(heap.ic_slot(0, 0)), "inline-caches");
  RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(heap.describe_address(o), "arena");
  const u64 spill = heap.alloc_spill(host, 8);
  EXPECT_EQ(heap.describe_address(spill_ptr(spill)), "spill");
  int local = 0;
  EXPECT_EQ(heap.describe_address(&local), "other");
}

HeapConfig arena_config() {
  HeapConfig c = small_config();
  c.per_thread_arenas = true;
  c.arena_min_segment = 8;
  c.arena_max_segment = 64;
  return c;
}

/// Property: across refills, segment carving, stash activation, GC, and
/// (optionally) lazy sweep quanta, no RVALUE slot is lost or duplicated —
/// after a GC that frees everything, exactly total_objects() allocations
/// succeed without another collection, and they are all distinct.
void check_arena_conservation(bool lazy) {
  HeapConfig cfg = arena_config();
  cfg.lazy_sweep = lazy;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;

  // Touch the allocator from several threads first so segments, stashes,
  // and local lists are in play, then free everything.
  for (int i = 0; i < 600; ++i) {
    host.tid = static_cast<u32>(i) % cfg.max_threads;
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  }
  heap.run_gc(host.roots);  // no roots: everything is garbage

  const u64 total = heap.total_objects();
  if (!lazy) {
    EXPECT_EQ(heap.free_objects(), total);
  }

  host.tid = 0;
  const u64 gc_before = host.gc_calls;
  std::set<const RBasic*> seen;
  for (u64 i = 0; i < total; ++i) {
    RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
    ASSERT_TRUE(heap.is_heap_object(o));
    ASSERT_TRUE(seen.insert(o).second)
        << "slot handed out twice at allocation " << i;
  }
  EXPECT_EQ(host.gc_calls, gc_before)
      << "re-allocating every freed slot must not need another GC";
  EXPECT_EQ(heap.free_objects(), 0u);
  EXPECT_EQ(heap.lazy_blocks_pending(), 0u);
}

TEST(HeapArena, ConservesSlotsAcrossRefillAndGc) {
  check_arena_conservation(/*lazy=*/false);
}

TEST(HeapArena, ConservesSlotsAcrossRefillAndLazySweep) {
  check_arena_conservation(/*lazy=*/true);
}

TEST(HeapArena, SegmentSizeAdaptsToAllocationRate) {
  HeapConfig cfg = arena_config();
  cfg.arena_hot_refill_cycles = 1'000;
  cfg.arena_idle_cycles = 10'000;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;

  EXPECT_EQ(heap.arena_segment_size(0), cfg.arena_min_segment);
  // Back-to-back refills (virtual time frozen): every carve looks hot, so
  // the segment doubles up to the cap.
  for (int i = 0; i < 150; ++i)
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(heap.arena_segment_size(0), cfg.arena_max_segment);
  EXPECT_GE(heap.gc_stats().arena_grows, 3u);

  // An idle gap attenuates the next carve.
  const u64 shrinks_before = heap.gc_stats().arena_shrinks;
  host.now = 1'000'000;
  for (int i = 0; i < static_cast<int>(cfg.arena_max_segment) + 1; ++i)
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_GT(heap.gc_stats().arena_shrinks, shrinks_before);
}

TEST(HeapArena, DescribeAddressClassifiesThreadSegments) {
  Heap heap(arena_config());
  DirectHost host;
  host.heap = &heap;
  EXPECT_EQ(heap.describe_address(heap.arena_pool_head()), "arena-pool");
  host.tid = 2;
  RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(heap.describe_address(o), "arena-t2");
  host.tid = 0;
  RBasic* p = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  EXPECT_EQ(heap.describe_address(p), "arena-t0");
}

/// Walks every dealt free list and asserts no cache line's RVALUEs are
/// split across two threads' lists (the false-sharing caveat the line-mate
/// deal and the line-aligned round-robin fallback both fix).
void check_no_line_split(Heap& heap, u32 deal_threads) {
  std::map<u64, u32> line_to_thread;
  u64 dealt = 0;
  for (u32 t = 0; t < deal_threads; ++t) {
    u64 head = *heap.tcb_slot(t, kTcbFreeListHead);
    while (head != 0) {
      const u64 line = head / 256;  // worst-case (zEC12) line
      auto [it, fresh] = line_to_thread.emplace(line, t);
      ASSERT_TRUE(fresh || it->second == t)
          << "line " << line << " split between threads " << it->second
          << " and " << t;
      ++dealt;
      head = reinterpret_cast<RBasic*>(head)->slots[1];
    }
  }
  EXPECT_GT(dealt, 0u);
}

TEST(HeapSweepDeal, LineMateDealKeepsLineMatesTogether) {
  HeapConfig cfg = small_config();
  cfg.sweep_deal_threads = 3;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  for (int i = 0; i < 900; ++i) {
    host.tid = static_cast<u32>(i / 300);  // three owner phases
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  }
  heap.run_gc(host.roots);
  EXPECT_EQ(*heap.global_free_count(), 0u) << "dealing bypasses the global list";
  check_no_line_split(heap, cfg.sweep_deal_threads);
}

// Lines no thread ever allocated have no owner; the sweep deals them in
// line-aligned round-robin runs, so both threads get some and no line is
// split between them.
TEST(HeapSweepDeal, RoundRobinDealIsLineAligned) {
  HeapConfig cfg = small_config();
  cfg.sweep_deal_threads = 2;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  for (int i = 0; i < 600; ++i)
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  heap.run_gc(host.roots);
  check_no_line_split(heap, cfg.sweep_deal_threads);
  EXPECT_GT(*heap.tcb_slot(1, kTcbFreeListCount), 0u)
      << "unowned lines must be dealt past the owner (thread 0)";
}

TEST(HeapLazySweep, ShrinksPauseAndSweepsOnSlowPaths) {
  auto run = [](bool lazy) {
    HeapConfig cfg = small_config();
    cfg.lazy_sweep = lazy;
    Heap heap(cfg);
    DirectHost host;
    host.heap = &heap;
    for (int i = 0; i < 5000; ++i)
      (void)heap.new_float(host, i);  // garbage; forces collections
    return std::pair<Cycles, GcStats>(heap.gc_stats().max_pause,
                                      heap.gc_stats());
  };
  const auto [eager_pause, eager_stats] = run(false);
  const auto [lazy_pause, lazy_stats] = run(true);
  ASSERT_GT(eager_stats.collections, 0u);
  ASSERT_GT(lazy_stats.collections, 0u);
  EXPECT_LT(lazy_pause, eager_pause)
      << "mark-only stop-the-world must beat mark+sweep";
  EXPECT_GT(lazy_stats.sweep_quanta, 0u);
  EXPECT_GT(lazy_stats.sweep_quantum_cycles, 0u);
  // Both modes account every pause in the histogram.
  EXPECT_EQ(eager_stats.pause_hist.total(), eager_stats.collections);
  EXPECT_EQ(lazy_stats.pause_hist.total(), lazy_stats.collections);
}

// ---------------------------------------------------------------------------
// Generational nursery, incremental marking, and stash stealing
// ---------------------------------------------------------------------------

HeapConfig nursery_config() {
  HeapConfig c = arena_config();
  c.nursery = true;
  c.nursery_slots = 64;
  return c;
}

TEST(HeapNursery, MinorGcPromotesSurvivorsAndRecyclesDead) {
  Heap heap(nursery_config());
  DirectHost host;
  host.heap = &heap;
  const Value kept = heap.new_float(host, 3.5);
  host.roots.values.push_back(kept);
  EXPECT_EQ(heap.describe_address(kept.obj()), "nursery-t0");
  for (int i = 0; i < 80; ++i) (void)heap.new_float(host, i);  // garbage
  ASSERT_GE(host.minor_calls, 1u);
  EXPECT_EQ(host.gc_calls, 0u) << "minor collections must not need a major";
  EXPECT_GE(heap.gc_stats().minor_collections, 1u);
  EXPECT_GE(heap.gc_stats().nursery_promoted, 1u);
  EXPECT_GT(heap.gc_stats().nursery_freed, 0u);
  // Promotion clears the young bit in place: the survivor's address did not
  // move and the slot now classifies as plain arena space.
  EXPECT_EQ(heap.describe_address(kept.obj()), "arena-t0");
  EXPECT_DOUBLE_EQ(objops::value_to_double(host, kept), 3.5);
  // Minor pauses land in the same histogram as major ones.
  EXPECT_EQ(heap.gc_stats().pause_hist.total(),
            heap.gc_stats().minor_collections);
}

/// Property: with the nursery on, minor collections never lose or duplicate
/// an RVALUE slot — after a major GC frees everything, exactly
/// total_objects() rooted allocations succeed, all distinct, without
/// another major collection.
void check_nursery_conservation(bool lazy) {
  HeapConfig cfg = nursery_config();
  cfg.lazy_sweep = lazy;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;

  for (int i = 0; i < 600; ++i) {
    host.tid = static_cast<u32>(i) % cfg.max_threads;
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  }
  heap.run_gc(host.roots);  // no roots: everything is garbage

  const u64 total = heap.total_objects();
  host.tid = 0;
  const u64 gc_before = host.gc_calls;
  std::set<const RBasic*> seen;
  for (u64 i = 0; i < total; ++i) {
    // Root every allocation so the interleaved minor collections promote
    // instead of recycling (recycling would legitimately reuse slots and
    // break the distinctness check).
    const Value v = heap.new_float(host, static_cast<double>(i));
    host.roots.values.push_back(v);
    ASSERT_TRUE(heap.is_heap_object(v.obj()));
    ASSERT_TRUE(seen.insert(v.obj()).second)
        << "slot handed out twice at allocation " << i;
  }
  EXPECT_EQ(host.gc_calls, gc_before)
      << "re-allocating every freed slot must not need a major GC";
  EXPECT_GT(host.minor_calls, 0u);
  EXPECT_EQ(heap.free_objects(), 0u);
  EXPECT_EQ(heap.lazy_blocks_pending(), 0u);
}

TEST(HeapNursery, ConservesSlotsAcrossMinorGcs) {
  check_nursery_conservation(/*lazy=*/false);
}

TEST(HeapNursery, ConservesSlotsAcrossMinorGcsWithLazySweep) {
  check_nursery_conservation(/*lazy=*/true);
}

TEST(HeapNursery, WriteBarrierKeepsOldToYoungEdgeAlive) {
  Heap heap(nursery_config());
  DirectHost host;
  host.heap = &heap;
  const Value arr = heap.new_array(host, 4);
  host.roots.values.push_back(arr);
  for (int i = 0; i < 80; ++i) (void)heap.new_float(host, i);
  ASSERT_GE(host.minor_calls, 1u);
  ASSERT_EQ(heap.describe_address(arr.obj()), "arena-t0") << "not promoted";

  // Store a young float into the now-old array. It is reachable through
  // nothing else, so only the remembered set can carry it across the next
  // minor collection.
  const Value young = heap.new_float(host, 7.5);
  objops::array_set(host, heap, arr.obj(), 0, young);
  const u64 freed_before = heap.gc_stats().nursery_freed;
  const u64 minors_before = heap.gc_stats().minor_collections;
  for (int i = 0; i < 80; ++i) (void)heap.new_float(host, i);  // garbage
  ASSERT_GT(heap.gc_stats().minor_collections, minors_before);
  EXPECT_GT(heap.gc_stats().nursery_freed, freed_before)
      << "the garbage floats must still be recycled";
  EXPECT_EQ(young.obj()->type(), ObjType::kFloat)
      << "old→young edge lost: the child was swept";
  EXPECT_DOUBLE_EQ(
      objops::value_to_double(host, objops::array_get(host, arr.obj(), 0)),
      7.5);
}

TEST(HeapIncrementalMark, BarrierRegreysStoresIntoTracedObjects) {
  HeapConfig cfg = arena_config();
  cfg.mark_quantum = 1;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const Value arr = heap.new_array(host, 4);
  host.roots.values.push_back(arr);

  // Fill past half the heap so a refill slow path starts the epoch, then
  // keep allocating until the grey stack drains (arr is black now).
  int guard = 0;
  while (!(heap.mark_epoch_active() && heap.mark_grey_size() == 0)) {
    (void)heap.new_float(host, guard);
    ASSERT_LT(++guard, 4000) << "mark epoch never started or never drained";
    ASSERT_EQ(host.gc_calls, 0u);
  }
  ASSERT_GT(heap.gc_stats().mark_quanta, 0u);

  // A store into the already-traced array must re-grey the child: the
  // finalize below skips black roots, so without the barrier the child
  // would stay unmarked and the sweep would free it.
  const Value child = heap.new_float(host, 7.5);
  objops::array_set(host, heap, arr.obj(), 0, child);
  EXPECT_GT(heap.mark_grey_size(), 0u);

  heap.run_gc(host.roots);
  EXPECT_FALSE(heap.mark_epoch_active());
  EXPECT_EQ(child.obj()->type(), ObjType::kFloat)
      << "re-greyed child was swept by the finalizing collection";
  EXPECT_DOUBLE_EQ(
      objops::value_to_double(host, objops::array_get(host, arr.obj(), 0)),
      7.5);
}

TEST(HeapArenaSteal, StealsBeforeForcingGcAndIsSeedDeterministic) {
  // Heap base addresses differ between instances, so the determinism
  // comparison uses the per-allocation region labels (which capture the
  // steal points and the post-steal line ownership) plus the steal stats.
  auto run = [](u64 seed) {
    HeapConfig cfg = arena_config();
    cfg.arena_steal = true;
    cfg.steal_seed = seed;
    Heap heap(cfg);
    DirectHost host;
    host.heap = &heap;
    std::vector<std::string> labels;
    // Fragment the pool first: on a fresh heap the pool is two whole-block
    // segments and oversized carves split them without ever stashing. A
    // collection with every 8th object surviving re-pools the heap as many
    // small runs, so subsequent batch carves stash their surplus segments.
    for (int i = 0; i < 1600; ++i) {
      host.tid = static_cast<u32>(i) % cfg.max_threads;
      const Value v = heap.new_float(host, i);
      // Every thread keeps alternating 4-object (one line) runs of its own
      // bump-adjacent objects: the freed runs are exactly line-sized, so
      // the sweep re-pools all of them (none leak to the global fragment
      // list, which would feed the drained thread before the steal path).
      if ((i / static_cast<int>(cfg.max_threads)) % 8 < 4)
        host.roots.values.push_back(v);
    }
    heap.run_gc(host.roots);
    const u64 gc_baseline = host.gc_calls;

    // Spread allocation over every thread until the shared pool is fully
    // carved into per-thread segments (surplus lands in the stashes)...
    int guard = 0;
    while (*heap.arena_pool_head() != 0 && guard < 2100) {
      host.tid = static_cast<u32>(guard) % cfg.max_threads;
      labels.push_back(heap.describe_address(
          heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat)));
      ++guard;
    }
    EXPECT_LT(guard, 2100) << "pool never drained";
    // ...then drain thread 0: once its own stash and bump window run out it
    // must steal from a sibling's stash instead of forcing a collection.
    host.tid = 0;
    bool saw_stolen = false;
    for (int i = 0; i < 400 && !saw_stolen; ++i) {
      labels.push_back(heap.describe_address(
          heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat)));
      saw_stolen = labels.back() == "arena-steal";
    }
    EXPECT_GE(heap.gc_stats().arena_steals, 1u);
    EXPECT_GT(heap.gc_stats().stolen_segments, 0u);
    EXPECT_TRUE(saw_stolen)
        << "allocations from a stolen segment must classify as arena-steal";
    EXPECT_EQ(host.gc_calls, gc_baseline)
        << "stealing must pre-empt the forced GC";
    return std::pair<std::vector<std::string>, u64>(
        labels, heap.gc_stats().stolen_segments);
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.first, b.first)
      << "same seed must give the same victim order and allocation regions";
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Guest-address rebase: describe_line takes guest lines now, and the
// generational labels (nursery-t<N>, arena-steal) must still come out of the
// guest line -> host pointer -> region chain exactly as they do for raw host
// pointers.
// ---------------------------------------------------------------------------

TEST(HeapGuestRebase, NurseryLabelsResolveThroughGuestLines) {
  sim::GuestSpace gs;
  HeapConfig cfg = nursery_config();
  cfg.guest_space = &gs;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const u64 lb = 256;

  // A full line's worth of rooted young objects: bump allocation packs them
  // contiguously, so at least one sits at a line start and its line label
  // reflects the young generation.
  std::vector<Value> kept;
  for (int i = 0; i < 16; ++i) {
    kept.push_back(heap.new_float(host, i));
    host.roots.values.push_back(kept.back());
  }
  bool young_line = false;
  for (const Value& v : kept) {
    ASSERT_EQ(heap.describe_address(v.obj()), "nursery-t0");
    const std::string label = heap.describe_line(gs.line_of(v.obj(), lb), lb);
    EXPECT_TRUE(label == "nursery-t0" || label == "arena-t0") << label;
    if (label == "nursery-t0") young_line = true;
  }
  EXPECT_TRUE(young_line) << "no guest line classified as nursery space";

  // Promotion clears the young bit in place; the same guest lines now
  // classify as plain per-thread arena space.
  for (int i = 0; i < 80; ++i) (void)heap.new_float(host, i);  // garbage
  ASSERT_GE(host.minor_calls, 1u);
  for (const Value& v : kept) {
    ASSERT_EQ(heap.describe_address(v.obj()), "arena-t0");
    EXPECT_EQ(heap.describe_line(gs.line_of(v.obj(), lb), lb), "arena-t0");
  }
}

TEST(HeapGuestRebase, ArenaStealLabelsResolveThroughGuestLines) {
  sim::GuestSpace gs;
  HeapConfig cfg = arena_config();
  cfg.arena_steal = true;
  cfg.guest_space = &gs;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;

  // Same fragmentation + drain recipe as HeapArenaSteal above.
  for (int i = 0; i < 1600; ++i) {
    host.tid = static_cast<u32>(i) % cfg.max_threads;
    const Value v = heap.new_float(host, i);
    if ((i / static_cast<int>(cfg.max_threads)) % 8 < 4)
      host.roots.values.push_back(v);
  }
  heap.run_gc(host.roots);
  int guard = 0;
  while (*heap.arena_pool_head() != 0 && guard < 2100) {
    host.tid = static_cast<u32>(guard) % cfg.max_threads;
    (void)heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
    ++guard;
  }
  ASSERT_LT(guard, 2100) << "pool never drained";
  host.tid = 0;
  const RBasic* stolen = nullptr;
  for (int i = 0; i < 400 && stolen == nullptr; ++i) {
    RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
    if (heap.describe_address(o) == "arena-steal") stolen = o;
  }
  ASSERT_NE(stolen, nullptr) << "drain never hit a stolen segment";

  // Stolen stash segments are line-granular, so the stolen object's whole
  // guest line classifies as steal traffic.
  const u64 lb = 256;
  EXPECT_EQ(heap.describe_line(gs.line_of(stolen, lb), lb), "arena-steal");

  // Unregistered host memory has no guest line at all, so it can never
  // surface as a bogus region label.
  int local = 0;
  EXPECT_THROW(gs.line_of(&local, lb), CheckFailure);
}

// ---------------------------------------------------------------------------
// Differential: with the new allocator features disabled (the default
// configuration), whole-engine simulated traces are byte-identical to the
// seed allocator's explicit configuration, on both HTM profiles × both
// engines (HTM-dynamic and GIL). This pins "flags off == seed path" at the
// level the paper's experiments run at.
// ---------------------------------------------------------------------------

struct TraceRun {
  runtime::RunStats stats;
  std::string trace;
};

TraceRun run_traced(runtime::EngineConfig cfg, const std::string& src) {
  obs::ObsConfig oc;
  // Keyed by test name so concurrent ctest processes can't race on it.
  oc.trace_path =
      ::testing::TempDir() + "heap_gc_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_diff_trace.jsonl";
  TraceRun out;
  {
    obs::Sink sink(oc);
    cfg.heap.initial_slots = 1024;  // tiny heap: force collections
    cfg.heap.block_slots = 1024;
    cfg.obs_sink = &sink;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({src});
    out.stats = engine.run();
    sink.flush();
  }
  std::ifstream f(oc.trace_path);
  std::stringstream buf;
  buf << f.rdbuf();
  out.trace = buf.str();
  std::remove(oc.trace_path.c_str());
  return out;
}

TEST(HeapDifferential, DefaultConfigMatchesSeedAllocatorTraces) {
  // Float arithmetic allocates an RVALUE per iteration, so this coda turns
  // the (mostly tagged-integer) random program into a GC-pressure workload.
  const std::string alloc_coda = R"RUBY(
f = 0.5
j = 0
while j < 4000
  f = f + 1.5
  j = j + 1
end
__record("f", f)
)RUBY";
  u64 seed = 11;
  for (const bool gil_engine : {false, true}) {
    for (const htm::SystemProfile& profile :
         {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
      const std::string src = testutil::random_program(seed++) + alloc_coda;
      auto base = gil_engine ? runtime::EngineConfig::gil(profile)
                             : runtime::EngineConfig::htm_dynamic(profile);
      const std::string label = std::string(profile.machine.name) +
                                (gil_engine ? "/GIL" : "/HTM");

      // Seed allocator, spelled out: no dealing, no arenas, eager sweep,
      // no nursery / incremental marking / stealing.
      auto seed_cfg = base;
      seed_cfg.heap.thread_local_sweep = false;
      seed_cfg.heap.per_thread_arenas = false;
      seed_cfg.heap.lazy_sweep = false;
      seed_cfg.heap.nursery = false;
      seed_cfg.heap.mark_quantum = 0;
      seed_cfg.heap.arena_steal = false;
      const TraceRun expect = run_traced(seed_cfg, src);
      ASSERT_FALSE(expect.trace.empty());
      ASSERT_GT(expect.stats.gc.collections, 0u)
          << "differential must exercise the collector";

      // Default configuration: the new features exist but are off.
      const TraceRun got = run_traced(base, src);
      EXPECT_EQ(got.trace, expect.trace)
          << label << ": default heap config diverged from the seed allocator";
      EXPECT_EQ(got.stats.total_cycles, expect.stats.total_cycles) << label;
      EXPECT_EQ(got.stats.results, expect.stats.results) << label;
    }
  }
}

TEST(Heap, PaddingChangesTcbStride) {
  auto padded_cfg = small_config();
  padded_cfg.padded_thread_structs = true;
  Heap padded(padded_cfg);
  auto packed_cfg = small_config();
  packed_cfg.padded_thread_structs = false;
  Heap packed(packed_cfg);

  const auto dist = [](Heap& h) {
    return reinterpret_cast<std::uintptr_t>(h.tcb_slot(1, 0)) -
           reinterpret_cast<std::uintptr_t>(h.tcb_slot(0, 0));
  };
  EXPECT_GE(dist(padded), 256u) << "padded TCBs get whole zEC12 lines";
  EXPECT_LT(dist(packed), 256u) << "packed TCBs share lines (false sharing)";
}


// --- Zero-page slabs and the on-demand initial free list -------------------

/// A small multi-block heap whose constructor chain spans several link
/// chunks and crosses block boundaries (blocks of 1024, 1024 and 952). A
/// refill one longer than a chunk makes splices meet the unlinked frontier
/// both inside the walk and at its final `rest` read.
HeapConfig lazy_link_config(bool thread_local_lists) {
  HeapConfig c = small_config();
  c.initial_slots = 3000;
  c.thread_local_free_lists = thread_local_lists;
  c.free_list_refill = Heap::kLinkChunk + 1;
  return c;
}

/// The order the eager constructor linked the initial objects in: block
/// descending, then index descending (read from the guest segments).
std::vector<const RBasic*> eager_chain_order(const sim::GuestSpace& gs) {
  std::vector<const RBasic*> order;
  for (u32 i = static_cast<u32>(gs.segment_count()); i-- > 0;) {
    const auto& seg = gs.segment(i);
    if (seg.name.rfind("arena-", 0) != 0) continue;
    const auto* base = reinterpret_cast<const RBasic*>(seg.base);
    for (u64 j = seg.bytes / sizeof(RBasic); j-- > 0;)
      order.push_back(base + j);
  }
  return order;
}

void check_lazy_chain_matches_eager(bool thread_local_lists) {
  sim::GuestSpace gs;
  HeapConfig cfg = lazy_link_config(thread_local_lists);
  cfg.guest_space = &gs;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  const std::vector<const RBasic*> expect = eager_chain_order(gs);
  const u64 total = heap.total_objects();
  ASSERT_EQ(expect.size(), total);
  ASSERT_GT(total, 2u * Heap::kLinkChunk);
  EXPECT_EQ(*heap.global_free_count(), total);

  for (u64 i = 0; i < total; ++i) {
    const RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
    ASSERT_EQ(o, expect[i]) << "allocation " << i << " left the eager order";
    ASSERT_EQ(heap.free_objects(), total - i - 1);
    if (!thread_local_lists) {
      ASSERT_EQ(*heap.global_free_count(), total - i - 1);
    }
  }
  EXPECT_EQ(*heap.global_free_head(), 0u) << "the chain must end at 0";
  EXPECT_EQ(*heap.global_free_count(), 0u);
  EXPECT_EQ(*heap.tcb_slot(0, kTcbFreeListHead), 0u);
  EXPECT_EQ(host.gc_calls, 0u);
}

TEST(HeapLazyLinks, ThreadLocalListsAllocateInEagerOrder) {
  check_lazy_chain_matches_eager(/*thread_local_lists=*/true);
}

TEST(HeapLazyLinks, GlobalListAllocatesInEagerOrder) {
  check_lazy_chain_matches_eager(/*thread_local_lists=*/false);
}

/// A collection in the middle of the on-demand chain: the sweep relinks
/// every free object (linked or not) and no object is handed out twice.
/// Lazy sweeping frees block 0 first, so allocation runs ahead of the old
/// frontier's eager order there: a frontier that survived the collection
/// would link those objects a second time.
void check_gc_mid_chain(bool thread_local_lists, bool lazy_sweep) {
  SCOPED_TRACE(lazy_sweep ? "lazy sweep" : "eager sweep");
  HeapConfig cfg = lazy_link_config(thread_local_lists);
  cfg.lazy_sweep = lazy_sweep;
  Heap heap(cfg);
  DirectHost host;
  host.heap = &heap;
  std::set<const RBasic*> live;
  for (u32 i = 0; i < Heap::kLinkChunk + 200; ++i) {
    const Value v = heap.new_float(host, i);
    if (i % 3 == 0) {
      host.roots.values.push_back(v);
      live.insert(v.obj());
    }
  }
  heap.run_gc(host.roots);
  const u64 total = heap.total_objects();
  if (!lazy_sweep) {
    EXPECT_EQ(heap.free_objects() + live.size(), total);
  }

  const u64 gc_before = host.gc_calls;
  std::set<const RBasic*> seen;
  for (u64 i = 0; i < total - live.size(); ++i) {
    const RBasic* o = heap.alloc_rvalue(host, ObjType::kFloat, kClassFloat);
    ASSERT_EQ(live.count(o), 0u) << "live object handed out at " << i;
    ASSERT_TRUE(seen.insert(o).second) << "object handed out twice at " << i;
  }
  EXPECT_EQ(host.gc_calls, gc_before);
  EXPECT_EQ(heap.free_objects(), 0u);
  EXPECT_EQ(heap.lazy_blocks_pending(), 0u);
}

TEST(HeapLazyLinks, ThreadLocalListsSurviveGcMidChain) {
  for (const bool lazy : {false, true})
    check_gc_mid_chain(/*thread_local_lists=*/true, lazy);
}

TEST(HeapLazyLinks, GlobalListSurvivesGcMidChain) {
  for (const bool lazy : {false, true})
    check_gc_mid_chain(/*thread_local_lists=*/false, lazy);
}

TEST(HeapZeroPages, ConstructionTouchesAlmostNothing) {
  const HeapConfig cfg;  // the pre-sized 1M-slot default
  // What the eager constructor zeroed: the arena plus the first spill block.
  const u64 eager = u64{cfg.initial_slots} * sizeof(RBasic) + (32ull << 20);
  const u64 before = testutil::resident_bytes();
  ASSERT_GT(before, 0u) << "/proc/self/statm unreadable";
  auto heap = std::make_unique<Heap>(cfg);
  const u64 grown = testutil::resident_bytes() - before;
  EXPECT_LT(grown, eager / 16) << "constructing a heap must not touch it";

  // Allocating touches pages on demand; destroying the heap unmaps them.
  DirectHost host;
  host.heap = heap.get();
  constexpr u32 kTouched = 200'000;  // 12.8 MB of RVALUEs
  for (u32 i = 0; i < kTouched; ++i)
    (void)heap->alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  const u64 used = testutil::resident_bytes();
  EXPECT_GT(used - before, u64{kTouched} * sizeof(RBasic) / 2);
  heap.reset();
  const auto left = static_cast<i64>(testutil::resident_bytes()) -
                    static_cast<i64>(before);
  EXPECT_LT(left, static_cast<i64>(eager / 16))
      << "destroying a heap must return its pages";
}

TEST(HeapZeroPagesDeathTest, SlabOverrunFaults) {
  sim::GuestSpace gs;
  HeapConfig cfg = small_config();
  cfg.guest_space = &gs;
  Heap heap(cfg);
  const auto past_end = [&](const std::string& name) {
    for (u32 i = 0; i < gs.segment_count(); ++i) {
      const auto& seg = gs.segment(i);
      if (seg.name == name)
        return reinterpret_cast<volatile u64*>(
            const_cast<std::byte*>(seg.base + seg.bytes));
    }
    ADD_FAILURE() << "no segment " << name;
    return static_cast<volatile u64*>(nullptr);
  };
  volatile u64* spill_end = past_end("spill-0");
  volatile u64* arena_end = past_end("arena-1");
  EXPECT_DEATH(*spill_end = 1, "") << "one slot past a spill block";
  EXPECT_DEATH(*arena_end = 1, "") << "one slot past an arena block";
}

}  // namespace
}  // namespace gilfree::vm
