#include "vm/heap.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/check.hpp"

namespace gilfree::vm {

namespace {

constexpr u64 kLineAlign = 256;  ///< Worst-case line size (zEC12).

u64* align_up(u64* p, u64 bytes) {
  auto v = reinterpret_cast<std::uintptr_t>(p);
  v = (v + bytes - 1) & ~(bytes - 1);
  return reinterpret_cast<u64*>(v);
}

/// Slots per spill block (32 MB); larger only for an oversized request.
constexpr u64 kSpillBlockSlots = 4ull << 20;

// Zero-page slabs rely on an all-zero RVALUE being a free object.
static_assert(static_cast<u64>(ObjType::kFree) == 0);

/// Slots per thread for the core TCB region when padded (one zEC12 line).
constexpr u32 kPaddedTcbStride = 32;
/// When unpadded, TCBs are packed back to back (4 per zEC12 line).
constexpr u32 kUnpaddedTcbStride = 8;
/// The malloc-cache region is always padded (2 zEC12 lines per thread).
constexpr u32 kMallocRegionStride = 64;

/// Spill chunk: [header][payload...]; total slots = 4 << size_class.
constexpr u32 kSpillHeaderSlots = 1;
constexpr u64 kSpillMagic = 0x5b1ll << 40;

/// RVALUEs per worst-case cache line (zEC12: 256 B / 64 B objects).
constexpr u32 kObjsPerLine = kLineAlign / sizeof(RBasic);

/// Sentinel for "this thread never carved a segment" (adaptation skips its
/// first refill: there is no previous refill to measure a gap against).
constexpr Cycles kNeverRefilled = ~0ull;

}  // namespace

Heap::Heap(const HeapConfig& config) : config_(config) {
  GILFREE_CHECK(config_.block_slots >= 1024);
  GILFREE_CHECK(config_.max_threads >= 1);
  GILFREE_CHECK(config_.sweep_quantum_blocks >= 1);
  if (config_.per_thread_arenas) {
    GILFREE_CHECK_MSG(config_.thread_local_free_lists,
                      "per_thread_arenas requires thread_local_free_lists "
                      "(sweep fragments travel via the local lists)");
    GILFREE_CHECK(config_.arena_min_segment >= kObjsPerLine &&
                  config_.arena_min_segment % kObjsPerLine == 0);
    GILFREE_CHECK(config_.arena_max_segment >= config_.arena_min_segment &&
                  config_.arena_max_segment % kObjsPerLine == 0);
  }
  if (config_.nursery) {
    GILFREE_CHECK_MSG(config_.per_thread_arenas,
                      "nursery requires per_thread_arenas (the young space "
                      "is carved from the thread's arena)");
    GILFREE_CHECK(config_.nursery_slots >= 64);
  }
  if (config_.arena_steal)
    GILFREE_CHECK_MSG(config_.per_thread_arenas,
                      "arena_steal requires per_thread_arenas");
  barrier_on_ = config_.nursery || config_.mark_quantum > 0;
  track_line_owners_ =
      config_.per_thread_arenas ||
      (config_.thread_local_sweep && config_.sweep_deal_threads > 0);
  arena_seg_size_.assign(config_.max_threads, config_.arena_min_segment);
  arena_last_refill_.assign(config_.max_threads, kNeverRefilled);
  if (config_.arena_steal) {
    // Seeded Fisher-Yates permutation over the thread ids: the victim probe
    // order is deterministic for a given seed, so steals (and the traces
    // they produce) replay byte-identically.
    steal_order_.resize(config_.max_threads);
    for (u32 i = 0; i < config_.max_threads; ++i) steal_order_[i] = i;
    u64 s = config_.steal_seed * 0x9e3779b97f4a7c15ull + 0xda3e39cb94b95bdbull;
    for (u32 i = config_.max_threads - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(steal_order_[i], steal_order_[(s >> 33) % (i + 1)]);
    }
  }

  // ---- control storage layout ----
  const u32 tcb_core_stride =
      config_.padded_thread_structs ? kPaddedTcbStride : kUnpaddedTcbStride;
  const u64 head_lines_slots = 32 * 8;  // 8 dedicated lines of 32 slots
  const u64 tcb_core_slots = u64{config_.max_threads} * tcb_core_stride;
  const u64 tcb_malloc_slots = u64{config_.max_threads} * kMallocRegionStride;
  const u64 total =
      head_lines_slots + tcb_core_slots + kMallocRegionStride /*align gaps*/ +
      tcb_malloc_slots + config_.global_table_slots * 2 +
      config_.ic_table_slots + 64;

  control_storage_ = ZeroPages<u64>(total);
  u64* p = control_storage_.get();
  if (config_.guest_space != nullptr)
    config_.guest_space->add_segment("heap-control", p, total * 8);

  // Dedicated lines: GIL word, global free head/count, current-thread
  // global, spill class heads (one line each so they never false-share).
  gil_word_ = p;                    // line 0
  global_free_head_ = p + 32;      // line 1
  global_free_count_ = p + 33;     // (same line as head: both touched
                                    //  together during refill, like CRuby)
  current_thread_global_ = p + 64;  // line 2
  spill_class_heads_ = p + 96;      // lines 3-4 (18 classes, packed — the
                                    // shared-malloc contention point)
  arena_pool_head_ = p + 160;       // line 5
  arena_pool_count_ = p + 161;      // (same line: touched together per carve)
  u64* cursor = p + head_lines_slots;

  tcb_base_ = cursor;
  tcb_stride_ = tcb_core_stride;
  cursor += tcb_core_slots;
  cursor = align_up(cursor, kLineAlign);
  // Malloc-cache region referenced through tcb_slot() with field >= 8.
  tcb_malloc_base_ = cursor;
  cursor += tcb_malloc_slots;
  cursor = align_up(cursor, kLineAlign);
  global_vars_ = cursor;
  cursor += config_.global_table_slots;
  constants_ = cursor;
  cursor += config_.global_table_slots;
  cursor = align_up(cursor, kLineAlign);
  ic_base_ = cursor;

  // ---- arena ----
  // Per-thread arenas publish a block with a few stores. The list modes'
  // per-object chain is linked on demand instead: the head, the count and
  // the frontier say everything the eager walk would have written.
  u32 remaining = config_.initial_slots;
  while (remaining > 0) {
    const u32 n = std::min(remaining, config_.block_slots);
    if (config_.per_thread_arenas) {
      add_arena_block(n);
    } else {
      virgin_top_ = &map_arena_block(n).base[n - 1];
      virgin_block_ = static_cast<u32>(blocks_.size() - 1);
      virgin_index_ = n - 1;
    }
    remaining -= n;
  }
  if (virgin_top_ != nullptr) {
    *global_free_head_ = reinterpret_cast<u64>(virgin_top_);
    *global_free_count_ = total_objects_;
  }

  // ---- spill region ----
  spill_blocks_.emplace_back(kSpillBlockSlots);
  spill_bump_ = spill_blocks_.back().get();
  spill_end_ = spill_bump_ + kSpillBlockSlots;
  if (config_.guest_space != nullptr)
    config_.guest_space->add_segment("spill-0", spill_bump_,
                                     kSpillBlockSlots * 8);
}

Heap::~Heap() = default;

Heap::ArenaBlock& Heap::map_arena_block(u32 rvalues) {
  ArenaBlock block;
  // Zero pages: every header already reads kFree (0), and the page-aligned
  // base makes which RVALUEs share a cache line depend on arena offsets
  // only, never on where the block was mapped.
  block.storage = ZeroPages<RBasic>(rvalues);
  block.base = block.storage.get();
  block.count = rvalues;
  block.mark.assign(rvalues, false);
  if (config_.guest_space != nullptr) {
    // Blocks are added at construction and at deterministic GC growth
    // points, so the block index is a stable guest segment number.
    config_.guest_space->add_segment("arena-" + std::to_string(blocks_.size()),
                                     block.base,
                                     u64{rvalues} * sizeof(RBasic));
  }
  if (track_line_owners_)
    block.line_owner.assign((rvalues + kObjsPerLine - 1) / kObjsPerLine, -1);
  total_objects_ += rvalues;
  owner_block_cache_ = nullptr;  // blocks_ may reallocate below
  blocks_.push_back(std::move(block));
  ++gc_stats_.grown_blocks;
  return blocks_.back();
}

void Heap::add_arena_block(u32 rvalues) {
  RBasic* base = map_arena_block(rvalues).base;
  // Publish the fresh objects (direct stores: the arena is grown at
  // construction time or under the GIL during GC).
  if (config_.per_thread_arenas) {
    // The whole line-aligned portion of the block becomes one pool segment
    // (three stores) instead of a per-object chain.
    const u32 seg = rvalues & ~(kObjsPerLine - 1);
    if (seg > 0) {
      base->slots[1] = *arena_pool_head_;
      base->slots[2] = seg;
      *arena_pool_head_ = reinterpret_cast<u64>(base);
      *arena_pool_count_ += seg;
      ++gc_stats_.pool_segments;
    }
    for (u32 i = seg; i < rvalues; ++i) {  // partial tail line, if any
      base[i].slots[1] = *global_free_head_;
      *global_free_head_ = reinterpret_cast<u64>(&base[i]);
      ++*global_free_count_;
    }
  } else {
    // Link every RVALUE into the global free list.
    for (u32 i = 0; i < rvalues; ++i) {
      base[i].slots[1] = *global_free_head_;
      *global_free_head_ = reinterpret_cast<u64>(&base[i]);
    }
    *global_free_count_ += rvalues;
  }
}

void Heap::link_virgin_chunk() {
  // Store the eager constructor's links for the next kLinkChunk objects of
  // its chain, walking down a block and on into the one below it. Block 0
  // object 0 ends the chain; its zero-page link already reads 0.
  for (u32 n = 0; n < kLinkChunk && virgin_top_ != nullptr; ++n) {
    if (virgin_index_ == 0) {
      if (virgin_block_ == 0) {
        virgin_top_ = nullptr;
        break;
      }
      virgin_index_ = blocks_[--virgin_block_].count;
    }
    RBasic* next = &blocks_[virgin_block_].base[--virgin_index_];
    virgin_top_->slots[1] = reinterpret_cast<u64>(next);
    virgin_top_ = next;
  }
}

// ---------------------------------------------------------------------------
// RVALUE allocation
// ---------------------------------------------------------------------------

RBasic* Heap::alloc_rvalue(Host& host, ObjType type, ClassId klass) {
  GILFREE_CHECK(!in_gc_);
  // Fine-grained-locking engines (the JRuby comparator) synchronize the
  // allocation path itself; a no-op under the GIL and under HTM, where
  // conflicts provide the atomicity.
  host.internal_allocator_lock(30);
  const u32 tid = host.current_tid();
  // Minor-GC trigger sits before the object is carved, so a collection here
  // sees exactly the same roots a full GC at this point would (the object
  // being allocated does not exist yet).
  if (config_.nursery) maybe_minor_gc(host);
  RBasic* obj = nullptr;

  if (config_.per_thread_arenas) {
    u64* bump_slot = tcb_slot(tid, kTcbArenaBump);
    u64* limit_slot = tcb_slot(tid, kTcbArenaLimit);
    u64* head_slot = tcb_slot(tid, kTcbFreeListHead);
    u64* count_slot = tcb_slot(tid, kTcbFreeListCount);
    for (int round = 0; obj == nullptr; ++round) {
      GILFREE_CHECK(round < 4);
      const u64 bump = host.mem_load(bump_slot, true);
      if (bump != 0 && bump < host.mem_load(limit_slot, true)) {
        // Fast path: bump within the thread's private segment — two loads
        // and one store, all on the thread's own TCB line.
        host.mem_store(bump_slot, bump + sizeof(RBasic), true);
        obj = reinterpret_cast<RBasic*>(bump);
        break;
      }
      if (activate_stashed_segment(host, tid)) continue;
      // Sweep fragments (partial lines) arrive on the local free list.
      const u64 head = host.mem_load(head_slot, true);
      if (head != 0) {
        obj = reinterpret_cast<RBasic*>(head);
        const u64 next = host.mem_load(&obj->slots[1], true);
        host.mem_store(head_slot, next, true);
        host.mem_store(count_slot, host.mem_load(count_slot, true) - 1, true);
        break;
      }
      refill_thread_arena(host, tid);
    }
  } else if (config_.thread_local_free_lists) {
    u64* head_slot = tcb_slot(tid, kTcbFreeListHead);
    u64* count_slot = tcb_slot(tid, kTcbFreeListCount);
    u64 head = host.mem_load(head_slot, /*shared=*/true);
    if (head == 0) {
      refill_thread_free_list(host, tid);
      head = host.mem_load(head_slot, true);
      GILFREE_CHECK(head != 0);
    }
    obj = reinterpret_cast<RBasic*>(head);
    const u64 next = host.mem_load(&obj->slots[1], true);
    host.mem_store(head_slot, next, true);
    host.mem_store(count_slot, host.mem_load(count_slot, true) - 1, true);
  } else {
    // Single global free list — CRuby's original allocator (§4.4 second
    // conflict source: every allocation hits the same line).
    u64 head = host.mem_load(global_free_head_, true);
    if (head == 0) {
      if (lazy_sweep_until(host, global_free_head_))
        head = host.mem_load(global_free_head_, true);
      if (head == 0) {
        collect_for_allocation(host);
        (void)lazy_sweep_until(host, global_free_head_);
        head = host.mem_load(global_free_head_, true);
      }
      GILFREE_CHECK(head != 0);
    }
    obj = reinterpret_cast<RBasic*>(head);
    const u64 next = load_free_next(host, head);
    host.mem_store(global_free_head_, next, true);
    host.mem_store(global_free_count_,
                   host.mem_load(global_free_count_, true) - 1, true);
  }

  if (track_line_owners_) note_line_owner(obj, tid);
  u64 hdr = RBasic::make_header(type, klass);
  if (config_.nursery) {
    // Young tagging folds into the header store the allocation already
    // pays; the C++-side push is a hint re-checked against the header bit
    // (a transaction abort rolls the bit back but not the push).
    hdr |= kHdrYoung;
    young_.push_back(obj);
    ++young_since_minor_;
  }
  host.mem_store(&obj->slots[0], hdr, true);
  host.charge(8);  // allocation bookkeeping beyond the memory traffic
  return obj;
}

bool Heap::splice_global_to_local(Host& host, u32 tid) {
  u64* head_slot = tcb_slot(tid, kTcbFreeListHead);
  u64* count_slot = tcb_slot(tid, kTcbFreeListCount);
  // Splice up to `free_list_refill` objects in bulk from the global list
  // (§4.4: 256 objects per refill): walk the chain *reading* next pointers,
  // then cut it with three stores. Keeping the write set tiny matters — a
  // per-node rewrite would overflow the 8 KB store cache inside a
  // transaction. The chain walk's read footprint is the residual
  // allocation conflict of §5.6.
  const u64 ghead = host.mem_load(global_free_head_, true);
  if (ghead == 0) return false;
  u64 tail = ghead;
  u64 moved = 1;
  while (moved < config_.free_list_refill) {
    const u64 next = load_free_next(host, tail);
    if (next == 0) break;
    tail = next;
    ++moved;
  }
  const u64 rest = load_free_next(host, tail);
  host.mem_store(global_free_head_, rest, true);
  host.mem_store(global_free_count_,
                 host.mem_load(global_free_count_, true) - moved, true);
  // Append the old local list (usually empty) behind the spliced chain.
  const u64 local_head = host.mem_load(head_slot, true);
  host.mem_store(&reinterpret_cast<RBasic*>(tail)->slots[1], local_head,
                 true);
  host.mem_store(head_slot, ghead, true);
  host.mem_store(count_slot, host.mem_load(count_slot, true) + moved, true);
  return true;
}

void Heap::refill_thread_free_list(Host& host, u32 tid) {
  host.internal_allocator_lock(60 + 3 * config_.free_list_refill);
  if (config_.mark_quantum > 0) maybe_mark_quantum(host);
  u64* head_slot = tcb_slot(tid, kTcbFreeListHead);
  if (splice_global_to_local(host, tid)) return;
  // Lazy sweeping: pending quanta may replenish the global list (or deal
  // straight onto this thread's list) without a collection; no-op while
  // the feature is off.
  if (lazy_sweep_until(host, global_free_head_)) {
    if (host.mem_load(head_slot, true) != 0) return;
    if (splice_global_to_local(host, tid)) return;
  }
  // With sweep dealing on, "my list is dry but siblings are flush" is the
  // common case for a thread outside the deal-target set (or one the deal
  // skewed against). Rebalance from the fullest sibling list *before*
  // forcing a collection — collecting here both pays a full stop-the-world
  // pause and (once the heap has grown to cover the skew) makes every
  // later mark phase walk the larger heap, which is exactly the eager-deal
  // pause regression BENCH_gc.json used to show. We hold the GIL here.
  if (rebalance_dealt_lists(host, tid)) return;
  collect_for_allocation(host);
  // With the thread-local-sweep extension, the collector may have dealt
  // objects straight onto this thread's list.
  if (host.mem_load(head_slot, true) != 0) return;
  if (lazy_blocks_pending_ > 0) {
    host.require_nontx();
    while (lazy_blocks_pending_ > 0) {
      host.charge(sweep_quantum(host));
      if (host.mem_load(head_slot, true) != 0) return;
      if (host.mem_load(global_free_head_, true) != 0) break;
    }
  }
  if (splice_global_to_local(host, tid)) return;
  if (rebalance_dealt_lists(host, tid)) return;
  // Everything went to other threads' lists: grow (we hold the GIL).
  add_arena_block(config_.block_slots);
  GILFREE_CHECK(splice_global_to_local(host, tid));
}

bool Heap::rebalance_dealt_lists(Host& host, u32 tid) {
  if (!(config_.thread_local_sweep && config_.thread_local_free_lists &&
        config_.sweep_deal_threads > 0))
    return false;
  // Pick the fullest dealt-to list (need at least 2 objects to split).
  u32 victim = config_.max_threads;
  u64 best = 1;
  for (u32 t = 0; t < config_.sweep_deal_threads && t < config_.max_threads;
       ++t) {
    if (t == tid) continue;
    const u64 n = host.mem_load(tcb_slot(t, kTcbFreeListCount), true);
    if (n > best) {
      best = n;
      victim = t;
    }
  }
  if (victim == config_.max_threads) return false;
  const u64 take = best - best / 2;
  // Walk to the split point reading next pointers, then cut with three
  // stores — same tiny-write-set discipline as splice_global_to_local.
  u64* vhead = tcb_slot(victim, kTcbFreeListHead);
  u64* vcount = tcb_slot(victim, kTcbFreeListCount);
  const u64 head = host.mem_load(vhead, true);
  u64 tail = head;
  for (u64 moved = 1; moved < take; ++moved)
    tail = host.mem_load(&reinterpret_cast<RBasic*>(tail)->slots[1], true);
  const u64 rest =
      host.mem_load(&reinterpret_cast<RBasic*>(tail)->slots[1], true);
  host.mem_store(vhead, rest, true);
  host.mem_store(vcount, best - take, true);
  u64* thead = tcb_slot(tid, kTcbFreeListHead);
  u64* tcount = tcb_slot(tid, kTcbFreeListCount);
  host.mem_store(&reinterpret_cast<RBasic*>(tail)->slots[1],
                 host.mem_load(thead, true), true);
  host.mem_store(thead, head, true);
  host.mem_store(tcount, host.mem_load(tcount, true) + take, true);
  return true;
}

void Heap::refill_thread_arena(Host& host, u32 tid) {
  host.internal_allocator_lock(40);
  if (config_.mark_quantum > 0) maybe_mark_quantum(host);
  for (int attempt = 0;; ++attempt) {
    GILFREE_CHECK_MSG(attempt < 8, "arena refill made no progress");
    if (carve_segment(host, tid)) return;
    if (lazy_blocks_pending_ > 0) {
      // Replenish the pool by sweeping pending blocks; quanta run outside
      // any transaction and charge their cost incrementally.
      host.require_nontx();
      u64* head_slot = tcb_slot(tid, kTcbFreeListHead);
      while (lazy_blocks_pending_ > 0) {
        host.charge(sweep_quantum(host));
        if (host.mem_load(arena_pool_head_, true) != 0) break;
        if (host.mem_load(head_slot, true) != 0) return;  // fragments arrived
      }
      continue;
    }
    // Residual fragments on the global list (when dealing is off): splice
    // them onto the local list via the §4.4(b) path.
    if (splice_global_to_local(host, tid)) return;
    // Pool + stash dry: steal half of a victim's stash chain before forcing
    // an early collection (skewed allocation otherwise lets one hoarding
    // thread trigger GC after GC while segments idle in its stash).
    if (config_.arena_steal && attempt == 0 && steal_stash(host, tid)) return;
    if (attempt == 0) {
      collect_for_allocation(host);
      continue;
    }
    // A collection already ran and nothing reached this thread: grow (we
    // hold the GIL); the fresh block arrives as one pool segment.
    add_arena_block(config_.block_slots);
  }
}

bool Heap::activate_stashed_segment(Host& host, u32 tid) {
  // Thread-private: no shared allocator state is touched, so exhausting a
  // bump window costs a handful of private-line operations as long as the
  // stash holds segments.
  u64* stash_slot = tcb_slot(tid, kTcbArenaStash);
  const u64 stashed = host.mem_load(stash_slot, true);
  if (stashed == 0) return false;
  RBasic* s = reinterpret_cast<RBasic*>(stashed);
  host.mem_store(stash_slot, host.mem_load(&s->slots[1], true), true);
  const u64 count = host.mem_load(&s->slots[2], true);
  host.mem_store(tcb_slot(tid, kTcbArenaBump), stashed, true);
  host.mem_store(tcb_slot(tid, kTcbArenaLimit),
                 reinterpret_cast<u64>(s + count), true);
  host.charge(4);
  return true;
}

bool Heap::carve_segment(Host& host, u32 tid) {
  const u64 head = host.mem_load(arena_pool_head_, true);
  if (head == 0) return false;

  // Adapt the segment size to the thread's allocation rate, mirroring the
  // dynamic transaction-length machinery in src/tle: a refill hot on the
  // heels of the previous one doubles the next segment (up to the cap), a
  // refill after an idle gap attenuates it back toward the minimum.
  const Cycles now = host.now_cycles();
  u32& seg = arena_seg_size_[tid];
  Cycles& last = arena_last_refill_[tid];
  if (last != kNeverRefilled) {
    const Cycles gap = now - last;
    if (gap < config_.arena_hot_refill_cycles) {
      if (seg < config_.arena_max_segment) {
        seg = std::min(seg * 2, config_.arena_max_segment);
        ++gc_stats_.arena_grows;
      }
    } else if (gap > config_.arena_idle_cycles &&
               seg > config_.arena_min_segment) {
      seg = std::max(seg / 2, config_.arena_min_segment);
      ++gc_stats_.arena_shrinks;
    }
  }
  last = now;

  // Take a whole *batch* of segments covering the adaptive target `seg` in
  // one pool-head cut. After a GC the pool is fragmented into many small
  // free runs; carving them one at a time would put the shared pool line in
  // a transaction's write set every few allocations and make it the hottest
  // conflict site in the system. The batch's first segment becomes the
  // active bump window, the rest go onto the thread-private stash.
  u64* bump_slot = tcb_slot(tid, kTcbArenaBump);
  u64* limit_slot = tcb_slot(tid, kTcbArenaLimit);
  RBasic* first = reinterpret_cast<RBasic*>(head);
  const u64 first_count = host.mem_load(&first->slots[2], true);
  u64 take;
  if (first_count > seg) {
    // Oversized head segment (typically a freshly grown block): split it —
    // the remainder (still line-aligned, seg is a multiple of the line
    // size) becomes the new head segment.
    take = seg;
    RBasic* rem = first + take;
    const u64 next = host.mem_load(&first->slots[1], true);
    host.mem_store(&rem->slots[1], next, true);
    host.mem_store(&rem->slots[2], first_count - take, true);
    host.mem_store(arena_pool_head_, reinterpret_cast<u64>(rem), true);
    host.mem_store(bump_slot, head, true);
    host.mem_store(limit_slot, reinterpret_cast<u64>(first + take), true);
    note_line_owner_range(first, take, tid);
  } else {
    take = first_count;
    note_line_owner_range(first, first_count, tid);
    RBasic* last = first;
    u64 cur = host.mem_load(&first->slots[1], true);
    while (cur != 0 && take < seg) {
      RBasic* c = reinterpret_cast<RBasic*>(cur);
      const u64 n = host.mem_load(&c->slots[2], true);
      if (take + n > 2 * u64{seg}) break;  // bound the overshoot
      take += n;
      note_line_owner_range(c, n, tid);
      last = c;
      cur = host.mem_load(&c->slots[1], true);
    }
    // Cut: the pool head advances past the batch, the batch chain becomes
    // thread-private (terminated, first segment active, rest stashed).
    host.mem_store(arena_pool_head_, cur, true);
    host.mem_store(&last->slots[1], 0, true);
    host.mem_store(tcb_slot(tid, kTcbArenaStash),
                   host.mem_load(&first->slots[1], true), true);
    host.mem_store(bump_slot, head, true);
    host.mem_store(limit_slot, reinterpret_cast<u64>(first + first_count),
                   true);
  }
  host.mem_store(arena_pool_count_,
                 host.mem_load(arena_pool_count_, true) - take, true);

  const u32 taken = static_cast<u32>(take);
  if (gc_stats_.arena_refills == 0 || taken < gc_stats_.segment_slots_min)
    gc_stats_.segment_slots_min = taken;
  gc_stats_.segment_slots_max = std::max(gc_stats_.segment_slots_max, taken);
  ++gc_stats_.arena_refills;
  host.charge(20);  // carve bookkeeping beyond the memory traffic
  return true;
}

void Heap::collect_for_allocation(Host& host) {
  // GC must run under the GIL (§4.4): inside a transaction this aborts with
  // a persistent reason and the retry re-reaches this point GIL-held.
  host.require_nontx();
  host.full_gc();
}

// ---------------------------------------------------------------------------
// Typed constructors
// ---------------------------------------------------------------------------

Value Heap::new_float(Host& host, double v) {
  RBasic* o = alloc_rvalue(host, ObjType::kFloat, kClassFloat);
  host.mem_store(&o->slots[1], float_bits(v), true);
  return Value::object(o);
}

Value Heap::new_string(Host& host, std::string_view s) {
  Value v = new_string_with_capacity(host, static_cast<u32>(s.size()));
  RBasic* o = v.obj();
  host.mem_store(&o->slots[1], s.size(), true);
  const u64 spill = host.mem_load(&o->slots[3], true);
  u64* data = spill_ptr(spill);
  for (std::size_t i = 0; i < s.size(); i += 8) {
    u64 word = 0;
    std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
    host.mem_store(&data[i / 8], word, true);
  }
  return v;
}

Value Heap::new_string_with_capacity(Host& host, u32 byte_capacity) {
  RBasic* o = alloc_rvalue(host, ObjType::kString, kClassString);
  const u32 cap_slots = std::max<u32>(1, (byte_capacity + 7) / 8);
  const u64 spill = alloc_spill(host, cap_slots);
  host.mem_store(&o->slots[1], 0, true);
  host.mem_store(&o->slots[2], u64{spill_capacity_slots(spill)} * 8, true);
  host.mem_store(&o->slots[3], spill, true);
  return Value::object(o);
}

Value Heap::new_array(Host& host, u32 capacity) {
  RBasic* o = alloc_rvalue(host, ObjType::kArray, kClassArray);
  const u32 cap = std::max<u32>(4, capacity);
  const u64 spill = alloc_spill(host, cap);
  const u32 real_cap = spill_capacity_slots(spill);
  u64* data = spill_ptr(spill);
  for (u32 i = 0; i < real_cap; ++i)
    host.mem_store(&data[i], Value::nil().bits(), true);
  host.mem_store(&o->slots[1], 0, true);
  host.mem_store(&o->slots[2], real_cap, true);
  host.mem_store(&o->slots[3], spill, true);
  return Value::object(o);
}

Value Heap::new_hash(Host& host, u32 bucket_capacity) {
  RBasic* o = alloc_rvalue(host, ObjType::kHash, kClassHash);
  u32 cap = 8;
  while (cap < bucket_capacity) cap <<= 1;
  const u64 spill = alloc_spill(host, cap * 2);
  u64* data = spill_ptr(spill);
  for (u32 i = 0; i < cap * 2; ++i)
    host.mem_store(&data[i], Value::undef().bits(), true);
  host.mem_store(&o->slots[1], 0, true);
  host.mem_store(&o->slots[2], cap, true);
  host.mem_store(&o->slots[3], spill, true);
  return Value::object(o);
}

Value Heap::new_range(Host& host, Value lo, Value hi, bool exclusive) {
  RBasic* o = alloc_rvalue(host, ObjType::kRange, kClassRange);
  host.mem_store(&o->slots[1], lo.bits(), true);
  host.mem_store(&o->slots[2], hi.bits(), true);
  host.mem_store(&o->slots[3], exclusive ? 1 : 0, true);
  return Value::object(o);
}

Value Heap::new_proc(Host& host, i32 iseq, Value self, u64 env_fp,
                     u32 owner_tid) {
  RBasic* o = alloc_rvalue(host, ObjType::kProc, kClassProc);
  host.mem_store(&o->slots[1], static_cast<u64>(iseq), true);
  host.mem_store(&o->slots[2], self.bits(), true);
  host.mem_store(&o->slots[3], env_fp, true);
  host.mem_store(&o->slots[4], u64{owner_tid} + 1, true);
  return Value::object(o);
}

Value Heap::new_object(Host& host, ClassId klass) {
  RBasic* o = alloc_rvalue(host, ObjType::kObject, klass);
  for (u32 i = 1; i <= kInlineIvars; ++i)
    host.mem_store(&o->slots[i], Value::undef().bits(), true);
  host.mem_store(&o->slots[7], 0, true);  // no ivar spill yet
  return Value::object(o);
}

Value Heap::new_class_object(Host& host, ClassId klass_payload) {
  RBasic* o = alloc_rvalue(host, ObjType::kClass, kClassClass);
  host.mem_store(&o->slots[1], klass_payload, true);
  host.mem_store(&o->slots[2], 0, true);  // cvar spill
  host.mem_store(&o->slots[3], 0, true);  // cvar count
  return Value::object(o);
}

Value Heap::new_mutex(Host& host) {
  RBasic* o = alloc_rvalue(host, ObjType::kMutex, kClassMutex);
  host.mem_store(&o->slots[1], 0, true);
  host.mem_store(&o->slots[2], 0, true);
  return Value::object(o);
}

Value Heap::new_condvar(Host& host) {
  RBasic* o = alloc_rvalue(host, ObjType::kCondVar, kClassConditionVariable);
  host.mem_store(&o->slots[1], 0, true);  // wakeup sequence number
  return Value::object(o);
}

Value Heap::new_thread_object(Host& host, u32 tid) {
  RBasic* o = alloc_rvalue(host, ObjType::kThread, kClassThread);
  host.mem_store(&o->slots[1], tid, true);
  return Value::object(o);
}

// ---------------------------------------------------------------------------
// Spill (malloc model)
// ---------------------------------------------------------------------------

u32 Heap::spill_class_for(u32 payload_slots) {
  u32 cls = 0;
  while ((4u << cls) - kSpillHeaderSlots < payload_slots) {
    ++cls;
    GILFREE_CHECK_MSG(cls < kNumSpillClasses,
                      "spill request too large: " << payload_slots);
  }
  return cls;
}

u32 Heap::spill_capacity_slots(u64 payload_addr) {
  const u64* hdr = spill_ptr(payload_addr) - kSpillHeaderSlots;
  const u32 cls = static_cast<u32>(*hdr & 0xFF);
  return (4u << cls) - kSpillHeaderSlots;
}

u64 Heap::alloc_spill(Host& host, u32 payload_slots) {
  const u32 cls = spill_class_for(payload_slots);
  const u32 tid = host.current_tid();

  if (config_.thread_local_malloc) {
    // HEAPPOOLS / glibc-style per-thread cache.
    u64* cache_head = tcb_slot(tid, kTcbMallocCacheBase + 2 * cls);
    u64 head = host.mem_load(cache_head, true);
    if (head == 0) {
      // Bulk-refill from the shared allocator state.
      u64 local = 0;
      for (u32 i = 0; i < config_.malloc_refill_chunks; ++i) {
        const u64 chunk = pop_or_carve_chunk(host, cls);
        u64* payload = spill_ptr(chunk);
        host.mem_store(&payload[0], local, true);
        local = chunk;
      }
      host.mem_store(cache_head, local, true);
      head = local;
    }
    u64* payload = spill_ptr(head);
    const u64 next = host.mem_load(&payload[0], true);
    host.mem_store(cache_head, next, true);
    host.charge(10);
    return head;
  }

  // Shared-malloc model (z/OS default): every allocation manipulates the
  // global per-class list head — the WEBrick-on-zEC12 conflict source (§5.5).
  const u64 chunk = pop_or_carve_chunk(host, cls);
  host.charge(14);
  return chunk;
}

u64 Heap::pop_or_carve_chunk(Host& host, u32 cls) {
  host.internal_allocator_lock(40);
  u64* class_head = &spill_class_heads_[cls];
  const u64 head = host.mem_load(class_head, true);
  if (head != 0) {
    u64* payload = spill_ptr(head);
    const u64 next = host.mem_load(&payload[0], true);
    host.mem_store(class_head, next, true);
    return head;
  }
  // Carve from the bump region. The bump pointer is a C++ field, but chunk
  // publication happens via the returned address only; on transaction abort
  // the carved chunk leaks, which is bounded and harmless (real allocators
  // fragment similarly).
  const u32 total_slots = 4u << cls;
  if (spill_bump_ + total_slots > spill_end_) {
    grow_spill_region(host, total_slots);
  }
  u64* chunk = spill_bump_;
  spill_bump_ += total_slots;
  spill_slots_allocated_ += total_slots;
  // Header write is direct: the chunk is unpublished until we return.
  chunk[0] = kSpillMagic | cls;
  return reinterpret_cast<u64>(chunk + kSpillHeaderSlots);
}

void Heap::grow_spill_region(Host& host, u32 needed_slots) {
  // Growing swaps C++-level pointers that a transaction rollback could not
  // undo, so it must happen outside transactions.
  host.require_nontx();
  const u64 slots = std::max<u64>(kSpillBlockSlots, needed_slots);
  spill_blocks_.emplace_back(slots);
  spill_bump_ = spill_blocks_.back().get();
  spill_end_ = spill_bump_ + slots;
  if (config_.guest_space != nullptr) {
    config_.guest_space->add_segment(
        "spill-" + std::to_string(spill_blocks_.size() - 1), spill_bump_,
        slots * 8);
  }
}

void Heap::free_spill(Host& host, u64 payload_addr) {
  u64* hdr = spill_ptr(payload_addr) - kSpillHeaderSlots;
  const u32 cls = static_cast<u32>(*hdr & 0xFF);
  u64* class_head = &spill_class_heads_[cls];
  u64* payload = spill_ptr(payload_addr);
  host.mem_store(&payload[0], host.mem_load(class_head, true), true);
  host.mem_store(class_head, payload_addr, true);
}

void Heap::free_spill_direct(u64 payload_addr) {
  u64* hdr = spill_ptr(payload_addr) - kSpillHeaderSlots;
  const u32 cls = static_cast<u32>(*hdr & 0xFF);
  u64* payload = spill_ptr(payload_addr);
  payload[0] = spill_class_heads_[cls];
  spill_class_heads_[cls] = payload_addr;
}

// ---------------------------------------------------------------------------
// Control-area accessors
// ---------------------------------------------------------------------------

u64* Heap::tcb_slot(u32 tid, u32 field) {
  GILFREE_CHECK(tid < config_.max_threads);
  if (field < kTcbMallocCacheBase) {
    GILFREE_CHECK(field < tcb_stride_ || config_.padded_thread_structs);
    return tcb_base_ + u64{tid} * tcb_stride_ + field;
  }
  const u32 off = field - kTcbMallocCacheBase;
  GILFREE_CHECK(off < kMallocRegionStride);
  return tcb_malloc_base_ + u64{tid} * kMallocRegionStride + off;
}

u64* Heap::global_var_slot(u32 index) {
  GILFREE_CHECK(index < num_global_vars_);
  return global_vars_ + index;
}

u64* Heap::constant_slot(u32 index) {
  GILFREE_CHECK(index < num_constants_);
  return constants_ + index;
}

u32 Heap::register_global_var() {
  GILFREE_CHECK(num_global_vars_ < config_.global_table_slots);
  global_vars_[num_global_vars_] = Value::nil().bits();
  return num_global_vars_++;
}

u32 Heap::register_constant() {
  GILFREE_CHECK(num_constants_ < config_.global_table_slots);
  constants_[num_constants_] = Value::undef().bits();
  return num_constants_++;
}

u64* Heap::ic_slot(u32 site, u32 word) {
  GILFREE_CHECK(site * 2 + word < config_.ic_table_slots);
  return ic_base_ + u64{site} * 2 + word;
}

void Heap::ensure_ic_capacity(u32 sites) {
  GILFREE_CHECK_MSG(sites * 2 <= config_.ic_table_slots,
                    "too many inline-cache sites: " << sites);
}

// ---------------------------------------------------------------------------
// GC
// ---------------------------------------------------------------------------

Heap::ArenaBlock* Heap::block_of(const void* addr) {
  for (auto& b : blocks_) {
    if (addr >= b.base && addr < b.base + b.count) return &b;
  }
  return nullptr;
}

const Heap::ArenaBlock* Heap::block_of(const void* addr) const {
  return const_cast<Heap*>(this)->block_of(addr);
}

bool Heap::is_heap_object(const void* addr) const {
  if ((reinterpret_cast<std::uintptr_t>(addr) & 63) != 0) return false;
  return block_of(addr) != nullptr;
}

void Heap::mark_value(Value v, std::vector<RBasic*>& stack) {
  if (!v.is_object()) return;
  RBasic* o = v.obj();
  ArenaBlock* b = block_of(o);
  if (b == nullptr) return;  // not a heap pointer (conservative scan noise)
  const auto idx = static_cast<std::size_t>(o - b->base);
  if (b->mark[idx]) return;
  if (o->type() == ObjType::kFree) return;
  b->mark[idx] = true;
  stack.push_back(o);
}

template <typename Fn>
void Heap::visit_children(const RBasic* o, Fn&& fn) {
  // Direct reads: callers run stop-the-world under the GIL or on committed
  // state outside transactions.
  switch (o->type()) {
    case ObjType::kObject: {
      for (u32 i = 1; i <= kInlineIvars; ++i) fn(Value::from_bits(o->slots[i]));
      if (const u64 spill = o->slots[7]) {
        const u32 cap = spill_capacity_slots(spill);
        const u64* data = spill_ptr(spill);
        for (u32 i = 0; i < cap; ++i) fn(Value::from_bits(data[i]));
      }
      break;
    }
    case ObjType::kArray: {
      const u64 spill = o->slots[3];
      const u64 len = o->slots[1];
      const u64* data = spill_ptr(spill);
      for (u64 i = 0; i < len; ++i) fn(Value::from_bits(data[i]));
      break;
    }
    case ObjType::kHash: {
      const u64 spill = o->slots[3];
      const u64 cap = o->slots[2];
      const u64* data = spill_ptr(spill);
      for (u64 i = 0; i < cap * 2; i += 2) {
        Value key = Value::from_bits(data[i]);
        if (key.is_undef()) continue;
        fn(key);
        fn(Value::from_bits(data[i + 1]));
      }
      break;
    }
    case ObjType::kRange:
      fn(Value::from_bits(o->slots[1]));
      fn(Value::from_bits(o->slots[2]));
      break;
    case ObjType::kProc:
      fn(Value::from_bits(o->slots[2]));
      break;
    case ObjType::kClass: {
      if (const u64 spill = o->slots[2]) {
        const u64 count = o->slots[3];
        const u64* data = spill_ptr(spill);
        for (u64 i = 0; i < count * 2; i += 2)
          fn(Value::from_bits(data[i + 1]));
      }
      break;
    }
    default:
      break;  // Float, String, Mutex, CondVar, Thread: no Value children.
  }
}

void Heap::mark_object(RBasic* o, std::vector<RBasic*>& stack) {
  visit_children(o, [&](Value v) { mark_value(v, stack); });
}

u64 Heap::sweep_block(ArenaBlock& b, Host* host) {
  if (b.needs_sweep) {
    b.needs_sweep = false;
    GILFREE_CHECK(lazy_blocks_pending_ > 0);
    --lazy_blocks_pending_;
  }
  // Stop-the-world sweeps (host == nullptr) use direct stores — every
  // transaction was doomed before run_gc. Lazy quanta run while other
  // threads may be mid-transaction, so their mutating stores go through
  // the host as non-transactional stores: a freed object sharing a cache
  // line with a live one dooms the transactions that touched that line,
  // exactly as a real HTM would.
  auto ld = [&](u64* p) { return host ? host->mem_load(p, true) : *p; };
  auto st = [&](u64* p, u64 v) {
    if (host) {
      host->mem_store(p, v, true);
    } else {
      *p = v;
    }
  };
  auto release_spill = [&](u64 addr) {
    if (host) {
      free_spill(*host, addr);
    } else {
      free_spill_direct(addr);
    }
  };

  const bool deal_local = config_.thread_local_sweep &&
                          config_.thread_local_free_lists &&
                          config_.sweep_deal_threads > 0;
  // Round-robin fallback for lines no thread owns: contiguous runs of this
  // many objects per thread, advancing only at line boundaries so one
  // line's free objects never split across two threads' lists.
  constexpr u32 kDealRun = 256;
  auto free_one = [&](RBasic* o, u32 line) {
    if (deal_local) {
      u32 target;
      if (b.line_owner[line] >= 0) {
        // All RVALUEs of this cache line go to the thread that last
        // allocated it — steady state re-serves a line to its owner.
        target = static_cast<u32>(b.line_owner[line]) %
                 config_.sweep_deal_threads;
      } else {
        const u64 global_line = reinterpret_cast<u64>(o) / kLineAlign;
        if (deal_run_ >= kDealRun && global_line != deal_line_) {
          deal_run_ = 0;
          deal_next_ = (deal_next_ + 1) % config_.sweep_deal_threads;
        }
        deal_line_ = global_line;
        ++deal_run_;
        target = deal_next_;
      }
      u64* head = tcb_slot(target, kTcbFreeListHead);
      u64* count = tcb_slot(target, kTcbFreeListCount);
      st(&o->slots[1], ld(head));
      st(head, reinterpret_cast<u64>(o));
      st(count, ld(count) + 1);
    } else {
      st(&o->slots[1], ld(global_free_head_));
      st(global_free_head_, reinterpret_cast<u64>(o));
      st(global_free_count_, ld(global_free_count_) + 1);
    }
  };
  auto release_object = [&](RBasic* o) {
    switch (o->type()) {
      case ObjType::kObject:
        if (o->slots[7]) release_spill(o->slots[7]);
        break;
      case ObjType::kString:
      case ObjType::kArray:
      case ObjType::kHash:
        if (o->slots[3]) release_spill(o->slots[3]);
        break;
      case ObjType::kClass:
        if (o->slots[2]) release_spill(o->slots[2]);
        break;
      default:
        break;
    }
  };

  u64 swept = 0;
  if (!config_.per_thread_arenas) {
    // List mode: every unmarked object is (re-)linked in address order —
    // the seed allocator's sweep, byte for byte when dealing is off.
    for (u32 i = 0; i < b.count; ++i) {
      RBasic* o = &b.base[i];
      if (b.mark[i]) {
        b.mark[i] = false;
        continue;
      }
      if (o->type() == ObjType::kFree) {
        // Already free: re-link (lists were reset at GC start).
        free_one(o, i / kObjsPerLine);
        continue;
      }
      release_object(o);
      st(&o->slots[0], RBasic::make_header(ObjType::kFree, 0));
      free_one(o, i / kObjsPerLine);
      ++swept;
    }
    return swept;
  }

  // Arena mode: maximal free runs are split into a line-aligned interior —
  // pushed onto the segment pool with three stores — and partial-line
  // fragments, which are dealt like list-mode frees.
  u64 pool_added = 0;
  u32 i = 0;
  while (i < b.count) {
    if (b.mark[i]) {
      b.mark[i] = false;
      ++i;
      continue;
    }
    const u32 rs = i;
    while (i < b.count && !b.mark[i]) {
      RBasic* o = &b.base[i];
      if (o->type() != ObjType::kFree) {
        release_object(o);
        st(&o->slots[0], RBasic::make_header(ObjType::kFree, 0));
        ++swept;
      }
      ++i;
    }
    const u32 re = i;
    const u32 seg_lo = (rs + kObjsPerLine - 1) & ~(kObjsPerLine - 1);
    const u32 seg_hi = re & ~(kObjsPerLine - 1);
    if (seg_hi > seg_lo) {
      for (u32 j = rs; j < seg_lo; ++j) free_one(&b.base[j], j / kObjsPerLine);
      for (u32 j = seg_hi; j < re; ++j) free_one(&b.base[j], j / kObjsPerLine);
      RBasic* s = &b.base[seg_lo];
      st(&s->slots[1], ld(arena_pool_head_));
      st(&s->slots[2], seg_hi - seg_lo);
      st(arena_pool_head_, reinterpret_cast<u64>(s));
      pool_added += seg_hi - seg_lo;
      ++gc_stats_.pool_segments;
    } else {
      for (u32 j = rs; j < re; ++j) free_one(&b.base[j], j / kObjsPerLine);
    }
  }
  if (pool_added > 0)
    st(arena_pool_count_, ld(arena_pool_count_) + pool_added);
  return swept;
}

Cycles Heap::sweep_quantum(Host& host) {
  Cycles cost = 0;
  u32 blocks = 0;
  while (blocks < config_.sweep_quantum_blocks && lazy_blocks_pending_ > 0) {
    while (lazy_cursor_ < blocks_.size() && !blocks_[lazy_cursor_].needs_sweep)
      ++lazy_cursor_;
    GILFREE_CHECK(lazy_cursor_ < blocks_.size());
    ArenaBlock& b = blocks_[lazy_cursor_];
    const u64 freed = sweep_block(b, &host);
    gc_stats_.last_swept += freed;
    gc_stats_.total_swept += freed;
    // Linear scan cost — the eager sweep's 3·objects term, paid per block;
    // the relink stores charge through the host on top.
    cost += 3ull * b.count;
    ++blocks;
    ++gc_stats_.sweep_quanta;
  }
  gc_stats_.sweep_quantum_cycles += cost;
  return cost;
}

bool Heap::lazy_sweep_until(Host& host, u64* watch) {
  if (lazy_blocks_pending_ == 0) return false;
  host.require_nontx();
  while (lazy_blocks_pending_ > 0) {
    host.charge(sweep_quantum(host));
    if (watch != nullptr && host.mem_load(watch, true) != 0) break;
  }
  return true;
}

void Heap::note_line_owner(RBasic* o, u32 tid) {
  ArenaBlock* b = owner_block_cache_;
  if (b == nullptr || o < b->base || o >= b->base + b->count) {
    b = block_of(o);
    owner_block_cache_ = b;
  }
  b->line_owner[static_cast<std::size_t>(o - b->base) / kObjsPerLine] =
      static_cast<i16>(tid);
}

void Heap::note_line_owner_range(RBasic* s, u64 n, u32 tid) {
  if (!track_line_owners_ || n == 0) return;
  ArenaBlock* b = block_of(s);
  const std::size_t lo = static_cast<std::size_t>(s - b->base) / kObjsPerLine;
  std::fill(b->line_owner.begin() + static_cast<std::ptrdiff_t>(lo),
            b->line_owner.begin() +
                static_cast<std::ptrdiff_t>(lo + (n + kObjsPerLine - 1) /
                                                     kObjsPerLine),
            static_cast<i16>(tid));
}

u32 Heap::arena_segment_size(u32 tid) const {
  GILFREE_CHECK(tid < config_.max_threads);
  return arena_seg_size_[tid];
}

// ---------------------------------------------------------------------------
// Generational nursery
// ---------------------------------------------------------------------------

void Heap::maybe_minor_gc(Host& host) {
  if (young_since_minor_ < config_.nursery_slots || in_gc_) return;
  // Minor GC runs under the GIL like a full one: inside a transaction this
  // aborts with a persistent reason and the retry re-reaches this point.
  host.require_nontx();
  host.minor_gc();
  // Minor boundaries also drive the background machinery. With the nursery
  // recycling slots locally, refill slow paths (the usual quantum hooks)
  // can become arbitrarily rare; without this, lazy sweeps stay pending,
  // the mark epoch never starts, and the next major pays a full STW mark.
  // The thread is GIL-held and non-speculative here (require_nontx above).
  if (config_.lazy_sweep && lazy_blocks_pending_ > 0) {
    while (lazy_blocks_pending_ > 0) host.charge(sweep_quantum(host));
  } else if (config_.mark_quantum > 0) {
    // Work-proportional marking: a minor boundary stands in for the
    // nursery_slots allocations since the last one, so trace ~2 objects per
    // allocation (quantized by --gc-mark-quantum). One quantum per boundary
    // cannot keep up — the live set outgrows the tracing and the next major
    // degenerates to a full STW mark.
    maybe_mark_quantum(host);  // may start the epoch
    u64 traced_budget = 2 * u64{config_.nursery_slots};
    while (mark_epoch_active_ && !grey_.empty() &&
           traced_budget >= config_.mark_quantum) {
      host.charge(mark_quantum_step());
      traced_budget -= config_.mark_quantum;
    }
  }
}

void Heap::ref_barrier_slow(Host& host, RBasic* owner, Value v) {
  if (!v.is_object()) return;
  RBasic* child = v.obj();
  ArenaBlock* cb = block_of(child);
  if (cb == nullptr) return;
  // The header load goes through the host: inside a transaction a freshly
  // allocated child's header (and its young bit) lives in the redo buffer.
  const u64 child_hdr = host.mem_load(&child->slots[0], true);
  if (RBasic::header_type(child_hdr) == ObjType::kFree) return;
  if (config_.nursery && (child_hdr & kHdrYoung) != 0) {
    // Old→young store: remember the owner so minor collections can find
    // the young child without scanning the old generation.
    const u64 owner_hdr = host.mem_load(&owner->slots[0], true);
    if ((owner_hdr & (kHdrYoung | kHdrRemembered)) == 0) {
      host.mem_store(&owner->slots[0], owner_hdr | kHdrRemembered, true);
      remembered_.push_back(owner);
    }
  }
  if (mark_epoch_active_) {
    // Incremental-update barrier: a reference stored during a mark epoch
    // re-greys the child, so rewiring a pointer out of an already-traced
    // object can never hide it from the epoch. An aborted transaction
    // leaves the grey entry behind — the object floats one cycle, which
    // is safe (conservative marking already floats).
    const auto idx = static_cast<std::size_t>(child - cb->base);
    if (!cb->mark[idx]) {
      cb->mark[idx] = true;
      grey_.push_back(child);
    }
  }
}

Cycles Heap::run_minor_gc(Host& host, const RootSet& roots) {
  GILFREE_CHECK(!in_gc_);
  GILFREE_CHECK(config_.nursery);
  in_gc_ = true;
  ++gc_stats_.minor_collections;

  // Mark the live young closure: conservative roots, globals/constants,
  // and the remembered set of old→young stores. The mark state is a local
  // set — the per-block mark bits belong to sweeps and mark epochs.
  std::unordered_set<RBasic*> live_young;
  std::vector<RBasic*> stack;
  auto mark_young = [&](Value v) {
    if (!v.is_object()) return;
    RBasic* o = v.obj();
    if (block_of(o) == nullptr) return;  // conservative scan noise
    if ((o->slots[0] & kHdrYoung) == 0) return;  // old: not collected here
    if (!live_young.insert(o).second) return;
    stack.push_back(o);
  };

  u64 root_slots = 0;
  for (const auto& [base, len] : roots.ranges) {
    root_slots += len;
    for (std::size_t i = 0; i < len; ++i)
      mark_young(Value::from_bits(base[i]));
  }
  for (Value v : roots.values) mark_young(v);
  for (u32 i = 0; i < num_global_vars_; ++i)
    mark_young(Value::from_bits(global_vars_[i]));
  for (u32 i = 0; i < num_constants_; ++i)
    mark_young(Value::from_bits(constants_[i]));
  u64 remembered_scanned = 0;
  for (RBasic* o : remembered_) {
    // Entries are hints: skip ones whose remembered bit was rolled back by
    // an aborted transaction. The bit is sticky until the next major GC:
    // clearing it here would make every worker's next old→young store into
    // a shared parent re-write that parent's header — a transactional
    // write-write conflict on a hot line once per minor cycle. Re-scanning
    // a few stale parents per minor is far cheaper than those aborts.
    if ((o->slots[0] & kHdrRemembered) == 0) continue;
    ++remembered_scanned;
    visit_children(o, mark_young);
  }
  u64 marked = 0;
  while (!stack.empty()) {
    RBasic* o = stack.back();
    stack.pop_back();
    ++marked;
    visit_children(o, mark_young);
  }

  // Promote survivors in place (the conservative scan pins addresses) and
  // recycle dead young slots onto their owning thread's local list through
  // the host seam, so the frees are conflict-visible like lazy sweep's.
  u64 promoted = 0;
  u64 freed = 0;
  for (RBasic* o : young_) {
    const u64 hdr = o->slots[0];
    // Rolled-back or duplicate entries lost their young bit: skip.
    if ((hdr & kHdrYoung) == 0) continue;
    if (live_young.count(o) != 0) {
      host.mem_store(&o->slots[0], hdr & ~kHdrYoung, true);
      ++promoted;
      continue;
    }
    ArenaBlock* b = block_of(o);
    const auto idx = static_cast<std::size_t>(o - b->base);
    // Young objects only come from already-swept blocks (segments are
    // pooled by the sweep); a pending-sweep block here would double-free.
    GILFREE_CHECK(!b->needs_sweep);
    // Clear a stale epoch mark so the slot is not treated as live later.
    b->mark[idx] = false;
    switch (RBasic::header_type(hdr)) {
      case ObjType::kObject:
        if (o->slots[7]) free_spill(host, o->slots[7]);
        break;
      case ObjType::kString:
      case ObjType::kArray:
      case ObjType::kHash:
        if (o->slots[3]) free_spill(host, o->slots[3]);
        break;
      case ObjType::kClass:
        if (o->slots[2]) free_spill(host, o->slots[2]);
        break;
      default:
        break;
    }
    const i16 line_owner =
        b->line_owner.empty() ? i16{-1} : b->line_owner[idx / kObjsPerLine];
    const u32 target = line_owner >= 0 ? static_cast<u32>(line_owner) : 0;
    u64* head = tcb_slot(target, kTcbFreeListHead);
    u64* count = tcb_slot(target, kTcbFreeListCount);
    host.mem_store(&o->slots[0], RBasic::make_header(ObjType::kFree, 0), true);
    host.mem_store(&o->slots[1], host.mem_load(head, true), true);
    host.mem_store(head, reinterpret_cast<u64>(o), true);
    host.mem_store(count, host.mem_load(count, true) + 1, true);
    ++freed;
  }

  const u64 young_scanned = young_.size();
  young_.clear();
  young_since_minor_ = 0;
  gc_stats_.nursery_promoted += promoted;
  gc_stats_.nursery_freed += freed;
  in_gc_ = false;

  // Scan cost: tracing plus the root scan and the linear walk over the
  // young and remembered lists (relink stores charge through the host).
  const Cycles pause =
      14 * marked + root_slots + 3 * young_scanned + remembered_scanned;
  gc_stats_.last_pause = pause;
  if (pause > gc_stats_.max_pause) gc_stats_.max_pause = pause;
  gc_stats_.pause_hist.add(pause);
  return pause;
}

// ---------------------------------------------------------------------------
// Incremental marking
// ---------------------------------------------------------------------------

void Heap::maybe_mark_quantum(Host& host) {
  if (in_gc_) return;
  // Quanta mutate C++-side mark state a rollback could not undo, so they
  // only run outside speculation (normally GIL-held on the slow path).
  if (host.in_speculation()) return;
  if (!mark_epoch_active_) {
    // Start an epoch only once the heap is filling up (so a collection is
    // imminent) and no lazy sweep is pending — sweeping consumes the same
    // per-block mark bits the epoch populates.
    if (lazy_blocks_pending_ > 0) return;
    if (free_objects() * 2 > total_objects_) return;
    start_mark_epoch(host);
    return;
  }
  if (!grey_.empty()) host.charge(mark_quantum_step());
}

void Heap::start_mark_epoch(Host& host) {
  GcRootSet roots;
  host.collect_gc_roots(roots);
  u64 root_slots = 0;
  for (const auto& [base, len] : roots.ranges) {
    root_slots += len;
    for (std::size_t i = 0; i < len; ++i)
      mark_value(Value::from_bits(base[i]), grey_);
  }
  for (Value v : roots.values) mark_value(v, grey_);
  for (u32 i = 0; i < num_global_vars_; ++i)
    mark_value(Value::from_bits(global_vars_[i]), grey_);
  for (u32 i = 0; i < num_constants_; ++i)
    mark_value(Value::from_bits(constants_[i]), grey_);
  mark_epoch_active_ = true;
  mark_epoch_processed_ = 0;
  host.charge(root_slots);
}

Cycles Heap::mark_quantum_step() {
  u32 budget = config_.mark_quantum;
  u64 traced = 0;
  while (budget > 0 && !grey_.empty()) {
    RBasic* o = grey_.back();
    grey_.pop_back();
    --budget;
    // A minor GC may have freed a greyed young object since it was pushed.
    if (o->type() == ObjType::kFree) continue;
    visit_children(o, [&](Value v) { mark_value(v, grey_); });
    ++traced;
  }
  mark_epoch_processed_ += traced;
  ++gc_stats_.mark_quanta;
  const Cycles cost = 14 * traced;
  gc_stats_.mark_quantum_cycles += cost;
  return cost;
}

// ---------------------------------------------------------------------------
// Cross-thread stash stealing
// ---------------------------------------------------------------------------

bool Heap::steal_stash(Host& host, u32 thief) {
  const u32 n = config_.max_threads;
  for (u32 probe = 0; probe < n; ++probe) {
    const u32 victim = steal_order_[(steal_cursor_ + probe) % n];
    if (victim == thief) continue;
    u64* vstash = tcb_slot(victim, kTcbArenaStash);
    const u64 head = host.mem_load(vstash, true);
    if (head == 0) continue;
    // Count the chain, then cut its first half over to the thief. All
    // loads/stores go through the host: the victim's TCB line joins the
    // thief's footprint, so a racing victim transaction conflicts and
    // retries — exactly the visibility a real HTM would give the steal.
    u64 segs = 1;
    for (RBasic* c = reinterpret_cast<RBasic*>(head);;) {
      const u64 next = host.mem_load(&c->slots[1], true);
      if (next == 0) break;
      c = reinterpret_cast<RBasic*>(next);
      ++segs;
    }
    const u64 take = segs - segs / 2;
    RBasic* split = reinterpret_cast<RBasic*>(head);
    for (u64 i = 1; i < take; ++i) {
      // Record the stolen ranges while walking: describe_address reports
      // them as arena-steal until the next major GC re-pools everything.
      stolen_ranges_.emplace_back(split, host.mem_load(&split->slots[2], true));
      note_line_owner_range(split, stolen_ranges_.back().second, thief);
      split = reinterpret_cast<RBasic*>(host.mem_load(&split->slots[1], true));
    }
    stolen_ranges_.emplace_back(split, host.mem_load(&split->slots[2], true));
    note_line_owner_range(split, stolen_ranges_.back().second, thief);
    const u64 rest = host.mem_load(&split->slots[1], true);
    host.mem_store(vstash, rest, true);
    u64* tstash = tcb_slot(thief, kTcbArenaStash);
    host.mem_store(&split->slots[1], host.mem_load(tstash, true), true);
    host.mem_store(tstash, head, true);
    steal_cursor_ = (steal_cursor_ + probe + 1) % n;
    ++gc_stats_.arena_steals;
    gc_stats_.stolen_segments += take;
    host.charge(30);
    return true;
  }
  return false;
}

Cycles Heap::run_gc(const RootSet& roots) {
  GILFREE_CHECK(!in_gc_);
  in_gc_ = true;
  ++gc_stats_.collections;

  // Abandon unfinished lazy quanta from the previous epoch: this epoch
  // re-marks and re-flags every block, so unswept garbage (and its spill
  // buffers) is simply rediscovered by this cycle's sweep.
  if (lazy_blocks_pending_ > 0) {
    for (auto& b : blocks_) b.needs_sweep = false;
    lazy_blocks_pending_ = 0;
  }
  lazy_cursor_ = 0;

  // A major collection promotes the whole surviving young set: reset the
  // young/remembered tagging (direct stores — stop-the-world) so minor
  // bookkeeping restarts empty.
  if (config_.nursery) {
    for (RBasic* o : young_) o->slots[0] &= ~kHdrYoung;
    for (RBasic* o : remembered_) o->slots[0] &= ~kHdrRemembered;
    young_.clear();
    remembered_.clear();
    young_since_minor_ = 0;
  }
  // The sweep re-pools every stash segment; stolen-range diagnostics from
  // the ending cycle no longer describe anything.
  stolen_ranges_.clear();

  // Thread-local free lists (and arena segments) contain objects that the
  // sweep below will re-link; flush them first (§4.4's design keeps this
  // safe because GC is stop-the-world).
  for (u32 t = 0; t < config_.max_threads; ++t) {
    *tcb_slot(t, kTcbFreeListHead) = 0;
    *tcb_slot(t, kTcbFreeListCount) = 0;
    if (config_.per_thread_arenas) {
      *tcb_slot(t, kTcbArenaBump) = 0;
      *tcb_slot(t, kTcbArenaLimit) = 0;
      *tcb_slot(t, kTcbArenaStash) = 0;  // the sweep re-pools the segments
    }
  }
  *global_free_head_ = 0;
  *global_free_count_ = 0;
  // The sweep relinks every free object from its header, and objects the
  // on-demand linking never reached already read kFree: drop the frontier.
  virgin_top_ = nullptr;
  *arena_pool_head_ = 0;
  *arena_pool_count_ = 0;
  deal_next_ = 0;
  deal_run_ = 0;
  deal_line_ = ~0ull;

  // Mark. When a mark epoch is active, its quanta already traced part of
  // the live set into the shared per-block mark bits; this stop-the-world
  // phase is a finalize — rescan the roots (the incremental-update barrier
  // covered mutation in between) and drain the leftover grey set.
  const bool finalize_epoch = mark_epoch_active_;
  std::vector<RBasic*> stack;
  if (finalize_epoch) stack = std::move(grey_);
  u64 root_slots = 0;
  for (const auto& [base, len] : roots.ranges) {
    root_slots += len;
    for (std::size_t i = 0; i < len; ++i)
      mark_value(Value::from_bits(base[i]), stack);
  }
  for (Value v : roots.values) mark_value(v, stack);
  // Globals and constants tables.
  for (u32 i = 0; i < num_global_vars_; ++i)
    mark_value(Value::from_bits(global_vars_[i]), stack);
  for (u32 i = 0; i < num_constants_; ++i)
    mark_value(Value::from_bits(constants_[i]), stack);

  u64 marked = 0;
  while (!stack.empty()) {
    RBasic* o = stack.back();
    stack.pop_back();
    // Stale grey entries: a minor GC can free a greyed young object.
    if (o->type() == ObjType::kFree) continue;
    ++marked;
    mark_object(o, stack);
  }

  // `marked` is the stop-the-world share (it bounds the pause below); the
  // live total also includes what the epoch's quanta already traced.
  u64 live_marked = marked;
  if (finalize_epoch) {
    live_marked += mark_epoch_processed_;
    grey_.clear();
    mark_epoch_active_ = false;
    mark_epoch_processed_ = 0;
  }

  gc_stats_.last_marked = live_marked;
  gc_stats_.total_marked += live_marked;

  Cycles pause;
  if (config_.lazy_sweep) {
    // Lazy sweep: the stop-the-world phase only marks and flags every block
    // for deferred sweeping; allocation slow-paths pay the sweep in
    // per-block quanta (sweep_quantum). The pause is the mark + root scan
    // plus a per-block flagging pass.
    gc_stats_.last_swept = 0;
    for (auto& b : blocks_) b.needs_sweep = true;
    lazy_blocks_pending_ = blocks_.size();

    // Grow on the mark result — the free lists are empty until quanta run,
    // so the eager free_objects() trigger would grow on every collection.
    if (total_objects_ - live_marked <
        static_cast<u64>(config_.growth_trigger *
                         static_cast<double>(total_objects_))) {
      add_arena_block(config_.block_slots);
    }
    pause = 14 * marked + root_slots + blocks_.size();
  } else {
    // Eager sweep: every unmarked object is freed in one stop-the-world
    // pass; its spill buffers return to the malloc free lists (§5.6's
    // allocation-conflict fix deals them onto per-thread lists).
    u64 swept = 0;
    for (auto& b : blocks_) swept += sweep_block(b, nullptr);

    gc_stats_.last_swept = swept;
    gc_stats_.total_swept += swept;

    // Grow when the heap is too full to make progress (CRuby heap growth).
    if (free_objects() <
        static_cast<u64>(config_.growth_trigger *
                         static_cast<double>(total_objects_))) {
      add_arena_block(config_.block_slots);
    }
    // Cost: proportional to marked objects plus the linear sweep and root
    // scan.
    pause = 14 * marked + 3 * total_objects_ + root_slots;
  }
  in_gc_ = false;

  gc_stats_.last_pause = pause;
  if (pause > gc_stats_.max_pause) gc_stats_.max_pause = pause;
  gc_stats_.pause_hist.add(pause);
  return pause;
}

std::string Heap::describe_address(const void* addr) const {
  const u64* p = static_cast<const u64*>(addr);
  auto within = [&](const u64* base, u64 len) {
    return base != nullptr && p >= base && p < base + len;
  };
  if (within(gil_word_, 32)) return "gil-word";
  if (within(global_free_head_, 32)) return "free-list-head";
  if (within(current_thread_global_, 32)) return "current-thread-global";
  if (within(spill_class_heads_, 64)) return "malloc-class-heads";
  if (within(arena_pool_head_, 32)) return "arena-pool";
  if (within(tcb_base_, u64{config_.max_threads} * tcb_stride_)) return "tcb";
  if (within(tcb_malloc_base_, u64{config_.max_threads} * 64))
    return "tcb-malloc-cache";
  if (within(global_vars_, config_.global_table_slots)) return "globals";
  if (within(constants_, config_.global_table_slots)) return "constants";
  if (within(ic_base_, config_.ic_table_slots)) return "inline-caches";
  if (const ArenaBlock* b = block_of(addr); b != nullptr) {
    const auto* o = static_cast<const RBasic*>(addr);
    // Stolen stash segments stay classified as arena-steal until the next
    // major GC re-pools them, so conflict histograms show steal traffic.
    for (const auto& [start, count] : stolen_ranges_) {
      if (o >= start && o < start + count) return "arena-steal";
    }
    const std::size_t idx = static_cast<std::size_t>(o - b->base);
    // With per-thread arenas (or line-mate dealing) on, attribute the line
    // to the thread whose segment it belongs to so conflict histograms
    // separate private-segment traffic from shared-arena traffic.
    if (!b->line_owner.empty()) {
      const i16 owner = b->line_owner[idx / kObjsPerLine];
      if (config_.nursery && (b->base[idx].slots[0] & kHdrYoung) != 0)
        return owner >= 0 ? "nursery-t" + std::to_string(owner) : "nursery";
      if (owner >= 0) return "arena-t" + std::to_string(owner);
    }
    return "arena";
  }
  for (const auto& blk : spill_blocks_) {
    if (p >= blk.get() && p < blk.get() + blk.size()) return "spill";
  }
  return "other";
}

std::string Heap::describe_line(LineId line, u64 line_bytes) const {
  if (config_.guest_space != nullptr) {
    const sim::GuestAddr guest = line * line_bytes;
    const void* host = config_.guest_space->to_host(guest);
    if (host == nullptr) return "other";
    std::string label = describe_address(host);
    if (label == "other") {
      // A registered segment the heap does not own (a VM stack): report
      // the segment's own deterministic name instead.
      if (const auto* seg = config_.guest_space->segment_of(guest))
        return seg->name;
    }
    return label;
  }
  return describe_address(reinterpret_cast<const void*>(
      static_cast<std::uintptr_t>(line * line_bytes)));
}

u64 Heap::free_objects() const {
  u64 n = *global_free_count_ + *arena_pool_count_;
  Heap* self = const_cast<Heap*>(this);
  for (u32 t = 0; t < config_.max_threads; ++t) {
    n += *self->tcb_slot(t, kTcbFreeListCount);
    if (config_.per_thread_arenas) {
      const u64 bump = *self->tcb_slot(t, kTcbArenaBump);
      const u64 limit = *self->tcb_slot(t, kTcbArenaLimit);
      if (bump != 0 && limit > bump) n += (limit - bump) / sizeof(RBasic);
      u64 stash = *self->tcb_slot(t, kTcbArenaStash);
      while (stash != 0) {
        const RBasic* s = reinterpret_cast<const RBasic*>(stash);
        n += s->slots[2];
        stash = s->slots[1];
      }
    }
  }
  return n;
}

}  // namespace gilfree::vm
