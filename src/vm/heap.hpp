// The MiniRuby heap: RVALUE arena + free lists, spill (malloc) allocator,
// per-thread control blocks, the globals area, and the stop-the-world
// mark-and-sweep collector.
//
// Conflict-relevant design points, all taken from the paper:
//   * Objects are allocated from the head of a single global free list;
//     optionally (§4.4) each thread keeps a local free list refilled with
//     256 objects in bulk — the residual global-list manipulation is the
//     paper's main remaining conflict source (§5.6).
//   * GC always runs with the GIL held; a transaction that exhausts the free
//     list aborts and retries under the GIL (§4.4).
//   * The spill allocator models malloc: global per-size-class free lists,
//     optionally with per-thread caches (z/OS HEAPPOOLS; Linux malloc).
//   * Thread control blocks hold the per-thread fields the paper added
//     (yield_point_counter, local free-list head...) and are optionally
//     padded to dedicated cache lines to avoid false sharing (§4.4).
//   * Every slab is zero pages (common/zero_pages.hpp) and the
//     constructor's free list is linked on demand, so building a heap costs
//     only the memory a run touches, not the pre-sized arena (§4.4(c)).
//   * The §7 future-work directions are implemented as opt-in extensions:
//     per-thread allocation arenas (bump segments carved from a shared
//     pool, size adapted to each thread's allocation rate), line-mate-aware
//     sweep dealing, and lazy incremental sweeping in per-block quanta.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "common/zero_pages.hpp"
#include "vm/gc_stats.hpp"
#include "sim/guest_space.hpp"
#include "vm/host.hpp"
#include "vm/object.hpp"

namespace gilfree::vm {

struct HeapConfig {
  /// Initial number of RVALUE slots (RUBY_HEAP_MIN_SLOTS). The paper uses
  /// 10,000 (default CRuby) vs 10,000,000 (tuned); the simulator's workloads
  /// are scaled down, so the tuned default here is 1,000,000.
  u32 initial_slots = 1'000'000;

  /// RVALUEs per arena block (the heap grows by blocks when a GC cannot
  /// recover enough memory).
  u32 block_slots = 65'536;

  /// Grow the arena when, after GC, fewer than this fraction of objects are
  /// free (CRuby's heap-growth heuristic).
  double growth_trigger = 0.2;

  /// §4.4 conflict removal (b): per-thread free lists with bulk refill.
  bool thread_local_free_lists = true;
  u32 free_list_refill = 256;

  /// §5.6/§7 future-work extension: "the lazy sweeping should be done on a
  /// thread-local basis" — the sweeper deals freed objects directly onto
  /// the live threads' local free lists, so steady-state allocation touches
  /// the global list head far less often. Active when sweep_deal_threads
  /// > 0 (with thread_local_free_lists); the default 0 is the seed
  /// allocator.
  ///
  /// Dealing keeps every RVALUE of one cache line (4 per zEC12 line) on a
  /// single thread's list: the thread that last allocated that line, or,
  /// for a line no thread allocated, the next thread of a line-aligned
  /// round-robin run.
  u32 sweep_deal_threads = 0;  ///< Live threads to deal to (0 = disabled).

  /// Per-thread allocation arenas: each thread bump-allocates from a
  /// private line-aligned segment carved from a shared segment pool. A
  /// carve touches ~4 shared slots instead of walking a 256-node free-list
  /// chain, so the transactional read footprint of the allocation slow
  /// path — the paper's dominant residual conflict source (§5.6) —
  /// shrinks accordingly. Requires thread_local_free_lists (sweep
  /// fragments still travel via the lists).
  bool per_thread_arenas = false;
  /// Initial/maximum segment size in RVALUEs (multiples of 4 = one zEC12
  /// line). Segment size adapts online, mirroring tle's dynamic
  /// transaction-length machinery: a refill hot on the heels of the
  /// previous one doubles the next segment up to the cap; a refill after
  /// an idle gap halves it back toward the minimum.
  u32 arena_min_segment = 64;
  u32 arena_max_segment = 8192;
  Cycles arena_hot_refill_cycles = 200'000;
  Cycles arena_idle_cycles = 2'000'000;

  /// Lazy incremental sweeping: run_gc only marks stop-the-world; blocks
  /// are swept in per-block quanta on allocation slow paths (outside
  /// transactions, normally GIL-held), charging cycles incrementally
  /// instead of one giant pause.
  bool lazy_sweep = false;
  u32 sweep_quantum_blocks = 1;  ///< Blocks swept per slow-path quantum.

  /// Generational nursery (requires per_thread_arenas). Freshly allocated
  /// objects carry the young header flag; after nursery_slots young
  /// allocations a minor collection scans only the young set plus the
  /// remembered set of old→young stores, promotes survivors in place, and
  /// recycles dead young slots onto their owning thread's local free list —
  /// most request objects die young, so major collections become rare.
  bool nursery = false;
  u32 nursery_slots = 8192;  ///< Young allocations between minor GCs.

  /// Incremental marking: when > 0, allocation slow paths (outside
  /// speculation, normally GIL-held) advance a background mark epoch by
  /// this many objects per quantum, mirroring lazy sweep's quantum
  /// machinery. The next collection only rescans roots and drains the
  /// leftover grey set, so the stop-the-world mark pause is bounded by
  /// what the quanta did not reach instead of the whole live set. 0 = off.
  u32 mark_quantum = 0;

  /// Cross-thread arena-stash stealing (requires per_thread_arenas): a
  /// thread whose segment-pool carve fails steals half of a victim's
  /// private kTcbArenaStash chain (seeded deterministic victim order)
  /// before forcing an early collection, so pool exhaustion under skewed
  /// allocation cannot trigger premature GCs.
  bool arena_steal = false;
  u64 steal_seed = 0;  ///< Victim-order seed; engines stamp their run seed.

  /// Thread-local spill (malloc) caches — HEAPPOOLS on z/OS, default on
  /// Linux. Refill granularity models how much of malloc remains shared.
  bool thread_local_malloc = true;
  u32 malloc_refill_chunks = 16;

  /// §4.4 conflict removal (e): give each thread structure its own cache
  /// line(s) instead of packing them adjacently.
  bool padded_thread_structs = true;

  /// Maximum VM threads the heap lays out control blocks for.
  u32 max_threads = 64;

  /// Capacity of the globals / constants / inline-cache tables (slots).
  u32 global_table_slots = 4096;
  u32 ic_table_slots = 65'536;

  /// Guest address space to register every heap slab with (not owned; null
  /// in standalone heap tests, which then see host-address lines). The
  /// engine always wires its own space here before constructing the heap;
  /// registration order (control slab, then arena blocks, then spill
  /// blocks, growth in demand order) is deterministic, which is what makes
  /// guest addresses stable across OS processes.
  sim::GuestSpace* guest_space = nullptr;
};

/// Named fields of a thread control block (slot indexes).
enum TcbField : u32 {
  kTcbYieldCounter = 0,     ///< Fig. 2's yield_point_counter.
  kTcbFreeListHead = 1,     ///< Thread-local object free list (bits of ptr).
  kTcbFreeListCount = 2,
  kTcbInterruptFlag = 3,    ///< GIL-mode timer flag (§3.2).
  kTcbCurrentThread = 4,    ///< Thread-local home of the ex-global
                            ///< "running thread" pointer (§4.4 removal (a)).
  kTcbArenaBump = 5,        ///< Per-thread arena: next free RVALUE address.
  kTcbArenaLimit = 6,       ///< One past the segment's last RVALUE.
  kTcbArenaStash = 7,       ///< Private chain of not-yet-active segments.
  kTcbMallocCacheBase = 8,  ///< Two slots (head, count) per size class.
};

class Heap {
 public:
  /// Objects of the constructor's free list linked per on-demand step.
  static constexpr u32 kLinkChunk = 512;

  explicit Heap(const HeapConfig& config);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  const HeapConfig& config() const { return config_; }

  // --- RVALUE allocation ---------------------------------------------------

  /// Allocates an RVALUE of the given type/class via the free lists. When
  /// every list is empty, calls host.require_nontx + host.full_gc — i.e.
  /// inside a transaction this throws TxAbort and the retry (under the GIL)
  /// performs the collection.
  RBasic* alloc_rvalue(Host& host, ObjType type, ClassId klass);

  // Typed constructors. All of them write the object's payload through the
  // Host so the stores join the transaction footprint.
  Value new_float(Host& host, double v);
  Value new_string(Host& host, std::string_view s);
  Value new_string_with_capacity(Host& host, u32 byte_capacity);
  Value new_array(Host& host, u32 capacity);
  Value new_hash(Host& host, u32 bucket_capacity = 8);
  Value new_range(Host& host, Value lo, Value hi, bool exclusive);
  Value new_proc(Host& host, i32 iseq, Value self, u64 env_fp, u32 owner_tid);
  Value new_object(Host& host, ClassId klass);
  Value new_class_object(Host& host, ClassId klass_payload);
  Value new_mutex(Host& host);
  Value new_condvar(Host& host);
  Value new_thread_object(Host& host, u32 tid);

  // --- Spill (malloc model) ------------------------------------------------

  /// Allocates a payload of at least `payload_slots` u64 slots; returns its
  /// address as an integer (stored in object slots). Rounded to a power-of-
  /// two size class.
  u64 alloc_spill(Host& host, u32 payload_slots);

  /// §4.4(b): bulk refill of a thread's local free list from the global one.
  void refill_thread_free_list(Host& host, u32 tid);

  /// Per-thread-arena slow path: carve a fresh segment (or replenish via
  /// lazy sweep quanta / the global list / a full GC) for `tid`.
  void refill_thread_arena(Host& host, u32 tid);

  /// Capacity in slots of a spill allocation (size class payload).
  static u32 spill_capacity_slots(u64 payload_addr);

  /// Returns a spill chunk to its size-class free list (transactional;
  /// used when arrays/hashes grow and drop their old buffer).
  void free_spill(Host& host, u64 payload_addr);

  /// Direct-free during sweep (GIL-held).
  void free_spill_direct(u64 payload_addr);

  // --- Thread control blocks ----------------------------------------------

  /// Slot address of a TCB field; TCB lines are thread-private by
  /// convention but classified shared so that false sharing is observable
  /// when padding is disabled.
  u64* tcb_slot(u32 tid, u32 field);

  // --- Globals area ---------------------------------------------------------

  /// The GIL word lives on its own cache line; every transaction reads it.
  u64* gil_word() { return gil_word_; }

  /// Global free-list head/count (own cache line).
  u64* global_free_head() { return global_free_head_; }
  u64* global_free_count() { return global_free_count_; }

  /// Per-thread-arena segment pool head/count (own cache line; the only
  /// shared allocator state a segment carve touches).
  u64* arena_pool_head() { return arena_pool_head_; }
  u64* arena_pool_count() { return arena_pool_count_; }

  /// Current adaptive segment size for a thread (tests/metrics).
  u32 arena_segment_size(u32 tid) const;

  /// Arena blocks still awaiting their lazy sweep quantum.
  u64 lazy_blocks_pending() const { return lazy_blocks_pending_; }

  /// The interpreter-global "current running thread" pointer that §4.4
  /// removal (a) moves into the TCB. One slot, shared line.
  u64* current_thread_global() { return current_thread_global_; }

  /// Global variable / constant tables: one slot per registered name,
  /// densely packed (several names per line).
  u64* global_var_slot(u32 index);
  u64* constant_slot(u32 index);
  u32 register_global_var();
  u32 register_constant();

  /// Inline-cache slab: 2 slots per site, densely packed.
  u64* ic_slot(u32 site, u32 word);
  void ensure_ic_capacity(u32 sites);

  /// Base of the IC slab; the interpreter derives site slots with plain
  /// arithmetic after asserting capacity once (ensure_ic_capacity).
  u64* ic_base() { return ic_base_; }

  // --- GC --------------------------------------------------------------------

  /// Ranges of slots to scan conservatively for roots (thread stacks) plus
  /// individual root values (thread receivers, pending results...).
  /// Shared with the Host interface so engines can hand roots over without
  /// depending on heap internals.
  using RootSet = GcRootSet;

  /// Stop-the-world mark & sweep. Caller must guarantee no transaction is
  /// active (GC runs under the GIL). Thread-local free lists are flushed.
  /// Returns the cycle cost the engine should charge.
  Cycles run_gc(const RootSet& roots);

  /// Minor (nursery-only) collection: scans roots + the remembered set for
  /// live young objects, promotes survivors in place, recycles dead young
  /// slots onto their owning thread's local list through the host-mediated
  /// conflict-visible store seam. Same precondition as run_gc. Returns the
  /// scan cost to charge (relink stores charge through the host on top).
  Cycles run_minor_gc(Host& host, const RootSet& roots);

  /// Write barrier for every heap ref store (old→young remembered set +
  /// incremental-mark re-greying). One predictable branch when both
  /// features are off.
  void ref_barrier(Host& host, RBasic* owner, Value v) {
    if (!barrier_on_) return;
    ref_barrier_slow(host, owner, v);
  }

  /// Incremental-mark epoch state (tests/diagnostics).
  bool mark_epoch_active() const { return mark_epoch_active_; }
  u64 mark_grey_size() const { return grey_.size(); }

  /// Young objects tracked since the last (minor or major) collection.
  u64 young_tracked() const { return young_.size(); }

  const GcStats& gc_stats() const { return gc_stats_; }

  /// Free objects currently available (global + thread-local lists).
  u64 free_objects() const;
  u64 total_objects() const { return total_objects_; }

  /// True if `addr` points into the RVALUE arena (used by the conservative
  /// stack scan).
  bool is_heap_object(const void* addr) const;

  /// Number of u64 slots of spill memory in use (for tests).
  u64 spill_slots_allocated() const { return spill_slots_allocated_; }

  /// Diagnostic: which memory region an address belongs to ("gil-word",
  /// "free-list-head", "tcb", "ic", "arena", "spill", ...).
  std::string describe_address(const void* addr) const;

  /// Same classification for a conflict-line id as the HTM facility
  /// reports it. With a guest space wired, the line is a guest line and is
  /// mapped back to its host slab first; without one it is interpreted as a
  /// host-derived line (the legacy back-cast). Lines in a registered
  /// segment the heap does not own (e.g. a VM stack) fall back to the guest
  /// segment name itself.
  std::string describe_line(LineId line, u64 line_bytes) const;

 private:
  struct ArenaBlock {
    ZeroPages<RBasic> storage;
    RBasic* base = nullptr;  ///< storage.get() (page-, hence line-aligned).
    u32 count = 0;
    std::vector<bool> mark;
    /// Last thread to allocate each cache line of the block (-1 = never;
    /// 4 RVALUEs per zEC12 line). Drives line-mate-aware sweep dealing and
    /// the arena-t<N> conflict-region classification; only populated when
    /// a feature that needs it is on.
    std::vector<i16> line_owner;
    bool needs_sweep = false;  ///< Awaiting its lazy sweep quantum.
  };

  static constexpr u32 kNumSpillClasses = 18;  ///< 32 B .. 4 MB chunks.

  /// Maps and registers a zero-page block (every object reads as kFree)
  /// without publishing its objects anywhere.
  ArenaBlock& map_arena_block(u32 rvalues);
  /// Maps a block and publishes its objects eagerly (growth blocks, and
  /// every block in per-thread-arena mode).
  void add_arena_block(u32 rvalues);
  /// Transactional load of a global-list node's next link. When `node` is
  /// the unlinked frontier of the constructor's chain, the next chunk of
  /// that chain is linked first, with exactly the links the eager
  /// constructor would have stored.
  u64 load_free_next(Host& host, u64 node) {
    RBasic* o = reinterpret_cast<RBasic*>(node);
    if (o == virgin_top_) link_virgin_chunk();
    return host.mem_load(&o->slots[1], true);
  }
  void link_virgin_chunk();
  void collect_for_allocation(Host& host);
  /// Splices up to free_list_refill objects from the global list onto
  /// `tid`'s local list; false when the global list is empty.
  bool splice_global_to_local(Host& host, u32 tid);
  /// Pops a segment from `tid`'s private stash into its bump window; false
  /// when the stash is empty. No shared allocator state is touched.
  bool activate_stashed_segment(Host& host, u32 tid);
  /// Cuts a batch of segments covering the thread's adaptive target from
  /// the shared pool (first segment active, rest stashed); false when the
  /// pool is empty.
  bool carve_segment(Host& host, u32 tid);
  /// Sweeps up to sweep_quantum_blocks pending blocks via host-mediated
  /// (conflict-visible) stores; returns the cycle cost to charge.
  Cycles sweep_quantum(Host& host);
  /// Runs pending quanta until `watch` (a free-list/pool head) becomes
  /// non-zero or no block is left; false if nothing was pending.
  bool lazy_sweep_until(Host& host, u64* watch);
  /// Sweeps one block. Direct stores when host == nullptr (stop-the-world
  /// under the GIL); host-mediated non-transactional stores otherwise.
  /// Returns the number of newly freed (previously live) objects.
  u64 sweep_block(ArenaBlock& b, Host* host);
  void note_line_owner(RBasic* o, u32 tid);
  void note_line_owner_range(RBasic* s, u64 n, u32 tid);
  u64 pop_or_carve_chunk(Host& host, u32 cls);
  void grow_spill_region(Host& host, u32 needed_slots);
  void mark_value(Value v, std::vector<RBasic*>& stack);
  void mark_object(RBasic* o, std::vector<RBasic*>& stack);
  /// Enumerates every Value-bearing slot of `o` (direct reads — GC and
  /// barrier slow paths run outside transactions or on committed state).
  template <typename Fn>
  void visit_children(const RBasic* o, Fn&& fn);
  void ref_barrier_slow(Host& host, RBasic* owner, Value v);
  /// Triggers a minor collection when the young counter crosses the budget.
  void maybe_minor_gc(Host& host);
  /// Advances (or starts) the incremental-mark epoch by one quantum when
  /// the caller is outside speculation and the heap is filling up.
  void maybe_mark_quantum(Host& host);
  void start_mark_epoch(Host& host);
  Cycles mark_quantum_step();
  /// Steals half of a victim's stash chain for `thief` (seeded victim
  /// order); false when every other stash is empty.
  bool steal_stash(Host& host, u32 thief);
  /// Splices half of the fullest sibling dealt-to list onto `tid`'s list
  /// before the slow path resorts to growing the heap; false when no
  /// sibling has objects to spare. Dealt-list mode only.
  bool rebalance_dealt_lists(Host& host, u32 tid);
  ArenaBlock* block_of(const void* addr);
  const ArenaBlock* block_of(const void* addr) const;
  u64 alloc_spill_direct(u32 size_class);
  static u32 spill_class_for(u32 payload_slots);

  HeapConfig config_;

  std::vector<ArenaBlock> blocks_;
  u64 total_objects_ = 0;

  // The constructor's free list in list modes, linked on demand. Its eager
  // order is fixed (block descending, then index descending; block 0
  // object 0 ends it), so one frontier describes it: every object from
  // virgin_top_ on in that order still has its zero-page slots[1], and
  // virgin_top_ is the only one of them a list can reach. Null once fully
  // linked, and dropped by run_gc, whose sweep relinks from headers.
  RBasic* virgin_top_ = nullptr;
  u32 virgin_block_ = 0;
  u32 virgin_index_ = 0;

  // Zero-page slab for control state; addresses are stable.
  ZeroPages<u64> control_storage_;
  u64* gil_word_ = nullptr;
  u64* global_free_head_ = nullptr;
  u64* global_free_count_ = nullptr;
  u64* arena_pool_head_ = nullptr;
  u64* arena_pool_count_ = nullptr;
  u64* current_thread_global_ = nullptr;
  u64* spill_class_heads_ = nullptr;  ///< One slot per size class.
  u64* tcb_base_ = nullptr;
  u64* tcb_malloc_base_ = nullptr;
  u32 tcb_stride_ = 0;  ///< Slots between consecutive TCBs.
  u64* global_vars_ = nullptr;
  u64* constants_ = nullptr;
  u64* ic_base_ = nullptr;
  u32 num_global_vars_ = 0;
  u32 num_constants_ = 0;

  // Spill backing store: grows in blocks; addresses stable.
  std::vector<ZeroPages<u64>> spill_blocks_;
  u64* spill_bump_ = nullptr;
  u64* spill_end_ = nullptr;
  u64 spill_slots_allocated_ = 0;

  GcStats gc_stats_;
  bool in_gc_ = false;

  // Per-thread arena adaptation state (host-invisible, like tle's length
  // table lives in the engine, not in simulated memory).
  bool track_line_owners_ = false;
  std::vector<u32> arena_seg_size_;
  std::vector<Cycles> arena_last_refill_;
  ArenaBlock* owner_block_cache_ = nullptr;  ///< block_of cache, hot path.

  // Lazy-sweep progress.
  u64 lazy_blocks_pending_ = 0;
  std::size_t lazy_cursor_ = 0;

  // Sweep-deal cursor (persists across lazy quanta within one GC epoch).
  u32 deal_next_ = 0;
  u32 deal_run_ = 0;
  u64 deal_line_ = ~0ull;

  // Generational-nursery bookkeeping. The C++-side vectors are hints: a
  // transaction abort rolls back the simulated header bits but not these
  // pushes, so every entry is re-checked against its header flag before use.
  bool barrier_on_ = false;
  std::vector<RBasic*> young_;       ///< Objects allocated young this epoch.
  std::vector<RBasic*> remembered_;  ///< Old objects with young children.
  u64 young_since_minor_ = 0;

  // Incremental-mark epoch (grey stack shares the per-block mark bits with
  // stop-the-world marking; quanta never touch simulated memory).
  bool mark_epoch_active_ = false;
  std::vector<RBasic*> grey_;
  u64 mark_epoch_processed_ = 0;  ///< Objects traced by quanta this epoch.

  // Stash stealing: seeded deterministic victim permutation + stolen-range
  // metadata for describe_address (cleared at each major GC).
  std::vector<u32> steal_order_;
  u32 steal_cursor_ = 0;
  std::vector<std::pair<const RBasic*, u64>> stolen_ranges_;
};

}  // namespace gilfree::vm
