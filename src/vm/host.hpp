// The interface through which the VM touches simulated memory and machine
// services. The runtime engine implements it; in GIL mode accesses go
// straight to memory with cycle accounting, in HTM mode they are routed
// through the transactional facility (and may throw htm::TxAbort) — inside
// a hardware transaction by a direct call, with no virtual dispatch.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "htm/htm.hpp"
#include "vm/value.hpp"

namespace gilfree::vm {

struct RBasic;

/// Roots for a garbage collection: conservatively scanned slot ranges (VM
/// stacks) plus individually rooted values (class objects, literals,
/// temporaries). Defined here rather than in heap.hpp so hosts can hand
/// roots to the heap without depending on it.
struct GcRootSet {
  std::vector<std::pair<const u64*, std::size_t>> ranges;
  std::vector<Value> values;
};

/// A blocking builtin's request to wait (Mutex contention, ConditionVariable
/// waits, Thread#join, accept, simulated I/O). The builtin records it with
/// VmThread::request_park and returns; the interpreter then leaves the send
/// incomplete (arguments still on the stack, no result pushed) and ends the
/// span right after it. The engine takes the request, rewinds the pc to
/// re-execute the send after the thread wakes, releases the GIL while parked
/// (§3.2: blocking operations release the GIL), and resumes. Blocking
/// builtins must therefore be idempotent up to the point they request a park.
struct ParkRequest {
  Cycles delay;   ///< Virtual cycles to park for before re-executing.
  bool is_io;     ///< True for real blocking I/O (GIL released in GIL mode).
  /// When >= 0: park indefinitely and wake when this VM thread exits
  /// (Thread#join blocks on the thread's exit event, like CRuby's join,
  /// instead of polling).
  i32 wake_on_thread_exit = -1;
  /// accept_request found no request: the engine may coalesce a sole
  /// thread's run of identical idle polls (docs/ARCHITECTURE.md § Idle
  /// accept polls).
  bool idle_accept = false;
};

/// Non-virtual fast-path state the engine wires into its Host after boot.
/// Plain pointers into the simulated machine let the interpreter charge
/// cycles, touch thread-private memory and run transactional accesses
/// without a virtual call per access.
///
/// Inactive (clock == nullptr, the default) every helper falls back to the
/// virtual interface, so mock hosts in tests need no wiring.
struct HostFastPath {
  Cycles* clock = nullptr;        ///< Current CPU's clock; null → inactive.
  Cycles* bucket = nullptr;       ///< Breakdown bucket charges accumulate in.
  const u8* busy_self = nullptr;  ///< Live busy flags: contention is read at
  const u8* busy_sib = nullptr;   ///< charge time, never cached stale.
  double smt_slowdown = 1.0;
  /// Defer clock writes into `pending` (flushed by the engine at span
  /// boundaries and before any clock read). Bucket accounting stays eager.
  bool defer_clock = false;
  /// Thread-private (shared=false) lines may bypass the virtual memory seam
  /// entirely. Engine-maintained: false inside transactions, where accesses
  /// must grow the footprint and sample the interrupt model.
  bool direct_private_mem = false;
  /// The facility, non-null exactly while the running thread is in a
  /// hardware transaction (engine-maintained): mem_load/mem_store then
  /// charge and call tx_load/tx_store on `cpu` directly.
  htm::HtmFacility* htm = nullptr;
  CpuId cpu = 0;
  /// The running transaction's TCB yield counter while the interpreter may
  /// handle yield points itself (span_yield); null when every yield point
  /// must return to the engine.
  u64* yield_counter = nullptr;
  Cycles yield_cost = 0;          ///< yield_check + tls_access.
  Cycles pending = 0;             ///< Deferred, already-inflated cycles.
  Cycles mem_access_cost = 3;
  Cycles dispatch_cost = 14;
};

class Host {
 public:
  virtual ~Host() = default;

  /// The memory seam behind mem_load/mem_store for every access the
  /// in-transaction fast path does not take.
  virtual u64 host_load(const u64* p, bool shared) = 0;
  virtual void host_store(u64* p, u64 v, bool shared) = 0;

  /// Charge `c` cycles of non-memory work to the current CPU.
  virtual void charge(Cycles c) = 0;

  /// The seam behind mem_store_run outside the in-transaction fast path.
  /// Default: one host_store per slot.
  virtual void host_store_run(u64* p, const u64* values, u32 n);

  /// Called before an operation that cannot execute transactionally (a
  /// blocking syscall, a GC). If the current thread is speculating, this
  /// aborts the transaction with a persistent reason and unwinds (throws);
  /// execution will retry under the GIL.
  virtual void require_nontx() = 0;

  /// Run a stop-the-world GC. Precondition: the caller is not in a
  /// transaction (call require_nontx first). The engine supplies the roots.
  virtual void full_gc() = 0;

  /// Run a minor (nursery-only) collection. Same precondition as full_gc.
  /// Default: falls back to a full collection, so hosts that predate the
  /// nursery stay correct if the feature is ever enabled against them.
  virtual void minor_gc();

  /// Appends the engine's GC roots without collecting — used by incremental
  /// marking to seed a mark epoch. Default: no roots (mock hosts).
  virtual void collect_gc_roots(GcRootSet& roots);

  /// True while the calling thread is inside a hardware or software
  /// transaction. Incremental-mark quanta only run outside speculation.
  virtual bool in_speculation();

  /// Index of the VM thread currently executing on this host.
  virtual u32 current_tid() = 0;

  // --- Engine services used by builtins -------------------------------------
  // All blocking services require the caller to be outside a transaction
  // (call require_nontx first); they may release and reacquire the GIL.

  /// Spawns a VM thread running `proc_val` with `args`; returns its Thread
  /// object. Must be called outside transactions.
  virtual Value spawn_thread(Value proc_val, std::vector<Value> args) = 0;

  /// True when VM thread `tid` has finished (Thread#join polls this).
  virtual bool thread_finished(u32 tid) = 0;

  /// Writes program output (puts / HTTP responses in examples).
  virtual void write_stdout(std::string_view s) = 0;

  /// Deterministic per-engine RNG for Kernel#rand.
  virtual u64 random_u64() = 0;

  /// Records a named scalar result (workload verification values, timings).
  virtual void record_result(std::string_view key, double value) = 0;

  /// Current virtual time of the executing CPU, in cycles.
  virtual Cycles now_cycles() = 0;

  /// Entered around allocator refill critical sections. A no-op under the
  /// GIL and under HTM (where conflicts provide atomicity); the
  /// fine-grained-locking engine (JRuby analogue) serializes these sections
  /// on a shared lock timeline. Default: no-op.
  virtual void internal_allocator_lock(Cycles hold);

  // --- Server-simulation hooks (overridden by httpsim's engine) -------------

  /// Dequeues a pending HTTP request id; negative when none is waiting (the
  /// accept builtin then parks). Default: no server attached.
  virtual i64 accept_request();

  /// Request payload (the raw HTTP request text).
  virtual std::string take_request_payload(i64 request_id);

  /// Completes a request with a response payload.
  virtual void respond(i64 request_id, std::string_view payload);

  /// True once the request generator is exhausted (server loop should end).
  virtual bool server_shutdown();

  // --- Non-virtual hot path -------------------------------------------------

  /// Fast-path state; engines activate it, mock hosts leave it inactive.
  HostFastPath fast;

  /// 8-byte slot load. `shared` is false for lines only the current thread
  /// can touch (its interpreter stack); those still consume transaction
  /// footprint but skip conflict tracking.
  u64 mem_load(const u64* p, bool shared) {
    if (fast.htm != nullptr) return tx_mem_load(p, shared);
    return host_load(p, shared);
  }

  /// 8-byte slot store.
  void mem_store(u64* p, u64 v, bool shared) {
    if (fast.htm != nullptr) {
      tx_mem_store(p, v, shared);
      return;
    }
    host_store(p, v, shared);
  }

  /// `n` shared slot stores p[i] = values[i], in order: exactly
  /// n x mem_store(p + i, values[i], true). Library builtins fill their
  /// scratch with it. Inside a hardware transaction every slot still takes
  /// the transactional path (footprint, capacity and due events per
  /// access); otherwise the host may do its line work once per line.
  void mem_store_run(u64* p, const u64* values, u32 n);

  /// A yield point reached mid-span inside a hardware transaction (Fig. 2
  /// lines 8-16). When the TCB yield counter is above 1 the yield point is
  /// only its bookkeeping — charge the check, decrement the counter
  /// transactionally — and the span goes on; returns true. Returns false,
  /// having charged and touched nothing, when the engine must run the
  /// yield point: counter expiry, or no counter wired (one live thread,
  /// request shedding, STM, GIL). An abort at the counter access costs one
  /// unit of `fuel`, the scheduling slot the engine's own yield step
  /// would have spent, and propagates.
  bool span_yield(int& fuel) {
    if (fast.yield_counter == nullptr ||
        fast.htm->tx_peek(fast.cpu, fast.yield_counter) <= 1) {
      return false;
    }
    charge_fast(fast.yield_cost);
    try {
      const u64 cnt = tx_mem_load(fast.yield_counter, true);
      tx_mem_store(fast.yield_counter, cnt - 1, true);
    } catch (const htm::TxAbort&) {
      --fuel;
      throw;
    }
    return true;
  }

  /// Charge `c` cycles without a virtual call. Replicates
  /// sim::Machine::advance exactly: per-charge SMT inflation with the same
  /// double→integer truncation, so batched and eager charging produce
  /// bit-identical clocks.
  void charge_fast(Cycles c) {
    if (fast.clock == nullptr) {
      charge(c);
      return;
    }
    add_charged(smt_inflated(c));
  }

  /// `n` charges of `c` at once, each inflated on its own exactly as
  /// charge_fast(c) would. Requires an active fast path.
  void charge_fast_n(Cycles c, u32 n) { add_charged(smt_inflated(c) * n); }

  /// Thread-private slot access (the VM stack). Outside transactions these
  /// lines can never conflict — they are touched by exactly one thread and
  /// never enter HTM conflict tracking — so the access reduces to a cycle
  /// charge plus a raw load/store.
  u64 priv_load(const u64* p) {
    if (fast.direct_private_mem && fast.clock != nullptr) {
      charge_fast(fast.mem_access_cost);
      return *p;
    }
    return mem_load(p, /*shared=*/false);
  }

  void priv_store(u64* p, u64 v) {
    if (fast.direct_private_mem && fast.clock != nullptr) {
      charge_fast(fast.mem_access_cost);
      *p = v;
      return;
    }
    mem_store(p, v, /*shared=*/false);
  }

 private:
  /// One charge of `c` as sim::Machine::advance inflates it.
  Cycles smt_inflated(Cycles c) const {
    return (*fast.busy_self && *fast.busy_sib)
               ? static_cast<Cycles>(static_cast<double>(c) *
                                     fast.smt_slowdown)
               : c;
  }
  void add_charged(Cycles charged) {
    *fast.bucket += charged;
    if (fast.defer_clock) {
      fast.pending += charged;
    } else {
      *fast.clock += charged;
    }
  }

  /// mem_load/mem_store inside a hardware transaction: the memory-access
  /// charge, then tx_load/tx_store — the order host_load/host_store use.
  /// One direct call with the facility's model inlined behind it; kept out
  /// of line so each of the interpreter's many access sites stays a
  /// compare and a call.
  u64 tx_mem_load(const u64* p, bool shared);
  void tx_mem_store(u64* p, u64 v, bool shared);
};

}  // namespace gilfree::vm
