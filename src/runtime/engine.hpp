// The execution engine: binds the MiniRuby VM to the simulated machine, the
// HTM facility, the GIL, and the TLE algorithms, and runs the deterministic
// scheduling loop.
//
// One Engine = one program run on one machine configuration. The engine is
// the vm::Host: every interpreter memory access flows through it and is
// routed directly (GIL / FineGrained / Unsynced modes) or transactionally
// (HTM mode, inside transactions — there the fast path it wires calls the
// facility straight from the interpreter).
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "gil/gil.hpp"
#include "htm/htm.hpp"
#include "obs/observer.hpp"
#include "runtime/options.hpp"
#include "runtime/run_stats.hpp"
#include "sim/guest_space.hpp"
#include "sim/machine.hpp"
#include "stm/stm.hpp"
#include "tle/length_table.hpp"
#include "tle/tier_policy.hpp"
#include "vm/class_registry.hpp"
#include "vm/compiler.hpp"
#include "vm/heap.hpp"
#include "vm/interp.hpp"
#include "vm/thread.hpp"

namespace gilfree::runtime {

/// Interface of the simulated network/client side of the WEBrick and Rails
/// experiments (implemented by httpsim). Attached to an engine before run().
class ServerPort {
 public:
  virtual ~ServerPort() = default;
  /// Dequeues a request whose arrival time is <= now; -1 when none.
  virtual i64 accept(Cycles now) = 0;
  virtual std::string payload(i64 request_id) = 0;
  virtual void respond(i64 request_id, std::string_view body, Cycles now) = 0;
  /// True when every request has been issued and completed.
  virtual bool shutdown(Cycles now) = 0;
  /// Right after accept() and shutdown() answered -1 and false: the
  /// earliest virtual time at which either could answer differently, as
  /// long as nothing else calls the port. 0 = unknown. The engine skips a
  /// sole thread's idle accept polls before it (docs/ARCHITECTURE.md
  /// § Idle accept polls).
  virtual Cycles next_event_at() const { return 0; }
  /// When the request was issued by the client, for per-request latency
  /// tagging in the observability layer; 0 when the port does not track it.
  virtual Cycles request_issued_at(i64 request_id) {
    (void)request_id;
    return 0;
  }
  /// When accept() dequeued the request, for queue-delay accounting; 0 when
  /// the port does not track accept times.
  virtual Cycles request_accepted_at(i64 request_id) {
    (void)request_id;
    return 0;
  }
  /// Stamps port-side request accounting (admission-queue drops, the arrival
  /// process name, the offered rate) into the run's metrics document; called
  /// once at the end of Engine::run(). Default: nothing to add.
  virtual void annotate_request_metrics(obs::RequestMetrics& m) const {
    (void)m;
  }
  /// True when the port issues request deadlines and wants the engine to
  /// shed expired in-flight requests at yield points (docs/ROBUSTNESS.md).
  virtual bool deadline_shedding() const { return false; }
  /// True when the request's deadline has passed and it is still unanswered.
  virtual bool request_expired(i64 request_id, Cycles now) {
    (void)request_id;
    (void)now;
    return false;
  }
  /// The engine killed the serving thread of an expired request; the port
  /// accounts the shed (and may schedule a retry).
  virtual void shed_inflight(i64 request_id, Cycles now) {
    (void)request_id;
    (void)now;
  }
};

// `final` closes the virtual-dispatch seam: the compiler can devirtualize
// Host calls made through Engine&/Engine*, and the HostFastPath below
// bypasses the vtable entirely on the interpreter's hot paths.
class Engine final : public vm::Host, public fault::FaultListener {
 public:
  explicit Engine(EngineConfig config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compiles prelude + sources and boots the VM. Call exactly once.
  void load_program(const std::vector<std::string>& sources);

  /// Runs until every VM thread finishes. Throws vm::RubyError on Ruby
  /// errors and CheckFailure on engine invariant violations.
  RunStats run();

  const EngineConfig& config() const { return config_; }
  sim::Machine& machine() { return *machine_; }
  htm::HtmFacility* htm() { return htm_ ? htm_.get() : nullptr; }
  vm::Interp& interp() { return *interp_; }
  vm::Heap& heap() { return *heap_; }
  const sim::GuestSpace& guest_space() const { return gspace_; }
  vm::Program& program() { return *program_; }
  tle::LengthTable* length_table() {
    return length_table_ ? length_table_.get() : nullptr;
  }
  fault::FaultInjector* fault_injector() {
    return fault_ ? fault_.get() : nullptr;
  }
  stm::StmEngine* stm() { return stm_ ? stm_.get() : nullptr; }

  // --- fault::FaultListener ------------------------------------------------
  /// Forwards every injected fault into the observability layer as a
  /// `fault` trace event attributed to the currently scheduled thread.
  void on_fault_injected(fault::FaultKind kind, CpuId cpu, Cycles t) override;

  // --- vm::Host --------------------------------------------------------------
  u64 host_load(const u64* p, bool shared) override;
  void host_store(u64* p, u64 v, bool shared) override;
  void host_store_run(u64* p, const u64* values, u32 n) override;
  void charge(Cycles c) override;
  void require_nontx() override;
  void full_gc() override;
  void minor_gc() override;
  void collect_gc_roots(vm::GcRootSet& roots) override;
  bool in_speculation() override;
  u32 current_tid() override { return current_tid_; }
  vm::Value spawn_thread(vm::Value proc_val,
                         std::vector<vm::Value> args) override;
  bool thread_finished(u32 tid) override;
  void write_stdout(std::string_view s) override;
  u64 random_u64() override;
  void record_result(std::string_view key, double value) override;
  Cycles now_cycles() override;
  void internal_allocator_lock(Cycles hold) override;

  /// Server-simulation hooks delegate to the attached port.
  void attach_server(ServerPort* port) { server_ = port; }
  i64 accept_request() override;
  std::string take_request_payload(i64 request_id) override;
  void respond(i64 request_id, std::string_view payload) override;
  bool server_shutdown() override;

 private:
  enum class ThreadStatus : u8 {
    kRunnable,
    kWaitGil,   ///< Enqueued on the GIL; woken by direct hand-off.
    kParked,    ///< Sleeping until wake_at (I/O, poll, TLE spin-wait).
    kFinished,
  };

  /// Which cycle bucket charges currently land in.
  enum class Bucket : u8 { kOther, kTxWork, kStmWork, kGilHeld, kBeginEnd };

  struct SchedThread {
    std::unique_ptr<vm::VmThread> vm;
    ThreadStatus status = ThreadStatus::kRunnable;
    CpuId cpu = 0;
    Cycles wake_at = 0;
    Cycles parked_since = 0;
    bool parked_for_io = false;
    i32 join_target = -1;  ///< Parked until this thread exits.
    bool holds_gil = false;
    bool reacquire_gil = false;  ///< Reacquire the GIL after waking.
    Cycles gil_wait_since = 0;

    // TLE state (Fig. 1).
    bool in_tx = false;
    vm::ThreadRegs tx_snapshot;
    i32 tx_yp = -1;
    u32 tx_length = 0;
    tle::TierState tier;         ///< Retry budgets and watchdog streaks.
    i32 pending_begin_yp = -2;   ///< >= -1: a transaction_begin is pending.
    bool pending_spin = false;   ///< Pending begin is a spin wake
                                 ///< (TierPolicy::on_spin_wake).
    bool resume_nontx = false;  ///< Woken from a blocking-builtin park (HTM
                                ///< mode): re-execute the instruction
                                ///< outside both tx and GIL, like CRuby's
                                ///< futex-based primitives that never touch
                                ///< the GVL while waiting.
    bool tx_vanished = false;  ///< The hardware transaction was killed by a
                               ///< context switch while this thread was off
                               ///< the CPU; process the abort on resume.
    bool quarantine_slice_pending = false;  ///< Queued for a quarantined GIL
                                            ///< slice; arm the cycle deadline
                                            ///< when the GIL arrives.
    u32 gil_slice_yields_left = 0;  ///< Nonzero while running a quarantined
                                    ///< GIL slice (stock-GIL stepping):
                                    ///< original-yield-point checks left.
    bool skip_yield_once = false;  ///< The current instruction's yield point
                                   ///< was already consumed (a transaction
                                   ///< just began / was rolled back there);
                                   ///< Fig. 2's retry label is after the
                                   ///< yield logic.

    // Tier-2 software-transaction state (docs/TIERS.md). A software
    // transaction reuses tx_snapshot/tx_yp for rollback; unlike hardware
    // transactions it survives context switches and interrupts, so there is
    // no stm analogue of tx_vanished.
    bool in_stm = false;
    u32 stm_yields_left = 0;     ///< Yield points left in the current slice.

    CycleBreakdown breakdown;
    Cycles tx_pending_cycles = 0;  ///< Work since TBEGIN, bucketed at commit.
    Cycles stm_pending_cycles = 0;  ///< Work since stm begin, ditto.

    /// Request id this thread is serving (tagged by take_request_payload,
    /// cleared by respond); -1 when not serving. Lets the engine shed the
    /// thread mid-service when the request's deadline expires.
    i64 serving_request = -1;

    /// A dormant spinner (docs/ARCHITECTURE.md § Dormant spinners): parked
    /// in dormant_, with wake_at at its spin-loop trip poll; the polls
    /// before it are booked when it wakes.
    bool dormant = false;
    u32 scan_pos = 0;  ///< Index in active_ at the latest pick_next scan.
  };

  // Scheduling loop. `fuel` is the remaining instruction budget of the
  // current scheduling burst; each step consumes at least one unit.
  /// The thread to run next (null: the earliest parked thread woke into
  /// the GIL queue instead).
  SchedThread* pick_next();
  void step_thread(SchedThread& st, int& fuel);
  void step_gil_mode(SchedThread& st, int& fuel);
  void step_htm_mode(SchedThread& st, int& fuel);
  void step_free_mode(SchedThread& st, int& fuel);
  void execute_span(SchedThread& st, int& fuel, vm::YieldStop stop);
  void on_finished(SchedThread& st);
  u32 count_live_threads() const;
  u32 pick_cpu() const;

  // GIL management.
  void ensure_cpu_tx_free(CpuId cpu, u32 incoming_tid);
  bool gil_try_acquire_or_enqueue(SchedThread& st);
  void gil_release_and_handoff(SchedThread& st);
  void gil_yield(SchedThread& st);

  // TLE (Fig. 1 / Fig. 2).
  void transaction_begin(SchedThread& st, i32 yp);
  bool attempt_tx(SchedThread& st);  ///< TBEGIN + GIL read + thread globals.
  void transaction_end(SchedThread& st);
  void transaction_yield(SchedThread& st, i32 yp);
  void handle_abort(SchedThread& st, htm::AbortReason reason);
  /// Carries out a tle::TierPolicy decision. `leaving_stm`: the GIL steps
  /// are an STM → GIL tier transition.
  void run_tier_step(SchedThread& st, const tle::TierDecision& d,
                     bool leaving_stm = false);

  // Tier-2 software-transaction fallback (docs/TIERS.md). `entering` marks
  // a fresh HTM → STM escalation (tier event + counter) as opposed to an
  // STM-internal retry.
  void stm_begin(SchedThread& st, i32 yp, bool entering);
  void stm_end(SchedThread& st);
  void stm_yield(SchedThread& st, i32 yp);
  void handle_stm_abort(SchedThread& st, stm::StmAbortCause cause);
  void park(SchedThread& st, Cycles delay, bool is_io);
  void unpark(SchedThread& st);

  /// After a spin park: a spinner whose every poll until a GIL release
  /// would see the GIL held leaves the per-poll path (docs/ARCHITECTURE.md
  /// § Dormant spinners).
  void maybe_go_dormant(SchedThread& st);
  /// Books the spin polls a dormant spinner skipped before the current
  /// burst, as if each had run, and puts it back on the per-poll path.
  void wake_dormant(SchedThread& st);

  /// What one idle accept poll moves (docs/ARCHITECTURE.md § Idle accept
  /// polls): taken at each idle-accept park, or the difference of two.
  struct IdlePoll {
    u64 park_seq = 0;          ///< parks_ at the park.
    Cycles clock = 0;          ///< The parker's clock (its parked_since).
    Cycles accept_offset = 0;  ///< In a difference: the accept check
                               ///< minus the previous park.
    vm::InterpStats interp;
    CycleBreakdown breakdown;
    gil::GilStats gil;
  };
  /// At an idle-accept park: once a sole thread's last two poll cycles
  /// moved every counter alike, skips the polls that would run before the
  /// port's next event, as if each had run.
  void coalesce_idle_polls(SchedThread& st);

  /// Counts + reports one starvation-watchdog event for this thread.
  void report_watchdog(SchedThread& st, obs::WatchdogKind kind);

  /// The one emission point for run events: offers `e` to the trace
  /// observer and the recorder, each of which keeps its own projection
  /// (the record keeps sched/tx_abort/stm_abort/fault, the trace all but
  /// sched). Event sites build `e` only when emitting_.
  void emit(const obs::TraceEvent& e);

  /// MiniRuby source line for abort diagnostics. Aborts surface from inside
  /// instruction execution, where pc can transiently point past the end of
  /// the iseq; falls back to the rollback snapshot, then to 0 (unknown).
  u16 abort_source_line(const SchedThread& st) const;

  /// Mid-service deadline shedding: at a yield point, if this thread serves
  /// a request whose deadline expired, abandon the work (aborting any open
  /// transaction) and finish the thread. Returns true when the thread was
  /// shed (or rescheduled by a failed commit) and stepping must stop.
  bool maybe_shed_request(SchedThread& st);

  void charge_bucket(SchedThread& st, Bucket b, Cycles c);
  SchedThread& cur() { return *cur_; }
  /// Makes `st` the running thread (current_tid_ and cur()).
  void set_current(SchedThread& st) {
    cur_ = &st;
    current_tid_ = st.vm->tid();
  }

  // --- Host fast path (vm::HostFastPath wiring) ----------------------------
  /// Activates the fast path at run() start: cost constants.
  void init_fastpath();
  /// Re-points clock / busy / bucket pointers at the current thread's state.
  /// Must run after every transition of current thread, CPU, in_tx, or
  /// holds_gil.
  void sync_fastpath();
  Cycles now_of(CpuId cpu) { return machine_->clock(cpu); }

  vm::Heap::RootSet collect_roots();

  EngineConfig config_;
  /// Guest address space: every simulated slab (heap control words, arena
  /// blocks, spill blocks, VM stacks) registers a segment here in creation
  /// order, which is deterministic for a given (program, config, seed).
  /// Declared before htm_ so the facility's pointer outlives its user.
  sim::GuestSpace gspace_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<htm::HtmFacility> htm_;
  /// Fault-injection campaign; created only in HTM mode when
  /// config_.fault.enabled(), and attached to the HTM facility.
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<vm::Program> program_;
  std::unique_ptr<vm::ClassRegistry> classes_;
  std::unique_ptr<vm::Heap> heap_;
  std::unique_ptr<vm::Interp> interp_;
  std::unique_ptr<gil::Gil> gil_;
  /// Tier-2 software-transaction engine; created only in HTM mode when
  /// config_.stm.enabled (docs/TIERS.md).
  std::unique_ptr<stm::StmEngine> stm_;
  std::unique_ptr<tle::LengthTable> length_table_;
  tle::TierPolicy tier_policy_;
  /// Flight recorder + metrics aggregator; null unless config_.obs_sink is
  /// set. Fed every trace event through emit(); drained into the sink at
  /// the end of run().
  std::unique_ptr<obs::RunObserver> obs_;
  /// obs_ or config_.recorder is set: event sites build and emit events.
  bool emitting_ = false;
  Rng rng_;
  /// Dedicated stream for anti-lemming backoff jitter: keeps the VM-visible
  /// rng_ sequence (Kernel#rand etc.) independent of retry timing.
  Rng backoff_rng_;

  // deque: stable references across spawn_thread growth mid-step.
  std::deque<SchedThread> threads_;
  /// Unfinished threads — keeps the scheduler O(live), not O(ever
  /// created), which matters for thread-per-request servers.
  std::vector<SchedThread*> active_;
  /// Unfinished threads per CPU: spawns go to the least loaded, and a
  /// spinner goes dormant only alone on its CPU.
  std::vector<u32> cpu_threads_;
  /// Dormant spinners, in the order they went dormant.
  std::vector<SchedThread*> dormant_;
  /// The latest pick_next choice: its time and its index in active_.
  Cycles pick_time_ = 0;
  u32 pick_pos_ = 0;
  std::vector<vm::Value> temp_roots_;
  u32 live_count_ = 0;
  u32 current_tid_ = 0;
  SchedThread* cur_ = nullptr;  ///< threads_[current_tid_].
  ServerPort* server_ = nullptr;
  /// Which thread's transaction occupies each CPU's HTM state (-1 none).
  std::vector<i32> cpu_tx_tid_;
  Bucket current_bucket_ = Bucket::kOther;
  bool loaded_ = false;
  bool running_ = false;
  bool shed_requests_ = false;  ///< server_->deadline_shedding() at run().
  bool fastpath_on_ = false;  ///< Set by init_fastpath(); off during boot.

  Cycles next_timer_deadline_ = 0;
  Cycles allocator_busy_until_ = 0;  ///< FineGrained internal-lock timeline.

  // Idle accept-poll coalescing.
  u64 parks_ = 0;              ///< park() calls so far.
  Cycles last_accept_at_ = 0;  ///< Clock of the latest accept check.
  u32 idle_polls_ = 0;         ///< Chained idle polls seen (capped at 2).
  IdlePoll idle_last_;         ///< The latest idle-accept park.
  IdlePoll idle_step_;         ///< Its difference from the one before.

  u64 transactions_started_ = 0;
  u64 ctx_switch_aborts_ = 0;
  u64 gil_fallbacks_ = 0;
  u64 stm_escalations_ = 0;    ///< Tier transitions HTM → STM.
  u64 stm_gil_fallbacks_ = 0;  ///< Tier transitions STM → GIL.
  std::array<u64, obs::kNumWatchdogKinds> watchdogs_{};  ///< Per kind.
  u64 live_peak_ = 0;

  std::string stdout_;
  std::map<std::string, double> results_;
};

}  // namespace gilfree::runtime
