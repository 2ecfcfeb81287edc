#include "runtime/engine.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "common/check.hpp"
#include "htm/abort_reason.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "vm/builtins.hpp"
#include "vm/prelude.hpp"

namespace gilfree::runtime {

using htm::AbortReason;
using htm::TxAbort;
using obs::EventKind;
using vm::ParkRequest;

namespace {
void apply_profile_heap_defaults(EngineConfig& c) {
  c.heap.malloc_refill_chunks = c.profile.malloc_refill_chunks;
}

/// The counters of a stats struct, for idle-poll arithmetic.
template <auto... Fields>
struct CounterList {
  static constexpr std::size_t kBytes = sizeof...(Fields) * sizeof(u64);
  template <typename T>
  static T minus(const T& a, const T& b) {
    T d;
    ((d.*Fields = a.*Fields - b.*Fields), ...);
    return d;
  }
  template <typename T>
  static void add(T& a, const T& step, u64 k) {
    ((a.*Fields += k * (step.*Fields)), ...);
  }
  template <typename T>
  static bool equal(const T& a, const T& b) {
    return ((a.*Fields == b.*Fields) && ...);
  }
};

// A counter added to one of these structs must be listed here, or a
// coalesced idle poll would drop its share; the sizes enforce it.
using InterpCounters =
    CounterList<&vm::InterpStats::insns_retired, &vm::InterpStats::sends,
                &vm::InterpStats::ic_method_hits,
                &vm::InterpStats::ic_method_misses,
                &vm::InterpStats::ic_ivar_hits,
                &vm::InterpStats::ic_ivar_misses,
                &vm::InterpStats::allocations,
                &vm::InterpStats::fused_instructions>;
using BreakdownCounters =
    CounterList<&CycleBreakdown::begin_end, &CycleBreakdown::tx_success,
                &CycleBreakdown::tx_aborted, &CycleBreakdown::stm_work,
                &CycleBreakdown::gil_held, &CycleBreakdown::gil_wait,
                &CycleBreakdown::blocked_io, &CycleBreakdown::other>;
using GilCounters =
    CounterList<&gil::GilStats::acquisitions,
                &gil::GilStats::contended_acquisitions,
                &gil::GilStats::yields, &gil::GilStats::held_cycles>;
static_assert(sizeof(vm::InterpStats) == InterpCounters::kBytes,
              "list every InterpStats counter in InterpCounters");
static_assert(sizeof(CycleBreakdown) == BreakdownCounters::kBytes,
              "list every CycleBreakdown bucket in BreakdownCounters");
static_assert(sizeof(gil::GilStats) == GilCounters::kBytes,
              "list every GilStats counter in GilCounters");
}  // namespace

EngineConfig EngineConfig::gil(htm::SystemProfile p) {
  EngineConfig c;
  c.mode = SyncMode::kGil;
  c.profile = std::move(p);
  apply_profile_heap_defaults(c);
  return c;
}

EngineConfig EngineConfig::htm_fixed(htm::SystemProfile p, i32 length) {
  EngineConfig c;
  c.mode = SyncMode::kHtm;
  c.profile = std::move(p);
  c.tle.fixed_length = length;
  c.tle.adjustment_threshold = static_cast<u32>(
      c.profile.target_abort_ratio * c.tle.profiling_period);
  apply_profile_heap_defaults(c);
  return c;
}

EngineConfig EngineConfig::htm_dynamic(htm::SystemProfile p) {
  EngineConfig c = htm_fixed(std::move(p), -1);
  c.tle.fixed_length = -1;
  return c;
}

EngineConfig EngineConfig::fine_grained(htm::SystemProfile p) {
  EngineConfig c;
  c.mode = SyncMode::kFineGrained;
  c.profile = std::move(p);
  apply_profile_heap_defaults(c);
  return c;
}

EngineConfig EngineConfig::unsynced(htm::SystemProfile p) {
  EngineConfig c;
  c.mode = SyncMode::kUnsynced;
  c.profile = std::move(p);
  // The heap defaults already keep everything interpreter-internal
  // thread-local, as in the Java analogue.
  return c;
}

EngineConfig EngineConfig::by_name(htm::SystemProfile p,
                                   const std::string& name) {
  if (name == "GIL") return gil(std::move(p));
  if (name == "HTM-dynamic") return htm_dynamic(std::move(p));
  if (name.size() > 4 && name.compare(0, 4, "HTM-") == 0) {
    const char* first = name.data() + 4;
    const char* last = name.data() + name.size();
    i32 length = 0;
    const auto [end, ec] = std::from_chars(first, last, length);
    if (ec == std::errc() && end == last && length > 0)
      return htm_fixed(std::move(p), length);
  }
  throw std::invalid_argument("unknown engine config '" + name +
                              "' (expected GIL, HTM-<n> with n > 0, or "
                              "HTM-dynamic)");
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      tier_policy_(config_.mode == SyncMode::kHtm && config_.stm.enabled,
                   config_.stm.subscription == stm::GilSubscription::kEager,
                   config_.stm.commit_retry_max),
      rng_(config_.seed),
      backoff_rng_(config_.seed ^ 0xbacc0ffbacc0ffULL) {
  machine_ = std::make_unique<sim::Machine>(config_.profile.machine);
  cpu_tx_tid_.assign(machine_->num_cpus(), -1);
  cpu_threads_.assign(machine_->num_cpus(), 0);
  // Cost constants are valid even while the fast path is inactive (boot):
  // charge_fast falls back to the virtual charge() with the same amounts.
  fast.mem_access_cost = config_.profile.machine.cost.mem_access;
  fast.dispatch_cost = config_.profile.machine.cost.dispatch;
  fast.yield_cost = config_.profile.machine.cost.yield_check +
                    config_.profile.machine.cost.tls_access;
  GILFREE_CHECK_MSG(config_.shard_id < std::max<u32>(config_.shard_count, 1),
                    "shard_id " << config_.shard_id
                                << " out of range for shard_count "
                                << config_.shard_count);
  // Each shard's HTM facility derives its RNG streams from (seed, shard_id):
  // independent interrupt arrivals per shard, shard 0 ≡ unsharded.
  config_.profile.htm.shard_id = config_.shard_id;
  if (config_.mode == SyncMode::kHtm) {
    // Guest addressing: the HTM and STM line spaces key on process-stable
    // segment:offset addresses instead of host pointers.
    htm_ = std::make_unique<htm::HtmFacility>(config_.profile.htm,
                                              machine_.get(), &gspace_);
    if (config_.fault.enabled()) {
      fault_ = std::make_unique<fault::FaultInjector>(config_.fault,
                                                      machine_->num_cpus());
      fault_->set_listener(this);
      htm_->set_fault_injector(fault_.get());
    }
    if (config_.stm.enabled) {
      // Both tiers conflict on the same line granularity.
      config_.stm.line_bytes = config_.profile.htm.line_bytes;
      stm_ = std::make_unique<stm::StmEngine>(config_.stm, &gspace_,
                                              htm_.get());
      htm_->set_write_listener(stm_.get());
    }
  }
}

void Engine::emit(const obs::TraceEvent& e) {
  if (obs_) obs_->on_event(e);
  if (config_.recorder != nullptr) config_.recorder->record(e);
}

void Engine::on_fault_injected(fault::FaultKind kind, CpuId cpu, Cycles t) {
  if (emitting_) {
    emit({.kind = EventKind::kFault, .t = t, .tid = current_tid_, .cpu = cpu,
          .detail = static_cast<u8>(kind)});
  }
}

void Engine::report_watchdog(SchedThread& st, obs::WatchdogKind kind) {
  ++watchdogs_[static_cast<std::size_t>(kind)];
  if (emitting_) {
    emit({.kind = EventKind::kWatchdog, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
          .detail = static_cast<u8>(kind)});
  }
}

Engine::~Engine() = default;

void Engine::load_program(const std::vector<std::string>& sources) {
  GILFREE_CHECK(!loaded_);
  loaded_ = true;

  std::vector<std::string> all;
  all.push_back(vm::prelude_source());
  for (const auto& s : sources) all.push_back(s);
  program_ = std::make_unique<vm::Program>(vm::compile_sources(all));

  classes_ = std::make_unique<vm::ClassRegistry>(&program_->symbols);
  vm::install_builtins(*classes_, program_->symbols);

  vm::HeapConfig hc = config_.heap;
  hc.max_threads = std::max<u32>(hc.max_threads, 64);
  hc.steal_seed = config_.seed;  // deterministic stash-steal victim order
  // The heap registers its slabs (control words, arena blocks, spill blocks)
  // as guest segments in construction/growth order — deterministic for a
  // given (program, config, seed), so guest addresses match across runs.
  hc.guest_space = &gspace_;
  heap_ = std::make_unique<vm::Heap>(hc);
  // Register every compiled global / constant name as a slot.
  for (std::size_t i = 0; i < program_->global_names.size(); ++i)
    heap_->register_global_var();
  for (std::size_t i = 0; i < program_->constant_names.size(); ++i)
    heap_->register_constant();

  interp_ = std::make_unique<vm::Interp>(program_.get(), heap_.get(),
                                         classes_.get(), this, config_.vm);
  gil_ = std::make_unique<gil::Gil>(heap_->gil_word(),
                                    htm_ ? htm_.get() : nullptr);
  if (stm_) {
    stm_->set_gil_word(heap_->gil_word());
    // Eager GIL subscription: every acquisition dooms all live software
    // transactions, as if the GIL word were in each read set.
    gil_->set_acquire_listener(stm_.get());
  }
  length_table_ = std::make_unique<tle::LengthTable>(
      program_->num_yield_points, config_.tle);
  if (config_.obs_sink != nullptr && config_.obs_sink->enabled()) {
    const obs::ObsConfig& oc = config_.obs_sink->config();
    obs_ = std::make_unique<obs::RunObserver>(oc.ring_capacity, oc.sample,
                                              config_.seed);
  }
  emitting_ = obs_ != nullptr || config_.recorder != nullptr;

  // Main thread.
  SchedThread& main = threads_.emplace_back();
  active_.push_back(&main);
  live_count_ = 1;
  main.vm = std::make_unique<vm::VmThread>(0, config_.stack_slots);
  gspace_.add_segment("stack-t0", main.vm->stack_base(),
                      u64{main.vm->stack_slots()} * 8);
  main.cpu = 0;
  ++cpu_threads_[0];
  set_current(main);

  // Boot allocations run "pre-measurement": direct-ish accesses on CPU 0.
  interp_->boot();
  interp_->init_main_frame(*main.vm);
  main.vm->thread_object = heap_->new_thread_object(*this, 0);

  // Reset the clock so measurements exclude boot.
  machine_->reset();
  next_timer_deadline_ = config_.gil_quantum;

  switch (config_.mode) {
    case SyncMode::kGil: {
      const bool ok = gil_->try_acquire(main.cpu, 0, 0);
      GILFREE_CHECK(ok);
      main.holds_gil = true;
      break;
    }
    case SyncMode::kHtm:
      main.pending_begin_yp = -1;  // transaction_begin at first step
      break;
    default:
      break;
  }
  machine_->set_busy(main.cpu, true);
}

// ---------------------------------------------------------------------------
// Scheduling loop
// ---------------------------------------------------------------------------

u32 Engine::count_live_threads() const { return live_count_; }

u32 Engine::pick_cpu() const {
  u32 best = 0;
  for (u32 c = 1; c < machine_->num_cpus(); ++c)
    if (cpu_threads_[c] < cpu_threads_[best]) best = c;
  return best;
}

Engine::SchedThread* Engine::pick_next() {
  SchedThread* best = nullptr;
  Cycles best_time = ~Cycles{0};
  u32 best_pos = 0;
  for (u32 pos = 0; pos < active_.size(); ++pos) {
    SchedThread* t = active_[pos];
    Cycles time;
    if (t->status == ThreadStatus::kRunnable) {
      time = machine_->clock(t->cpu);
    } else if (t->status == ThreadStatus::kParked) {
      time = std::max(machine_->clock(t->cpu), t->wake_at);
    } else {
      continue;
    }
    t->scan_pos = pos;
    if (time < best_time) {
      best_time = time;
      best = t;
      best_pos = pos;
    }
  }
  if (best == nullptr) {
    GILFREE_CHECK_MSG(false, "scheduler deadlock: no runnable or parked "
                             "threads, but live threads remain");
  }
  pick_time_ = best_time;
  pick_pos_ = best_pos;
  SchedThread& st = *best;
  // A join park has no wake time of its own (only the joined thread's exit
  // sets one), so it is the earliest candidate only when every live thread
  // is blocked in a join.
  GILFREE_CHECK_MSG(
      st.status != ThreadStatus::kParked || st.join_target < 0,
      "scheduler deadlock: every live thread is blocked in Thread#join "
      "(thread " << st.vm->tid() << " joins thread " << st.join_target
                 << ")");
  if (st.status == ThreadStatus::kParked) {
    if (st.dormant) wake_dormant(st);  // its spin-loop trip poll
    unpark(st);
    if (st.status != ThreadStatus::kRunnable) return nullptr;  // kWaitGil
  }
  return best;
}

void Engine::unpark(SchedThread& st) {
  flush_fastpath();  // advance_to is a max(): pending must land first
  machine_->advance_to(st.cpu, st.wake_at);
  const Cycles waited =
      st.wake_at > st.parked_since ? st.wake_at - st.parked_since : 0;
  if (st.parked_for_io) {
    st.breakdown.blocked_io += waited;
  } else {
    st.breakdown.gil_wait += waited;
  }
  st.status = ThreadStatus::kRunnable;
  machine_->set_busy(st.cpu, true);
  if (st.reacquire_gil) {
    st.reacquire_gil = false;
    (void)gil_try_acquire_or_enqueue(st);
  }
}

void Engine::maybe_go_dormant(SchedThread& st) {
  // A recorder logs every poll as a scheduling decision. Another thread on
  // the CPU moves its clock between polls. A GIL holder, reacquirer or
  // queued waiter can be handed the GIL while parked, which moves its clock.
  if (config_.recorder != nullptr || cpu_threads_[st.cpu] > 1 ||
      st.holds_gil || st.reacquire_gil ||
      gil_->is_waiting(st.vm->tid()) || !gil_->is_acquired())
    return;
  st.dormant = true;
  st.wake_at = st.parked_since +
               tle::kSpinWaitCycles *
                   (tle::kSpinStreakBudget - st.tier.spin_streak);
  dormant_.push_back(&st);
}

void Engine::wake_dormant(SchedThread& st) {
  // The per-poll loop ran every poll on the grid parked_since + j * 400
  // that pick_next chose before the current burst: each one before the
  // burst's pick time, and one at the pick time if that scan reached `st`
  // before the picked thread. Each saw the GIL held (a burst that ends with
  // the GIL free wakes every dormant spinner), so each only parked again.
  const Cycles horizon = pick_time_ + (st.scan_pos < pick_pos_ ? 1 : 0);
  const u64 k = horizon > st.parked_since
                    ? (horizon - st.parked_since - 1) / tle::kSpinWaitCycles
                    : 0;
  // The trip poll reports the watchdog: it always runs for real.
  GILFREE_CHECK(st.tier.spin_streak + k < tle::kSpinStreakBudget);
  st.tier.spin_streak += static_cast<u32>(k);
  parks_ += k;
  const Cycles skipped = k * tle::kSpinWaitCycles;
  st.breakdown.gil_wait += skipped;
  st.parked_since += skipped;
  st.wake_at = st.parked_since + tle::kSpinWaitCycles;
  machine_->advance_to(st.cpu, st.parked_since);
  st.dormant = false;
  dormant_.erase(std::find(dormant_.begin(), dormant_.end(), &st));
}

void Engine::park(SchedThread& st, Cycles delay, bool is_io) {
  GILFREE_CHECK(!st.in_tx && !st.in_stm);
  ++parks_;
  if (st.holds_gil) {
    gil_release_and_handoff(st);
    st.reacquire_gil = true;
  }
  st.status = ThreadStatus::kParked;
  st.parked_since = now_of(st.cpu);
  st.wake_at = st.parked_since + delay;
  st.parked_for_io = is_io;
  machine_->set_busy(st.cpu, false);
}

RunStats Engine::run() {
  GILFREE_CHECK(loaded_ && !running_);
  running_ = true;
  shed_requests_ = server_ != nullptr && server_->deadline_shedding();

  init_fastpath();
  // A thread runs a short burst per scheduling decision; interleaving at
  // ~burst granularity is indistinguishable for footprint-based conflict
  // detection and an order of magnitude faster to simulate. The burst is a
  // fuel budget: the interpreter runs spans of up to `fuel` instructions
  // between yield-point checks instead of one dispatch-loop trip per insn.
  constexpr int kBurst = 12;
  while (count_live_threads() > 0) {
    // Time-travel stop: the recorder reached its --until event during the
    // previous burst; stop at this scheduling boundary with VM state intact.
    if (config_.recorder != nullptr && config_.recorder->stop_requested())
      break;
    // The previous burst ended with the GIL free: every dormant spinner's
    // next poll sees it.
    while (!dormant_.empty() && !gil_->is_acquired())
      wake_dormant(*dormant_.back());
    SchedThread* const next = pick_next();
    if (next == nullptr) continue;
    SchedThread& st = *next;
    if (config_.recorder != nullptr) {
      emit({.kind = EventKind::kSched, .t = machine_->clock(st.cpu),
            .tid = st.vm->tid(), .cpu = st.cpu});
    }
    int fuel = kBurst;
    while (fuel > 0) {
      step_thread(st, fuel);
      if (st.status != ThreadStatus::kRunnable) break;
    }
    flush_fastpath();  // pick_next reads raw clocks
    if (config_.max_insns != 0 &&
        interp_->stats().insns_retired > config_.max_insns) {
      GILFREE_CHECK_MSG(false, "instruction budget exceeded ("
                                   << config_.max_insns << ")");
    }
  }

  flush_fastpath();
  RunStats stats;
  stats.total_cycles = machine_->global_time();
  stats.virtual_seconds = machine_->seconds(stats.total_cycles);
  stats.insns_retired = interp_->stats().insns_retired;
  stats.live_thread_peak = live_peak_;
  if (htm_) stats.htm = htm_->total_stats();
  stats.gil = gil_->stats();
  for (const auto& t : threads_) stats.breakdown.merge(t.breakdown);
  stats.gc = heap_->gc_stats();
  stats.interp = interp_->stats();
  stats.transactions_started = transactions_started_;
  stats.ctx_switch_aborts = ctx_switch_aborts_;
  stats.gil_fallbacks = gil_fallbacks_;
  stats.length_adjustments = length_table_->adjustments();
  stats.fraction_length_one = length_table_->fraction_at_length_one();
  stats.quarantine_enters = length_table_->quarantine_enters();
  stats.quarantine_probes = length_table_->quarantine_probes();
  stats.quarantine_exits = length_table_->quarantine_exits();
  stats.watchdogs_by_kind = watchdogs_;
  for (const u64 n : watchdogs_) stats.watchdog_events += n;
  if (stm_) stats.stm = stm_->stats();
  stats.stm_escalations = stm_escalations_;
  stats.stm_gil_fallbacks = stm_gil_fallbacks_;
  if (fault_) stats.faults = fault_->stats();
  stats.results = results_;
  stats.output = stdout_;

  if (config_.recorder != nullptr) {
    // The trailer's summary doubles as a replay checksum: a replayed run
    // must reproduce these counters exactly, not just the event stream.
    std::map<std::string, u64> summary;
    summary["insns"] = stats.insns_retired;
    summary["cycles"] = stats.total_cycles;
    summary["tx_begins"] = stats.htm.begins;
    summary["tx_commits"] = stats.htm.commits;
    summary["tx_aborts"] = stats.htm.total_aborts();
    summary["gil_fallbacks"] = stats.gil_fallbacks;
    summary["stm_escalations"] = stats.stm_escalations;
    config_.recorder->end_run(summary);
    config_.recorder->flush();
  }

  if (obs_ && config_.obs_sink != nullptr) {
    obs::RunMetrics m = obs_->finalize();
    if (server_ != nullptr) server_->annotate_request_metrics(m.requests);
    m.labels = config_.obs_sink->take_labels();
    m.seed = config_.seed;
    m.mode = std::string(sync_mode_name(config_.mode));
    m.machine = config_.profile.machine.name;
    m.stats = stats;
    for (auto& [yp, ym] : m.per_yield_point) {
      ym.final_length = length_table_->length(yp);
      ym.length_adjustments = length_table_->adjustments_at(yp);
      ym.quarantine_enters = length_table_->quarantine_enters_at(yp);
      ym.quarantine_exits = length_table_->quarantine_exits_at(yp);
    }
    config_.obs_sink->finish_run(std::move(m), obs_->drain_events());
  }
  return stats;
}

void Engine::step_thread(SchedThread& st, int& fuel) {
  set_current(st);
  GILFREE_CHECK(st.status == ThreadStatus::kRunnable);
  GILFREE_CHECK(!st.vm->finished());
  live_peak_ = std::max<u64>(live_peak_, live_count_);

  // Context switch: HTM state is per-CPU, so scheduling a different thread
  // onto a CPU aborts the transaction resident there (the victim processes
  // the abort when it resumes).
  ensure_cpu_tx_free(st.cpu, st.vm->tid());
  sync_fastpath();

  const int fuel_before = fuel;
  switch (config_.mode) {
    case SyncMode::kGil:
      step_gil_mode(st, fuel);
      break;
    case SyncMode::kHtm:
      step_htm_mode(st, fuel);
      break;
    case SyncMode::kFineGrained:
    case SyncMode::kUnsynced:
      step_free_mode(st, fuel);
      break;
  }
  // Scheduling-only steps (pending begins, spin retries, GIL hand-offs)
  // still consume a burst slot even though no instruction retired.
  if (fuel == fuel_before) --fuel;
}

// ---------------------------------------------------------------------------
// GIL engine (original CRuby, §3.2)
// ---------------------------------------------------------------------------

void Engine::step_gil_mode(SchedThread& st, int& fuel) {
  GILFREE_CHECK(st.holds_gil);

  const vm::Insn& in = interp_->current_insn(*st.vm);
  // Original yield points only: back-branches and leave (§3.2). The
  // extended set exists only in the HTM build (§5.1).
  if (in.yp >= 0 && !vm::is_extended_yield_op(in.op)) {
    if (maybe_shed_request(st)) return;
    // Timer thread: every quantum, flag the running thread (§3.2). The
    // deadline is checked where the flag is consumed — at yield points —
    // so spans between yield points need no per-instruction clock reads.
    const Cycles now = now_of(st.cpu);
    if (now >= next_timer_deadline_) {
      *heap_->tcb_slot(st.vm->tid(), vm::kTcbInterruptFlag) = 1;
      next_timer_deadline_ = now + config_.gil_quantum;
    }
    charge(config_.profile.machine.cost.yield_check);
    u64* flag = heap_->tcb_slot(st.vm->tid(), vm::kTcbInterruptFlag);
    if (*flag != 0 && count_live_threads() > 1 &&
        (gil_->num_waiters() > 0)) {
      *flag = 0;
      gil_yield(st);
      if (!st.holds_gil) return;
    }
    *flag = 0;
  }
  execute_span(st, fuel, vm::YieldStop::kOriginal);
}

void Engine::gil_yield(SchedThread& st) {
  gil_->note_yield();
  charge(config_.profile.machine.cost.sched_yield);
  gil_release_and_handoff(st);
  // Re-enter the queue; woken by hand-off.
  gil_->enqueue_waiter(st.vm->tid());
  st.status = ThreadStatus::kWaitGil;
  st.gil_wait_since = now_of(st.cpu);
  machine_->set_busy(st.cpu, false);
}

void Engine::ensure_cpu_tx_free(CpuId cpu, u32 incoming_tid) {
  if (htm_ == nullptr) return;
  const i32 owner = cpu_tx_tid_[cpu];
  if (owner < 0 || owner == static_cast<i32>(incoming_tid)) return;
  SchedThread& victim = threads_[static_cast<u32>(owner)];
  htm_->force_abort(cpu, AbortReason::kInterrupt);
  victim.tx_vanished = true;
  cpu_tx_tid_[cpu] = -1;
  ++ctx_switch_aborts_;
}

bool Engine::gil_try_acquire_or_enqueue(SchedThread& st) {
  ensure_cpu_tx_free(st.cpu, st.vm->tid());
  const Cycles now = now_of(st.cpu);
  if (gil_->try_acquire(st.cpu, st.vm->tid(), now)) {
    st.holds_gil = true;
    if (config_.mode == SyncMode::kHtm) {
      ++gil_fallbacks_;
      if (emitting_) {
        emit({.kind = EventKind::kGilFallback, .t = now, .tid = st.vm->tid(),
              .cpu = st.cpu, .yp = st.tx_yp});
      }
    }
    charge_bucket(st, Bucket::kGilHeld,
                  config_.profile.machine.cost.gil_acquire);
    return true;
  }
  gil_->enqueue_waiter(st.vm->tid());
  st.status = ThreadStatus::kWaitGil;
  st.gil_wait_since = now;
  machine_->set_busy(st.cpu, false);
  return false;
}

void Engine::gil_release_and_handoff(SchedThread& st) {
  charge_bucket(st, Bucket::kGilHeld,
                config_.profile.machine.cost.gil_release);
  const Cycles now = now_of(st.cpu);
  const i32 head = gil_->release(st.cpu, st.vm->tid(), now);
  st.holds_gil = false;
  st.gil_slice_yields_left = 0;  // a quarantined slice ends with its GIL
  if (head < 0) return;

  // Direct hand-off to the head waiter.
  SchedThread& next = threads_[static_cast<u32>(head)];
  GILFREE_CHECK(!next.dormant);  // queued waiters never go dormant
  ensure_cpu_tx_free(next.cpu, next.vm->tid());
  gil_->remove_waiter(static_cast<u32>(head));
  Cycles wake = config_.profile.machine.cost.wakeup_latency;
  if (fault_) wake += fault_->gil_handoff_delay(next.cpu, now);
  machine_->advance_to(next.cpu, now + wake);
  const bool ok = gil_->try_acquire(next.cpu, static_cast<u32>(head),
                                    machine_->clock(next.cpu));
  GILFREE_CHECK(ok);
  next.holds_gil = true;
  if (config_.mode == SyncMode::kHtm) {
    ++gil_fallbacks_;
    if (emitting_) {
      emit({.kind = EventKind::kGilFallback, .t = machine_->clock(next.cpu),
            .tid = next.vm->tid(), .cpu = next.cpu, .yp = next.tx_yp});
    }
  }
  next.status = ThreadStatus::kRunnable;
  machine_->set_busy(next.cpu, true);
  const Cycles since = next.gil_wait_since;
  const Cycles waited_until = machine_->clock(next.cpu);
  const Cycles waited = waited_until > since ? waited_until - since : 0;
  next.breakdown.gil_wait += waited;
  next.tier.on_progress();  // the hand-off itself is forced progress
  if (waited > tle::kGilWaitBudget) {
    report_watchdog(next, obs::WatchdogKind::kGilWait);
  }
  charge_bucket(next, Bucket::kGilHeld,
                config_.profile.machine.cost.gil_acquire);
}

// ---------------------------------------------------------------------------
// HTM engine (TLE, §4)
// ---------------------------------------------------------------------------

void Engine::step_htm_mode(SchedThread& st, int& fuel) {
  // Which instructions the interpreter must stop at while speculating (or
  // holding the GIL outside a quarantine slice) — the §4.2 extended set, or
  // the original set when the extension is configured off.
  const vm::YieldStop txstop = config_.vm.extended_yield_points
                                   ? vm::YieldStop::kAll
                                   : vm::YieldStop::kOriginal;

  // A context switch killed this thread's transaction while it was off-CPU.
  if (st.in_tx && st.tx_vanished) {
    st.tx_vanished = false;
    handle_abort(st, AbortReason::kInterrupt);
    return;
  }
  st.tx_vanished = false;

  // Futex-style retry of a blocking builtin: run the one instruction
  // outside transaction and GIL (its accesses are non-transactional and
  // doom conflicting transactions, like any coherency traffic).
  if (st.resume_nontx) {
    st.resume_nontx = false;
    GILFREE_CHECK(!st.in_tx);
    if (!st.holds_gil) {
      int one = 1;
      execute_span(st, one, vm::YieldStop::kNone);
      --fuel;
      if (st.status == ThreadStatus::kRunnable && !st.in_tx &&
          !st.holds_gil && st.pending_begin_yp < -1 && !st.vm->finished()) {
        // Completed: resume transactional execution at the next insn.
        st.pending_begin_yp = -1;
      }
      return;
    }
    // Handed the GIL while parked: continue under it below.
  }

  // A deferred transaction_begin (thread start, spin-retry) takes this slot.
  if (st.pending_begin_yp >= -1) {
    const i32 yp = st.pending_begin_yp;
    st.pending_begin_yp = -2;
    if (st.pending_spin) {
      st.pending_spin = false;
      const tle::GilView gil = st.holds_gil        ? tle::GilView::kOwn
                               : gil_->is_acquired() ? tle::GilView::kHeld
                                                     : tle::GilView::kFree;
      run_tier_step(st, tier_policy_.on_spin_wake(st.tier, gil));
      return;
    }
    transaction_begin(st, yp);
    return;
  }
  GILFREE_CHECK_MSG(st.in_tx || st.in_stm || st.holds_gil,
                    "HTM-mode thread stepping outside tx, STM, and GIL");

  // Quarantined GIL slice (docs/ROBUSTNESS.md): run like the stock GIL
  // interpreter — original yield points only, released after a fixed count
  // of them — instead of paying the per-yield-point counter maintenance of
  // the HTM build at every extended yield point. The slice ends on a yield
  // count rather than a cycle deadline so the boundary (and the trace events
  // it emits) does not move with host allocation addresses.
  if (st.holds_gil && st.quarantine_slice_pending) {
    st.quarantine_slice_pending = false;
    st.gil_slice_yields_left = config_.tle.quarantine_slice_yields;
  }
  if (st.holds_gil && st.gil_slice_yields_left != 0) {
    st.skip_yield_once = false;
    const vm::Insn& qin = interp_->current_insn(*st.vm);
    if (qin.yp >= 0 && !vm::is_extended_yield_op(qin.op)) {
      if (maybe_shed_request(st)) return;
      charge(config_.profile.machine.cost.yield_check);
      if (--st.gil_slice_yields_left == 0) {
        // Slice over: hand the GIL off and re-route (quarantine keeps the
        // yield point on the GIL; a due probe re-tries HTM).
        transaction_end(st);
        if (!st.holds_gil) {
          transaction_begin(st, qin.yp);
          if (!(st.in_tx || st.holds_gil)) return;  // queued / parked
        }
        // Continue under whatever regime the re-route chose.
        st.skip_yield_once = false;  // this instruction executes now
        execute_span(st, fuel, st.in_tx ? txstop : vm::YieldStop::kOriginal);
        return;
      }
    }
    execute_span(st, fuel, vm::YieldStop::kOriginal);
    return;
  }

  const vm::Insn& in = interp_->current_insn(*st.vm);
  bool is_yield_point =
      in.yp >= 0 && (config_.vm.extended_yield_points ||
                     !vm::is_extended_yield_op(in.op));
  if (st.skip_yield_once) {
    st.skip_yield_once = false;
    is_yield_point = false;
  }
  if (is_yield_point) {
    if (maybe_shed_request(st)) return;
    charge(config_.profile.machine.cost.yield_check +
           config_.profile.machine.cost.tls_access);
    try {
      transaction_yield(st, in.yp);
    } catch (const TxAbort& ab) {
      handle_abort(st, ab.reason);
      return;
    }
    if (!(st.in_tx || st.in_stm || st.holds_gil)) return;  // parked / queued
  }
  // The span executes the current instruction unconditionally: its yield
  // point was handled (or skipped) above, so the skip flag is spent.
  st.skip_yield_once = false;
  execute_span(st, fuel, txstop);
}

void Engine::transaction_yield(SchedThread& st, i32 yp) {
  // Software transactions keep their own engine-side slice counter: the TCB
  // yield-counter line stays out of the STM read/write sets, so unrelated
  // threads' counter decrements cannot invalidate the transaction.
  if (st.in_stm) {
    stm_yield(st, yp);
    return;
  }
  // Fig. 2 lines 8-16.
  if (count_live_threads() <= 1) return;
  u64* counter = heap_->tcb_slot(st.vm->tid(), vm::kTcbYieldCounter);
  const u64 cnt = mem_load(counter, true);
  if (cnt <= 1) {
    transaction_end(st);
    if (st.in_tx || st.holds_gil) return;  // commit failed → abort path ran
    transaction_begin(st, yp);
  } else {
    mem_store(counter, cnt - 1, true);
  }
}

void Engine::transaction_begin(SchedThread& st, i32 yp) {
  // The instruction at the begin point runs inside the new context without
  // re-triggering its own yield point (Fig. 1's transaction_retry label is
  // below the yield logic).
  st.skip_yield_once = true;

  // A GIL hand-off can land while a begin was pending; the fallback
  // execution then simply proceeds under the GIL.
  if (st.holds_gil) return;

  // Fig. 1 lines 2-3: single-threaded execution keeps the GIL.
  if (count_live_threads() <= 1) {
    // Re-begin once the GIL arrives.
    if (!gil_try_acquire_or_enqueue(st)) st.pending_begin_yp = yp;
    return;
  }

  st.tx_yp = yp;

  // Quarantine circuit breaker (docs/ROBUSTNESS.md): a yield point that
  // keeps aborting at minimum length runs a long slice on the STM tier or
  // the GIL; recovery probes re-try HTM on an exponential backoff.
  const tle::BreakerRoute route = length_table_->begin_route(yp);
  if (route == tle::BreakerRoute::kOpen) {
    const tle::TierDecision d = tier_policy_.on_quarantined_begin(st.tier);
    // A GIL slice's deadline is armed once the GIL actually arrives (the
    // thread may sit in the hand-off queue first).
    if (d.step == tle::TierStep::kGil) st.quarantine_slice_pending = true;
    run_tier_step(st, d);
    return;
  }

  // Fig. 1 line 5 (+ Fig. 3): runs once per begin, not per retry.
  // A recovery probe is a minimum-footprint attempt.
  const bool probe = route == tle::BreakerRoute::kProbe;
  st.tx_length = probe ? config_.tle.min_length
                       : length_table_->set_transaction_length(yp);
  if (probe && emitting_) {
    emit({.kind = EventKind::kQuarantineProbe, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = yp});
  }
  // Publish the planned length to the thread structure (Fig. 2 line 10's
  // counter). Non-transactional store; false-shares when TCBs are packed.
  ensure_cpu_tx_free(st.cpu, st.vm->tid());
  htm_->nontx_store(st.cpu, heap_->tcb_slot(st.vm->tid(), vm::kTcbYieldCounter),
                    st.tx_length);
  run_tier_step(st, tier_policy_.on_begin(st.tier, probe,
                                          gil_->is_acquired()));
}

bool Engine::attempt_tx(SchedThread& st) {
  ++transactions_started_;
  if (emitting_) {
    emit({.kind = EventKind::kTxBegin, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
          .length = st.tx_length});
  }
  // The thread's stack is the transaction's private window.
  const AbortReason begin_result = htm_->tx_begin(
      st.cpu, st.tx_yp, {st.vm->stack_base(), st.vm->stack_slots()});
  if (begin_result != AbortReason::kNone) {
    handle_abort(st, begin_result);
    return false;
  }
  charge_bucket(st, Bucket::kBeginEnd, config_.profile.machine.cost.tbegin);
  st.in_tx = true;
  st.tx_vanished = false;
  st.tx_snapshot = st.vm->regs();
  st.tx_pending_cycles = 0;
  cpu_tx_tid_[st.cpu] = static_cast<i32>(st.vm->tid());
  GILFREE_CHECK(!st.vm->finished());

  try {
    // Fig. 1 lines 14-15: the GIL word joins the read set; abort now if it
    // is already held.
    const u64 gil_word = htm_->tx_load(st.cpu, heap_->gil_word(), true);
    if (gil_word != 0) {
      htm_->tx_abort(st.cpu, AbortReason::kExplicit);
      throw TxAbort{AbortReason::kExplicit};
    }
    // §4.4 (a): the interpreter re-points its "running thread" variable at
    // every transaction begin — globally (conflict storm) or thread-locally.
    if (config_.vm.thread_local_current_thread) {
      htm_->tx_store(st.cpu,
                     heap_->tcb_slot(st.vm->tid(), vm::kTcbCurrentThread),
                     st.vm->tid() + 1, true);
    } else {
      htm_->tx_store(st.cpu, heap_->current_thread_global(),
                     st.vm->tid() + 1, true);
    }
  } catch (const TxAbort& ab) {
    handle_abort(st, ab.reason);
    return false;
  }
  sync_fastpath();  // in_tx: charges now land in tx_pending_cycles
  return true;
}

void Engine::transaction_end(SchedThread& st) {
  // Fig. 2 lines 1-4.
  if (st.holds_gil) {
    st.tier.on_progress();  // a completed GIL slice is progress
    gil_release_and_handoff(st);
    return;
  }
  GILFREE_CHECK(st.in_tx);
  charge_bucket(st, Bucket::kBeginEnd, config_.profile.machine.cost.tend);
  const AbortReason reason = htm_->tx_commit(st.cpu);
  if (reason != AbortReason::kNone) {
    handle_abort(st, reason);
    return;
  }
  st.in_tx = false;
  if (cpu_tx_tid_[st.cpu] == static_cast<i32>(st.vm->tid()))
    cpu_tx_tid_[st.cpu] = -1;
  st.breakdown.tx_success += st.tx_pending_cycles;
  st.tx_pending_cycles = 0;
  st.tier.on_progress();
  if (emitting_) {
    emit({.kind = EventKind::kTxCommit, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
          .length = st.tx_length});
  }
  if (length_table_->on_commit(st.tx_yp) && emitting_) {
    emit({.kind = EventKind::kQuarantineExit, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp});
  }
  sync_fastpath();
}

u16 Engine::abort_source_line(const SchedThread& st) const {
  const auto line_at = [this](const vm::ThreadRegs& r) -> i32 {
    if (r.iseq < 0 ||
        static_cast<std::size_t>(r.iseq) >= program_->iseqs.size())
      return -1;
    const auto& insns = program_->iseq(r.iseq).insns;
    if (r.pc >= insns.size()) return -1;
    return insns[r.pc].line;
  };
  i32 line = st.vm->finished() ? -1 : line_at(st.vm->regs());
  if (line < 0 && (st.in_tx || st.in_stm)) line = line_at(st.tx_snapshot);
  return line < 0 ? u16{0} : static_cast<u16>(line);
}

void Engine::handle_abort(SchedThread& st, AbortReason reason) {
  // A TxAbort thrown while running a *software* transaction (StmEngine's
  // abort paths reuse the exception type so the interpreter unwinds the
  // same way) belongs to the STM handler, keyed on the richer StmAbortCause.
  if (st.in_stm) {
    handle_stm_abort(st, stm_->last_cause(st.vm->tid()));
    return;
  }
  // One abort event per HtmStats abort: every facility-level abort path
  // (eager begin refusal, doomed commit, TxAbort mid-bytecode, context
  // switch) funnels through exactly one handle_abort call.
  //
  // Diagnostics captured before the rollback below rewinds the registers:
  // the MiniRuby source line where the abort surfaced, and — for conflicts —
  // the guest address of the line the winner doomed us on (process-stable,
  // so traces and record streams compare byte-for-byte across processes).
  if (emitting_) {
    u64 gaddr = 0;
    if (htm_ != nullptr) {
      const LineId line = htm_->last_conflict_line(st.cpu);
      if (line != kInvalidLine) gaddr = line * config_.profile.htm.line_bytes;
    }
    emit({.kind = EventKind::kTxAbort, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
          .length = st.tx_length, .reason = reason, .gaddr = gaddr,
          .src_line = abort_source_line(st)});
  }
  // Roll the interpreter back to the TBEGIN snapshot; the HTM facility has
  // already discarded the speculative stores.
  if (st.in_tx) {
    st.vm->regs() = st.tx_snapshot;
    if (st.vm->finished()) st.vm->clear_finished();
    st.in_tx = false;
    if (cpu_tx_tid_[st.cpu] == static_cast<i32>(st.vm->tid()))
      cpu_tx_tid_[st.cpu] = -1;
    sync_fastpath();  // out of the transaction: no direct facility calls
  }
  // Execution resumes at the TBEGIN snapshot, i.e. at the yield-point
  // instruction whose yield was already consumed.
  st.skip_yield_once = true;
  st.breakdown.tx_aborted +=
      st.tx_pending_cycles + config_.profile.machine.cost.abort_penalty;
  machine_->advance(st.cpu, config_.profile.machine.cost.abort_penalty);
  st.tx_pending_cycles = 0;

  const tle::TierDecision d =
      tier_policy_.on_htm_abort(st.tier, reason, gil_->is_acquired());
  if (d.adjust_length) {
    const tle::AdjustOutcome adj =
        length_table_->adjust_transaction_length(st.tx_yp);
    if (adj.entered_quarantine && emitting_) {
      emit({.kind = EventKind::kQuarantineEnter, .t = now_of(st.cpu),
            .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp});
    }
  }
  run_tier_step(st, d);
}

void Engine::run_tier_step(SchedThread& st, const tle::TierDecision& d,
                           bool leaving_stm) {
  switch (d.step) {
    case tle::TierStep::kBackoffRetryHtm:
      // Burn the delay on this CPU without leaving the scheduler slot: a
      // park here would turn the jittered wake time into a scheduling
      // decision and make the event order timing-sensitive. The jitter has
      // its own RNG stream, so Kernel#rand is unaffected.
      st.breakdown.tx_aborted += machine_->advance(
          st.cpu, tle::TierPolicy::backoff_delay(d.backoff_attempt,
                                                 backoff_rng_.next_double()));
      [[fallthrough]];
    case tle::TierStep::kRetryHtm:
      // Execution resumes at the yield-point instruction whose yield was
      // already consumed.
      st.skip_yield_once = true;
      (void)attempt_tx(st);
      return;
    case tle::TierStep::kSpin:
      st.pending_begin_yp = st.tx_yp;
      st.pending_spin = true;
      park(st, tle::kSpinWaitCycles, /*is_io=*/false);
      maybe_go_dormant(st);
      return;
    case tle::TierStep::kEnterStm:
      stm_begin(st, st.tx_yp, /*entering=*/true);
      return;
    case tle::TierStep::kRetryStm:
      stm_begin(st, st.tx_yp, /*entering=*/false);
      return;
    case tle::TierStep::kWatchdogGil:
      report_watchdog(st, d.watchdog);
      [[fallthrough]];
    case tle::TierStep::kGil:
      if (leaving_stm) {
        ++stm_gil_fallbacks_;
        if (emitting_) {
          emit({.kind = EventKind::kTier, .t = now_of(st.cpu),
                .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
                .detail = static_cast<u8>(obs::TierTransition::kStmToGil)});
        }
      }
      if (!st.holds_gil) (void)gil_try_acquire_or_enqueue(st);
      return;
  }
}

// ---------------------------------------------------------------------------
// STM tier (tier 2, docs/TIERS.md)
// ---------------------------------------------------------------------------

void Engine::stm_begin(SchedThread& st, i32 yp, bool entering) {
  st.skip_yield_once = true;

  // A GIL hand-off can land while the escalation was in flight; execution
  // then simply proceeds under the GIL (tier 3 wins).
  if (st.holds_gil) return;

  // Single-threaded execution keeps the GIL — nothing to speculate against.
  if (count_live_threads() <= 1) {
    if (!gil_try_acquire_or_enqueue(st)) st.pending_begin_yp = yp;
    return;
  }

  if (entering) {
    ++stm_escalations_;
    if (emitting_) {
      emit({.kind = EventKind::kTier, .t = now_of(st.cpu),
            .tid = st.vm->tid(), .cpu = st.cpu, .yp = yp,
            .detail = static_cast<u8>(obs::TierTransition::kHtmToStm)});
    }
  }

  // Eager subscription reads the GIL word up front, like Fig. 1 lines
  // 14-15: begin under a held GIL is pointless (the acquisition listener
  // would doom us immediately), so serialize right away. Lazy subscription
  // skips this check and validates the word at commit instead. With every
  // STM slot live the span serializes the same way.
  if ((config_.stm.subscription == stm::GilSubscription::kEager &&
       gil_->is_acquired()) ||
      !stm_->can_begin()) {
    run_tier_step(st, {.step = tle::TierStep::kGil}, /*leaving_stm=*/true);
    return;
  }

  st.tx_yp = yp;
  charge_bucket(st, Bucket::kBeginEnd, config_.stm.begin_cost);
  stm_->begin(st.vm->tid());
  st.in_stm = true;
  st.tx_snapshot = st.vm->regs();
  st.stm_pending_cycles = 0;
  st.stm_yields_left = config_.stm.slice_yields;
  GILFREE_CHECK(!st.vm->finished());
  if (emitting_) {
    emit({.kind = EventKind::kStmBegin, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = yp});
  }
  sync_fastpath();  // in_stm: charges now land in stm_pending_cycles
}

void Engine::stm_yield(SchedThread& st, i32 yp) {
  if (st.stm_yields_left > 1 && count_live_threads() > 1) {
    --st.stm_yields_left;
    return;
  }
  // Slice over: commit, then hand routing back to the escalation entry
  // point — quarantine may keep the yield point on the STM tier, a due
  // probe re-tries HTM.
  stm_end(st);
  if (st.in_stm || st.holds_gil) return;  // commit failed → abort path ran
  if (emitting_ && !length_table_->quarantined(yp)) {
    emit({.kind = EventKind::kTier, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = yp,
          .detail = static_cast<u8>(obs::TierTransition::kStmToHtm)});
  }
  transaction_begin(st, yp);
}

void Engine::stm_end(SchedThread& st) {
  GILFREE_CHECK(st.in_stm);
  const u32 tid = st.vm->tid();
  charge_bucket(st, Bucket::kBeginEnd,
                config_.stm.commit_base_cost +
                    config_.stm.validate_per_entry *
                        stm_->held_line_count(tid) +
                    config_.stm.publish_per_entry *
                        stm_->write_entry_count(tid));
  const stm::StmAbortCause outcome = stm_->commit(tid, st.cpu);
  if (outcome != stm::StmAbortCause::kNone) {
    handle_stm_abort(st, outcome);
    return;
  }
  st.in_stm = false;
  st.breakdown.stm_work += st.stm_pending_cycles;
  st.stm_pending_cycles = 0;
  st.tier.on_progress();
  if (emitting_) {
    emit({.kind = EventKind::kStmCommit, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp});
  }
  // Deliberately NOT length_table_->on_commit: an STM commit is not
  // evidence that HTM works here — only a committed *probe* may reset the
  // quarantine state.
  sync_fastpath();
}

void Engine::handle_stm_abort(SchedThread& st, stm::StmAbortCause cause) {
  if (emitting_) {
    emit({.kind = EventKind::kStmAbort, .t = now_of(st.cpu),
          .tid = st.vm->tid(), .cpu = st.cpu, .yp = st.tx_yp,
          .detail = static_cast<u8>(cause),
          .src_line = abort_source_line(st)});
  }
  // Roll the interpreter back to the stm_begin snapshot; the StmEngine has
  // already discarded the write buffer.
  if (st.in_stm) {
    st.vm->regs() = st.tx_snapshot;
    if (st.vm->finished()) st.vm->clear_finished();
    st.in_stm = false;
  }
  st.skip_yield_once = true;
  st.breakdown.tx_aborted +=
      st.stm_pending_cycles + config_.stm.abort_penalty;
  machine_->advance(st.cpu, config_.stm.abort_penalty);
  st.stm_pending_cycles = 0;
  sync_fastpath();

  run_tier_step(st, tier_policy_.on_stm_abort(st.tier, cause),
                /*leaving_stm=*/true);
}

// ---------------------------------------------------------------------------
// FineGrained / Unsynced engines
// ---------------------------------------------------------------------------

void Engine::step_free_mode(SchedThread& st, int& fuel) {
  execute_span(st, fuel, vm::YieldStop::kNone);
}

// ---------------------------------------------------------------------------
// Instruction execution (all modes)
// ---------------------------------------------------------------------------

void Engine::execute_span(SchedThread& st, int& fuel, vm::YieldStop stop) {
  sync_fastpath();  // the yield logic above may have moved tx / GIL state
  try {
    interp_->run_span(*st.vm, fuel, stop);
  } catch (const TxAbort& ab) {
    handle_abort(st, ab.reason);
    return;
  }
  if (st.vm->park_requested()) {
    // Rewind to re-execute the blocking send after waking; its yield point
    // was already consumed on the way in. The span ended right after the
    // send, so a one-instruction rewind is exact.
    const ParkRequest pr = st.vm->take_park();
    GILFREE_CHECK(!st.in_tx && !st.in_stm);
    st.vm->regs().pc -= 1;
    st.skip_yield_once = true;
    if (pr.wake_on_thread_exit >= 0 &&
        !threads_[static_cast<u32>(pr.wake_on_thread_exit)].vm->finished()) {
      st.join_target = pr.wake_on_thread_exit;
      park(st, ~Cycles{0} / 4, pr.is_io);  // woken by the exit event
    } else {
      park(st, pr.delay, pr.is_io);
    }
    if (config_.mode == SyncMode::kHtm) {
      // Blocking primitives wait futex-style: the retry runs outside both
      // transaction and GIL instead of reacquiring the GIL per poll.
      st.reacquire_gil = false;
      st.resume_nontx = true;
    }
    if (pr.idle_accept) coalesce_idle_polls(st);
    return;
  }
  if (st.vm->finished()) on_finished(st);
}

void Engine::coalesce_idle_polls(SchedThread& st) {
  // Only the sole live thread's consecutive idle polls repeat exactly; a
  // recorder logs every scheduling decision, so it must see them all.
  if (live_count_ != 1 || config_.recorder != nullptr) {
    idle_polls_ = 0;
    return;
  }
  IdlePoll now;
  now.park_seq = parks_;
  now.clock = st.parked_since;
  now.interp = interp_->stats();
  now.breakdown = st.breakdown;
  now.gil = gil_->stats();
  if (idle_polls_ == 0 || idle_last_.park_seq + 1 != parks_) {
    idle_polls_ = 1;
    idle_last_ = now;
    return;
  }
  IdlePoll step;
  step.clock = now.clock - idle_last_.clock;
  step.accept_offset = last_accept_at_ - idle_last_.clock;
  step.interp = InterpCounters::minus(now.interp, idle_last_.interp);
  step.breakdown = BreakdownCounters::minus(now.breakdown,
                                            idle_last_.breakdown);
  step.gil = GilCounters::minus(now.gil, idle_last_.gil);
  const bool steady =
      idle_polls_ == 2 && step.clock != 0 &&
      step.clock == idle_step_.clock &&
      step.accept_offset == idle_step_.accept_offset &&
      InterpCounters::equal(step.interp, idle_step_.interp) &&
      BreakdownCounters::equal(step.breakdown, idle_step_.breakdown) &&
      GilCounters::equal(step.gil, idle_step_.gil);
  idle_polls_ = 2;
  idle_last_ = now;
  idle_step_ = step;
  if (!steady) return;

  // Two poll cycles moved every counter alike, and nothing else can run:
  // each further poll repeats the last one a period later, checking
  // accept at first_check + j * period. Skip those before the port's next
  // event; the poll after them accepts for real.
  const Cycles next_event = server_->next_event_at();
  const Cycles first_check = now.clock + step.accept_offset;
  if (next_event <= first_check) return;  // 0: unknown
  u64 k = (next_event - first_check + step.clock - 1) / step.clock;
  // An instruction budget still trips after the same poll.
  if (config_.max_insns != 0 && step.interp.insns_retired != 0) {
    const u64 done = now.interp.insns_retired;
    const u64 left = config_.max_insns > done ? config_.max_insns - done : 0;
    k = std::min(k, left / step.interp.insns_retired);
  }
  if (k == 0) return;
  GILFREE_CHECK(machine_->clock(st.cpu) == st.parked_since);
  InterpCounters::add(interp_->mutable_stats(), step.interp, k);
  BreakdownCounters::add(st.breakdown, step.breakdown, k);
  GilCounters::add(gil_->mutable_stats(), step.gil, k);
  const Cycles shift = k * step.clock;
  st.parked_since += shift;
  st.wake_at += shift;
  machine_->advance_to(st.cpu, st.parked_since);
  idle_last_.clock = st.parked_since;
  idle_last_.interp = interp_->stats();
  idle_last_.breakdown = st.breakdown;
  idle_last_.gil = gil_->stats();
}

void Engine::on_finished(SchedThread& st) {
  if (st.in_stm) {
    stm_end(st);
    if (st.in_stm || !st.vm->finished()) return;  // commit failed, re-run
  }
  if (st.in_tx) {
    transaction_end(st);
    if (st.in_tx || !st.vm->finished()) return;  // commit failed, re-run
  }
  if (st.holds_gil) gil_release_and_handoff(st);
  st.status = ThreadStatus::kFinished;
  GILFREE_CHECK(live_count_ > 0);
  --live_count_;
  --cpu_threads_[st.cpu];
  machine_->set_busy(st.cpu, false);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] == &st) {
      active_[i] = active_.back();
      active_.pop_back();
      break;
    }
  }

  // Wake joiners blocked on this thread's exit.
  const i32 self_tid = static_cast<i32>(st.vm->tid());
  const Cycles now = now_of(st.cpu);
  for (SchedThread* other : active_) {
    if (other->status == ThreadStatus::kParked &&
        other->join_target == self_tid) {
      other->join_target = -1;
      other->wake_at = now + config_.profile.machine.cost.wakeup_latency;
    }
  }
}

bool Engine::maybe_shed_request(SchedThread& st) {
  if (!shed_requests_ || st.serving_request < 0) return false;
  if (!server_->request_expired(st.serving_request, now_of(st.cpu)))
    return false;
  // Commit (not roll back) any open transaction first: the work done so far
  // is real and other threads may already depend on its stores. A failed
  // commit takes the normal abort path, which reschedules the thread — the
  // shed then re-fires at its next yield point.
  if (st.in_stm || st.in_tx) {
    if (st.in_stm) {
      stm_end(st);
    } else {
      transaction_end(st);
    }
    if (st.in_stm || st.in_tx || st.status != ThreadStatus::kRunnable ||
        st.pending_begin_yp >= -1) {
      return true;
    }
  }
  const i64 req = st.serving_request;
  st.serving_request = -1;
  if (emitting_) {
    emit({.kind = EventKind::kShed, .t = now_of(st.cpu), .tid = st.vm->tid(),
          .cpu = st.cpu, .req = req});
  }
  server_->shed_inflight(req, now_of(st.cpu));
  // Abandon the rest of the handler: the worker thread finishes with nil,
  // exactly as if the program had returned early. Joins on it still work.
  st.vm->finish(vm::Value::nil());
  on_finished(st);
  return true;
}

// ---------------------------------------------------------------------------
// vm::Host implementation
// ---------------------------------------------------------------------------

void Engine::init_fastpath() {
  if (!config_.vm.host_fast_path) return;  // benchmark baseline: stay virtual
  fast.smt_slowdown = config_.profile.machine.cost.smt_slowdown;
  fast.mem_access_cost = config_.profile.machine.cost.mem_access;
  fast.dispatch_cost = config_.profile.machine.cost.dispatch;
  // Batched clock charging is only sound without an HTM facility: the
  // facility samples the machine clock inside tx_begin/tx_load/tx_store
  // (interrupt model), which would observe a stale clock mid-span.
  defer_clock_ = (htm_ == nullptr) && config_.vm.batched_charging;
  fastpath_on_ = true;
  sync_fastpath();
}

void Engine::sync_fastpath() {
  if (!fastpath_on_) return;
  flush_fastpath();  // pending cycles belong to the previous clock
  SchedThread& st = cur();
  fast.clock = machine_->clock_slot(st.cpu);
  fast.busy_self = machine_->busy_flag(st.cpu);
  fast.busy_sib = machine_->sibling_busy_flag(st.cpu);
  fast.bucket = st.in_tx       ? &st.tx_pending_cycles
                : st.in_stm    ? &st.stm_pending_cycles
                : st.holds_gil ? &st.breakdown.gil_held
                               : &st.breakdown.other;
  fast.defer_clock = defer_clock_;
  // In-transaction accesses must flow through tx_load/tx_store (footprint
  // growth, conflict detection, interrupt-model clock sampling); outside
  // transactions a thread-private line can never conflict. Software
  // transactions must buffer even private stores for rollback.
  fast.direct_private_mem = (htm_ == nullptr) || (!st.in_tx && !st.in_stm);
  // Inside a hardware transaction the interpreter calls the facility
  // directly, and handles yield points whose only work is the counter
  // decrement (transaction_yield's else-branch) without leaving the span.
  // With one live thread, or deadline shedding on, every yield point needs
  // the engine.
  fast.htm = st.in_tx ? htm_.get() : nullptr;
  fast.cpu = st.cpu;
  fast.yield_counter =
      (st.in_tx && count_live_threads() > 1 && !shed_requests_)
          ? heap_->tcb_slot(st.vm->tid(), vm::kTcbYieldCounter)
          : nullptr;
}

void Engine::charge_bucket(SchedThread& st, Bucket b, Cycles c) {
  const Cycles charged = machine_->advance(st.cpu, c);
  switch (b) {
    case Bucket::kTxWork:
      st.tx_pending_cycles += charged;
      break;
    case Bucket::kStmWork:
      st.stm_pending_cycles += charged;
      break;
    case Bucket::kBeginEnd:
      st.breakdown.begin_end += charged;
      break;
    case Bucket::kGilHeld:
      st.breakdown.gil_held += charged;
      break;
    case Bucket::kOther:
      st.breakdown.other += charged;
      break;
  }
}

void Engine::charge(Cycles c) {
  if (fast.clock != nullptr) {
    // Active fast path: same bucket/clock the slow path below would pick
    // (sync_fastpath maintains the mapping across tx/GIL transitions).
    charge_fast(c);
    return;
  }
  SchedThread& st = cur();
  if (st.in_tx) {
    charge_bucket(st, Bucket::kTxWork, c);
  } else if (st.in_stm) {
    charge_bucket(st, Bucket::kStmWork, c);
  } else if (st.holds_gil) {
    charge_bucket(st, Bucket::kGilHeld, c);
  } else {
    charge_bucket(st, Bucket::kOther, c);
  }
}

u64 Engine::host_load(const u64* p, bool shared) {
  charge(config_.profile.machine.cost.mem_access);
  SchedThread& st = cur();
  if (htm_ && st.in_tx) return htm_->tx_load(st.cpu, p, shared);
  if (stm_ && st.in_stm) {
    charge(config_.stm.read_overhead);
    return stm_->load(st.vm->tid(), st.cpu, p, shared);
  }
  if (htm_) return htm_->nontx_load(st.cpu, p);
  return *p;
}

void Engine::host_store(u64* p, u64 v, bool shared) {
  charge(config_.profile.machine.cost.mem_access);
  SchedThread& st = cur();
  if (htm_ && st.in_tx) {
    htm_->tx_store(st.cpu, p, v, shared);
    return;
  }
  if (stm_ && st.in_stm) {
    charge(config_.stm.write_overhead);
    stm_->store(st.vm->tid(), st.cpu, p, v, shared);
    return;
  }
  if (htm_) {
    htm_->nontx_store(st.cpu, p, v);
    return;
  }
  *p = v;
}

void Engine::host_store_run(u64* p, const u64* values, u32 n) {
  const SchedThread& st = cur();
  // Transactions track every slot; the virtual-host reference path stays
  // one access at a time.
  if (st.in_tx || st.in_stm || fast.clock == nullptr) {
    vm::Host::host_store_run(p, values, n);
    return;
  }
  charge_fast_n(config_.profile.machine.cost.mem_access, n);
  if (htm_) {
    htm_->nontx_store_run(st.cpu, p, values, n);
    return;
  }
  std::copy_n(values, n, p);
}

void Engine::require_nontx() {
  SchedThread& st = cur();
  if (stm_ && st.in_stm) {
    // Same contract as the HTM path below, one tier down: only the GIL can
    // run restricted operations.
    st.tier.force_gil = true;
    stm_->abort(st.vm->tid(), stm::StmAbortCause::kUnsupported);
    return;  // unreachable: abort throws
  }
  if (!st.in_tx) return;
  // Restricted operation inside a transaction: persistent abort, and the
  // retry must go straight to the GIL (a transactional retry would hit the
  // same instruction again).
  st.tier.force_gil = true;
  htm_->tx_abort(st.cpu, AbortReason::kUnsupported);
  throw TxAbort{AbortReason::kUnsupported};
}

void Engine::full_gc() {
  SchedThread& self = cur();
  GILFREE_CHECK(!self.in_tx && !self.in_stm);
  // Stop the world: every in-flight transaction is doomed before the
  // collector mutates memory (a GIL acquisition would have doomed them via
  // the GIL-word conflict; a GIL-less trigger must do it explicitly).
  if (htm_) htm_->doom_all(kInvalidCpu, AbortReason::kConflict);
  if (stm_) stm_->doom_all(stm::StmAbortCause::kGc);
  const Cycles cost = heap_->run_gc(collect_roots());
  charge(cost);
  (void)self;
}

void Engine::minor_gc() {
  SchedThread& self = cur();
  GILFREE_CHECK(!self.in_tx && !self.in_stm);
  // Minor collections stop the world like full ones — the young-set scan
  // reads other threads' stacks and relinks freed slots.
  if (htm_) htm_->doom_all(kInvalidCpu, AbortReason::kConflict);
  if (stm_) stm_->doom_all(stm::StmAbortCause::kGc);
  const Cycles cost = heap_->run_minor_gc(*this, collect_roots());
  charge(cost);
  (void)self;
}

void Engine::collect_gc_roots(vm::GcRootSet& roots) { roots = collect_roots(); }

bool Engine::in_speculation() {
  const SchedThread& st = cur();
  return st.in_tx || st.in_stm;
}

vm::Heap::RootSet Engine::collect_roots() {
  vm::Heap::RootSet roots;
  for (const auto& t : threads_) {
    // For threads rolled back on their next step, the consistent stack
    // extent is the TBEGIN snapshot (speculative writes never reached
    // memory).
    const u64 sp =
        (t.in_tx || t.in_stm) ? t.tx_snapshot.sp : t.vm->regs().sp;
    roots.ranges.emplace_back(t.vm->stack_base(),
                              static_cast<std::size_t>(sp));
    roots.values.push_back(t.vm->thread_object);
  }
  roots.values.push_back(interp_->main_object());
  for (const vm::Value& v : interp_->literals()) roots.values.push_back(v);
  for (vm::ClassId c = 0; c < classes_->num_classes(); ++c)
    roots.values.push_back(classes_->class_object(c));
  for (const vm::Value& v : temp_roots_) roots.values.push_back(v);
  return roots;
}

vm::Value Engine::spawn_thread(vm::Value proc_val,
                               std::vector<vm::Value> args) {
  SchedThread& creator = cur();
  GILFREE_CHECK(!creator.in_tx && !creator.in_stm);
  // The child's clock is initialized from the creator's, and advance_to is
  // a max(): batched cycles must land first.
  flush_fastpath();
  const u32 tid = static_cast<u32>(threads_.size());
  GILFREE_CHECK_MSG(tid < heap_->config().max_threads,
                    "too many VM threads");

  const u32 chosen_cpu = pick_cpu();
  // The child will move the CPU's clock: a dormant spinner there returns
  // to the per-poll path first.
  for (SchedThread* d : dormant_) {
    if (d->cpu == chosen_cpu) {
      wake_dormant(*d);
      break;
    }
  }
  SchedThread& st = threads_.emplace_back();
  active_.push_back(&st);
  ++live_count_;
  ++cpu_threads_[chosen_cpu];
  st.vm = std::make_unique<vm::VmThread>(tid, config_.stack_slots);
  gspace_.add_segment("stack-t" + std::to_string(tid), st.vm->stack_base(),
                      u64{st.vm->stack_slots()} * 8);
  st.cpu = chosen_cpu;

  // Allocate the Thread object while `proc_val` is still rooted on the
  // creator's stack.
  temp_roots_.push_back(proc_val);
  st.vm->thread_object = heap_->new_thread_object(*this, tid);
  temp_roots_.pop_back();

  interp_->init_proc_frame(*st.vm, proc_val, args);

  // new_thread_object / init_proc_frame above charge allocation cycles,
  // which batched mode defers: flush again so the child starts at the
  // creator's true clock.
  const Cycles now = now_of(creator.cpu);
  switch (config_.mode) {
    case SyncMode::kGil:
      st.status = ThreadStatus::kWaitGil;
      gil_->enqueue_waiter(tid);
      st.gil_wait_since = now;
      machine_->advance_to(st.cpu, now);
      break;
    case SyncMode::kHtm:
      st.status = ThreadStatus::kRunnable;
      st.pending_begin_yp = -1;
      machine_->advance_to(st.cpu, now);
      machine_->set_busy(st.cpu, true);
      break;
    default:
      st.status = ThreadStatus::kRunnable;
      machine_->advance_to(st.cpu, now);
      machine_->set_busy(st.cpu, true);
      break;
  }
  live_peak_ = std::max<u64>(live_peak_, live_count_);
  return st.vm->thread_object;
}

bool Engine::thread_finished(u32 tid) {
  GILFREE_CHECK(tid < threads_.size());
  return threads_[tid].vm->finished();
}

void Engine::write_stdout(std::string_view s) { stdout_.append(s); }

u64 Engine::random_u64() { return rng_.next_u64(); }

void Engine::record_result(std::string_view key, double value) {
  results_[std::string(key)] = value;
}

Cycles Engine::now_cycles() { return now_of(cur().cpu); }

i64 Engine::accept_request() {
  if (!server_) return vm::Host::accept_request();
  last_accept_at_ = now_cycles();
  return server_->accept(last_accept_at_);
}

std::string Engine::take_request_payload(i64 request_id) {
  if (!server_) return vm::Host::take_request_payload(request_id);
  cur().serving_request = request_id;
  return server_->payload(request_id);
}

void Engine::respond(i64 request_id, std::string_view payload) {
  if (!server_) return vm::Host::respond(request_id, payload);
  const Cycles now = now_cycles();
  if (emitting_) {
    const Cycles issued = server_->request_issued_at(request_id);
    const Cycles accepted = server_->request_accepted_at(request_id);
    // Request events carry no CPU (cpu 0): the latency spans CPUs.
    emit({.kind = EventKind::kRequest, .t = now, .tid = cur().vm->tid(),
          .req = request_id, .latency = now > issued ? now - issued : 0,
          .queue = accepted > issued && accepted <= now ? accepted - issued
                                                         : 0});
  }
  server_->respond(request_id, payload, now);
  cur().serving_request = -1;
}

bool Engine::server_shutdown() {
  if (!server_) return vm::Host::server_shutdown();
  return server_->shutdown(now_cycles());
}

void Engine::internal_allocator_lock(Cycles hold) {
  if (config_.mode != SyncMode::kFineGrained) return;
  SchedThread& st = cur();
  const Cycles now = now_of(st.cpu);
  if (allocator_busy_until_ > now) {
    const Cycles wait = allocator_busy_until_ - now;
    machine_->advance_to(st.cpu, allocator_busy_until_);
    st.breakdown.gil_wait += wait;  // reported as lock-wait time
  }
  charge(hold);
  allocator_busy_until_ = now_of(st.cpu);
}

}  // namespace gilfree::runtime
