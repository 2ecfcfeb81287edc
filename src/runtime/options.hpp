// Engine configuration: which synchronization engine runs the interpreter,
// on which simulated machine, with which paper options.
#pragma once

#include "fault/fault_config.hpp"
#include "htm/profile.hpp"
#include "stm/stm_config.hpp"
#include "tle/tle_config.hpp"
#include "vm/heap.hpp"
#include "vm/options.hpp"

namespace gilfree::obs {
class Sink;
class RunRecorder;
}

namespace gilfree {
class CliFlags;
}

namespace gilfree::runtime {

enum class SyncMode : u8 {
  kGil,          ///< Original CRuby: Giant VM Lock, timer-driven yields.
  kHtm,          ///< TLE with HTM (fixed or dynamic transaction lengths).
  kFineGrained,  ///< JRuby-like: no GIL, internal fine-grained locks.
  kUnsynced,     ///< Java-NPB-like: thread-local internals, app-level sync.
};

constexpr std::string_view sync_mode_name(SyncMode m) {
  switch (m) {
    case SyncMode::kGil: return "GIL";
    case SyncMode::kHtm: return "HTM";
    case SyncMode::kFineGrained: return "FineGrained";
    case SyncMode::kUnsynced: return "Unsynced";
  }
  return "?";
}

/// Starvation watchdog (docs/ROBUSTNESS.md): converts unbounded abort/spin
/// loops and pathological GIL waits into forced progress plus structured
/// `watchdog` trace events. Budgets are sized so healthy runs never trip.
struct WatchdogConfig {
  bool enabled = true;
  /// Consecutive handle_abort calls without a completed transaction or GIL
  /// slice before the thread is forced onto the GIL.
  u32 abort_streak_budget = 64;
  /// Consecutive spin_and_gil_acquire rounds before a blocking acquisition.
  u32 spin_streak_budget = 256;
  /// A single GIL wait longer than this is reported (the hand-off itself is
  /// the forced progress).
  Cycles gil_wait_budget = 50'000'000;
};

struct EngineConfig {
  SyncMode mode = SyncMode::kHtm;
  htm::SystemProfile profile = htm::SystemProfile::zec12();
  vm::HeapConfig heap;
  vm::VmOptions vm;
  tle::TleConfig tle;
  /// Fault-injection campaign (HTM mode only). Disabled by default; the
  /// engine constructs an injector only when some knob is set.
  fault::FaultConfig fault;
  /// Tier-2 software-transaction fallback (HTM mode only, docs/TIERS.md).
  /// Disabled by default; the engine constructs the StmEngine — and reroutes
  /// its escalation paths HTM → STM → GIL — only when stm.enabled is set,
  /// so default-configuration runs are byte-identical to an STM-less build.
  stm::StmConfig stm;
  WatchdogConfig watchdog;
  u64 seed = 0x6112024;

  /// Multi-engine sharding (httpsim): this engine's shard id and the total
  /// shard count of the run it belongs to. Every shard engine starts its
  /// virtual clocks at the shared t=0 epoch and ticks at the same GHz, so
  /// cross-shard timestamps (open-loop arrival times, merged latency
  /// histograms, trace events) are directly comparable without any runtime
  /// clock exchange — the coordination is the common epoch plus the
  /// deterministic pre-partitioned arrival schedule. The shard id is also
  /// mixed into the HTM facility's RNG derivation (htm::HtmConfig::shard_id)
  /// so sibling shards draw independent interrupt/learning streams while
  /// shard 0 stays bit-identical to the equivalent unsharded run.
  u32 shard_id = 0;
  u32 shard_count = 1;

  /// GIL-mode timer quantum (§3.2: 250 ms real; scaled to the simulator's
  /// shorter runs — the ratio to run length is what matters).
  Cycles gil_quantum = 1'000'000;

  /// VM-thread stack size in slots.
  u32 stack_slots = 1u << 16;

  /// Cost of one fine-grained internal lock section (FineGrained mode).
  Cycles internal_lock_cycles = 120;

  /// Hard cap on total retired instructions (safety net against deadlocks
  /// in buggy workloads); 0 = unlimited.
  u64 max_insns = 0;

  /// Observability sink (not owned). When set, the engine records
  /// begin/commit/abort/fallback/request events into a flight recorder and
  /// delivers the run's trace + metrics to the sink at the end of run().
  /// Null disables observability entirely (no per-event overhead).
  obs::Sink* obs_sink = nullptr;

  /// Record/replay decision-stream recorder (not owned, docs/DEBUGGING.md).
  /// When set, the engine appends every scheduling pick and abort/fault
  /// event, and stops early when the recorder requests a time-travel stop.
  obs::RunRecorder* recorder = nullptr;

  /// Convenience: paper configurations.
  static EngineConfig gil(htm::SystemProfile p);
  static EngineConfig htm_fixed(htm::SystemProfile p, i32 length);
  static EngineConfig htm_dynamic(htm::SystemProfile p);
  static EngineConfig fine_grained(htm::SystemProfile p);
  static EngineConfig unsynced(htm::SystemProfile p);
};

/// Applies the allocator/GC command-line flags to a heap config:
///   --gc-arena[=bool]            per-thread allocation arenas
///   --gc-arena-min=N             initial/minimum segment size (RVALUEs)
///   --gc-arena-max=N             segment-size cap (RVALUEs)
///   --gc-arena-hot-cycles=N      refill gap below which segments double
///   --gc-arena-idle-cycles=N     refill gap above which segments halve
///   --gc-lazy-sweep[=bool]       mark-only GC + per-block sweep quanta
///   --gc-sweep-quantum=N         blocks swept per slow-path quantum
///   --gc-sweep-deal=N            per-thread sweep dealing to N threads
///   --gc-sweep-policy=linemate|rr  how dealt frees are placed
///   --gc-nursery[=bool]          generational nursery (needs --gc-arena)
///   --gc-nursery-slots=N         young allocations between minor GCs
///   --gc-mark-quantum=N          incremental-mark objects per quantum (0=off)
///   --gc-steal[=bool]            cross-thread arena-stash stealing
/// Values are validated strictly; violations throw std::invalid_argument
/// (CliFlags' own exit-2 / throw behaviour covers malformed numbers and
/// unknown flags via reject_unknown()).
void apply_gc_flags(const CliFlags& flags, vm::HeapConfig& heap);

}  // namespace gilfree::runtime
