// FaultInjector: the deterministic fault-injection engine behind the
// `--fault-*` campaign flags (docs/ROBUSTNESS.md).
//
// The injector sits between the HTM facility / engine and the FaultConfig:
// the facility consults it at TBEGIN (persistent-abort windows), at every
// transactional access (spurious transient aborts, capacity reduction), and
// when sampling interrupt arrivals (storm windows); the engine consults it
// on every GIL hand-off (delayed hand-off). All arrival processes use
// per-CPU xoshiro streams split from the campaign seed, and all windows are
// virtual-cycle intervals, so identical seed + flags reproduce an identical
// fault sequence — the property the robustness tests and the CI smoke job
// assert.
//
// Injection *events* (spurious, persistent, hand-off delay) are reported to
// an optional FaultListener — the engine implements it and forwards into the
// observability layer as `fault` trace events. Window-shaped pressure
// (interrupt storms, capacity reduction) surfaces through the ordinary abort
// reasons (kInterrupt, kOverflow*) it provokes; the injector only counts the
// windows' activations in its stats.
#pragma once

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_config.hpp"
#include "fault/fault_kind.hpp"
#include "fault/fault_stats.hpp"

namespace gilfree::fault {

/// Receives one callback per discrete injected fault, on the CPU observing
/// it. Implemented by the engine, which knows the running thread and owns
/// the observability hookup.
class FaultListener {
 public:
  virtual ~FaultListener() = default;
  virtual void on_fault_injected(FaultKind kind, CpuId cpu, Cycles t) = 0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, u32 num_cpus);

  const FaultConfig& config() const { return config_; }
  void set_listener(FaultListener* l) { listener_ = l; }

  /// Consulted by HtmFacility::tx_begin: true when `yp` sits in an active
  /// persistent-abort window — the facility then refuses the transaction
  /// with a persistent (capacity-style) abort code. Also (re)arms the
  /// spurious-arrival clock for this CPU.
  bool begin_fault(CpuId cpu, i32 yp, Cycles now);

  /// Consulted at every transactional access: true when a spurious transient
  /// abort arrival passed on this CPU (the facility aborts with kConflict).
  bool spurious_due(CpuId cpu, Cycles now);

  /// Interrupt-arrival mean under the campaign: `base` outside a storm
  /// window, the storm mean inside one. Counts one storm activation per
  /// in-window sample.
  Cycles interrupt_mean(CpuId cpu, Cycles now, Cycles base);

  /// Capacity multiplier in effect at `now` (1.0 outside the window).
  double capacity_factor(Cycles now) const;

  /// True when the capacity window is active; lets the facility attribute a
  /// clipped footprint limit in its stats.
  bool capacity_active(Cycles now) const;

  /// Called by the facility when an overflow abort was caused by the
  /// reduced limit (the footprint fit the unreduced capacity): counts and
  /// reports one kCapacity injection.
  void capacity_clip(CpuId cpu, Cycles now);

  /// Extra GIL hand-off latency at `now`; counts and reports when nonzero.
  Cycles gil_handoff_delay(CpuId cpu, Cycles now);

  const FaultStats& stats() const { return stats_; }

  /// Re-derives every per-CPU RNG stream from the campaign seed and clears
  /// arrival clocks + stats, so back-to-back runs in one process replay the
  /// identical campaign.
  void reset();

 private:
  void inject(FaultKind kind, CpuId cpu, Cycles now);

  FaultConfig config_;
  u32 num_cpus_;
  FaultListener* listener_ = nullptr;
  std::vector<Rng> rng_;            ///< Per-CPU arrival streams.
  std::vector<Cycles> next_spurious_;
  FaultStats stats_;
  bool storm_counted_ = false;  ///< One kInterruptStorm stat per campaign.
};

}  // namespace gilfree::fault
