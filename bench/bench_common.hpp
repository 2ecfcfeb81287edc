// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary prints the same rows/series its paper figure reports:
// throughput normalized to the 1-thread GIL configuration, per thread count
// and engine configuration. `--csv` switches to machine-readable output;
// `--scale` grows the problem size (Fig. 6b's "class W" effect);
// `--quick` shrinks thread sweeps for smoke runs.
#pragma once

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/strutil.hpp"
#include "common/table.hpp"
#include "fault/fault_config.hpp"
#include "htm/profile.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "stm/stm_config.hpp"
#include "workloads/replay.hpp"
#include "workloads/runner.hpp"

namespace gilfree::bench {

/// The engine configurations of Fig. 5/7: GIL, HTM-1/-16/-256, HTM-dynamic.
struct NamedConfig {
  std::string name;
  i32 fixed_length;  ///< 0 = GIL, -1 = dynamic, else the fixed length.
};

inline std::vector<NamedConfig> paper_configs() {
  return {{"GIL", 0},
          {"HTM-1", 1},
          {"HTM-16", 16},
          {"HTM-256", 256},
          {"HTM-dynamic", -1}};
}

/// Uniform allocator/GC wiring: every harness accepts the --gc-* flags via
/// runtime::apply_gc_flags (per-thread arenas, lazy sweeping, sweep-deal
/// policy, nursery, mark quantum, stash stealing). Semantic errors exit
/// with a clear message like the flag parser. Applies in place — absent
/// flags leave the config's existing (profile-derived) values untouched.
inline void parse_gc_flags(const CliFlags& flags, vm::HeapConfig& heap) {
  try {
    runtime::apply_gc_flags(flags, heap);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

inline runtime::EngineConfig make_config(const htm::SystemProfile& profile,
                                         const NamedConfig& nc,
                                         const fault::FaultConfig& fault = {},
                                         const stm::StmConfig& stm = {},
                                         const CliFlags* gc_flags = nullptr) {
  runtime::EngineConfig cfg =
      nc.fixed_length == 0 ? runtime::EngineConfig::gil(profile)
      : nc.fixed_length < 0
          ? runtime::EngineConfig::htm_dynamic(profile)
          : runtime::EngineConfig::htm_fixed(profile, nc.fixed_length);
  // The campaign and the STM tier only bite in HTM mode; stamping them
  // everywhere keeps the call sites uniform. --gc-* flags apply to every
  // engine (the GIL baseline allocates through the same heap).
  cfg.fault = fault;
  cfg.stm = stm;
  if (gc_flags) parse_gc_flags(*gc_flags, cfg.heap);
  return cfg;
}

/// Thread counts per machine, as in Fig. 5 (zEC12 up to 12, Xeon up to 8).
inline std::vector<unsigned> thread_counts(const htm::SystemProfile& p,
                                           bool quick) {
  if (quick) return {1, p.machine.num_cpus()};
  if (p.machine.num_cpus() >= 12) return {1, 2, 4, 6, 8, 12};
  return {1, 2, 3, 4, 5, 6, 7, 8};
}

inline void emit(const TablePrinter& table, bool csv) {
  if (csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }
}

/// Uniform observability wiring (docs/OBSERVABILITY.md): every harness
/// accepts --trace-out= / --metrics-out= / --trace-sample= /
/// --trace-capacity= via obs::ObsConfig::from_flags, constructs one
/// obs::Sink, and tags each engine run with labels before it starts. A
/// disabled sink (no flags) makes this a no-op.
inline void observe(runtime::EngineConfig& cfg, obs::Sink& sink,
                    std::map<std::string, std::string> labels) {
  if (!sink.enabled()) return;
  sink.next_labels(std::move(labels));
  cfg.obs_sink = &sink;
}

/// Record/replay wiring (docs/DEBUGGING.md) for the harnesses that record:
/// ablation_conflict_removal, ablation_dynlen_params, ablation_yield_points,
/// fig4_micro, fig5_npb, fig6b_bt_classw, fig8_abort_ratios,
/// fig8_cycle_breakdown, fig9_scalability, robustness_campaign,
/// stats_abort_reasons and tier_crossover. They accept
///   --record-out=FILE        write the decision stream of every replayable
///                            workload run to FILE (schema gilfree.record/2),
///   --record-limit=N         events kept per run before truncation.
/// Construct one per harness (before CliFlags::reject_unknown — parsing
/// consumes the flags; semantic errors exit 2 like the flag parser), then
/// call wire() on each engine configuration right before the run. Recording
/// headers are only stamped for replayable runs: registry workloads on
/// GIL/HTM-* configurations (httpsim phases and non-registry programs get
/// no record stream). A harness that never calls wire() must not construct
/// one, so the strict CLI rejects --record-* there with exit 2.
class RecordWiring {
 public:
  explicit RecordWiring(const CliFlags& flags) : cli_(&flags) {
    try {
      config_ = obs::RecordConfig::from_flags(flags);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
    if (config_.enabled())
      recorder_ = std::make_unique<obs::RunRecorder>(config_);
  }

  obs::RunRecorder* recorder() { return recorder_.get(); }

  /// When recording a replayable run, stamps the recorder + header into
  /// the configuration. `config_name` must be the NamedConfig name ("GIL",
  /// "HTM-16", "HTM-dynamic", ...).
  void wire(runtime::EngineConfig& cfg, const std::string& workload,
            const std::string& config_name, unsigned threads,
            unsigned scale) {
    if (recorder_ == nullptr) return;
    if (workloads::by_name(workload) == nullptr) return;
    if (config_name != "GIL" && !starts_with(config_name, "HTM-")) return;
    cfg.recorder = recorder_.get();
    recorder_->begin_run(
        workloads::make_scenario(workload, cfg.profile.machine.name,
                                 config_name, threads, scale, cfg.seed),
        workloads::replay_flags(cfg.fault, cfg.stm, cli_));
  }

 private:
  const CliFlags* cli_;
  obs::RecordConfig config_;
  std::unique_ptr<obs::RunRecorder> recorder_;
};

/// Uniform fault-campaign wiring (docs/ROBUSTNESS.md): every harness
/// accepts the --fault-* flags via fault::FaultConfig::from_flags and
/// stamps the campaign into each engine configuration it runs. Semantic
/// errors (bad yield-point lists, out-of-range factors) exit with a clear
/// message like the flag parser itself.
inline fault::FaultConfig parse_fault_flags(const CliFlags& flags) {
  try {
    return fault::FaultConfig::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Uniform STM-tier wiring (docs/TIERS.md): every harness accepts the
/// --stm / --gil-subscription= / --stm-* flags via stm::StmConfig::from_flags
/// and stamps the tier into each HTM engine configuration it runs. Semantic
/// errors exit with a clear message like the flag parser itself.
inline stm::StmConfig parse_stm_flags(const CliFlags& flags) {
  try {
    return stm::StmConfig::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace gilfree::bench
