// Deterministic replay of recorded workload runs (docs/DEBUGGING.md).
//
// A record file's header carries a scenario map plus the flag strings of the
// fault/STM/GC/addressing families. Because the engine is a deterministic
// discrete-event simulation keyed on guest addresses (sim::GuestSpace),
// rebuilding the engine from that header and running the same workload
// reproduces the recorded decision stream byte for byte — in any process,
// on any host, regardless of ASLR. On top of that re-execution primitive
// this module offers:
//   - replay_run():            full or --until-bounded re-execution,
//   - diff_events():           first-divergence comparison of two streams,
//   - bisect_first_conflict(): time-travel binary search for the first
//                              conflicting (guest address, source line) pair
//                              of an abort storm.
//
// Scenario keys every replayable recording must carry (see make_scenario):
//   workload — registry name (While / Iterator / BT / CG / ...)
//   machine  — system profile name accepted by htm::SystemProfile::by_name
//   config   — GIL | HTM-<len> | HTM-dynamic
//   threads, scale, seed — decimal numbers
// Only plain workload runs are replayable; httpsim phases (driver + shards)
// are out of scope and must not be recorded with these keys.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "obs/record.hpp"
#include "stm/stm_config.hpp"
#include "workloads/runner.hpp"

namespace gilfree::workloads {

/// Builds the scenario map a recorder's begin_run needs (see file comment).
std::map<std::string, std::string> make_scenario(const std::string& workload,
                                                 const std::string& machine,
                                                 const std::string& config,
                                                 unsigned threads,
                                                 unsigned scale, u64 seed);

/// Builds the flag list for the header: the campaign and STM tier as
/// canonical to_flags() strings (covering programmatically built configs),
/// plus any --gc-* flags copied verbatim from the harness command line
/// (nullptr = none).
std::vector<std::string> replay_flags(const fault::FaultConfig& fault,
                                      const stm::StmConfig& stm,
                                      const CliFlags* cli);

/// Rebuilds the engine configuration (and workload/threads/scale) from a
/// recorded run's header. Throws std::runtime_error on missing keys and
/// std::invalid_argument on unknown names or malformed flag strings.
runtime::EngineConfig config_from_recorded(const obs::RecordedRun& recorded,
                                           const Workload** workload,
                                           unsigned* threads,
                                           unsigned* scale);

struct ReplayOutcome {
  RunPoint point;  ///< stats always set; elapsed/verify 0 on early stops.
  std::vector<obs::TraceEvent> events;  ///< seq = 1-based event number.
  std::map<std::string, u64> summary;
  u64 total_events = 0;
  bool truncated = false;
  bool stopped_early = false;  ///< A --until stop cut the run short.
  /// Heap labels for every distinct conflict guest address in the replayed
  /// stream, resolved while the replay engine was still alive.
  std::map<u64, std::string> gaddr_labels;
};

/// Re-executes a recorded run. stop_after == 0 runs to completion;
/// otherwise the engine stops at the first scheduling boundary after event
/// number `stop_after` (time travel). When record_out is nonempty the
/// replayed stream is also written there as a record file.
ReplayOutcome replay_run(const obs::RecordedRun& recorded, u64 stop_after = 0,
                         const std::string& record_out = "");

/// "" when the streams are identical; otherwise a one-line description of
/// the length mismatch or the first diverging event, printed as record-file
/// lines tagged with `run`.
std::string diff_events(const std::vector<obs::TraceEvent>& recorded,
                        const std::vector<obs::TraceEvent>& replayed,
                        u32 run = 0);

struct BisectResult {
  bool found = false;  ///< The recording contains a conflict abort at all.
  u64 event_no = 0;    ///< 1-based event number of the first conflict.
  u32 tid = 0;
  u64 gaddr = 0;       ///< Guest address of the first conflicting line.
  u16 src_line = 0;    ///< MiniRuby source line of the aborted span.
  std::string label;   ///< Heap label of gaddr ("arena-t3", "globals", ...).
  u32 probes = 0;      ///< Re-executions the binary search performed.
  bool confirmed = false;  ///< Probe replays agree with the recording.
  std::string error;       ///< Why confirmation failed (when !confirmed).
};

/// Bisects an abort storm by re-execution: binary-searches the smallest
/// --until prefix whose replay contains a conflict abort, then cross-checks
/// the (event, guest address, source line) triple against the recording.
BisectResult bisect_first_conflict(const obs::RecordedRun& recorded);

}  // namespace gilfree::workloads
