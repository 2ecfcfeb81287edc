// Deterministic record/replay stream (docs/DEBUGGING.md).
//
// A RunRecorder captures the *decision stream* of an engine run — every
// scheduling pick plus every abort/fault event — alongside the sampled
// flight recorder. The stream is the unsampled projection of the trace's
// TraceEvents onto four kinds (sched, tx_abort, stm_abort, fault), written
// with the trace's own encoder; `seq` is the 1-based event number within the
// run. Unlike the trace, the record stream is exact (no sampling) but
// bounded by a configurable event limit, and each run is
// prefixed with a header carrying enough scenario information (workload,
// machine, engine config, seed, and the flag strings for the fault/STM/GC
// families) for tools/replay to re-execute the run from the file alone.
//
// Because the engine is a deterministic discrete-event simulation and all
// addresses in the stream are guest addresses (sim::GuestSpace), replaying
// the header's scenario reproduces the recorded stream byte for byte in any
// process — which is what makes `--until <event#>` time-travel stops and
// abort-storm bisection possible.
//
// File format (JSON Lines, schema gilfree.record/2):
//   {"record":"gilfree.record/2","run":0,"scenario":{...},"flags":[...]}
//   {"ev":"sched","run":0,"seq":1,"t":0,"tid":0,"cpu":0}
//   {"ev":"tx_abort","run":0,"seq":2,"t":812,"tid":1,"cpu":1,"yp":3,
//    "len":16,"reason":"conflict","gaddr":4295201792,"line":12}
//   ...
//   {"ev":"end","run":0,"events":N,"truncated":false,"cycles":...,...}
#pragma once

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace gilfree {
class CliFlags;
}

namespace gilfree::obs {

/// CLI surface (strict; wired into every bench binary via bench_common):
///   --record-out=FILE   write the decision stream to FILE (JSONL)
///   --record-limit=N    events kept per run before truncation (> 0)
struct RecordConfig {
  std::string path;
  u64 limit = 1u << 20;

  bool enabled() const { return !path.empty(); }

  /// Strict parse; throws std::invalid_argument on malformed values.
  static RecordConfig from_flags(const CliFlags& flags);
};

/// The record projection: the event kinds a RunRecorder keeps.
constexpr bool is_recorded_kind(EventKind k) {
  return k == EventKind::kSched || k == EventKind::kTxAbort ||
         k == EventKind::kStmAbort || k == EventKind::kFault;
}

inline constexpr std::string_view kRecordSchema = "gilfree.record/2";

/// One parsed run of a record file.
struct RecordedRun {
  u32 run = 0;
  std::map<std::string, std::string> scenario;
  std::vector<std::string> flags;
  std::vector<TraceEvent> events;      ///< seq = 1-based event number.
  std::map<std::string, u64> summary;  ///< From the end line.
  u64 total_events = 0;                ///< Includes truncated tail.
  bool truncated = false;
};

/// Parses a record file; throws std::runtime_error on malformed input and
/// on any schema other than kRecordSchema (named in the message).
std::vector<RecordedRun> parse_record_file(const std::string& path);

class RunRecorder {
 public:
  /// In-memory recorder (replay verification, tests).
  RunRecorder() = default;
  /// File-backed when config.path is set; always also keeps the in-memory
  /// stream of the current run (bounded by config.limit).
  explicit RunRecorder(const RecordConfig& config);

  /// Starts a new run: writes the header, resets the event counter. The
  /// scenario map and flag list must carry everything replay needs (see
  /// runtime/replay.hpp for the recognized keys).
  void begin_run(std::map<std::string, std::string> scenario,
                 std::vector<std::string> flags);

  /// Appends `e` when its kind is in the record projection
  /// (is_recorded_kind; other kinds are ignored), stamping `seq` with the
  /// run's next 1-based event number.
  void record(TraceEvent e);

  /// Ends the run: writes the summary trailer (sorted keys).
  void end_run(const std::map<std::string, u64>& summary);

  /// Time-travel stop: ask the engine to stop after event `event_no`
  /// (1-based; 0 disables). The engine polls stop_requested() between
  /// scheduling bursts.
  void set_stop_after(u64 event_no) { stop_after_ = event_no; }
  bool stop_requested() const {
    return stop_after_ != 0 && next_e_ > stop_after_;
  }

  /// Events of the current run retained in memory (≤ limit).
  const std::vector<TraceEvent>& events() const { return events_; }
  u64 total_events() const { return next_e_ - 1; }
  bool truncated() const { return truncated_; }
  u32 run() const { return run_; }
  /// The summary of the most recently ended run (replay verification).
  const std::map<std::string, u64>& last_summary() const {
    return last_summary_;
  }

  void flush();

 private:
  RecordConfig config_;
  std::ofstream out_;
  bool to_file_ = false;
  u32 run_ = 0;
  bool run_open_ = false;
  u64 next_e_ = 1;
  u64 stop_after_ = 0;
  bool truncated_ = false;
  std::vector<TraceEvent> events_;
  std::map<std::string, u64> last_summary_;
};

}  // namespace gilfree::obs
