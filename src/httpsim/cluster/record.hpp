// Record/replay for cluster serving runs (schema gilfree.record/httpsim.1,
// the httpsim sibling of the engine's gilfree.record/2 — see
// src/obs/record.hpp). The record file carries a header naming the full
// scenario — machine, engine config, program, seeds, and the canonical flag
// strings for the engine / driver / cluster families — followed by the
// supervisor's deterministic decision stream (epoch / steal / dispatch /
// scale lines and the end summary, whose log_fnv hashes the merged request
// log). Because the simulator is deterministic end to end, re-running the
// header's scenario reproduces the stream byte for byte in any process;
// verify_cluster_record() does exactly that.
//
// File format (JSON Lines):
//   {"record":"gilfree.record/httpsim.1","scenario":{"machine":"zec12",...},
//    "engine_flags":[...],"driver_flags":[...],"cluster_flags":[...]}
//   {"ev":"epoch","epoch":0,"lo":0,"hi":2500,"active":4}
//   {"ev":"steal","epoch":0,"from":2,"to":1,"moved":128}
//   {"ev":"dispatch","epoch":0,"slot":0,"n":640}
//   {"ev":"scale","epoch":3,"dir":"up","slot":4}
//   ...
//   {"ev":"end","completed":N,...,"log_fnv":"<decimal u64>"}
#pragma once

#include <string>

#include "httpsim/cluster/supervisor.hpp"

namespace gilfree::httpsim::cluster {

/// A parsed cluster record: the rebuilt scenario (artifact_stem left empty —
/// replays write no per-shard artifacts) plus the recorded event lines.
struct ClusterRecord {
  ClusterSpec spec;
  std::vector<std::string> lines;
};

/// Writes spec + result.record_lines to `path`. Throws std::invalid_argument
/// when the file cannot be written. The header stores --arrival-file runs by
/// reference (the trace file must still exist at replay time).
void write_cluster_record(const std::string& path, const ClusterSpec& spec,
                          const ClusterRunResult& result);

/// Parses a record file and rebuilds the scenario from the header's names
/// and flag strings — the same currency the worker Init frames use. Throws
/// std::runtime_error on malformed files or unknown schema versions.
ClusterRecord read_cluster_record(const std::string& path);

/// Replays `path`: rebuilds the scenario, re-runs run_cluster, and compares
/// the fresh decision stream line by line against the recorded one. Returns
/// "" when identical, else a one-line mismatch description (first divergent
/// line or a length difference).
std::string verify_cluster_record(const std::string& path);

}  // namespace gilfree::httpsim::cluster
