// Pipe protocol of the multi-process shard cluster (docs/ARCHITECTURE.md):
// the supervisor drives each worker process over a pair of pipes carrying
// length-prefixed frames. Every frame is (u32 kind, u64 payload bytes,
// payload); payloads are line-oriented text so the protocol stays readable
// in a hex dump and byte-deterministic without struct-packing concerns.
//
//   supervisor → worker:  kInit (once), then one kBatch per epoch, then
//                         kShutdown.
//   worker → supervisor:  one kResult per kBatch.
//
// Request batches carry guest-address-style routing keys and virtual-cycle
// timestamps only — nothing process-dependent — which is what makes the
// per-shard artifacts byte-identical across cluster runs (PR 9's guest
// address space did the same for the engine's internals).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "httpsim/client_driver.hpp"

namespace gilfree::httpsim::cluster {

enum class FrameKind : u32 {
  kInit = 1,
  kBatch = 2,
  kResult = 3,
  kShutdown = 4,
};

struct Frame {
  FrameKind kind = FrameKind::kShutdown;
  std::string payload;
};

/// Writes one frame; throws std::runtime_error on a short write or error.
void write_frame(int fd, FrameKind kind, const std::string& payload);

/// Reads one frame. Returns nullopt on clean EOF at a frame boundary;
/// throws std::runtime_error on mid-frame EOF, oversized frames, or errors.
std::optional<Frame> read_frame(int fd);

/// kInit payload: everything a worker needs to rebuild its engine + driver
/// byte-identically — names plus canonical flag strings, the same currency
/// the record/replay headers use.
struct InitMsg {
  std::string machine = "zec12";   ///< htm::SystemProfile::by_name input.
  std::string config = "HTM-dynamic";  ///< GIL | HTM-<len> | HTM-dynamic.
  std::string program = "webrick";     ///< webrick | rails.
  u64 engine_seed = 0x6112024;
  u32 slot = 0;   ///< This worker's stable shard slot id.
  u32 slots = 1;  ///< Total slot count (EngineConfig::shard_count).
  std::string trace_path;    ///< Per-shard trace JSONL; "" = off.
  std::string metrics_path;  ///< Per-shard metrics doc; "" = off.
  /// Engine-family flags (--gc-*, --fault-*, --stm*), verbatim.
  std::vector<std::string> engine_flags;
  /// DriverConfig::to_flags() of the global driver configuration.
  std::vector<std::string> driver_flags;

  std::string encode() const;
  static InitMsg decode(const std::string& payload);
};

/// kBatch payload: one epoch's (possibly stolen-into, possibly empty) slice
/// of the arrival schedule, sorted ascending by (at, id).
struct BatchMsg {
  u32 epoch = 0;
  /// Last arrival timestamp of the epoch's schedule window; the worker
  /// reports how many of its requests were still unaccepted at this time.
  Cycles window_end = 0;
  /// Global schedule size — the rps-share denominator of
  /// run_open_loop_slice, kept global so per-shard offered rates sum to the
  /// configured --rps exactly as in the in-process sharded runner.
  u64 schedule_total = 0;
  std::vector<ScheduledRequest> slice;

  std::string encode() const;
  static BatchMsg decode(const std::string& payload);
};

/// kResult payload: the worker's slice outcome — counters, exact-wire
/// histograms, and every request record (the supervisor re-sorts them into
/// the global log).
struct ResultMsg {
  u32 epoch = 0;
  u64 completed = 0;
  u64 dropped = 0;
  u64 shed = 0;
  u64 retries = 0;
  /// Requests of this slice whose accept time lies after the epoch's
  /// window_end — the shard's admission backlog at the epoch boundary, the
  /// signal the steal and autoscale policies act on.
  u64 backlog = 0;
  Cycles last_response = 0;
  std::string latency_hist;  ///< obs::LatencyHistogram::serialize().
  std::string queue_hist;
  std::vector<RequestRecord> records;

  std::string encode() const;
  static ResultMsg decode(const std::string& payload);
};

}  // namespace gilfree::httpsim::cluster
