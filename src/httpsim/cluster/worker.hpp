// The shard worker process of the multi-process cluster: a shared-nothing
// simulator that serves arrival-schedule slices handed to it over the pipe
// protocol. One fresh engine per epoch batch, set up by the same
// run_open_loop_slice the in-process sharded runner uses, so a worker's
// output for a given slice is byte-identical to an in-process run of it.
#pragma once

#include "httpsim/cluster/protocol.hpp"
#include "runtime/options.hpp"

namespace gilfree::httpsim::cluster {

/// Rebuilds the engine configuration an Init message names: the machine
/// profile by name, GIL / HTM-<len> / HTM-dynamic by config name, then the
/// engine flag families (--fault-*, --stm*, --gc-*) from the canonical flag
/// strings. Throws std::invalid_argument on unknown names or
/// malformed flags. Shared by worker and supervisor (the supervisor needs
/// the profile's GHz for schedule generation).
runtime::EngineConfig engine_config_from_init(const InitMsg& init);

/// Rebuilds the global driver configuration from the Init driver flags;
/// throws like DriverConfig::from_flags.
DriverConfig driver_config_from_init(const InitMsg& init);

/// The worker process body: reads kInit from `in_fd`, serves kBatch frames
/// until kShutdown, writing one kResult per batch to `out_fd`, then flushes
/// its per-shard observability artifacts and returns the exit code. Host
/// binaries dispatch to this before anything else when spawned with the
/// `--cluster-worker` marker (the `/proc/self/exe` re-exec pattern).
int worker_main(int in_fd = 0, int out_fd = 1);

}  // namespace gilfree::httpsim::cluster
