#include "httpsim/cluster/worker.hpp"

#include <algorithm>
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "fault/fault_config.hpp"
#include "httpsim/bench_server.hpp"
#include "httpsim/server_programs.hpp"
#include "obs/sink.hpp"
#include "stm/stm_config.hpp"

namespace gilfree::httpsim::cluster {

runtime::EngineConfig engine_config_from_init(const InitMsg& init) {
  const htm::SystemProfile profile = htm::SystemProfile::by_name(init.machine);
  runtime::EngineConfig cfg =
      runtime::EngineConfig::by_name(profile, init.config);
  cfg.seed = init.engine_seed;
  const CliFlags flags = CliFlags::from_strings(init.engine_flags);
  cfg.fault = fault::FaultConfig::from_flags(flags);
  cfg.stm = stm::StmConfig::from_flags(flags);
  runtime::apply_gc_flags(flags, cfg.heap);
  flags.reject_unknown();
  return cfg;
}

DriverConfig driver_config_from_init(const InitMsg& init) {
  const CliFlags flags = CliFlags::from_strings(init.driver_flags);
  DriverConfig d = DriverConfig::from_flags(flags);
  flags.reject_unknown();
  return d;
}

int worker_main(int in_fd, int out_fd) {
  try {
    const auto init_frame = read_frame(in_fd);
    if (!init_frame || init_frame->kind != FrameKind::kInit) {
      std::cerr << "cluster worker: expected kInit as the first frame\n";
      return 3;
    }
    const InitMsg init = InitMsg::decode(init_frame->payload);
    const runtime::EngineConfig base = engine_config_from_init(init);
    DriverConfig driver = driver_config_from_init(init);
    // Slices arrive pre-generated; the worker must never regenerate (or
    // re-dump) the schedule itself.
    driver.arrival_dump.clear();
    if (init.program != "rails" && init.program != "webrick") {
      std::cerr << "cluster worker: unknown program '" << init.program
                << "'\n";
      return 3;
    }
    const std::string program =
        init.program == "rails" ? rails_source() : webrick_source();

    obs::ObsConfig obs_cfg;
    obs_cfg.trace_path = init.trace_path;
    obs_cfg.metrics_path = init.metrics_path;
    obs::Sink sink(obs_cfg);

    for (;;) {
      const auto frame = read_frame(in_fd);
      if (!frame) {
        std::cerr << "cluster worker: supervisor pipe closed without "
                     "kShutdown\n";
        return 3;
      }
      if (frame->kind == FrameKind::kShutdown) break;
      if (frame->kind != FrameKind::kBatch) {
        std::cerr << "cluster worker: unexpected frame kind "
                  << static_cast<u32>(frame->kind) << "\n";
        return 3;
      }
      const BatchMsg batch = BatchMsg::decode(frame->payload);

      ResultMsg result;
      result.epoch = batch.epoch;
      if (batch.slice.empty()) {
        // Idle epoch: stay in lockstep without spinning up an engine.
        result.latency_hist = obs::LatencyHistogram().serialize();
        result.queue_hist = obs::LatencyHistogram().serialize();
        write_frame(out_fd, FrameKind::kResult, result.encode());
        continue;
      }

      runtime::EngineConfig cfg = base;
      cfg.shard_id = init.slot;
      cfg.shard_count = init.slots;
      if (sink.enabled()) {
        sink.next_labels({
            {"figure", "httpsim_cluster"},
            {"machine", cfg.profile.machine.name},
            {"workload", init.program},
            {"config", init.config},
            {"arrival", std::string(arrival_name(driver.arrival))},
            {"shard", std::to_string(init.slot)},
            {"shards", std::to_string(init.slots)},
            {"epoch", std::to_string(batch.epoch)},
        });
        cfg.obs_sink = &sink;
      }
      const ServerRunResult r = run_open_loop_slice(
          std::move(cfg), program, driver, batch.slice,
          static_cast<std::size_t>(batch.schedule_total));

      result.completed = r.completed;
      result.dropped = r.dropped;
      result.shed = r.shed;
      result.retries = r.retries;
      result.last_response = r.last_response;
      result.latency_hist = r.latency_hist.serialize();
      result.queue_hist = r.queue_hist.serialize();
      result.records = r.records;
      for (const RequestRecord& rec : r.records) {
        if (rec.accepted > batch.window_end) ++result.backlog;
      }
      write_frame(out_fd, FrameKind::kResult, result.encode());
    }
    sink.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cluster worker: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace gilfree::httpsim::cluster
