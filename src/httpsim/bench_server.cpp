#include "httpsim/bench_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "obs/sink.hpp"

namespace gilfree::httpsim {

namespace {

/// Shared tail of both load models: run the engine over an attached driver
/// and collect the result. `expected` is the number of scheduled requests;
/// every one must complete, be dropped by the admission queue, or be shed
/// by the overload protections (deadlines / CoDel).
ServerRunResult run_one(runtime::EngineConfig cfg, const std::string& program,
                        HttpDriver& driver, u32 expected) {
  runtime::Engine engine(std::move(cfg));
  engine.load_program({program});
  engine.attach_server(&driver);

  ServerRunResult result;
  result.stats = engine.run();
  result.completed = driver.completed();
  result.dropped = driver.dropped();
  result.shed = driver.shed_total();
  result.retries = driver.retries();
  GILFREE_CHECK_MSG(
      result.completed + result.dropped + result.shed == expected,
      "server finished " << result.completed << " + " << result.dropped
                         << " dropped + " << result.shed << " shed of "
                         << expected);
  result.throughput_rps =
      driver.throughput_rps(engine.config().profile.machine.ghz);
  result.queue_mean_cycles = driver.queue_delay().mean();
  result.latency_hist = driver.latency_hist();
  result.queue_hist = driver.queue_hist();
  result.last_response = driver.last_response_time();
  result.request_log = driver.log_to_string();
  result.records = driver.log();
  return result;
}

/// Sorts `records` by request id and renders them as the canonical log.
std::string id_sorted_log(std::vector<RequestRecord>& records,
                          const std::vector<std::string>& paths) {
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& x, const RequestRecord& y) {
              return x.id < y.id;
            });
  return format_request_log(records, paths);
}

/// completed per virtual second over a `last` cycles span (0 when empty).
double rps(u64 completed, Cycles last, double ghz) {
  return last > 0 ? static_cast<double>(completed) /
                        (static_cast<double>(last) / (ghz * 1e9))
                  : 0.0;
}

}  // namespace

void ServerRunResult::add_epoch(ServerRunResult epoch) {
  completed += epoch.completed;
  dropped += epoch.dropped;
  shed += epoch.shed;
  retries += epoch.retries;
  latency_hist.merge(epoch.latency_hist);
  queue_hist.merge(epoch.queue_hist);
  last_response = std::max(last_response, epoch.last_response);
  records.insert(records.end(), epoch.records.begin(), epoch.records.end());
  stats = std::move(epoch.stats);
}

void FleetResult::finish(const std::vector<std::string>& paths, double ghz) {
  for (ServerRunResult& a : shards) {
    a.queue_mean_cycles = a.queue_hist.total() > 0
                              ? static_cast<double>(a.queue_hist.sum()) /
                                    static_cast<double>(a.queue_hist.total())
                              : 0.0;
    a.throughput_rps = rps(a.completed, a.last_response, ghz);
    a.request_log = id_sorted_log(a.records, paths);
  }
  merge(paths, ghz);
}

void FleetResult::merge(const std::vector<std::string>& paths, double ghz) {
  std::vector<RequestRecord> all;
  for (const ServerRunResult& a : shards) {
    latency_hist.merge(a.latency_hist);
    queue_hist.merge(a.queue_hist);
    completed += a.completed;
    dropped += a.dropped;
    shed += a.shed;
    retries += a.retries;
    makespan = std::max(makespan, a.last_response);
    all.insert(all.end(), a.records.begin(), a.records.end());
  }
  request_log = id_sorted_log(all, paths);
  throughput_rps = rps(completed, makespan, ghz);
}

ShardOptions ShardOptions::from_flags(const CliFlags& flags) {
  ShardOptions o;
  const long shards = flags.get_int("shards", o.shards);
  if (shards < 1 || shards > 64)
    throw std::invalid_argument("--shards must be in [1,64]");
  o.shards = static_cast<u32>(shards);
  o.router =
      parse_router(flags.get("router", std::string(router_name(o.router))));
  return o;
}

ServerRunResult run_server(runtime::EngineConfig cfg,
                           const std::string& program_source,
                           const DriverConfig& driver_config) {
  // One VM thread per request attempt plus acceptor/main: a retried request
  // is re-accepted and served by a fresh worker thread.
  cfg.heap.max_threads =
      driver_config.total_requests *
          (1 + driver_config.overload.retry_budget) +
      8;
  if (driver_config.arrival == Arrival::kClosed) {
    ClosedLoopDriver driver(driver_config);
    ServerRunResult r = run_one(std::move(cfg), program_source, driver,
                                driver_config.total_requests);
    GILFREE_CHECK(r.dropped == 0);  // closed loop never overruns the queue
    return r;
  }
  auto schedule =
      make_schedule(driver_config, cfg.profile.machine.ghz);
  OpenLoopDriver driver(driver_config, std::move(schedule));
  return run_one(std::move(cfg), program_source, driver, driver.scheduled());
}

ServerRunResult run_open_loop_slice(runtime::EngineConfig cfg,
                                    const std::string& program_source,
                                    const DriverConfig& driver_config,
                                    std::vector<ScheduledRequest> slice,
                                    std::size_t schedule_total) {
  GILFREE_CHECK(driver_config.arrival != Arrival::kClosed);
  GILFREE_CHECK(schedule_total >= slice.size());
  DriverConfig dcfg = driver_config;
  // A slice's offered rate is its share of the global schedule, so
  // per-slice metrics annotations sum back to the configured --rps.
  if (schedule_total > 0) {
    dcfg.rps = driver_config.rps * static_cast<double>(slice.size()) /
               static_cast<double>(schedule_total);
  }
  cfg.heap.max_threads =
      static_cast<u32>(slice.size()) *
          (1 + driver_config.overload.retry_budget) +
      8;
  OpenLoopDriver driver(dcfg, std::move(slice));
  return run_one(std::move(cfg), program_source, driver, driver.scheduled());
}

FleetResult run_sharded(const runtime::EngineConfig& base,
                        const std::string& program_source,
                        const DriverConfig& driver_config,
                        const ShardOptions& options, obs::Sink* sink,
                        std::map<std::string, std::string> labels) {
  GILFREE_CHECK(options.shards >= 1 && options.shards <= 64);
  const double ghz = base.profile.machine.ghz;

  // Partition the load deterministically before any engine runs, so the
  // partition depends only on (driver seed, router, shard count).
  std::vector<DriverConfig> shard_cfg(options.shards, driver_config);
  std::vector<std::vector<ScheduledRequest>> shard_sched(options.shards);
  std::size_t schedule_total = 0;
  if (driver_config.arrival == Arrival::kClosed) {
    GILFREE_CHECK_MSG(driver_config.clients >= options.shards,
                      "closed-loop sharding needs >= 1 client per shard");
    i64 next_id = driver_config.first_id;
    for (u32 s = 0; s < options.shards; ++s) {
      shard_cfg[s].clients = driver_config.clients / options.shards +
                             (s < driver_config.clients % options.shards);
      shard_cfg[s].total_requests =
          driver_config.total_requests / options.shards +
          (s < driver_config.total_requests % options.shards);
      shard_cfg[s].first_id = next_id;
      next_id += shard_cfg[s].total_requests;
    }
  } else {
    const auto schedule = make_schedule(driver_config, ghz);
    schedule_total = schedule.size();
    for (const ScheduledRequest& r : schedule) {
      shard_sched[route_key(options.router, r.id, r.key, options.shards,
                            driver_config.seed)]
          .push_back(r);
    }
  }

  FleetResult out;
  for (u32 s = 0; s < options.shards; ++s) {
    runtime::EngineConfig cfg = base;
    cfg.shard_id = s;
    cfg.shard_count = options.shards;
    if (sink != nullptr) {
      auto shard_labels = labels;
      shard_labels["shard"] = std::to_string(s);
      shard_labels["shards"] = std::to_string(options.shards);
      sink->next_labels(std::move(shard_labels));
      cfg.obs_sink = sink;
    }
    ServerRunResult r;
    if (driver_config.arrival == Arrival::kClosed) {
      cfg.heap.max_threads = shard_cfg[s].total_requests + 8;
      ClosedLoopDriver driver(shard_cfg[s]);
      r = run_one(std::move(cfg), program_source, driver,
                  shard_cfg[s].total_requests);
    } else {
      r = run_open_loop_slice(std::move(cfg), program_source, driver_config,
                              shard_sched[s], schedule_total);
    }
    out.shards.push_back(std::move(r));
  }
  out.merge(driver_config.paths, ghz);
  return out;
}

}  // namespace gilfree::httpsim
