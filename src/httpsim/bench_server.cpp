#include "httpsim/bench_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "obs/sink.hpp"
#include "tle/breaker.hpp"

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

  const std::string breaker = flags.get("breaker", "off");
  if (breaker == "on") {
    o.breaker.enabled = true;
  } else if (breaker != "off") {
    throw std::invalid_argument("--breaker must be on or off (got \"" +
                                breaker + "\")");
  }
  const long epochs =
      flags.get_int("breaker-epochs", static_cast<long>(o.breaker.epochs));
  if (epochs < 2 || epochs > 256)
    throw std::invalid_argument("--breaker-epochs must be in [2,256]");
  o.breaker.epochs = static_cast<u32>(epochs);
  const long streak =
      flags.get_int("breaker-streak", static_cast<long>(o.breaker.trip_streak));
  if (streak < 1 || streak > 64)
    throw std::invalid_argument("--breaker-streak must be in [1,64]");
  o.breaker.trip_streak = static_cast<u32>(streak);
  const long probe = flags.get_int("breaker-probe",
                                   static_cast<long>(o.breaker.probe_initial));
  if (probe < 1 || probe > 64)
    throw std::invalid_argument("--breaker-probe must be in [1,64]");
  o.breaker.probe_initial = static_cast<u32>(probe);
  const long probe_max =
      flags.get_int("breaker-probe-max", static_cast<long>(o.breaker.probe_max));
  if (probe_max < probe || probe_max > 256)
    throw std::invalid_argument(
        "--breaker-probe-max must be in [--breaker-probe,256]");
  o.breaker.probe_max = static_cast<u32>(probe_max);
  o.breaker.shed_ratio =
      flags.get_double("breaker-shed-ratio", o.breaker.shed_ratio);
  if (o.breaker.shed_ratio <= 0.0 || o.breaker.shed_ratio > 1.0)
    throw std::invalid_argument("--breaker-shed-ratio must be in (0,1]");
  const long latency = flags.get_int(
      "breaker-latency", static_cast<long>(o.breaker.latency_budget));
  if (latency < 0)
    throw std::invalid_argument("--breaker-latency must be >= 0 cycles");
  o.breaker.latency_budget = static_cast<Cycles>(latency);
  const long fault_shard = flags.get_int(
      "breaker-fault-shard", static_cast<long>(o.breaker.fault_shard));
  if (fault_shard < -1 || fault_shard >= shards)
    throw std::invalid_argument(
        "--breaker-fault-shard must be -1 or a shard index < --shards");
  o.breaker.fault_shard = static_cast<i32>(fault_shard);
  if (o.breaker.enabled && o.shards < 2)
    throw std::invalid_argument("--breaker=on requires --shards >= 2");
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

namespace {

/// Records one breaker transition and mirrors it into the trace stream so
/// trace consumers see brown-outs inline with the per-shard engine events.
void note_transition(ShardedRunResult& out, obs::Sink* sink, u32 epoch,
                     u32 shard, const char* state) {
  out.breaker_transitions.push_back(BreakerTransition{epoch, shard, state});
  if (sink != nullptr && sink->enabled()) {
    std::string line = "{\"ev\":\"breaker\",\"shard\":";
    line += std::to_string(shard);
    line += ",\"epoch\":";
    line += std::to_string(epoch);
    line += ",\"state\":\"";
    line += state;
    line += "\"}";
    sink->write_raw(line);
  }
}

/// The breaker-enabled sharded run: the schedule is sliced into epochs; each
/// (epoch, shard) slice runs on its own engine; epoch health feeds the
/// per-shard tle::BreakerCore and an open shard's keys spill to the next
/// healthy shard in ring order. Fully deterministic for a fixed seed: the
/// schedule, the routing, the health evaluation, and therefore every
/// transition depend only on configuration.
ShardedRunResult run_sharded_breaker(
    const runtime::EngineConfig& base, const std::string& program_source,
    const DriverConfig& driver_config, const ShardOptions& options,
    obs::Sink* sink, const std::map<std::string, std::string>& labels) {
  GILFREE_CHECK_MSG(driver_config.arrival != Arrival::kClosed,
                    "--breaker=on requires an open-loop arrival");
  const double ghz = base.profile.machine.ghz;
  const BreakerOptions& bo = options.breaker;
  const auto schedule = make_schedule(driver_config, ghz);
  GILFREE_CHECK(!schedule.empty());

  const tle::BreakerParams params{bo.trip_streak, bo.probe_initial,
                                  bo.probe_max};
  std::vector<tle::BreakerCore> breaker(options.shards);

  ShardedRunResult out;
  out.shards.resize(options.shards);

  for (u32 e = 0; e < bo.epochs; ++e) {
    const std::size_t lo = schedule.size() * e / bo.epochs;
    const std::size_t hi =
        schedule.size() * static_cast<std::size_t>(e + 1) / bo.epochs;
    if (lo == hi) continue;

    // Epoch routing state per shard. A probe epoch serves the shard's own
    // keys; an open epoch spills them.
    std::vector<tle::BreakerRoute> route(options.shards);
    for (u32 s = 0; s < options.shards; ++s) {
      route[s] = breaker[s].route();
      if (route[s] == tle::BreakerRoute::kProbe)
        note_transition(out, sink, e, s, "probe");
    }
    std::vector<std::vector<ScheduledRequest>> slice(options.shards);
    for (std::size_t i = lo; i < hi; ++i) {
      const ScheduledRequest& r = schedule[i];
      u32 target = route_key(options.router, r.id, r.key, options.shards,
                             driver_config.seed);
      if (route[target] == tle::BreakerRoute::kOpen) {
        for (u32 step = 1; step < options.shards; ++step) {
          const u32 cand = (target + step) % options.shards;
          if (route[cand] != tle::BreakerRoute::kOpen) {
            target = cand;
            ++out.spilled;
            break;
          }
        }  // every shard open: the preferred shard keeps the request
      }
      slice[target].push_back(r);
    }

    for (u32 s = 0; s < options.shards; ++s) {
      if (slice[s].empty()) continue;  // no traffic, no health evidence
      runtime::EngineConfig cfg = base;
      cfg.shard_id = s;
      cfg.shard_count = options.shards;
      // Asymmetric brown-out demonstration: the fault campaign hits only
      // the designated shard, the others stay healthy spill targets.
      if (bo.fault_shard >= 0 && static_cast<i32>(s) != bo.fault_shard)
        cfg.fault = fault::FaultConfig{};
      if (sink != nullptr) {
        auto run_labels = labels;
        run_labels["shard"] = std::to_string(s);
        run_labels["shards"] = std::to_string(options.shards);
        run_labels["epoch"] = std::to_string(e);
        run_labels["epochs"] = std::to_string(bo.epochs);
        sink->next_labels(std::move(run_labels));
        cfg.obs_sink = sink;
      }
      ServerRunResult r = run_open_loop_slice(
          std::move(cfg), program_source, driver_config, slice[s], hi - lo);

      const double bad =
          static_cast<double>(r.dropped + r.shed) /
          static_cast<double>(slice[s].size());
      bool unhealthy = bad > bo.shed_ratio;
      if (bo.latency_budget > 0 && r.completed > 0 &&
          r.latency_hist.percentile(99.0) >
              static_cast<double>(bo.latency_budget)) {
        unhealthy = true;
      }
      if (unhealthy) {
        const tle::BreakerOutcome bko = breaker[s].on_failure(params, true);
        if (bko.probe_failed) note_transition(out, sink, e, s, "probe-failed");
        if (bko.tripped) note_transition(out, sink, e, s, "open");
      } else if (breaker[s].on_success()) {
        note_transition(out, sink, e, s, "closed");
      }

      out.shards[s].add_epoch(std::move(r));
    }
  }
  out.finish(driver_config.paths, ghz);
  return out;
}

}  // namespace

ShardedRunResult run_sharded(const runtime::EngineConfig& base,
                             const std::string& program_source,
                             const DriverConfig& driver_config,
                             const ShardOptions& options,
                             obs::Sink* sink,
                             std::map<std::string, std::string> labels) {
  GILFREE_CHECK(options.shards >= 1 && options.shards <= 64);
  if (options.breaker.enabled) {
    return run_sharded_breaker(base, program_source, driver_config, options,
                               sink, labels);
  }
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

  ShardedRunResult out;
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
