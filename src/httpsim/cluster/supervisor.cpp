#include "httpsim/cluster/supervisor.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strutil.hpp"
#include "httpsim/cluster/worker.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "tle/breaker.hpp"

namespace gilfree::httpsim::cluster {

ClusterOptions ClusterOptions::from_flags(const CliFlags& flags) {
  ClusterOptions o;
  const long shards = flags.get_int("shards", o.shards);
  if (shards < 1 || shards > 64)
    throw std::invalid_argument("--shards must be in [1,64]");
  o.shards = static_cast<u32>(shards);
  o.router =
      parse_router(flags.get("router", std::string(router_name(o.router))));
  const long max_shards =
      flags.get_int("scale-max", static_cast<long>(o.max_shards));
  if (max_shards != 0 && (max_shards < shards || max_shards > 64))
    throw std::invalid_argument("--scale-max must be 0 or in [--shards,64]");
  o.max_shards = static_cast<u32>(max_shards);
  const long epochs =
      flags.get_int("cluster-epochs", static_cast<long>(o.epochs));
  if (epochs < 1 || epochs > 4096)
    throw std::invalid_argument("--cluster-epochs must be in [1,4096]");
  o.epochs = static_cast<u32>(epochs);

  const std::string steal = flags.get("steal", o.steal ? "on" : "off");
  if (steal == "on") {
    o.steal = true;
  } else if (steal == "off") {
    o.steal = false;
  } else {
    throw std::invalid_argument("--steal must be on or off (got \"" + steal +
                                "\")");
  }
  const long margin =
      flags.get_int("steal-margin", static_cast<long>(o.steal_margin));
  if (margin < 1) throw std::invalid_argument("--steal-margin must be >= 1");
  o.steal_margin = static_cast<u32>(margin);
  const long batch =
      flags.get_int("steal-batch", static_cast<long>(o.steal_batch));
  if (batch < 1) throw std::invalid_argument("--steal-batch must be >= 1");
  o.steal_batch = static_cast<u32>(batch);
  const long rounds =
      flags.get_int("steal-rounds", static_cast<long>(o.steal_rounds));
  if (rounds < 1 || rounds > 1024)
    throw std::invalid_argument("--steal-rounds must be in [1,1024]");
  o.steal_rounds = static_cast<u32>(rounds);

  const std::string scale = flags.get("autoscale", o.autoscale ? "on" : "off");
  if (scale == "on") {
    o.autoscale = true;
  } else if (scale == "off") {
    o.autoscale = false;
  } else {
    throw std::invalid_argument("--autoscale must be on or off (got \"" +
                                scale + "\")");
  }
  const long scale_min =
      flags.get_int("scale-min", static_cast<long>(o.scale_min));
  if (scale_min < 1 || scale_min > shards)
    throw std::invalid_argument("--scale-min must be in [1,--shards]");
  o.scale_min = static_cast<u32>(scale_min);
  const long up_depth =
      flags.get_int("scale-up-depth", static_cast<long>(o.scale_up_depth));
  if (up_depth < 1) throw std::invalid_argument("--scale-up-depth must be >= 1");
  o.scale_up_depth = static_cast<u32>(up_depth);
  const long up_p99 =
      flags.get_int("scale-up-p99", static_cast<long>(o.scale_up_p99));
  if (up_p99 < 0) throw std::invalid_argument("--scale-up-p99 must be >= 0");
  o.scale_up_p99 = static_cast<Cycles>(up_p99);
  const long down_depth =
      flags.get_int("scale-down-depth", static_cast<long>(o.scale_down_depth));
  if (down_depth < 0)
    throw std::invalid_argument("--scale-down-depth must be >= 0");
  o.scale_down_depth = static_cast<u32>(down_depth);
  const long sustain =
      flags.get_int("scale-sustain", static_cast<long>(o.scale_sustain));
  if (sustain < 1) throw std::invalid_argument("--scale-sustain must be >= 1");
  o.scale_sustain = static_cast<u32>(sustain);
  const long idle =
      flags.get_int("scale-idle", static_cast<long>(o.scale_idle));
  if (idle < 1) throw std::invalid_argument("--scale-idle must be >= 1");
  o.scale_idle = static_cast<u32>(idle);

  if (o.autoscale && o.slots() <= o.shards && o.scale_min >= o.shards) {
    throw std::invalid_argument(
        "--autoscale=on needs headroom: raise --scale-max above --shards "
        "or lower --scale-min below it");
  }

  BreakerOptions& b = o.breaker;
  const std::string breaker = flags.get("breaker", b.enabled ? "on" : "off");
  if (breaker == "on") {
    b.enabled = true;
  } else if (breaker != "off") {
    throw std::invalid_argument("--breaker must be on or off (got \"" +
                                breaker + "\")");
  }
  const long streak =
      flags.get_int("breaker-streak", static_cast<long>(b.trip_streak));
  if (streak < 1 || streak > 64)
    throw std::invalid_argument("--breaker-streak must be in [1,64]");
  b.trip_streak = static_cast<u32>(streak);
  const long probe =
      flags.get_int("breaker-probe", static_cast<long>(b.probe_initial));
  if (probe < 1 || probe > 64)
    throw std::invalid_argument("--breaker-probe must be in [1,64]");
  b.probe_initial = static_cast<u32>(probe);
  const long probe_max =
      flags.get_int("breaker-probe-max", static_cast<long>(b.probe_max));
  if (probe_max < probe || probe_max > 256)
    throw std::invalid_argument(
        "--breaker-probe-max must be in [--breaker-probe,256]");
  b.probe_max = static_cast<u32>(probe_max);
  b.shed_ratio = flags.get_double("breaker-shed-ratio", b.shed_ratio);
  if (b.shed_ratio <= 0.0 || b.shed_ratio > 1.0)
    throw std::invalid_argument("--breaker-shed-ratio must be in (0,1]");
  const long latency =
      flags.get_int("breaker-latency", static_cast<long>(b.latency_budget));
  if (latency < 0)
    throw std::invalid_argument("--breaker-latency must be >= 0 cycles");
  b.latency_budget = static_cast<Cycles>(latency);
  const long fault_shard =
      flags.get_int("breaker-fault-shard", static_cast<long>(b.fault_shard));
  if (fault_shard < -1 || fault_shard >= shards)
    throw std::invalid_argument(
        "--breaker-fault-shard must be -1 or a shard index < --shards");
  b.fault_shard = static_cast<i32>(fault_shard);
  if (b.enabled && (o.shards < 2 || o.epochs < 2 || o.steal || o.autoscale))
    throw std::invalid_argument(
        "--breaker=on requires --shards >= 2 and --cluster-epochs >= 2, "
        "without --steal=on or --autoscale=on");
  return o;
}

std::vector<std::string> ClusterOptions::to_flags() const {
  const ClusterOptions def;
  std::vector<std::string> out;
  if (shards != def.shards)
    out.push_back("--shards=" + std::to_string(shards));
  if (router != def.router)
    out.push_back(std::string("--router=") + std::string(router_name(router)));
  if (max_shards != def.max_shards)
    out.push_back("--scale-max=" + std::to_string(max_shards));
  if (epochs != def.epochs)
    out.push_back("--cluster-epochs=" + std::to_string(epochs));
  if (steal) out.push_back("--steal=on");
  if (steal_margin != def.steal_margin)
    out.push_back("--steal-margin=" + std::to_string(steal_margin));
  if (steal_batch != def.steal_batch)
    out.push_back("--steal-batch=" + std::to_string(steal_batch));
  if (steal_rounds != def.steal_rounds)
    out.push_back("--steal-rounds=" + std::to_string(steal_rounds));
  if (autoscale) out.push_back("--autoscale=on");
  if (scale_min != def.scale_min)
    out.push_back("--scale-min=" + std::to_string(scale_min));
  if (scale_up_depth != def.scale_up_depth)
    out.push_back("--scale-up-depth=" + std::to_string(scale_up_depth));
  if (scale_up_p99 != def.scale_up_p99)
    out.push_back("--scale-up-p99=" + std::to_string(scale_up_p99));
  if (scale_down_depth != def.scale_down_depth)
    out.push_back("--scale-down-depth=" + std::to_string(scale_down_depth));
  if (scale_sustain != def.scale_sustain)
    out.push_back("--scale-sustain=" + std::to_string(scale_sustain));
  if (scale_idle != def.scale_idle)
    out.push_back("--scale-idle=" + std::to_string(scale_idle));
  const BreakerOptions& b = breaker;
  if (b.enabled) out.push_back("--breaker=on");
  if (b.trip_streak != def.breaker.trip_streak)
    out.push_back("--breaker-streak=" + std::to_string(b.trip_streak));
  if (b.probe_initial != def.breaker.probe_initial)
    out.push_back("--breaker-probe=" + std::to_string(b.probe_initial));
  if (b.probe_max != def.breaker.probe_max)
    out.push_back("--breaker-probe-max=" + std::to_string(b.probe_max));
  if (b.shed_ratio != def.breaker.shed_ratio)
    out.push_back(strprintf("--breaker-shed-ratio=%.17g", b.shed_ratio));
  if (b.latency_budget != def.breaker.latency_budget)
    out.push_back("--breaker-latency=" + std::to_string(b.latency_budget));
  if (b.fault_shard != def.breaker.fault_shard)
    out.push_back("--breaker-fault-shard=" + std::to_string(b.fault_shard));
  return out;
}

u64 fnv1a64(const std::string& s) {
  u64 h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
  bool alive = false;
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Forks + re-execs /proc/self/exe with the --cluster-worker marker, wires
/// the protocol pipes onto the child's stdin/stdout, and sends kInit. All
/// supervisor-side pipe ends are O_CLOEXEC so later workers do not inherit
/// their siblings' channels.
WorkerProc spawn_worker(const InitMsg& init) {
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0)
    throw std::runtime_error("cluster: pipe2 failed");
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("cluster: pipe2 failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error("cluster: fork failed");
  }
  if (pid == 0) {
    // dup2 clears O_CLOEXEC on the target; the originals close at exec.
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    char arg0[] = "gilfree-cluster-worker";
    char arg1[] = "--cluster-worker";
    char* args[] = {arg0, arg1, nullptr};
    ::execv("/proc/self/exe", args);
    _exit(127);  // exec failed; no flushing of inherited buffers
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  WorkerProc p;
  p.pid = pid;
  p.to_fd = to_child[1];
  p.from_fd = from_child[0];
  p.alive = true;
  write_frame(p.to_fd, FrameKind::kInit, init.encode());
  return p;
}

/// Graceful worker shutdown: kShutdown, close pipes, reap, demand exit 0.
void retire_worker(WorkerProc& p, u32 slot) {
  write_frame(p.to_fd, FrameKind::kShutdown, "");
  close_fd(p.to_fd);
  close_fd(p.from_fd);
  int status = 0;
  ::waitpid(p.pid, &status, 0);
  p.alive = false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("cluster: worker for shard " +
                             std::to_string(slot) + " exited abnormally");
}

/// Error-path cleanup: closing the pipes forces blocked workers to exit on
/// EOF; reap whatever status they report.
void abandon_workers(std::vector<WorkerProc>& procs) {
  for (WorkerProc& p : procs) {
    if (!p.alive) continue;
    close_fd(p.to_fd);
    close_fd(p.from_fd);
    int status = 0;
    ::waitpid(p.pid, &status, 0);
    p.alive = false;
  }
}

InitMsg make_init(const ClusterSpec& spec, u32 slot, u32 slots) {
  InitMsg init;
  init.machine = spec.machine;
  init.config = spec.config;
  init.program = spec.program;
  init.engine_seed = spec.engine_seed;
  init.slot = slot;
  init.slots = slots;
  init.engine_flags = spec.engine_flags;
  // Asymmetric brown-out demonstration: the fault campaign hits only the
  // designated shard, the others stay healthy spill targets.
  const BreakerOptions& b = spec.options.breaker;
  if (b.enabled && b.fault_shard >= 0 &&
      static_cast<i32>(slot) != b.fault_shard)
    std::erase_if(init.engine_flags, [](const std::string& f) {
      return starts_with(f, "--fault-");
    });
  init.driver_flags = spec.driver.to_flags();
  if (!spec.artifact_stem.empty()) {
    init.trace_path =
        spec.artifact_stem + ".shard" + std::to_string(slot) + ".trace.jsonl";
    init.metrics_path =
        spec.artifact_stem + ".shard" + std::to_string(slot) + ".metrics.json";
  }
  return init;
}

void emit_event(ClusterRunResult& result, obs::Sink* sink,
                const std::string& line, bool trace) {
  result.record_lines.push_back(line);
  if (trace && sink != nullptr && sink->enabled()) sink->write_raw(line);
}

std::string steal_line(const StealEvent& ev) {
  std::string line = "{\"ev\":\"steal\",\"epoch\":";
  line += std::to_string(ev.epoch);
  line += ",\"from\":";
  line += std::to_string(ev.from);
  line += ",\"to\":";
  line += std::to_string(ev.to);
  line += ",\"moved\":";
  line += std::to_string(ev.moved);
  line += "}";
  return line;
}

/// Records one breaker transition and mirrors it into the trace stream so
/// trace consumers see brown-outs inline with the steal/scale events.
void note_transition(ClusterRunResult& result, obs::Sink* sink, u32 epoch,
                     u32 shard, const char* state) {
  result.breaker_transitions.push_back(BreakerTransition{epoch, shard, state});
  std::string line = "{\"ev\":\"breaker\",\"shard\":";
  line += std::to_string(shard);
  line += ",\"epoch\":";
  line += std::to_string(epoch);
  line += ",\"state\":\"";
  line += state;
  line += "\"}";
  emit_event(result, sink, line, /*trace=*/true);
}

std::string scale_line(const ScaleEvent& ev) {
  std::string line = "{\"ev\":\"scale\",\"epoch\":";
  line += std::to_string(ev.epoch);
  line += ",\"dir\":\"";
  line += ev.up ? "up" : "down";
  line += "\",\"slot\":";
  line += std::to_string(ev.slot);
  line += "}";
  return line;
}

}  // namespace

ClusterRunResult run_cluster(const ClusterSpec& spec, obs::Sink* sink) {
  const ClusterOptions& opt = spec.options;
  const u32 slots = opt.slots();
  if (spec.driver.arrival == Arrival::kClosed)
    throw std::invalid_argument("cluster serving requires an open-loop "
                                "arrival (--arrival=poisson, mmpp, or trace)");
  if (opt.shards < 1 || slots > 64 || opt.shards > slots)
    throw std::invalid_argument("cluster shard/slot counts out of range");

  // Validate the engine spec in the supervisor before any fork, so name and
  // flag errors surface as one clean exception instead of a worker exit.
  InitMsg probe = make_init(spec, 0, slots);
  probe.engine_flags = spec.engine_flags;  // the unconfined fault campaign
  const runtime::EngineConfig base = engine_config_from_init(probe);
  const double ghz = base.profile.machine.ghz;

  const auto schedule = make_schedule(spec.driver, ghz);
  if (schedule.empty())
    throw std::invalid_argument("cluster run needs a non-empty schedule");

  ClusterRunResult result;
  result.shards.resize(slots);
  result.slot_used.assign(slots, false);
  std::vector<WorkerProc> procs(slots);
  std::vector<bool> active(slots, false);
  std::vector<std::vector<ScheduledRequest>> pending(slots);
  std::vector<u64> backlog_carry(slots, 0);
  std::vector<Cycles> epoch_p99(slots, 0);
  const BreakerOptions& bo = opt.breaker;
  const tle::BreakerParams breaker_params{bo.trip_streak, bo.probe_initial,
                                          bo.probe_max};
  std::vector<tle::BreakerCore> breaker(slots);
  std::vector<tle::BreakerRoute> route(slots, tle::BreakerRoute::kClosed);
  std::vector<std::size_t> batch_size(slots, 0);
  u32 next_slot = opt.shards;
  u32 up_streak = 0;
  u32 idle_streak = 0;

  try {
    for (u32 s = 0; s < opt.shards; ++s) {
      procs[s] = spawn_worker(make_init(spec, s, slots));
      active[s] = true;
      result.slot_used[s] = true;
    }

    Cycles window_end = 0;
    for (u32 e = 0; e < opt.epochs; ++e) {
      const std::size_t lo = schedule.size() * e / opt.epochs;
      const std::size_t hi =
          schedule.size() * static_cast<std::size_t>(e + 1) / opt.epochs;
      if (hi > lo) window_end = schedule[hi - 1].at;

      std::vector<u32> act;
      for (u32 s = 0; s < slots; ++s) {
        if (active[s]) act.push_back(s);
      }
      result.max_active =
          std::max(result.max_active, static_cast<u32>(act.size()));

      {
        std::string line = "{\"ev\":\"epoch\",\"epoch\":";
        line += std::to_string(e);
        line += ",\"lo\":";
        line += std::to_string(lo);
        line += ",\"hi\":";
        line += std::to_string(hi);
        line += ",\"active\":";
        line += std::to_string(act.size());
        line += "}";
        emit_event(result, sink, line, /*trace=*/false);
      }

      // 1. Route this window's arrivals across the active shards. With
      // breakers on, each shard's breaker picks its epoch route first (a
      // probe epoch serves the shard's own keys, an open one spills them to
      // the next non-open shard in ring order). route() counts down the
      // open wait, so an empty window must not call it.
      if (bo.enabled && hi > lo) {
        for (const u32 s : act) {
          route[s] = breaker[s].route();
          if (route[s] == tle::BreakerRoute::kProbe)
            note_transition(result, sink, e, s, "probe");
        }
      }
      for (std::size_t i = lo; i < hi; ++i) {
        const ScheduledRequest& r = schedule[i];
        const u32 idx = route_key(opt.router, r.id, r.key,
                                  static_cast<u32>(act.size()),
                                  spec.driver.seed);
        u32 target = act[idx];
        if (route[target] == tle::BreakerRoute::kOpen) {
          for (u32 step = 1; step < act.size(); ++step) {
            const u32 cand = act[(idx + step) % act.size()];
            if (route[cand] != tle::BreakerRoute::kOpen) {
              target = cand;
              ++result.spilled;
              break;
            }
          }  // every shard open: the preferred shard keeps the request
        }
        pending[target].push_back(r);
      }

      const auto depth = [&](u32 s) {
        return static_cast<u64>(pending[s].size()) + backlog_carry[s];
      };
      for (const u32 s : act)
        result.peak_depth_presteal =
            std::max(result.peak_depth_presteal, depth(s));

      // 2. Steal pass: migrate queued requests from the deepest to the
      // shallowest admission queue until the gap closes or the round
      // budget runs out. Ties break toward the lowest slot id, so the
      // whole pass is a pure function of the depths.
      if (opt.steal && act.size() >= 2) {
        for (u32 round = 0; round < opt.steal_rounds; ++round) {
          u32 deepest = act[0];
          u32 shallowest = act[0];
          for (const u32 s : act) {
            if (depth(s) > depth(deepest)) deepest = s;
            if (depth(s) < depth(shallowest)) shallowest = s;
          }
          const u64 gap = depth(deepest) - depth(shallowest);
          if (gap < opt.steal_margin || pending[deepest].empty()) break;
          const u64 moved =
              std::min<u64>({opt.steal_batch, pending[deepest].size(),
                             std::max<u64>(1, gap / 2)});
          auto& from = pending[deepest];
          auto& to = pending[shallowest];
          to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(moved),
                    from.end());
          from.erase(from.end() - static_cast<std::ptrdiff_t>(moved),
                     from.end());
          const StealEvent ev{e, deepest, shallowest, moved};
          result.steals.push_back(ev);
          result.stolen += moved;
          emit_event(result, sink, steal_line(ev), /*trace=*/true);
        }
      }
      for (const u32 s : act)
        result.peak_depth = std::max(result.peak_depth, depth(s));

      // 3. Dispatch one batch per active shard (possibly empty, to keep the
      // epoch lockstep), each sorted back into arrival order.
      for (const u32 s : act) {
        std::sort(pending[s].begin(), pending[s].end(),
                  [](const ScheduledRequest& a, const ScheduledRequest& b) {
                    return a.at != b.at ? a.at < b.at : a.id < b.id;
                  });
        BatchMsg batch;
        batch.epoch = e;
        batch.window_end = window_end;
        batch.schedule_total = schedule.size();
        batch.slice = std::move(pending[s]);
        pending[s].clear();
        batch_size[s] = batch.slice.size();
        {
          std::string line = "{\"ev\":\"dispatch\",\"epoch\":";
          line += std::to_string(e);
          line += ",\"slot\":";
          line += std::to_string(s);
          line += ",\"n\":";
          line += std::to_string(batch.slice.size());
          line += "}";
          emit_event(result, sink, line, /*trace=*/false);
        }
        write_frame(procs[s].to_fd, FrameKind::kBatch, batch.encode());
      }

      // 4. Collect results in slot order (the workers run concurrently; the
      // deterministic merge order is what matters).
      for (const u32 s : act) {
        const auto frame = read_frame(procs[s].from_fd);
        if (!frame || frame->kind != FrameKind::kResult)
          throw std::runtime_error("cluster: shard " + std::to_string(s) +
                                   " did not return a result");
        ResultMsg m = ResultMsg::decode(frame->payload);
        if (m.epoch != e)
          throw std::runtime_error("cluster: shard " + std::to_string(s) +
                                   " answered for the wrong epoch");
        ServerRunResult r;
        r.completed = static_cast<u32>(m.completed);
        r.dropped = static_cast<u32>(m.dropped);
        r.shed = static_cast<u32>(m.shed);
        r.retries = static_cast<u32>(m.retries);
        r.latency_hist = obs::LatencyHistogram::deserialize(m.latency_hist);
        r.queue_hist = obs::LatencyHistogram::deserialize(m.queue_hist);
        r.last_response = m.last_response;
        r.records = std::move(m.records);
        backlog_carry[s] = m.backlog;
        epoch_p99[s] = r.latency_hist.total() > 0
                           ? r.latency_hist.percentile(99.0)
                           : 0;
        // Breaker health; an empty batch gives no evidence either way.
        if (bo.enabled && batch_size[s] > 0) {
          const double bad = static_cast<double>(r.dropped + r.shed) /
                             static_cast<double>(batch_size[s]);
          const bool unhealthy =
              bad > bo.shed_ratio ||
              (bo.latency_budget > 0 && epoch_p99[s] > bo.latency_budget);
          if (unhealthy) {
            const tle::BreakerOutcome out =
                breaker[s].on_failure(breaker_params, true);
            if (out.probe_failed)
              note_transition(result, sink, e, s, "probe-failed");
            if (out.tripped) note_transition(result, sink, e, s, "open");
          } else if (breaker[s].on_success()) {
            note_transition(result, sink, e, s, "closed");
          }
        }
        result.shards[s].add_epoch(std::move(r));
      }

      // 5. Autoscale decision for the next epoch.
      if (opt.autoscale && e + 1 < opt.epochs) {
        bool overloaded = false;
        bool idle = true;
        for (const u32 s : act) {
          if (backlog_carry[s] >= opt.scale_up_depth) overloaded = true;
          if (opt.scale_up_p99 > 0 && epoch_p99[s] > opt.scale_up_p99)
            overloaded = true;
          if (backlog_carry[s] > opt.scale_down_depth) idle = false;
        }
        up_streak = overloaded ? up_streak + 1 : 0;
        idle_streak = idle ? idle_streak + 1 : 0;
        if (up_streak >= opt.scale_sustain && next_slot < slots) {
          const u32 s = next_slot++;
          procs[s] = spawn_worker(make_init(spec, s, slots));
          active[s] = true;
          result.slot_used[s] = true;
          const ScaleEvent ev{e, /*up=*/true, s};
          result.scales.push_back(ev);
          emit_event(result, sink, scale_line(ev), /*trace=*/true);
          up_streak = 0;
        } else if (idle_streak >= opt.scale_idle &&
                   act.size() > opt.scale_min) {
          const u32 s = act.back();  // retire the highest-id active shard
          retire_worker(procs[s], s);
          active[s] = false;
          const ScaleEvent ev{e, /*up=*/false, s};
          result.scales.push_back(ev);
          emit_event(result, sink, scale_line(ev), /*trace=*/true);
          idle_streak = 0;
        }
      }
    }

    for (u32 s = 0; s < slots; ++s) {
      if (active[s]) retire_worker(procs[s], s);
    }
  } catch (...) {
    abandon_workers(procs);
    throw;
  }

  result.finish(spec.driver.paths, ghz);
  if (result.completed + result.dropped + result.shed != schedule.size())
    throw std::runtime_error("cluster: request accounting mismatch");
  {
    std::string line = "{\"ev\":\"end\",\"completed\":";
    line += std::to_string(result.completed);
    line += ",\"dropped\":";
    line += std::to_string(result.dropped);
    line += ",\"shed\":";
    line += std::to_string(result.shed);
    line += ",\"retries\":";
    line += std::to_string(result.retries);
    line += ",\"makespan\":";
    line += std::to_string(result.makespan);
    line += ",\"stolen\":";
    line += std::to_string(result.stolen);
    line += ",\"log_fnv\":\"";
    line += std::to_string(fnv1a64(result.request_log));
    line += "\"}";
    emit_event(result, sink, line, /*trace=*/false);
  }
  return result;
}

}  // namespace gilfree::httpsim::cluster
