// Host-time measuring program of the benchmark (run.py builds and invokes
// it; see README.md). One invocation measures one workload for one seed:
//
//   bt-htm           NPB BT, class-W scale, zEC12, HTM-dynamic, 12 threads
//   bt-stm-fallback  the same + STM tier + persistent aborts at every yield
//                    point (every hardware begin aborts at once)
//   serve-fleet      run_cluster: webrick on zEC12 HTM-dynamic, 3 shard
//                    processes, Poisson load with Zipf keys, stealing on
//
// It times the library's public entry points (Engine::Engine,
// Engine::load_program, Engine::run, httpsim::make_schedule,
// httpsim::cluster::run_cluster) with tracing off, repeating the timed call
// until --seconds is spent (on bt-*, in three forked copies side by side,
// each pinned to its own CPU), then runs the
// extra passes the checks need (the GIL oracle on bt-*, one artifact-enabled
// fleet on serve-fleet; serve-fleet also runs two tail fleets on derived
// seeds whose latencies join the reported percentiles). With
// --trace=1 it also runs the passes that only per-layer metrics need and
// records spans around every call. The result is one JSON line of raw
// samples on stdout; run.py turns it into metrics and checks.
//
//   $ hostbench --workload=bt-htm --seed=1 --seconds=30 --trace=0
//       --runs-dir=.bench_build/hostbench-runs
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "httpsim/client_driver.hpp"
#include "httpsim/cluster/supervisor.hpp"
#include "httpsim/cluster/worker.hpp"
#include "httpsim/server_programs.hpp"
#include "runtime/engine.hpp"
#include "workloads/workload.hpp"

using namespace gilfree;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat JSON object writer; keys and string values are benchmark-chosen
/// identifiers, so no escaping is needed.
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  Json& num(const std::string& k, u64 v) { return raw(k, std::to_string(v)); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + items[i];
  return out + "]";
}

/// Process CPU and memory counters: the benchmark's own process and its
/// reaped children (the cluster's shard workers).
struct Usage {
  double self_user = 0, self_sys = 0, child_user = 0, child_sys = 0;
  long self_maxrss_kb = 0, child_maxrss_kb = 0;

  static Usage now() {
    rusage s{};
    rusage c{};
    ::getrusage(RUSAGE_SELF, &s);
    ::getrusage(RUSAGE_CHILDREN, &c);
    const auto sec = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return {sec(s.ru_utime), sec(s.ru_stime), sec(c.ru_utime),
            sec(c.ru_stime), s.ru_maxrss,     c.ru_maxrss};
  }
};

/// Spans of the traced passes: name, parent, start/end in ns since the
/// benchmark started. Kept in memory and emitted with the result.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int open(const std::string& name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = ns();
    stack_.pop_back();
  }
  std::string to_json() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out.push_back(Json()
                        .num("id", static_cast<u64>(i))
                        .raw("parent", std::to_string(s.parent))
                        .str("name", s.name)
                        .num("start_ns", s.start_ns)
                        .num("end_ns", s.end_ns)
                        .done());
    }
    return jarray(out);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    u64 start_ns;
    u64 end_ns;
  };
  u64 ns() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - origin_)
                                .count());
  }

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  ~SpanScope() {
    if (log_) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Host time of one timed call plus the CPU the process and its children
/// spent during it.
struct CallSample {
  double wall = 0;
  Usage before;
  Usage after;

  std::string to_json(Json j) const {
    return j.num("host_s", wall)
        .num("self_user_s", after.self_user - before.self_user)
        .num("self_sys_s", after.self_sys - before.self_sys)
        .num("child_user_s", after.child_user - before.child_user)
        .num("child_sys_s", after.child_sys - before.child_sys)
        .done();
  }
};

template <class F>
CallSample timed_call(F&& f) {
  CallSample s;
  s.before = Usage::now();
  const auto t0 = Clock::now();
  f();
  s.wall = since(t0);
  s.after = Usage::now();
  return s;
}

/// Runs further repetitions while the next one is expected to finish inside
/// the budget; always at least `min_reps`.
bool want_more(std::size_t done, std::size_t min_reps, double elapsed,
               double budget) {
  if (done < min_reps) return true;
  if (done >= 64) return false;
  return elapsed + elapsed / static_cast<double>(done) <= budget;
}

/// The CPUs the process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Runs `body(i)` for i < `copies` in as many forked processes at once, copy
/// i pinned to CPU `cpus[i]` (unpinned when `cpus` is shorter), and returns
/// what each copy's body returned. A single-threaded run stays on one CPU,
/// and on a shared host each CPU's speed drifts with its neighbours' load:
/// the same BT run took 3.7 s on one CPU and 6.1 s on another within the
/// same minute. Copies measuring side by side on distinct CPUs sample every
/// CPU's state in the same seconds, and give more repetitions per run.
std::vector<std::string> run_copies(
    std::size_t copies, const std::vector<int>& cpus,
    const std::function<std::string(std::size_t)>& body) {
  std::cout.flush();
  std::cerr.flush();
  std::vector<pid_t> pids;
  std::vector<int> fds;
  bool ok = true;
  for (std::size_t i = 0; i < copies && ok; ++i) {
    int fd[2];
    if (::pipe(fd) != 0) {
      ok = false;
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fd[0]);
      ::close(fd[1]);
      ok = false;
      break;
    }
    if (pid == 0) {
      ::close(fd[0]);
      int code = 0;
      try {
        if (i < cpus.size()) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[i], &one);
          ::sched_setaffinity(0, sizeof one, &one);
        }
        const std::string out = body(i);
        for (std::size_t off = 0; off < out.size();) {
          const ssize_t n = ::write(fd[1], out.data() + off, out.size() - off);
          if (n <= 0) throw std::runtime_error("write to parent failed");
          off += static_cast<std::size_t>(n);
        }
      } catch (const std::exception& e) {
        std::cerr << "error: copy " << i << ": " << e.what() << "\n";
        code = 1;
      }
      ::_exit(code);
    }
    ::close(fd[1]);
    pids.push_back(pid);
    fds.push_back(fd[0]);
  }
  // Every started copy is read to its end and reaped, whatever the others
  // did.
  std::vector<std::string> outs(pids.size());
  for (std::size_t i = 0; i < pids.size(); ++i) {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fds[i], buf, sizeof buf)) > 0)
      outs[i].append(buf, static_cast<std::size_t>(n));
    ::close(fds[i]);
    int status = 0;
    ok = ::waitpid(pids[i], &status, 0) == pids[i] && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0 && ok;
  }
  if (!ok) throw std::runtime_error("a measuring copy failed");
  return outs;
}

// --- bt-htm / bt-stm-fallback ----------------------------------------------

constexpr unsigned kBtThreads = 12;
constexpr std::size_t kBtCopies = 3;

runtime::EngineConfig bt_config(bool stm_fallback, bool gil, u64 seed) {
  const auto profile = htm::SystemProfile::by_name("zec12");
  runtime::EngineConfig cfg = gil ? runtime::EngineConfig::gil(profile)
                                  : runtime::EngineConfig::htm_dynamic(profile);
  cfg.seed = seed;
  if (stm_fallback && !gil) {
    cfg.stm.enabled = true;
    cfg.fault.persistent_all_yps = true;
    cfg.fault.seed = seed;
  }
  return cfg;
}

/// Every field of RunStats, for the invariance digest and the per-layer
/// counters (the puts output as its hash).
std::string run_stats_json(const runtime::RunStats& st) {
  Json j;
  j.num("total_cycles", st.total_cycles)
      .num("virtual_seconds", st.virtual_seconds)
      .num("insns", st.insns_retired)
      .num("live_thread_peak", st.live_thread_peak)
      .num("htm.begins", st.htm.begins)
      .num("htm.commits", st.htm.commits)
      .num("htm.eager_aborts", st.htm.eager_aborts);
  for (std::size_t r = 1; r < htm::kNumAbortReasons; ++r) {
    j.num("htm.aborts." + std::string(htm::abort_reason_name(
                              static_cast<htm::AbortReason>(r))),
          st.htm.aborts_by_reason[r]);
  }
  j.num("gil.acquisitions", st.gil.acquisitions)
      .num("gil.contended", st.gil.contended_acquisitions)
      .num("gil.yields", st.gil.yields)
      .num("gil.held_cycles", st.gil.held_cycles);
  const runtime::CycleBreakdown& b = st.breakdown;
  j.num("cycles.begin_end", b.begin_end)
      .num("cycles.tx_success", b.tx_success)
      .num("cycles.tx_aborted", b.tx_aborted)
      .num("cycles.stm_work", b.stm_work)
      .num("cycles.gil_held", b.gil_held)
      .num("cycles.gil_wait", b.gil_wait)
      .num("cycles.blocked_io", b.blocked_io)
      .num("cycles.other", b.other);
  const vm::GcStats& gc = st.gc;
  j.num("gc.collections", gc.collections)
      .num("gc.last_marked", gc.last_marked)
      .num("gc.last_swept", gc.last_swept)
      .num("gc.total_marked", gc.total_marked)
      .num("gc.total_swept", gc.total_swept)
      .num("gc.grown_blocks", gc.grown_blocks)
      .num("gc.arena_refills", gc.arena_refills)
      .num("gc.arena_grows", gc.arena_grows)
      .num("gc.arena_shrinks", gc.arena_shrinks)
      .num("gc.pool_segments", gc.pool_segments)
      .num("gc.segment_slots_min", static_cast<u64>(gc.segment_slots_min))
      .num("gc.segment_slots_max", static_cast<u64>(gc.segment_slots_max))
      .num("gc.sweep_quanta", gc.sweep_quanta)
      .num("gc.sweep_quantum_cycles", gc.sweep_quantum_cycles)
      .num("gc.minor_collections", gc.minor_collections)
      .num("gc.nursery_promoted", gc.nursery_promoted)
      .num("gc.nursery_freed", gc.nursery_freed)
      .num("gc.mark_quanta", gc.mark_quanta)
      .num("gc.mark_quantum_cycles", gc.mark_quantum_cycles)
      .num("gc.arena_steals", gc.arena_steals)
      .num("gc.stolen_segments", gc.stolen_segments)
      .num("gc.last_pause", gc.last_pause)
      .num("gc.max_pause", gc.max_pause)
      .str("gc.pause_hist", gc.pause_hist.serialize());
  j.num("interp.insns_retired", st.interp.insns_retired)
      .num("interp.sends", st.interp.sends)
      .num("interp.ic_method_hits", st.interp.ic_method_hits)
      .num("interp.ic_method_misses", st.interp.ic_method_misses)
      .num("interp.ic_ivar_hits", st.interp.ic_ivar_hits)
      .num("interp.ic_ivar_misses", st.interp.ic_ivar_misses)
      .num("interp.allocations", st.interp.allocations)
      .num("interp.fused_instructions", st.interp.fused_instructions);
  j.num("tle.transactions_started", st.transactions_started)
      .num("tle.ctx_switch_aborts", st.ctx_switch_aborts)
      .num("tle.gil_fallbacks", st.gil_fallbacks)
      .num("tle.length_adjustments", st.length_adjustments)
      .num("tle.fraction_length_one", st.fraction_length_one)
      .num("tle.quarantine_enters", st.quarantine_enters)
      .num("tle.quarantine_probes", st.quarantine_probes)
      .num("tle.quarantine_exits", st.quarantine_exits)
      .num("tle.watchdog_events", st.watchdog_events);
  for (std::size_t k = 0; k < fault::kNumFaultKinds; ++k) {
    j.num("faults." + std::string(fault::fault_kind_name(
                          static_cast<fault::FaultKind>(k))),
          st.faults.injected[k]);
  }
  j.num("stm.begins", st.stm.begins)
      .num("stm.commits", st.stm.commits)
      .num("stm.validated_entries", st.stm.validated_entries)
      .num("stm.committed_writes", st.stm.committed_writes)
      .num("stm.zombie_kills", st.stm.zombie_kills)
      .num("stm.max_read_lines", st.stm.max_read_lines)
      .num("stm.max_write_entries", st.stm.max_write_entries)
      .num("stm.escalations", st.stm_escalations)
      .num("stm.gil_fallbacks", st.stm_gil_fallbacks);
  for (std::size_t c = 1; c < stm::kNumStmAbortCauses; ++c) {
    j.num("stm.aborts." + std::string(stm::stm_abort_cause_name(
                              static_cast<stm::StmAbortCause>(c))),
          st.stm.aborts_by_cause[c]);
  }
  for (const auto& [k, v] : st.results) j.num("result." + k, v);
  j.num("output_fnv", httpsim::cluster::fnv1a64(st.output));
  return j.done();
}

struct BtBoot {
  std::unique_ptr<runtime::Engine> engine;
  Json sample;  ///< Construction and load times.
};

/// Generates the BT sources, constructs the Engine and loads the program.
/// The last two are the set-up before the timed call.
BtBoot boot_bt(const runtime::EngineConfig& cfg, unsigned scale,
               SpanLog* spans) {
  BtBoot b;
  std::vector<std::string> sources;
  {
    SpanScope s(spans, "workloads.sources_for");
    sources = workloads::sources_for(workloads::npb("BT"), kBtThreads, scale);
  }
  const auto tc = Clock::now();
  {
    SpanScope s(spans, "runtime.Engine");
    b.engine = std::make_unique<runtime::Engine>(cfg);
  }
  const double construct_s = since(tc);
  const auto tl = Clock::now();
  {
    SpanScope s(spans, "runtime.Engine.load_program");
    b.engine->load_program(sources);
  }
  const double load_s = since(tl);
  b.sample.num("construct_s", construct_s)
      .num("load_s", load_s)
      .num("setup_s", construct_s + load_s);
  return b;
}

/// Host seconds of a fixed benchmark-owned kernel shaped like the
/// simulator's hot loops: unpredictable multiway branches and read-modify-
/// write probes into a 4 MB table. It measures how fast the CPU runs such
/// code right now. On a shared host, neighbours slow BT by up to 50% for
/// minutes at a time and slow this kernel with it (run-level correlation
/// 0.84-0.95), while no change to the simulator can move it.
double reference_kernel_s() {
  static std::vector<u32> table(1u << 20);
  const auto t0 = Clock::now();
  u64 acc = 0;
  u64 y = 0x853C49E6748FEA9Bull;
  for (u32 k = 0; k < 3'000'000; ++k) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    u32& slot = table[(y * 0x9E3779B97F4A7C15ull) >> 44];
    switch (y >> 61) {
      case 0: acc += slot; break;
      case 1: slot ^= static_cast<u32>(acc); break;
      case 2: acc = acc * 31 + slot; break;
      case 3: acc = (slot & 1) ? acc ^ y : acc + 7; break;
      case 4: slot += 1; break;
      case 5: acc -= slot >> 3; break;
      case 6: acc ^= table[slot & ((1u << 20) - 1)]; break;
      default: acc += y >> 32; break;
    }
  }
  const double s = since(t0);
  // Keeps the loop observable, so the compiler cannot drop it.
  table[acc & ((1u << 20) - 1)] ^= 1;
  return s;
}

/// One set-up + timed Engine::run of BT, preceded by one reference kernel
/// sample on the same CPU; returns the repetition's record.
std::string bt_rep(const runtime::EngineConfig& cfg, unsigned scale,
                   SpanLog* spans, const std::string& label) {
  SpanScope rep(spans, label);
  const double ref_s = reference_kernel_s();
  BtBoot b = boot_bt(cfg, scale, spans);
  runtime::RunStats stats;
  const CallSample call = timed_call([&] {
    SpanScope s(spans, "runtime.Engine.run");
    stats = b.engine->run();
  });
  return call.to_json(
      b.sample.num("ref_s", ref_s).raw("sim", run_stats_json(stats)));
}

std::string run_bt(bool stm_fallback, u64 seed, double seconds, bool trace,
                   bool quick) {
  const unsigned scale = quick ? 1 : 4;
  const runtime::EngineConfig cfg = bt_config(stm_fallback, false, seed);
  SpanLog spans(trace);

  // kBtCopies copies measure side by side, each on its own CPU, leaving one
  // CPU to the rest of the system; the first CPU takes most interrupts, so
  // the copies use the last ones.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t copies = std::clamp<std::size_t>(
      cpus.empty() ? 1 : cpus.size() - 1, 1, kBtCopies);
  const std::vector<int> pins(cpus.end() - static_cast<long>(std::min(copies, cpus.size())),
                              cpus.end());
  const auto copy = [&](std::size_t i) {
    // Set-up alone, several times, so its median is steady. These boots are
    // the ones setup_s reports: once a run has finished, later boots in the
    // process reuse its freed heap pages and take about half as long.
    std::vector<std::string> setups;
    std::vector<std::string> reps;
    for (std::size_t k = 0; k < (quick ? 1 : 5); ++k)
      setups.push_back(boot_bt(cfg, scale, nullptr).sample.done());
    const auto loop_t0 = Clock::now();
    do {
      reps.push_back(bt_rep(cfg, scale, nullptr, "rep"));
    } while (want_more(reps.size(), quick ? 1 : 3, since(loop_t0), seconds));
    return Json()
        .raw("cpu", std::to_string(i < pins.size() ? pins[i] : -1))
        .raw("setups", jarray(setups))
        .raw("reps", jarray(reps))
        .done();
  };
  const std::vector<std::string> measured = run_copies(copies, pins, copy);
  const Usage peak = Usage::now();

  // Serializability oracle: the same program, scale and seed under the GIL.
  Json out;
  out.str("workload", stm_fallback ? "bt-stm-fallback" : "bt-htm")
      .num("seed", seed)
      .raw("copies", jarray(measured))
      .num("peak_rss_kb",
           static_cast<u64>(std::max(peak.self_maxrss_kb, peak.child_maxrss_kb)))
      .raw("oracle", bt_rep(bt_config(stm_fallback, true, seed), scale,
                            trace ? &spans : nullptr, "oracle.gil"));
  if (trace) {
    out.raw("traced", bt_rep(cfg, scale, &spans, "rep.traced"))
        .raw("spans", spans.to_json());
  }
  return out.done();
}

// --- serve-fleet -------------------------------------------------------------

httpsim::cluster::ClusterSpec serve_spec(u64 seed, bool quick) {
  httpsim::cluster::ClusterSpec spec;
  spec.machine = "zec12";
  spec.config = "HTM-dynamic";
  spec.program = "webrick";
  spec.engine_seed = seed;
  spec.driver.arrival = httpsim::Arrival::kPoisson;
  spec.driver.rps = 60'000.0;
  // 12,000 requests leave 12 samples beyond the merged p99.9.
  spec.driver.total_requests = quick ? 600 : 12'000;
  spec.driver.key_space = 16;
  spec.driver.zipf = 1.2;
  spec.driver.seed = seed;
  spec.options.shards = 3;
  spec.options.epochs = quick ? 2 : 8;
  spec.options.steal = true;
  return spec;
}

/// Exact nearest-rank percentile of a sorted sample.
Cycles percentile(const std::vector<Cycles>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Exact latency percentiles of a fleet's (or several fleets') completed
/// requests.
Json latency_json(std::vector<Cycles> latency) {
  std::sort(latency.begin(), latency.end());
  const std::size_t p999_rank = static_cast<std::size_t>(
      std::ceil(0.999 * static_cast<double>(latency.size())));
  Json j;
  j.num("latency_samples", static_cast<u64>(latency.size()))
      .num("latency_p50", percentile(latency, 50.0))
      .num("latency_p999", percentile(latency, 99.9))
      .num("beyond_p999", static_cast<u64>(latency.size() - p999_rank));
  return j;
}

/// The fleet's deterministic results; appends its request latencies to
/// `pool` when given.
std::string cluster_sim_json(const httpsim::cluster::ClusterRunResult& r,
                             std::vector<Cycles>* pool) {
  std::vector<Cycles> latency;
  std::vector<Cycles> queue;
  for (const httpsim::ServerRunResult& shard : r.shards) {
    for (const httpsim::RequestRecord& rec : shard.records) {
      if (rec.dropped || rec.outcome != httpsim::RequestOutcome::kOk) continue;
      latency.push_back(rec.responded - rec.arrival);
      queue.push_back(rec.accepted - rec.arrival);
    }
  }
  if (pool) pool->insert(pool->end(), latency.begin(), latency.end());
  std::sort(queue.begin(), queue.end());
  return latency_json(std::move(latency))
      .num("completed", r.completed)
      .num("dropped", r.dropped)
      .num("shed", r.shed)
      .num("retries", r.retries)
      .num("makespan_cycles", r.makespan)
      .num("stolen", r.stolen)
      .num("steals", static_cast<u64>(r.steals.size()))
      .num("peak_depth_presteal", r.peak_depth_presteal)
      .num("peak_depth", r.peak_depth)
      .num("max_active", static_cast<u64>(r.max_active))
      .num("queue_p99", percentile(queue, 99.0))
      .num("log_fnv", httpsim::cluster::fnv1a64(r.request_log))
      .done();
}

/// make_schedule is sub-millisecond, so each set-up sample is the median of
/// several calls.
double schedule_setup_s(const httpsim::cluster::ClusterSpec& spec, double ghz,
                        SpanLog* spans, std::size_t* scheduled) {
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    SpanScope s(spans, "httpsim.make_schedule");
    const auto t0 = Clock::now();
    *scheduled = httpsim::make_schedule(spec.driver, ghz).size();
    samples.push_back(since(t0));
  }
  std::nth_element(samples.begin(), samples.begin() + 4, samples.end());
  return samples[4];
}

std::string serve_rep(const httpsim::cluster::ClusterSpec& spec, double ghz,
                      SpanLog* spans, const std::string& label,
                      std::vector<Cycles>* pool = nullptr) {
  SpanScope rep(spans, label);
  std::size_t scheduled = 0;
  const double setup_s = schedule_setup_s(spec, ghz, spans, &scheduled);
  httpsim::cluster::ClusterRunResult result;
  const CallSample call = timed_call([&] {
    SpanScope s(spans, "httpsim.cluster.run_cluster");
    result = httpsim::cluster::run_cluster(spec);
  });
  return call.to_json(Json()
                          .num("setup_s", setup_s)
                          .num("scheduled", static_cast<u64>(scheduled))
                          .str("artifact_stem", spec.artifact_stem)
                          .raw("sim", cluster_sim_json(result, pool)));
}

/// One standalone Engine construction + load_program of the webrick source
/// with the serve configuration: what every (shard, epoch) boot costs.
std::string serve_boot(u64 seed, u32 slice_requests, SpanLog* spans) {
  SpanScope boot(spans, "boot");
  auto cfg = runtime::EngineConfig::htm_dynamic(
      htm::SystemProfile::by_name("zec12"));
  cfg.seed = seed;
  cfg.heap.max_threads = slice_requests + 8;
  const auto tc = Clock::now();
  std::unique_ptr<runtime::Engine> engine;
  {
    SpanScope s(spans, "runtime.Engine");
    engine = std::make_unique<runtime::Engine>(cfg);
  }
  const double construct_s = since(tc);
  const auto tl = Clock::now();
  {
    SpanScope s(spans, "runtime.Engine.load_program");
    engine->load_program({httpsim::webrick_source()});
  }
  return Json()
      .num("construct_s", construct_s)
      .num("load_s", since(tl))
      .done();
}

std::string run_serve(u64 seed, double seconds, bool trace, bool quick,
                      const std::string& runs_dir) {
  const httpsim::cluster::ClusterSpec spec = serve_spec(seed, quick);
  const double ghz = htm::SystemProfile::by_name(spec.machine).machine.ghz;
  SpanLog spans(trace);
  const std::string stem = runs_dir + "/serve-fleet.seed" + std::to_string(seed);

  // One fleet's p99.9 rests on a dozen samples from a few contention bursts
  // and moves by +-15% from seed to seed. The reported latency percentiles
  // therefore pool this seed's fleet with two tail fleets whose load and
  // engine seeds are derived from it.
  std::vector<Cycles> pool;
  std::vector<std::string> tail;
  const auto tail_fleet = [&](u64 k) {
    tail.push_back(serve_rep(serve_spec(seed + k * 1'000'000, quick), ghz,
                             nullptr, "tail", &pool));
  };
  // Set-up samples come from fresh processes, one after another:
  // make_schedule lands in a faster or a slower mode per process (about 0.4
  // or 0.55 ms), so the samples of one process would flip the median between
  // runs, and right after a fleet it is ~40% slower than in a fresh process.
  std::vector<std::string> setups;
  for (std::size_t k = 0; k < (quick ? 2 : 8); ++k) {
    setups.push_back(run_copies(1, {}, [&](std::size_t) {
                       std::size_t scheduled = 0;
                       return jnum(schedule_setup_s(spec, ghz, nullptr, &scheduled));
                     }).front());
  }
  // The first fleet of a process runs measurably slower (~15%), so the
  // first tail fleet doubles as the warm-up.
  tail_fleet(1);
  std::vector<std::string> reps;
  const auto loop_t0 = Clock::now();
  do {
    reps.push_back(
        serve_rep(spec, ghz, nullptr, "rep", reps.empty() ? &pool : nullptr));
  } while (want_more(reps.size(), quick ? 1 : 3, since(loop_t0), seconds));
  const Usage peak = Usage::now();
  tail_fleet(2);

  // The fleet's simulated counters cross the pipe only through the per-shard
  // metrics artifacts, so one artifact-enabled pass runs on every invocation.
  httpsim::cluster::ClusterSpec traced_spec = spec;
  traced_spec.artifact_stem = stem + ".traced";
  const std::string traced =
      serve_rep(traced_spec, ghz, trace ? &spans : nullptr, "rep.traced");

  Json out;
  out.str("workload", "serve-fleet")
      .num("seed", seed)
      .num("ghz", ghz)
      .num("slots", static_cast<u64>(spec.options.slots()))
      .raw("setups", jarray(setups))
      .raw("reps", jarray(reps))
      .num("peak_rss_kb",
           static_cast<u64>(std::max(peak.self_maxrss_kb, peak.child_maxrss_kb)))
      .raw("traced", traced)
      .raw("tail", jarray(tail))
      .raw("pooled", latency_json(std::move(pool)).done());
  if (trace) {
    // The interpreter + heap floor: the same fleet under the GIL engine.
    httpsim::cluster::ClusterSpec gil_spec = spec;
    gil_spec.config = "GIL";
    gil_spec.artifact_stem = stem + ".gil";
    out.raw("oracle", serve_rep(gil_spec, ghz, &spans, "oracle.gil"));
    const u32 slice = spec.driver.total_requests /
                      (spec.options.shards * spec.options.epochs);
    std::vector<std::string> boots;
    for (int i = 0; i < 5; ++i)
      boots.push_back(serve_boot(seed, slice, &spans));
    out.raw("boots", jarray(boots)).raw("spans", spans.to_json());
  }
  return out.done();
}

}  // namespace

int main(int argc, char** argv) {
  // run_cluster re-execs /proc/self/exe with this marker; dispatch to the
  // worker body before any flag machinery.
  if (argc > 1 && std::strcmp(argv[1], "--cluster-worker") == 0)
    return httpsim::cluster::worker_main();

  CliFlags flags(argc, argv);
  const std::string workload = flags.get("workload", "");
  const long seed = flags.get_int("seed", 1);
  const double seconds = flags.get_double("seconds", 20.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const bool quick = flags.get_bool("quick", false);
  const std::string runs_dir = flags.get("runs-dir", ".");
  flags.reject_unknown();
  if (seed < 0 || seconds <= 0) {
    std::cerr << "error: --seed must be >= 0 and --seconds > 0\n";
    return 2;
  }

  try {
    std::string doc;
    if (workload == "bt-htm" || workload == "bt-stm-fallback") {
      doc = run_bt(workload == "bt-stm-fallback", static_cast<u64>(seed),
                   seconds, trace, quick);
    } else if (workload == "serve-fleet") {
      doc = run_serve(static_cast<u64>(seed), seconds, trace, quick, runs_dir);
    } else {
      std::cerr << "error: unknown --workload '" << workload
                << "' (bt-htm, bt-stm-fallback, serve-fleet)\n";
      return 2;
    }
    std::cout << doc << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
