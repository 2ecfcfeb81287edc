#include "workloads/replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/strutil.hpp"
#include "runtime/engine.hpp"

namespace gilfree::workloads {

namespace {

const std::string& scenario_key(const obs::RecordedRun& r, const char* key) {
  const auto it = r.scenario.find(key);
  if (it == r.scenario.end())
    throw std::runtime_error(std::string("record header is missing the '") +
                             key + "' scenario key; not a replayable run");
  return it->second;
}

bool is_conflict_abort(const obs::TraceEvent& ev) {
  // Only winner-dooms-victim conflicts carry a guest address; every other
  // abort flavour (capacity, interrupt, spurious, explicit) leaves it 0.
  return ev.kind == obs::EventKind::kTxAbort && ev.gaddr != 0;
}

}  // namespace

std::map<std::string, std::string> make_scenario(const std::string& workload,
                                                 const std::string& machine,
                                                 const std::string& config,
                                                 unsigned threads,
                                                 unsigned scale, u64 seed) {
  return {{"workload", workload}, {"machine", machine},
          {"config", config},     {"threads", std::to_string(threads)},
          {"scale", std::to_string(scale)}, {"seed", std::to_string(seed)}};
}

std::vector<std::string> replay_flags(const fault::FaultConfig& fault,
                                      const stm::StmConfig& stm,
                                      const CliFlags* cli) {
  std::vector<std::string> out = fault.to_flags();
  for (std::string& f : stm.to_flags()) out.push_back(std::move(f));
  if (cli != nullptr) {
    // Only families replay understands; the harness's own flags (--csv,
    // --json, ...) stay out of the header. Fault/STM flags are already
    // covered — canonically — by the to_flags() calls above.
    for (const std::string& raw : cli->raw_args()) {
      if (starts_with(raw, "--gc-")) out.push_back(raw);
    }
  }
  return out;
}

runtime::EngineConfig config_from_recorded(const obs::RecordedRun& recorded,
                                           const Workload** workload,
                                           unsigned* threads,
                                           unsigned* scale) {
  const std::string& wname = scenario_key(recorded, "workload");
  *workload = by_name(wname);
  if (*workload == nullptr)
    throw std::invalid_argument("record header names unknown workload '" +
                                wname + "'");
  const htm::SystemProfile profile =
      htm::SystemProfile::by_name(scenario_key(recorded, "machine"));

  runtime::EngineConfig cfg = runtime::EngineConfig::by_name(
      profile, scenario_key(recorded, "config"));

  *threads = static_cast<unsigned>(
      std::stoul(scenario_key(recorded, "threads")));
  *scale = static_cast<unsigned>(std::stoul(scenario_key(recorded, "scale")));
  cfg.seed = std::stoull(scenario_key(recorded, "seed"));

  const CliFlags flags = CliFlags::from_strings(recorded.flags);
  cfg.fault = fault::FaultConfig::from_flags(flags);
  cfg.stm = stm::StmConfig::from_flags(flags);
  runtime::apply_gc_flags(flags, cfg.heap);
  flags.reject_unknown();
  return cfg;
}

ReplayOutcome replay_run(const obs::RecordedRun& recorded, u64 stop_after,
                         obs::RunRecorder* recorder) {
  const Workload* w = nullptr;
  unsigned threads = 0;
  unsigned scale = 0;
  runtime::EngineConfig cfg =
      config_from_recorded(recorded, &w, &threads, &scale);

  obs::RunRecorder private_rec;
  obs::RunRecorder& rec = recorder != nullptr ? *recorder : private_rec;
  rec.begin_run(recorded.scenario, recorded.flags);
  rec.set_stop_after(stop_after);
  cfg.recorder = &rec;

  const u64 line_bytes = cfg.profile.htm.line_bytes;
  runtime::Engine engine(std::move(cfg));
  engine.load_program(sources_for(*w, threads, scale));

  ReplayOutcome out;
  out.point.stats = engine.run();
  out.stopped_early = rec.stop_requested();
  if (!out.stopped_early) {
    const auto& results = out.point.stats.results;
    if (results.count("elapsed_us") != 0)
      out.point.elapsed_us = results.at("elapsed_us");
    if (results.count("verify") != 0)
      out.point.verify = results.at("verify");
    out.point.throughput =
        out.point.elapsed_us > 0 ? 1e6 / out.point.elapsed_us : 0.0;
  }
  out.events = rec.events();
  out.summary = rec.last_summary();
  out.total_events = rec.total_events();
  out.truncated = rec.truncated();
  // Resolve conflict addresses to heap labels while the engine (and with it
  // the guest segment table) is still alive.
  for (const obs::TraceEvent& ev : out.events) {
    if (!is_conflict_abort(ev) || out.gaddr_labels.count(ev.gaddr) != 0)
      continue;
    out.gaddr_labels[ev.gaddr] =
        engine.heap().describe_line(ev.gaddr / line_bytes, line_bytes);
  }
  return out;
}

std::string diff_events(const std::vector<obs::TraceEvent>& recorded,
                        const std::vector<obs::TraceEvent>& replayed,
                        u32 run) {
  const std::size_t n = std::min(recorded.size(), replayed.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (recorded[i] == replayed[i]) continue;
    return strprintf("event %llu diverges: recorded %s vs replayed %s",
                     static_cast<unsigned long long>(recorded[i].seq),
                     obs::trace_event_to_jsonl(recorded[i], run).c_str(),
                     obs::trace_event_to_jsonl(replayed[i], run).c_str());
  }
  if (recorded.size() != replayed.size()) {
    return strprintf("stream lengths diverge: recorded %zu vs replayed %zu",
                     recorded.size(), replayed.size());
  }
  return "";
}

BisectResult bisect_first_conflict(const obs::RecordedRun& recorded) {
  BisectResult r;
  const auto it = std::find_if(recorded.events.begin(), recorded.events.end(),
                               is_conflict_abort);
  if (it == recorded.events.end()) {
    r.confirmed = true;  // nothing to find, nothing to disagree about
    return r;
  }
  r.found = true;
  r.event_no = it->seq;
  r.tid = it->tid;
  r.gaddr = it->gaddr;
  r.src_line = it->src_line;

  // Binary search over --until prefixes: the smallest stop point whose
  // replayed prefix already contains a conflict abort. The engine stops at
  // scheduling boundaries, so a prefix can overshoot by part of one burst;
  // the probe's *first* conflict event is what must match the recording.
  u64 lo = 1;
  u64 hi = recorded.events.empty() ? 1 : recorded.events.back().seq;
  const obs::TraceEvent* probe_first = nullptr;
  obs::TraceEvent probe_first_storage;
  std::map<u64, std::string> probe_labels;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    const ReplayOutcome probe = replay_run(recorded, mid);
    ++r.probes;
    const auto hit = std::find_if(probe.events.begin(), probe.events.end(),
                                  is_conflict_abort);
    if (hit != probe.events.end()) {
      probe_first_storage = *hit;
      probe_first = &probe_first_storage;
      probe_labels = probe.gaddr_labels;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (probe_first == nullptr) {
    // Degenerate storm (first conflict in the very first burst): one probe
    // at the converged stop point settles it.
    const ReplayOutcome probe = replay_run(recorded, lo);
    ++r.probes;
    const auto hit = std::find_if(probe.events.begin(), probe.events.end(),
                                  is_conflict_abort);
    if (hit != probe.events.end()) {
      probe_first_storage = *hit;
      probe_first = &probe_first_storage;
      probe_labels = probe.gaddr_labels;
    }
  }
  if (probe_first == nullptr) {
    r.error = "no probe replay reproduced a conflict abort";
    return r;
  }
  if (probe_first->seq != r.event_no || probe_first->gaddr != r.gaddr ||
      probe_first->src_line != r.src_line) {
    r.error = strprintf("probe disagrees with recording: %s vs %s",
                        obs::trace_event_to_jsonl(*probe_first,
                                                  recorded.run).c_str(),
                        obs::trace_event_to_jsonl(*it, recorded.run).c_str());
    return r;
  }
  r.confirmed = true;
  const auto label = probe_labels.find(r.gaddr);
  if (label != probe_labels.end()) r.label = label->second;
  return r;
}

}  // namespace gilfree::workloads
