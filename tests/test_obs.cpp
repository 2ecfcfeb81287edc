// Observability subsystem tests: the bounded flight recorder (capacity,
// eviction, ordering, sampling determinism), the JSON emitter/parser
// round-trip, the metrics document schema, and the end-to-end contract —
// an engine run with a Sink attached produces a trace and a metrics
// document whose counts equal the RunStats the engine reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"

namespace gilfree {
namespace {

using obs::EventKind;
using obs::FlightRecorder;
using obs::JsonValue;
using obs::TraceEvent;

TraceEvent begin_event(u32 tid, Cycles t) {
  TraceEvent e;
  e.kind = EventKind::kTxBegin;
  e.t = t;
  e.tid = tid;
  e.cpu = tid;
  e.yp = 7;
  e.length = 16;
  return e;
}

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RetainsEverythingBelowCapacity) {
  FlightRecorder rec(/*capacity=*/64, /*sample=*/1.0, /*seed=*/1);
  for (u32 i = 0; i < 10; ++i) rec.record(begin_event(0, i));
  EXPECT_EQ(rec.seen(), 10u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.evicted(), 0u);
  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 10u);
  for (u32 i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].t, i);
  }
}

TEST(FlightRecorder, EvictsOldestWhenFull) {
  FlightRecorder rec(/*capacity=*/8, /*sample=*/1.0, /*seed=*/1);
  for (u32 i = 0; i < 20; ++i) rec.record(begin_event(0, i));
  EXPECT_EQ(rec.seen(), 20u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.evicted(), 12u);
  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest events, still in sequence order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

TEST(FlightRecorder, DrainResetsTheRing) {
  FlightRecorder rec(/*capacity=*/4, /*sample=*/1.0, /*seed=*/1);
  for (u32 i = 0; i < 6; ++i) rec.record(begin_event(0, i));
  EXPECT_EQ(rec.drain().size(), 4u);
  EXPECT_TRUE(rec.drain().empty());
  rec.record(begin_event(0, 99));
  const auto events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, 99u);
}

TEST(FlightRecorder, SamplingKeepsCommitWithItsBegin) {
  // With per-attempt-group sampling, a commit/abort is retained exactly when
  // its begin was, so the trace never contains orphaned ends.
  FlightRecorder rec(/*capacity=*/1 << 12, /*sample=*/0.3, /*seed=*/7);
  for (u32 i = 0; i < 500; ++i) {
    rec.record(begin_event(/*tid=*/i % 3, 2 * i));
    TraceEvent end = begin_event(i % 3, 2 * i + 1);
    end.kind = (i % 5 == 0) ? EventKind::kTxAbort : EventKind::kTxCommit;
    end.reason = htm::AbortReason::kConflict;
    rec.record(end);
  }
  const auto events = rec.drain();
  EXPECT_GT(events.size(), 0u);
  EXPECT_LT(events.size(), 1000u);
  std::map<u32, EventKind> last_kind;
  for (const auto& e : events) {
    if (e.kind != EventKind::kTxBegin) {
      ASSERT_TRUE(last_kind.count(e.tid) > 0 &&
                  last_kind[e.tid] == EventKind::kTxBegin)
          << "orphaned commit/abort at seq " << e.seq;
    }
    last_kind[e.tid] = e.kind;
  }
}

TEST(FlightRecorder, SamplingIsDeterministicPerSeed) {
  auto run = [](u64 seed) {
    FlightRecorder rec(1 << 12, 0.5, seed);
    for (u32 i = 0; i < 400; ++i) rec.record(begin_event(0, i));
    std::vector<u64> kept;
    for (const auto& e : rec.drain()) kept.push_back(e.t);
    return kept;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// --- JSON emitter / parser --------------------------------------------------

TEST(Json, EscapesAndParsesRoundTrip) {
  std::string out;
  obs::json_append_string(out, "a\"b\\c\n\t\x01z");
  JsonValue v = JsonValue::parse(out);
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\t\x01z");
}

TEST(Json, NumbersIntegralAndReal) {
  std::string out;
  obs::json_append_number(out, u64{18446744073709551615ull});
  EXPECT_EQ(out, "18446744073709551615");
  out.clear();
  obs::json_append_number(out, 2.0);  // integral double: no decimal point
  EXPECT_EQ(out, "2");
  out.clear();
  obs::json_append_number(out, 0.25);
  EXPECT_EQ(JsonValue::parse(out).as_number(), 0.25);
}

TEST(Json, ParsesNestedDocument) {
  const JsonValue v = JsonValue::parse(
      R"({"a":[1,2,{"b":true,"c":null}],"d":"xAy","e":-3.5})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_bool(), true);
  EXPECT_TRUE(v.at("a").as_array()[2].at("c").is_null());
  EXPECT_EQ(v.at("d").as_string(), "xAy");
  EXPECT_EQ(v.at("e").as_number(), -3.5);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{}extra"), std::runtime_error);
}

TEST(Trace, EventLineParsesBackWithSchemaFields) {
  TraceEvent e = begin_event(3, 12345);
  e.seq = 9;
  const std::string line = obs::trace_event_to_jsonl(e, /*run=*/2);
  const JsonValue v = JsonValue::parse(line);
  EXPECT_EQ(v.at("ev").as_string(), "tx_begin");
  EXPECT_EQ(v.at("run").as_u64(), 2u);
  EXPECT_EQ(v.at("seq").as_u64(), 9u);
  EXPECT_EQ(v.at("t").as_u64(), 12345u);
  EXPECT_EQ(v.at("tid").as_u64(), 3u);
  EXPECT_EQ(v.at("yp").as_i64(), 7);
  EXPECT_EQ(v.at("len").as_u64(), 16u);

  e.kind = EventKind::kTxAbort;
  e.reason = htm::AbortReason::kOverflowWrite;
  const JsonValue a = JsonValue::parse(obs::trace_event_to_jsonl(e, 2));
  EXPECT_EQ(a.at("ev").as_string(), "tx_abort");
  EXPECT_EQ(a.at("reason").as_string(), "overflow-write");
}

// --- Event codec: trace_event_from_json inverts trace_event_to_jsonl --------

/// An event of `kind` whose every encoded field holds a non-neutral value;
/// fields the kind does not encode stay neutral, as the engine leaves them.
TraceEvent full_event(EventKind kind) {
  TraceEvent e;
  e.seq = 41;
  e.kind = kind;
  e.t = 123'456'789;
  e.tid = 5;
  e.cpu = 3;
  switch (kind) {
    case EventKind::kTxBegin:
    case EventKind::kTxCommit:
      e.yp = 7;
      e.length = 16;
      break;
    case EventKind::kTxAbort:
      e.yp = 7;
      e.length = 16;
      e.reason = htm::AbortReason::kConflict;
      e.gaddr = (u64{3} << 32) | 0x1c0;
      e.src_line = 12;
      break;
    case EventKind::kRequest:
      e.req = 77;
      e.latency = 90'000;
      e.queue = 4'000;
      break;
    case EventKind::kFault:
      e.detail = static_cast<u8>(fault::FaultKind::kCapacity);
      break;
    case EventKind::kWatchdog:
      e.yp = 7;
      e.detail = static_cast<u8>(obs::WatchdogKind::kGilWait);
      break;
    case EventKind::kStmAbort:
      e.yp = 7;
      e.detail = static_cast<u8>(stm::StmAbortCause::kValidation);
      e.src_line = 12;
      break;
    case EventKind::kTier:
      e.yp = 7;
      e.detail = static_cast<u8>(obs::TierTransition::kStmToGil);
      break;
    case EventKind::kShed:
      e.req = 77;
      break;
    case EventKind::kSched:
      break;
    default:  // yield-point-only kinds
      e.yp = 7;
      break;
  }
  return e;
}

TraceEvent round_trip(const TraceEvent& e) {
  return obs::trace_event_from_json(
      JsonValue::parse(obs::trace_event_to_jsonl(e, /*run=*/4)));
}

TEST(EventCodec, EveryKindRoundTrips) {
  for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    TraceEvent e = full_event(kind);
    EXPECT_EQ(round_trip(e), e) << obs::event_kind_name(kind);
    // Thread-entry yield point (-1) survives the signed field too.
    if (e.yp != -1) {
      e.yp = -1;
      EXPECT_EQ(round_trip(e), e) << obs::event_kind_name(kind) << " yp=-1";
    }
  }
  EXPECT_EQ(obs::event_kind_name(EventKind::kSched), "sched");
}

TEST(EventCodec, EveryAbortReasonWithAndWithoutAddressAndLine) {
  for (std::size_t r = 0; r < htm::kNumAbortReasons; ++r) {
    TraceEvent e = full_event(EventKind::kTxAbort);
    e.reason = static_cast<htm::AbortReason>(r);
    EXPECT_EQ(round_trip(e), e);
    e.gaddr = 0;
    EXPECT_EQ(round_trip(e), e);
    e.src_line = 0;
    EXPECT_EQ(round_trip(e), e);
    e.gaddr = u64{1} << 32;
    EXPECT_EQ(round_trip(e), e);
  }
}

TEST(EventCodec, EveryStmCauseFaultWatchdogAndTierName) {
  for (std::size_t c = 0; c < stm::kNumStmAbortCauses; ++c) {
    TraceEvent e = full_event(EventKind::kStmAbort);
    e.detail = static_cast<u8>(c);
    EXPECT_EQ(round_trip(e), e);
    e.src_line = 0;
    EXPECT_EQ(round_trip(e), e);
  }
  for (std::size_t f = 0; f < fault::kNumFaultKinds; ++f) {
    TraceEvent e = full_event(EventKind::kFault);
    e.detail = static_cast<u8>(f);
    EXPECT_EQ(round_trip(e), e);
  }
  for (std::size_t w = 0; w < obs::kNumWatchdogKinds; ++w) {
    TraceEvent e = full_event(EventKind::kWatchdog);
    e.detail = static_cast<u8>(w);
    EXPECT_EQ(round_trip(e), e);
  }
  for (std::size_t t = 0; t < obs::kNumTierTransitions; ++t) {
    TraceEvent e = full_event(EventKind::kTier);
    e.detail = static_cast<u8>(t);
    EXPECT_EQ(round_trip(e), e);
  }
}

TEST(EventCodec, UnknownKindOrReasonNameThrows) {
  EXPECT_THROW(obs::trace_event_from_json(JsonValue::parse(
                   R"({"ev":"tx_retry","run":0,"seq":1,"t":2,"tid":0,"cpu":0})")),
               std::runtime_error);
  std::string line = obs::trace_event_to_jsonl(full_event(EventKind::kTxAbort), 0);
  const std::string conflict = "\"reason\":\"conflict\"";
  const std::size_t at = line.find(conflict);
  ASSERT_NE(at, std::string::npos) << line;
  line.replace(at, conflict.size(), "\"reason\":\"gremlins\"");
  EXPECT_THROW(obs::trace_event_from_json(JsonValue::parse(line)),
               std::runtime_error);
}

// --- Metrics document -------------------------------------------------------

TEST(Metrics, DocumentRoundTripsThroughParser) {
  obs::RunObserver ob(/*ring_capacity=*/256, /*sample=*/1.0, /*seed=*/5);
  ob.on_event({.kind = EventKind::kTxBegin, .t = 10, .yp = 4, .length = 16});
  ob.on_event({.kind = EventKind::kTxAbort, .t = 20, .yp = 4, .length = 16,
               .reason = htm::AbortReason::kConflict});
  ob.on_event({.kind = EventKind::kTxBegin, .t = 30, .yp = 4, .length = 12});
  ob.on_event({.kind = EventKind::kTxCommit, .t = 40, .yp = 4, .length = 12});
  ob.on_event(
      {.kind = EventKind::kGilFallback, .t = 50, .tid = 1, .cpu = 1, .yp = 9});
  ob.on_event({.kind = EventKind::kRequest, .t = 60, .tid = 1, .req = 0,
               .latency = 500});

  obs::RunMetrics m = ob.finalize();
  m.labels = {{"workload", "unit"}, {"threads", "2"}};
  m.mode = "HTM";
  m.machine = "zEC12";
  m.stats.htm.begins = 2;
  m.stats.htm.commits = 1;
  m.stats.htm.aborts_by_reason[static_cast<int>(htm::AbortReason::kConflict)] =
      1;
  m.stats.gil_fallbacks = 1;

  const std::string doc = obs::metrics_to_json({m});
  const JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.at("schema").as_string(), "gilfree.metrics/1");
  ASSERT_EQ(v.at("runs").as_array().size(), 1u);
  const JsonValue& r = v.at("runs").as_array()[0];
  EXPECT_EQ(r.at("begins").as_u64(), 2u);
  EXPECT_EQ(r.at("aborts_by_reason").at("conflict").as_u64(), 1u);
  EXPECT_EQ(r.at("gil_fallbacks").as_u64(), 1u);
  EXPECT_EQ(r.at("labels").at("workload").as_string(), "unit");
  EXPECT_EQ(r.at("requests").at("completed").as_u64(), 1u);
  EXPECT_EQ(r.at("requests").at("latency_mean").as_number(), 500.0);
  // Per-yield-point entries carry the exact (unsampled) aggregates.
  bool found_yp4 = false;
  for (const JsonValue& y : r.at("yield_points").as_array()) {
    if (y.at("yp").as_i64() != 4) continue;
    found_yp4 = true;
    EXPECT_EQ(y.at("begins").as_u64(), 2u);
    EXPECT_EQ(y.at("commits").as_u64(), 1u);
    EXPECT_EQ(y.at("aborts_by_reason").at("conflict").as_u64(), 1u);
  }
  EXPECT_TRUE(found_yp4);
  EXPECT_EQ(v.at("totals").at("begins").as_u64(), 2u);
}

TEST(Metrics, ObserverAggregatesAreExactDespiteSampling) {
  // sample=0 drops every trace event; aggregates must still be complete.
  obs::RunObserver ob(/*ring_capacity=*/16, /*sample=*/0.0, /*seed=*/5);
  for (u32 i = 0; i < 100; ++i) {
    ob.on_event({.kind = EventKind::kTxBegin, .t = i, .yp = 1, .length = 8});
    if (i % 4 == 0) {
      ob.on_event({.kind = EventKind::kTxAbort, .t = i, .yp = 1, .length = 8,
                   .reason = htm::AbortReason::kOverflowRead});
    } else {
      ob.on_event({.kind = EventKind::kTxCommit, .t = i, .yp = 1, .length = 8});
    }
  }
  EXPECT_TRUE(ob.drain_events().empty());
  const obs::RunMetrics m = ob.finalize();
  const auto& yp = m.per_yield_point.at(1);
  EXPECT_EQ(yp.begins, 100u);
  EXPECT_EQ(yp.commits, 75u);
  EXPECT_EQ(
      yp.aborts_by_reason[static_cast<int>(htm::AbortReason::kOverflowRead)],
      25u);
  EXPECT_EQ(yp.begins_by_length.at(8), 100u);
}

// --- End-to-end: engine run with a Sink -------------------------------------

class SinkEndToEnd : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return ::testing::TempDir() + "obs_" + name;
  }
};

const char* kContended = R"RUBY(
$mutex = Mutex.new
$counter = 0
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    300.times do |k|
      $mutex.synchronize do
        $counter += 1
      end
    end
  end
end
threads.each do |t|
  t.join
end
__record("counter", $counter)
)RUBY";

runtime::RunStats run_with_sink(obs::Sink& sink, u64 seed) {
  auto cfg = runtime::EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.seed = seed;
  cfg.obs_sink = &sink;
  sink.next_labels({{"test", "end_to_end"}});
  runtime::Engine engine(std::move(cfg));
  engine.load_program({kContended});
  return engine.run();
}

TEST_F(SinkEndToEnd, MetricsTotalsEqualRunStats) {
  obs::ObsConfig oc;
  oc.metrics_path = path("m.json");
  oc.trace_path = path("t.jsonl");
  runtime::RunStats stats;
  {
    obs::Sink sink(oc);
    stats = run_with_sink(sink, /*seed=*/11);
  }  // destructor flushes

  std::ifstream mf(oc.metrics_path);
  ASSERT_TRUE(mf.good());
  std::stringstream buf;
  buf << mf.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  ASSERT_EQ(doc.at("runs").as_array().size(), 1u);
  const JsonValue& r = doc.at("runs").as_array()[0];

  // The acceptance contract: metrics counts equal the printed RunStats.
  EXPECT_EQ(r.at("begins").as_u64(), stats.htm.begins);
  EXPECT_EQ(r.at("commits").as_u64(), stats.htm.commits);
  EXPECT_EQ(r.at("aborts").as_u64(), stats.htm.total_aborts());
  EXPECT_EQ(r.at("gil_fallbacks").as_u64(), stats.gil_fallbacks);
  EXPECT_EQ(r.at("length_adjustments").as_u64(), stats.length_adjustments);
  EXPECT_EQ(r.at("insns_retired").as_u64(), stats.insns_retired);
  for (int reason = 1; reason < static_cast<int>(htm::kNumAbortReasons);
       ++reason) {
    const std::string name(
        htm::abort_reason_name(static_cast<htm::AbortReason>(reason)));
    const u64 expect = stats.htm.aborts_by_reason[reason];
    const JsonValue& by_reason = r.at("aborts_by_reason");
    EXPECT_EQ(by_reason.has(name) ? by_reason.at(name).as_u64() : 0u, expect)
        << "reason " << name;
  }

  // With sample=1 and no eviction, trace event counts equal the aggregates.
  std::ifstream tf(oc.trace_path);
  ASSERT_TRUE(tf.good());
  u64 begins = 0, commits = 0, aborts = 0, fallbacks = 0;
  std::string line;
  while (std::getline(tf, line)) {
    const JsonValue e = JsonValue::parse(line);
    const std::string kind = e.at("ev").as_string();
    if (kind == "tx_begin") ++begins;
    if (kind == "tx_commit") ++commits;
    if (kind == "tx_abort") ++aborts;
    if (kind == "gil_fallback") ++fallbacks;
  }
  const JsonValue& tr = r.at("trace");
  if (tr.at("events_evicted").as_u64() == 0) {
    EXPECT_EQ(begins, stats.htm.begins);
    EXPECT_EQ(commits, stats.htm.commits);
    EXPECT_EQ(aborts, stats.htm.total_aborts());
    EXPECT_EQ(fallbacks, stats.gil_fallbacks);
  }
  EXPECT_EQ(tr.at("events_seen").as_u64(),
            begins + commits + aborts + fallbacks +
                tr.at("events_evicted").as_u64());

  std::remove(oc.metrics_path.c_str());
  std::remove(oc.trace_path.c_str());
}

TEST_F(SinkEndToEnd, SameSeedSameProcessProducesIdenticalTrace) {
  // Within one process the simulation is deterministic for a fixed seed
  // (cross-process byte-identity additionally needs ASLR disabled; see
  // docs/OBSERVABILITY.md).
  auto run_trace = [&](const char* name) {
    obs::ObsConfig oc;
    oc.trace_path = path(name);
    {
      obs::Sink sink(oc);
      run_with_sink(sink, /*seed=*/77);
    }
    std::ifstream f(oc.trace_path);
    std::stringstream buf;
    buf << f.rdbuf();
    std::remove(oc.trace_path.c_str());
    return buf.str();
  };
  const std::string a = run_trace("det_a.jsonl");
  const std::string b = run_trace("det_b.jsonl");
  ASSERT_FALSE(a.empty());
  // Event streams must match line-for-line in kind, yield point, and reason
  // (timestamps may shift with host allocation addresses, which steer the
  // simulated cache-line conflicts).
  std::stringstream sa(a), sb(b);
  std::string la, lb;
  u64 lines = 0;
  while (std::getline(sa, la) && std::getline(sb, lb)) {
    const JsonValue ea = JsonValue::parse(la);
    const JsonValue eb = JsonValue::parse(lb);
    ASSERT_EQ(ea.at("ev").as_string(), eb.at("ev").as_string())
        << "line " << lines;
    ++lines;
  }
  EXPECT_GT(lines, 100u);
}

TEST_F(SinkEndToEnd, DisabledSinkWritesNothingAndCostsNothing) {
  obs::ObsConfig oc;  // no paths: disabled
  obs::Sink sink(oc);
  EXPECT_FALSE(sink.enabled());
  const runtime::RunStats stats = run_with_sink(sink, 3);
  EXPECT_GT(stats.htm.begins, 0u);
  EXPECT_TRUE(sink.runs().empty());
}

// --- The single export path -------------------------------------------------

// Allocation-heavy threads on a small heap: short-lived rows feed nursery
// minor collections, and the retained batches fill the heap far enough to
// start incremental mark epochs.
const char* kAllocating = R"RUBY(
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    keep = []
    acc = []
    1500.times do |k|
      acc << [tid, k, "row"]
      if acc.length > 16
        keep << acc
        acc = []
      end
    end
    __record("len", keep.length)
  end
end
threads.each do |t|
  t.join
end
)RUBY";

/// Sparse-map lookup: absent keys are zero counts.
u64 count_at(const JsonValue& obj, const std::string& key) {
  return obj.has(key) ? obj.at(key).as_u64() : 0;
}

/// Every counter the `gc` block exports equals its GcStats field.
void expect_gc_block(const JsonValue& g, const vm::GcStats& s) {
  EXPECT_EQ(g.at("collections").as_u64(), s.collections);
  EXPECT_EQ(g.at("total_marked").as_u64(), s.total_marked);
  EXPECT_EQ(g.at("total_swept").as_u64(), s.total_swept);
  EXPECT_EQ(g.at("grown_blocks").as_u64(), s.grown_blocks);
  EXPECT_EQ(g.at("arena_refills").as_u64(), s.arena_refills);
  EXPECT_EQ(g.at("arena_grows").as_u64(), s.arena_grows);
  EXPECT_EQ(g.at("arena_shrinks").as_u64(), s.arena_shrinks);
  EXPECT_EQ(g.at("pool_segments").as_u64(), s.pool_segments);
  EXPECT_EQ(g.at("segment_slots_min").as_u64(), s.segment_slots_min);
  EXPECT_EQ(g.at("segment_slots_max").as_u64(), s.segment_slots_max);
  EXPECT_EQ(g.at("sweep_quanta").as_u64(), s.sweep_quanta);
  EXPECT_EQ(g.at("sweep_quantum_cycles").as_u64(), s.sweep_quantum_cycles);
  EXPECT_EQ(g.at("minor_collections").as_u64(), s.minor_collections);
  EXPECT_EQ(g.at("nursery_promoted").as_u64(), s.nursery_promoted);
  EXPECT_EQ(g.at("nursery_freed").as_u64(), s.nursery_freed);
  EXPECT_EQ(g.at("mark_quanta").as_u64(), s.mark_quanta);
  EXPECT_EQ(g.at("mark_quantum_cycles").as_u64(), s.mark_quantum_cycles);
  EXPECT_EQ(g.at("arena_steals").as_u64(), s.arena_steals);
  EXPECT_EQ(g.at("stolen_segments").as_u64(), s.stolen_segments);
  EXPECT_EQ(g.at("pause_max").as_u64(), s.max_pause);
  EXPECT_EQ(g.at("pause_p50").as_u64(), s.pause_hist.percentile(50.0));
  EXPECT_EQ(g.at("pause_p99").as_u64(), s.pause_hist.percentile(99.0));
  EXPECT_EQ(g.at("pause_hist").as_string(), s.pause_hist.to_sparse_string());
}

/// Every counter the `stm` block exports equals its RunStats field.
void expect_stm_block(const JsonValue& b, const runtime::RunStats& s) {
  EXPECT_EQ(b.at("begins").as_u64(), s.stm.begins);
  EXPECT_EQ(b.at("commits").as_u64(), s.stm.commits);
  EXPECT_EQ(b.at("aborts").as_u64(), s.stm.total_aborts());
  for (std::size_t c = 1; c < stm::kNumStmAbortCauses; ++c) {
    const char* name =
        stm::stm_abort_cause_name(static_cast<stm::StmAbortCause>(c));
    EXPECT_EQ(count_at(b.at("aborts_by_cause"), name),
              s.stm.aborts_by_cause[c])
        << name;
  }
  EXPECT_EQ(b.at("escalations").as_u64(), s.stm_escalations);
  EXPECT_EQ(b.at("gil_fallbacks").as_u64(), s.stm_gil_fallbacks);
  EXPECT_EQ(b.at("validated_entries").as_u64(), s.stm.validated_entries);
  EXPECT_EQ(b.at("committed_writes").as_u64(), s.stm.committed_writes);
  EXPECT_EQ(b.at("zombie_kills").as_u64(), s.stm.zombie_kills);
  EXPECT_EQ(b.at("max_read_lines").as_u64(), s.stm.max_read_lines);
  EXPECT_EQ(b.at("max_write_entries").as_u64(), s.stm.max_write_entries);
}

/// The counters each run and the totals both export.
void expect_shared_counters(const JsonValue& r, const runtime::RunStats& s) {
  EXPECT_EQ(r.at("begins").as_u64(), s.htm.begins);
  EXPECT_EQ(r.at("commits").as_u64(), s.htm.commits);
  EXPECT_EQ(r.at("aborts").as_u64(), s.htm.total_aborts());
  for (std::size_t reason = 1; reason < htm::kNumAbortReasons; ++reason) {
    const std::string name(
        htm::abort_reason_name(static_cast<htm::AbortReason>(reason)));
    EXPECT_EQ(count_at(r.at("aborts_by_reason"), name),
              s.htm.aborts_by_reason[reason])
        << name;
  }
  EXPECT_EQ(r.at("gil_fallbacks").as_u64(), s.gil_fallbacks);
  EXPECT_EQ(r.at("quarantine").at("enters").as_u64(), s.quarantine_enters);
  EXPECT_EQ(r.at("quarantine").at("probes").as_u64(), s.quarantine_probes);
  EXPECT_EQ(r.at("quarantine").at("exits").as_u64(), s.quarantine_exits);
  EXPECT_EQ(r.at("watchdog_events").as_u64(), s.watchdog_events);
  EXPECT_EQ(r.at("faults_injected").as_u64(), s.faults.total());
  ASSERT_TRUE(r.has("stm"));
  expect_stm_block(r.at("stm"), s);
  expect_gc_block(r.at("gc"), s.gc);
}

TEST(MetricsDocument, EveryRunCounterIsExported) {
  // One run engaging every optional block: STM tier, a persistent-abort
  // campaign (faults + quarantine), and the generational collector with
  // incremental marking.
  auto cfg = runtime::EngineConfig::htm_dynamic(htm::SystemProfile::zec12());
  cfg.seed = 5;
  cfg.stm.enabled = true;
  cfg.fault.persistent_all_yps = true;
  cfg.fault.seed = 7;
  cfg.heap.initial_slots = 20'000;
  cfg.heap.per_thread_arenas = true;
  cfg.heap.nursery = true;
  cfg.heap.nursery_slots = 512;
  cfg.heap.mark_quantum = 64;
  obs::ObsConfig oc;
  oc.metrics_path = ::testing::TempDir() + "obs_every_counter.json";
  runtime::RunStats s;
  {
    obs::Sink sink(oc);
    cfg.obs_sink = &sink;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({kAllocating});
    s = engine.run();
  }  // destructor flushes
  // The run must actually exercise what it claims to cover.
  ASSERT_GT(s.stm.begins, 0u);
  ASSERT_GT(s.stm_escalations, 0u);
  ASSERT_GT(s.faults.total(), 0u);
  ASSERT_GT(s.quarantine_enters, 0u);
  ASSERT_GT(s.gc.minor_collections, 0u);
  ASSERT_GT(s.gc.mark_quanta, 0u);

  std::ifstream mf(oc.metrics_path);
  ASSERT_TRUE(mf.good());
  std::stringstream buf;
  buf << mf.rdbuf();
  std::remove(oc.metrics_path.c_str());
  const JsonValue doc = JsonValue::parse(buf.str());
  ASSERT_EQ(doc.at("runs").as_array().size(), 1u);
  const JsonValue& r = doc.at("runs").as_array()[0];

  expect_shared_counters(r, s);
  EXPECT_DOUBLE_EQ(r.at("abort_ratio").as_number(), s.abort_ratio());
  EXPECT_EQ(r.at("ctx_switch_aborts").as_u64(), s.ctx_switch_aborts);
  EXPECT_EQ(r.at("length_adjustments").as_u64(), s.length_adjustments);
  EXPECT_EQ(r.at("insns_retired").as_u64(), s.insns_retired);
  EXPECT_EQ(r.at("total_cycles").as_u64(), s.total_cycles);
  EXPECT_DOUBLE_EQ(r.at("virtual_seconds").as_number(), s.virtual_seconds);
  EXPECT_EQ(r.at("interp").at("fused_instructions").as_u64(),
            s.interp.fused_instructions);
  for (std::size_t k = 0; k < fault::kNumFaultKinds; ++k) {
    const std::string name(
        fault::fault_kind_name(static_cast<fault::FaultKind>(k)));
    EXPECT_EQ(count_at(r.at("faults_by_kind"), name), s.faults.injected[k])
        << name;
  }
  const JsonValue& c = r.at("cycles");
  EXPECT_EQ(c.at("begin_end").as_u64(), s.breakdown.begin_end);
  EXPECT_EQ(c.at("tx_success").as_u64(), s.breakdown.tx_success);
  EXPECT_EQ(c.at("tx_aborted").as_u64(), s.breakdown.tx_aborted);
  EXPECT_EQ(c.at("stm_work").as_u64(), s.breakdown.stm_work);
  EXPECT_EQ(c.at("gil_held").as_u64(), s.breakdown.gil_held);
  EXPECT_EQ(c.at("gil_wait").as_u64(), s.breakdown.gil_wait);
  EXPECT_EQ(c.at("blocked_io").as_u64(), s.breakdown.blocked_io);
  EXPECT_EQ(c.at("other").as_u64(), s.breakdown.other);
  EXPECT_EQ(c.at("total").as_u64(), s.breakdown.total());

  // A one-run document's totals are that run's counters.
  expect_shared_counters(doc.at("totals"), s);
}

TEST(ObsConfigFlags, ParsesUniformFlags) {
  const char* argv[] = {"prog", "--trace-out=/tmp/x.jsonl",
                        "--metrics-out=/tmp/y.json", "--trace-sample=0.25",
                        "--trace-capacity=1024"};
  CliFlags flags(5, const_cast<char**>(argv));
  const obs::ObsConfig oc = obs::ObsConfig::from_flags(flags);
  EXPECT_EQ(oc.trace_path, "/tmp/x.jsonl");
  EXPECT_EQ(oc.metrics_path, "/tmp/y.json");
  EXPECT_EQ(oc.sample, 0.25);
  EXPECT_EQ(oc.ring_capacity, 1024u);
  flags.reject_unknown();  // all four flags consumed
}

TEST(ObsConfigFlags, RejectsBadSample) {
  const char* argv[] = {"prog", "--trace-sample=1.5"};
  CliFlags flags(2, const_cast<char**>(argv));
  EXPECT_THROW(obs::ObsConfig::from_flags(flags), std::invalid_argument);
}

}  // namespace
}  // namespace gilfree
