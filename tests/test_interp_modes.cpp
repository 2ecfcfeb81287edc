// Differential test for the interpreter hot-path overhaul: superinstruction
// fusion, batched cycle charging, and the host fast path are HOST-time
// optimizations only. For any program, machine profile, and engine, every
// combination must produce
//
//   - the same recorded results and program output,
//   - the same total simulated cycles and retired-instruction counts,
//   - a byte-identical observability trace,
//   - the same exported metrics document once the host-only field
//     (fused_instructions) is normalized away, and
//   - the same per-yield-point TLE length-table state after the run
//     (HTM engines), i.e. the §4.2 yield-point placement and the Fig. 3
//     learning dynamics are unchanged by fusion.
//
// Programs come from the seeded generator shared with test_fault, so every
// extended-yield-point opcode family is covered.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "htm/profile.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "testutil_programs.hpp"

namespace gilfree {
namespace {

using runtime::EngineConfig;

struct ModeConfig {
  const char* name;
  bool fuse;
  bool batched;
  bool fast_path;
};

// The fusion × batching square, plus the virtual-host baseline
// (host_fast_path off: one virtual call per charge and access — the
// pre-overhaul cost profile).
constexpr ModeConfig kModes[] = {
    {"plain", false, false, true},
    {"fuse", true, false, true},
    {"batched", false, true, true},
    {"fuse+batched", true, true, true},
    {"virtual-host", false, false, false},
};

struct Observed {
  runtime::RunStats stats;
  obs::RunMetrics metrics;
  std::string trace;
  std::vector<u32> lengths;  ///< Final length-table state, incl. pseudo yp.
};

/// metrics_to_json with the host-only field zeroed, so documents from
/// different host-path configurations compare equal iff everything
/// simulated (begins, commits, aborts, cycle breakdown, per-yield-point
/// detail, IC hit rates, ...) is identical.
std::string normalized_metrics(obs::RunMetrics m) {
  m.stats.interp.fused_instructions = 0;
  return obs::metrics_to_json({std::move(m)});
}

Observed run_mode(const EngineConfig& base, const ModeConfig& mc,
                  const std::string& src) {
  obs::ObsConfig oc;
  // Keyed by test name: ctest -j runs this suite's tests as concurrent
  // processes, and a shared path races (write / read-back / remove).
  oc.trace_path =
      ::testing::TempDir() + "interp_modes_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_trace.jsonl";
  Observed o;
  {
    obs::Sink sink(oc);
    EngineConfig cfg = base;
    cfg.vm.fuse_superinsns = mc.fuse;
    cfg.vm.batched_charging = mc.batched;
    cfg.vm.host_fast_path = mc.fast_path;
    cfg.heap.initial_slots = 80'000;
    cfg.obs_sink = &sink;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({src});
    o.stats = engine.run();
    if (const tle::LengthTable* lt = engine.length_table())
      for (u32 yp = 0; yp < lt->num_yield_points(); ++yp)
        o.lengths.push_back(lt->length(static_cast<i32>(yp)));
    sink.flush();
    o.metrics = sink.runs().at(0);
  }
  std::ifstream f(oc.trace_path);
  std::stringstream buf;
  buf << f.rdbuf();
  o.trace = buf.str();
  std::remove(oc.trace_path.c_str());
  return o;
}

void expect_equivalent(const Observed& base, const Observed& other,
                       const std::string& label) {
  EXPECT_EQ(other.stats.total_cycles, base.stats.total_cycles) << label;
  EXPECT_EQ(other.stats.insns_retired, base.stats.insns_retired) << label;
  EXPECT_EQ(other.stats.results, base.stats.results) << label;
  EXPECT_EQ(other.stats.output, base.stats.output) << label;
  EXPECT_EQ(other.lengths, base.lengths)
      << label << ": per-yield-point length-table state diverged";
  EXPECT_EQ(other.trace, base.trace)
      << label << ": trace must be byte-identical across host paths";
  EXPECT_EQ(normalized_metrics(other.metrics), normalized_metrics(base.metrics))
      << label << ": metrics (minus host-only fields) diverged";
}

void run_cube(const EngineConfig& base, const std::string& src,
              const std::string& tag) {
  const Observed baseline = run_mode(base, kModes[0], src);
  ASSERT_FALSE(baseline.trace.empty()) << tag;
  for (std::size_t i = 1; i < std::size(kModes); ++i) {
    const Observed o = run_mode(base, kModes[i], src);
    expect_equivalent(baseline, o, tag + "/" + kModes[i].name);
  }
}

TEST(InterpModes, GilEngineIsHostModeInvariant) {
  u64 seed = 1;
  for (const htm::SystemProfile& profile :
       {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
    const std::string src = testutil::random_program(seed++);
    run_cube(EngineConfig::gil(profile), src,
             std::string("GIL/") + profile.machine.name);
  }
}

TEST(InterpModes, HtmEngineIsHostModeInvariant) {
  u64 seed = 3;
  for (const htm::SystemProfile& profile :
       {htm::SystemProfile::zec12(), htm::SystemProfile::xeon_e3()}) {
    const std::string src = testutil::random_program(seed++);
    run_cube(EngineConfig::htm_dynamic(profile), src,
             std::string("HTM/") + profile.machine.name);
  }
  // Fault campaigns make transactional accesses abort, yield-point counter
  // accesses included: the fast path handles those yield points inside the
  // span, the virtual-host mode returns each one to the engine.
  const auto zec12 = htm::SystemProfile::zec12();
  EngineConfig spurious = EngineConfig::htm_dynamic(zec12);
  spurious.fault.seed = 11;
  spurious.fault.spurious_mean_cycles = 5'000;
  run_cube(spurious, testutil::random_program(seed++), "HTM/spurious");
  EngineConfig storm = EngineConfig::htm_dynamic(zec12);
  storm.fault.seed = 11;
  storm.fault.interrupt_storm_mean_cycles = 8'000;
  run_cube(storm, testutil::random_program(seed++), "HTM/interrupt-storm");
  EngineConfig stm = EngineConfig::htm_dynamic(zec12);
  stm.stm.enabled = true;
  stm.fault.seed = 11;
  stm.fault.persistent_all_yps = true;
  run_cube(stm, testutil::random_program(seed++), "HTM/stm-persistent");
}

TEST(InterpModes, FusionFiresAndIsReportedHonestly) {
  const std::string src = testutil::random_program(7);
  const EngineConfig base = EngineConfig::gil(htm::SystemProfile::zec12());

  const Observed fused = run_mode(base, {"f", true, true, true}, src);
  const Observed plain = run_mode(base, {"p", false, true, true}, src);
  EXPECT_GT(fused.stats.interp.fused_instructions, 0u)
      << "compiler-annotated pairs must actually fuse";
  EXPECT_EQ(plain.stats.interp.fused_instructions, 0u);

  // The exported document reports the engine's count.
  for (const Observed* o : {&fused, &plain}) {
    const obs::JsonValue doc =
        obs::JsonValue::parse(obs::metrics_to_json({o->metrics}));
    EXPECT_EQ(doc.at("runs")
                  .as_array()
                  .at(0)
                  .at("interp")
                  .at("fused_instructions")
                  .as_u64(),
              o->stats.interp.fused_instructions);
  }
}

}  // namespace
}  // namespace gilfree
