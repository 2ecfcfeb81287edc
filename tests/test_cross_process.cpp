// Cross-process guest-address stability (the tentpole's acceptance
// property): the same seeded scenario, executed in two *separate OS
// processes* with ASLR active, writes byte-identical traces, metrics
// documents, and record streams — because every line id, conflict address,
// and diagnostic label is a sim::GuestSpace address, not a host pointer.
//
// The binary re-executes itself: `test_cross_process --child ...` runs one
// scenario and writes the three artifacts, the gtest side spawns two fresh
// children per scenario and compares the files byte for byte. Covers both
// HTM profiles (zEC12, Xeon E3), both engines of the paper's comparison
// (GIL and HTM-dynamic), and the STM tier under persistent aborts, whose
// line table, like the HTM facility's, memoises lookups in slots picked by
// host addresses that ASLR moves.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "htm/profile.hpp"
#include "obs/record.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

using namespace gilfree;

namespace {

// --child <machine> <config> <workload> <threads> <scale> <seed>
//         <trace> <metrics> <record>
// A "+stm" suffix on <config> adds the STM tier and persistent aborts at
// every yield point (hostbench's bt-stm-fallback shape).
int child_main(int argc, char** argv) {
  if (argc != 11) {
    std::cerr << "child: expected 9 operands after --child\n";
    return 3;
  }
  try {
    const std::string machine = argv[2];
    const std::string config = argv[3];
    const std::string kStm = "+stm";
    const bool stm = config.size() > kStm.size() &&
                     config.compare(config.size() - kStm.size(), kStm.size(),
                                    kStm) == 0;
    const std::string engine_config =
        stm ? config.substr(0, config.size() - kStm.size()) : config;
    const workloads::Workload* w = workloads::by_name(argv[4]);
    if (w == nullptr) throw std::invalid_argument("unknown workload");
    const unsigned threads = static_cast<unsigned>(std::stoul(argv[5]));
    const unsigned scale = static_cast<unsigned>(std::stoul(argv[6]));
    const u64 seed = std::stoull(argv[7]);

    const htm::SystemProfile profile = machine == "xeon"
                                           ? htm::SystemProfile::xeon_e3()
                                           : htm::SystemProfile::zec12();
    runtime::EngineConfig cfg =
        engine_config == "GIL" ? runtime::EngineConfig::gil(profile)
                               : runtime::EngineConfig::htm_dynamic(profile);
    cfg.seed = seed;
    if (stm) {
      cfg.stm.enabled = true;
      cfg.fault.persistent_all_yps = true;
      cfg.fault.seed = seed;
    }

    obs::ObsConfig oc;
    oc.trace_path = argv[8];
    oc.metrics_path = argv[9];
    obs::Sink sink(oc);
    sink.next_labels({{"figure", "cross_process"},
                      {"machine", profile.machine.name},
                      {"workload", w->name},
                      {"config", config},
                      {"threads", std::to_string(threads)}});
    cfg.obs_sink = &sink;

    obs::RecordConfig rc;
    rc.path = argv[10];
    obs::RunRecorder rec(rc);
    rec.begin_run(workloads::make_scenario(w->name, profile.machine.name,
                                           engine_config, threads, scale,
                                           seed),
                  workloads::replay_flags(cfg.fault, cfg.stm, nullptr));
    cfg.recorder = &rec;

    runtime::Engine engine(std::move(cfg));
    engine.load_program(workloads::sources_for(*w, threads, scale));
    engine.run();
    sink.flush();
    rec.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "child: " << e.what() << "\n";
    return 3;
  }
}

/// Runs one scenario in a fresh OS process (fork + exec of this binary, so
/// the child gets its own ASLR layout) writing the artifacts to `prefix`.*.
void spawn_scenario(const std::string& machine, const std::string& config,
                    const std::string& workload, unsigned threads,
                    unsigned scale, u64 seed, const std::string& prefix) {
  const std::vector<std::string> args = {
      "/proc/self/exe", "--child",        machine,
      config,           workload,         std::to_string(threads),
      std::to_string(scale),              std::to_string(seed),
      prefix + ".trace",                  prefix + ".metrics",
      prefix + ".rec"};
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    _exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << machine << "/" << config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs the scenario in two processes and compares their artifacts, which
/// are deleted once they match; returns the first process's metrics.
std::string expect_identical_artifacts(const std::string& machine,
                                       const std::string& config,
                                       const std::string& workload = "While",
                                       unsigned threads = 4) {
  const std::string base = testing::TempDir() + "xproc_" + machine + "_" +
                           config + "_" + workload;
  spawn_scenario(machine, config, workload, threads, 1, 0x6112024,
                 base + "_a");
  spawn_scenario(machine, config, workload, threads, 1, 0x6112024,
                 base + "_b");
  std::string metrics;
  for (const char* ext : {".trace", ".metrics", ".rec"}) {
    const std::string a = read_file(base + "_a" + ext);
    const std::string b = read_file(base + "_b" + ext);
    EXPECT_FALSE(a.empty()) << machine << "/" << config << ext;
    EXPECT_EQ(a, b) << "processes diverged: " << machine << "/" << config
                    << ext;
    if (std::string(ext) == ".metrics") metrics = a;
  }
  if (!testing::Test::HasFailure()) {
    for (const char* run : {"_a", "_b"})
      for (const char* ext : {".trace", ".metrics", ".rec"})
        std::remove((base + run + ext).c_str());
  }
  return metrics;
}

TEST(CrossProcess, Zec12HtmDynamicArtifactsAreByteIdentical) {
  expect_identical_artifacts("zec12", "HTM-dynamic");
}

TEST(CrossProcess, Zec12GilArtifactsAreByteIdentical) {
  expect_identical_artifacts("zec12", "GIL");
}

TEST(CrossProcess, XeonHtmDynamicArtifactsAreByteIdentical) {
  expect_identical_artifacts("xeon", "HTM-dynamic");
}

TEST(CrossProcess, XeonGilArtifactsAreByteIdentical) {
  expect_identical_artifacts("xeon", "GIL");
}

TEST(CrossProcess, Zec12StmFallbackArtifactsAreByteIdentical) {
  // BT on 12 threads at scale 1 with every yield point persistently
  // aborting: HTM retries escalate to software transactions and the GIL.
  const std::string metrics =
      expect_identical_artifacts("zec12", "HTM-dynamic+stm", "BT", 12);
  EXPECT_NE(metrics.find("\"stm\":"), std::string::npos)
      << "the STM tier never engaged";
}

TEST(CrossProcess, DifferentSeedsActuallyDiverge) {
  // Control: the comparison is meaningful — a different seed changes the
  // recorded stream, so byte equality above is not vacuous.
  const std::string base = testing::TempDir() + "xproc_seed";
  spawn_scenario("zec12", "HTM-dynamic", "While", 4, 1, 1, base + "_a");
  spawn_scenario("zec12", "HTM-dynamic", "While", 4, 1, 2, base + "_b");
  EXPECT_NE(read_file(base + "_a.rec"), read_file(base + "_b.rec"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--child")
    return child_main(argc, argv);
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
