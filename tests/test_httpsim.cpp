// Unit tests of the closed-loop HTTP client driver and the thread-local
// sweep heap extension.
#include <gtest/gtest.h>

#include "httpsim/client_driver.hpp"
#include "runtime/engine.hpp"

namespace gilfree {
namespace {

TEST(ClientDriver, ClosedLoopIssuance) {
  httpsim::DriverConfig d;
  d.clients = 2;
  d.total_requests = 5;
  d.client_turnaround = 1'000;
  httpsim::ClosedLoopDriver driver(d);

  // Two first-wave requests, staggered.
  EXPECT_EQ(driver.accept(0), 0);
  EXPECT_EQ(driver.accept(50), -1) << "second arrival is at t=100";
  EXPECT_EQ(driver.accept(100), 1);
  EXPECT_EQ(driver.accept(100), -1);
  EXPECT_FALSE(driver.shutdown(100));

  const std::string payload = driver.payload(0);
  EXPECT_NE(payload.find("GET /index.html"), std::string::npos);
  EXPECT_NE(payload.find("User-Agent"), std::string::npos);

  // Responding schedules the next request one turnaround later.
  driver.respond(0, "resp0", 500);
  EXPECT_EQ(driver.accept(500), -1);
  EXPECT_EQ(driver.accept(1'500), 2);
  driver.respond(1, "resp1", 600);
  driver.respond(2, "resp2", 1'600);
  EXPECT_EQ(driver.accept(1'700), 3);
  EXPECT_EQ(driver.accept(1'700), -1) << "request 4 arrives at 2600";
  EXPECT_EQ(driver.accept(2'600), 4);
  driver.respond(3, "resp3", 1'800);
  driver.respond(4, "resp4", 2'900);

  EXPECT_TRUE(driver.shutdown(3'000));
  EXPECT_EQ(driver.completed(), 5u);
  EXPECT_EQ(driver.issued(), 5u);
  EXPECT_EQ(driver.last_response_time(), 2'900u);
  EXPECT_GT(driver.throughput_rps(3.5), 0.0);
  EXPECT_EQ(driver.response_bytes(), 5 * 5u);
}

TEST(ClientDriver, PathsCycle) {
  httpsim::DriverConfig d;
  d.clients = 1;
  d.total_requests = 3;
  d.paths = {"/a", "/b"};
  httpsim::ClosedLoopDriver driver(d);
  EXPECT_NE(driver.payload(0).find("GET /a "), std::string::npos);
  (void)driver.accept(0);
  driver.respond(0, "x", 10);
  EXPECT_NE(driver.payload(1).find("GET /b "), std::string::npos);
}

TEST(ThreadLocalSweep, KeepsProgramsCorrectUnderGcPressure) {
  // The §7 extension must not change results — only conflict behaviour.
  auto run_with = [](bool tls_sweep) {
    auto cfg = runtime::EngineConfig::htm_fixed(htm::SystemProfile::zec12(),
                                                16);
    cfg.heap.initial_slots = 6'000;
    cfg.heap.sweep_deal_threads = tls_sweep ? 4 : 0;
    runtime::Engine engine(std::move(cfg));
    engine.load_program({R"(
ts = []
3.times do |i|
  ts << Thread.new(i) do |tid|
    acc = 0.0
    k = 0
    while k < 4000
      acc = acc + 0.5
      k += 1
    end
    __record("acc" + tid.to_s, acc)
  end
end
ts.each do |t|
  t.join
end
)"});
    return engine.run();
  };
  const auto off = run_with(false);
  const auto on = run_with(true);
  for (const char* key : {"acc0", "acc1", "acc2"}) {
    EXPECT_DOUBLE_EQ(off.results.at(key), 2000.0);
    EXPECT_DOUBLE_EQ(on.results.at(key), 2000.0);
  }
  EXPECT_GT(on.gc.collections, 0u);
}

}  // namespace
}  // namespace gilfree
