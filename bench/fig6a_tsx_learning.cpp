// Fig. 6a: the Xeon E3-1275 v3 write-set-shrink probe. One process writes
// 24 KB per transaction for 10,000 iterations, then 20 KB, 16 KB, 12 KB;
// the success ratio is reported per 100 iterations. On the real part (and
// in our learning model) the ratio recovers only gradually after the
// footprint drops below the ~19 KB capacity — the hardware has learned to
// abort eagerly and needs thousands of clean iterations to become
// optimistic again.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/fault_injector.hpp"
#include "htm/htm.hpp"
#include "htm/profile.hpp"
#include "obs/observer.hpp"
#include "obs/sink.hpp"

using namespace gilfree;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const auto iters_per_size =
      static_cast<u32>(flags.get_int("iters", 10'000));
  const auto report_every = static_cast<u32>(flags.get_int("every", 500));
  obs::Sink sink(obs::ObsConfig::from_flags(flags));
  fault::FaultConfig fault_cfg;
  try {
    fault_cfg = fault::FaultConfig::from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  // This probe has no Engine (raw HtmFacility over one registered buffer),
  // so there is nothing replayable; the wiring exists for the uniform strict
  // --record-* CLI.
  const bench::RecordWiring record(flags);
  flags.reject_unknown();

  const auto profile = htm::SystemProfile::xeon_e3();
  sim::Machine machine(profile.machine);
  // A flat buffer to write transactionally (64 B lines on this profile),
  // registered as the facility's only guest segment.
  struct alignas(256) Buffer {
    u64 slots[64 * 1024 / 8];
  };
  auto buf = std::make_unique<Buffer>();
  u64* buffer = buf->slots;
  sim::GuestSpace guest;
  guest.add_segment("write-set-probe", buffer, sizeof(Buffer));
  htm::HtmFacility htm(profile.htm, &machine, &guest);
  // This probe has no Engine, so the campaign attaches straight to the
  // facility (spurious/capacity faults perturb the learning curve).
  fault::FaultInjector injector(fault_cfg, profile.machine.num_cpus());
  if (fault_cfg.enabled()) htm.set_fault_injector(&injector);

  // This probe drives the HtmFacility directly (no Engine), so it feeds the
  // observer by hand: yield point 0, transaction "length" = KB written.
  std::unique_ptr<obs::RunObserver> obs;
  if (sink.enabled()) {
    sink.next_labels({{"figure", "fig6a_tsx_learning"},
                      {"machine", profile.machine.name},
                      {"workload", "write_set_probe"}});
    obs = std::make_unique<obs::RunObserver>(sink.config().ring_capacity,
                                             sink.config().sample, /*seed=*/0);
  }

  const std::vector<u32> sizes_kb = {24, 20, 16, 12};

  std::cout << "== Fig.6a TSX learning probe (" << profile.machine.name
            << ", write-set capacity ~19KB) ==\n";
  TablePrinter table({"iteration", "written_kb", "success_ratio_pct"});

  u64 iteration = 0;
  for (u32 kb : sizes_kb) {
    const u32 slots = kb * 1024 / 8;
    u32 window_success = 0;
    u32 window_n = 0;
    for (u32 i = 0; i < iters_per_size; ++i) {
      ++iteration;
      machine.advance(0, 4000);  // loop body cost; also paces interrupts
      bool committed = false;
      if (obs) obs->on_tx_begin(machine.clock(0), 0, 0, 0, kb);
      htm::AbortReason reason = htm.tx_begin(0);
      if (reason == htm::AbortReason::kNone) {
        try {
          for (u32 s = 0; s < slots; ++s)
            htm.tx_store(0, &buffer[s], s, /*shared=*/true);
          reason = htm.tx_commit(0);
          committed = reason == htm::AbortReason::kNone;
        } catch (const htm::TxAbort& a) {
          reason = a.reason;
          committed = false;
        }
      }
      if (obs) {
        if (committed) {
          obs->on_tx_commit(machine.clock(0), 0, 0, 0, kb);
        } else {
          obs->on_tx_abort(machine.clock(0), 0, 0, 0, kb, reason);
        }
      }
      window_success += committed ? 1 : 0;
      ++window_n;
      if (window_n == report_every) {
        table.add_row({std::to_string(iteration), std::to_string(kb),
                       TablePrinter::num(100.0 * window_success / window_n,
                                         1)});
        window_success = 0;
        window_n = 0;
      }
    }
  }
  if (csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }

  if (obs) {
    auto m = obs->finalize();
    m.labels = sink.take_labels();
    m.mode = "raw-htm";
    m.machine = profile.machine.name;
    m.stats.htm = htm.total_stats();
    m.stats.total_cycles = machine.clock(0);
    sink.finish_run(std::move(m), obs->drain_events());
  }
  return 0;
}
