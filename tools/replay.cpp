// Time-travel replay + abort-storm bisection for gilfree record files
// (docs/DEBUGGING.md).
//
//   replay --replay-in=FILE              re-execute every recorded run and
//                                        verify the streams + summaries match
//   ... --replay-run=N                   only run N of a multi-run file
//   ... --replay-until=E                 stop run N after event E and dump
//                                        the stop state (time travel)
//   ... --replay-bisect                  binary-search the first conflicting
//                                        (guest address, source line) pair
//   ... --replay-out=FILE                also write every replayed run to
//                                        FILE, numbered in replay order
//
// Runs are read and replayed one at a time, so a malformed line is reported
// (exit 2) when the replay reaches its run.
//
// Exit status: 0 = replay matches the recording, 1 = divergence or failed
// bisect confirmation, 2 = usage / malformed record file.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/record.hpp"
#include "workloads/replay.hpp"

namespace {

using namespace gilfree;

int fail_usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 2;
}

void print_scenario(const obs::RecordedRun& r) {
  std::printf("run %u:", r.run);
  for (const auto& [k, v] : r.scenario) std::printf(" %s=%s", k.c_str(), v.c_str());
  if (!r.flags.empty()) {
    std::printf(" flags=[");
    for (std::size_t i = 0; i < r.flags.size(); ++i)
      std::printf("%s%s", i == 0 ? "" : " ", r.flags[i].c_str());
    std::printf("]");
  }
  std::printf("\n");
}

void print_summary(const char* tag, const std::map<std::string, u64>& s) {
  std::printf("%s summary:", tag);
  for (const auto& [k, v] : s)
    std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string in = flags.get("replay-in", "");
  const long run_filter = flags.get_int("replay-run", -1);
  const long until = flags.get_int("replay-until", 0);
  const bool bisect = flags.get_bool("replay-bisect", false);
  const std::string out_path = flags.get("replay-out", "");
  flags.reject_unknown();

  if (in.empty()) return fail_usage("--replay-in=FILE is required");
  if (until < 0) return fail_usage("--replay-until must be >= 0");
  if (until != 0 && run_filter < 0)
    return fail_usage("--replay-until needs --replay-run=N (one run)");

  // Runs are read and replayed one at a time: memory holds one recorded
  // run, not the whole file.
  std::unique_ptr<obs::RecordReader> reader;
  obs::RecordedRun r;
  try {
    reader = std::make_unique<obs::RecordReader>(in);
    if (!reader->next(r))
      return fail_usage("record file has no runs: " + in);
  } catch (const std::exception& e) {
    return fail_usage(e.what());
  }

  // One recorder for the whole replay: FILE gets every replayed run, tagged
  // in replay order.
  obs::RecordConfig out_cfg;
  out_cfg.path = out_path;
  std::unique_ptr<obs::RunRecorder> out;
  try {
    out = std::make_unique<obs::RunRecorder>(out_cfg);
  } catch (const std::exception& e) {
    return fail_usage(e.what());
  }

  bool all_ok = true;
  for (bool more = true; more;) {
    try {
      if (run_filter >= 0 && r.run != static_cast<u32>(run_filter)) {
        more = reader->next(r);
        continue;
      }
      print_scenario(r);
      const workloads::ReplayOutcome replayed = workloads::replay_run(
          r, static_cast<u64>(until), out.get());
      if (until != 0) {
        std::printf(
            "stopped after event %llu (recorded run has %llu events)\n",
            static_cast<unsigned long long>(replayed.total_events),
            static_cast<unsigned long long>(r.total_events));
        const std::string diff = workloads::diff_events(
            std::vector<obs::TraceEvent>(
                r.events.begin(),
                r.events.begin() +
                    static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                        r.events.size(), replayed.events.size()))),
            replayed.events, r.run);
        if (!diff.empty()) {
          std::printf("PREFIX MISMATCH: %s\n", diff.c_str());
          all_ok = false;
        } else {
          std::printf("prefix matches the recording\n");
        }
      } else {
        const std::string diff =
            workloads::diff_events(r.events, replayed.events, r.run);
        const bool summary_ok = replayed.summary == r.summary;
        if (diff.empty() && summary_ok &&
            replayed.total_events == r.total_events) {
          std::printf("replay matches: %llu events, summaries identical\n",
                      static_cast<unsigned long long>(replayed.total_events));
          print_summary("replayed", replayed.summary);
        } else {
          all_ok = false;
          if (!diff.empty()) std::printf("MISMATCH: %s\n", diff.c_str());
          if (replayed.total_events != r.total_events)
            std::printf("MISMATCH: event totals %llu vs %llu\n",
                        static_cast<unsigned long long>(r.total_events),
                        static_cast<unsigned long long>(
                            replayed.total_events));
          if (!summary_ok) {
            print_summary("recorded", r.summary);
            print_summary("replayed", replayed.summary);
          }
        }
      }
      if (bisect) {
        const workloads::BisectResult b =
            workloads::bisect_first_conflict(r);
        if (!b.found) {
          std::printf("bisect: no conflict aborts in this run\n");
        } else if (b.confirmed) {
          std::printf(
              "bisect: first conflict at event %llu tid=%u gaddr=0x%llx "
              "(%s) source line %u, confirmed in %u probe replays\n",
              static_cast<unsigned long long>(b.event_no), b.tid,
              static_cast<unsigned long long>(b.gaddr),
              b.label.empty() ? "?" : b.label.c_str(), b.src_line, b.probes);
        } else {
          all_ok = false;
          std::printf("bisect FAILED: %s\n", b.error.c_str());
        }
      }
      more = reader->next(r);
    } catch (const std::exception& e) {
      return fail_usage(e.what());
    }
  }
  return all_ok ? 0 : 1;
}
