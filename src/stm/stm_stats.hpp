// Tier-2 software-transaction counters. A standalone header-only vocabulary
// type so runtime::RunStats (and through it the metrics document's `stm`
// block) can carry it without pulling in the STM engine.
#pragma once

#include <array>

#include "common/types.hpp"
#include "stm/abort_cause.hpp"

namespace gilfree::stm {

struct StmStats {
  u64 begins = 0;
  u64 commits = 0;
  std::array<u64, kNumStmAbortCauses> aborts_by_cause{};
  u64 validated_entries = 0;  ///< Markers compared (commit + incremental).
  u64 committed_writes = 0;   ///< Buffered entries published by commits.
  u64 zombie_kills = 0;       ///< Incremental yield-point validation catches:
                              ///< a span that kept running past an
                              ///< invalidating write (the lazy hazard).
  u64 max_read_lines = 0;     ///< High-water marks across all transactions.
  u64 max_write_entries = 0;

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_cause) t += a;
    return t;
  }
  /// Cross-run merge: counters add, high-water marks combine.
  void merge(const StmStats& o) {
    begins += o.begins;
    commits += o.commits;
    for (std::size_t c = 0; c < aborts_by_cause.size(); ++c)
      aborts_by_cause[c] += o.aborts_by_cause[c];
    validated_entries += o.validated_entries;
    committed_writes += o.committed_writes;
    zombie_kills += o.zombie_kills;
    if (o.max_read_lines > max_read_lines) max_read_lines = o.max_read_lines;
    if (o.max_write_entries > max_write_entries)
      max_write_entries = o.max_write_entries;
  }
};

}  // namespace gilfree::stm
