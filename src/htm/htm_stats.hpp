// Raw transaction counters of the HTM facility. A standalone header-only
// vocabulary type so runtime::RunStats (and through it the metrics
// document) can carry it without pulling in the facility.
#pragma once

#include <array>

#include "common/types.hpp"
#include "htm/abort_reason.hpp"

namespace gilfree::htm {

/// Raw per-CPU transaction statistics (the TLE layer keeps the higher-level
/// per-yield-point statistics).
struct HtmStats {
  u64 begins = 0;
  u64 commits = 0;
  u64 eager_aborts = 0;  ///< Learning-model aborts (subset of overflow-write).
  std::array<u64, kNumAbortReasons> aborts_by_reason{};

  u64 total_aborts() const {
    u64 t = 0;
    for (u64 a : aborts_by_reason) t += a;
    return t;
  }
  bool operator==(const HtmStats&) const = default;
  void merge(const HtmStats& o) {
    begins += o.begins;
    commits += o.commits;
    eager_aborts += o.eager_aborts;
    for (std::size_t i = 0; i < aborts_by_reason.size(); ++i)
      aborts_by_reason[i] += o.aborts_by_reason[i];
  }
};

}  // namespace gilfree::htm
