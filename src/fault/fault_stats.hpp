// Fault-campaign counters. A standalone header-only vocabulary type so
// runtime::RunStats (and through it the metrics document) can carry it
// without pulling in the injector.
#pragma once

#include <array>

#include "common/types.hpp"
#include "fault/fault_kind.hpp"

namespace gilfree::fault {

/// Campaign totals, exported into RunStats and the metrics document.
struct FaultStats {
  std::array<u64, kNumFaultKinds> injected{};

  u64 total() const {
    u64 t = 0;
    for (u64 n : injected) t += n;
    return t;
  }
  u64 count(FaultKind k) const {
    return injected[static_cast<std::size_t>(k)];
  }
  void merge(const FaultStats& o) {
    for (std::size_t k = 0; k < injected.size(); ++k)
      injected[k] += o.injected[k];
  }
};

}  // namespace gilfree::fault
