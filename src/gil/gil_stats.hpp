// GIL acquisition counters. A standalone header-only vocabulary type so
// runtime::RunStats can carry it without pulling in the lock itself.
#pragma once

#include "common/types.hpp"

namespace gilfree::gil {

struct GilStats {
  u64 acquisitions = 0;
  u64 contended_acquisitions = 0;
  u64 yields = 0;            ///< Voluntary yields at timer-flagged points.
  Cycles held_cycles = 0;    ///< Total cycles the GIL was held.

  bool operator==(const GilStats&) const = default;
};

}  // namespace gilfree::gil
