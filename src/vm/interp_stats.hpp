// Interpreter counters. A standalone header-only vocabulary type so
// runtime::RunStats can carry it without pulling in the interpreter.
#pragma once

#include "common/types.hpp"

namespace gilfree::vm {

struct InterpStats {
  u64 insns_retired = 0;
  u64 sends = 0;
  u64 ic_method_hits = 0;
  u64 ic_method_misses = 0;
  u64 ic_ivar_hits = 0;
  u64 ic_ivar_misses = 0;
  u64 allocations = 0;
  /// Instructions executed as the tail of a fused superinstruction pair
  /// (host-time accounting only; simulated cycles are mode-invariant).
  u64 fused_instructions = 0;

  bool operator==(const InterpStats&) const = default;
};

}  // namespace gilfree::vm
