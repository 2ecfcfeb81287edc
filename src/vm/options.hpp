// Interpreter-level toggles for the paper's §4.2 / §4.4 modifications; each
// maps to one ablation in the evaluation.
#pragma once

#include "common/types.hpp"

namespace gilfree::vm {

struct VmOptions {
  /// §4.2: treat getlocal/getinstancevariable/getclassvariable/send/
  /// opt_plus/opt_minus/opt_mult/opt_aref as additional yield points.
  /// Without them most transactions overflow their store footprint.
  bool extended_yield_points = true;

  /// §4.4 (a): keep the "running thread" pointer in thread-local storage
  /// instead of a global the transaction rewrites at every begin.
  bool thread_local_current_thread = true;

  /// §4.4 (d) method caches: fill an empty cache once instead of updating
  /// it on every miss (costs some single-thread performance, §5.6).
  bool htm_friendly_method_caches = true;

  /// §4.4 (d) ivar caches: guard by ivar-table identity instead of class
  /// identity, eliminating misses across shape-compatible classes.
  bool ivar_cache_table_guard = true;

  /// Execute compiler-annotated superinstruction pairs (getlocal+opt_*,
  /// opt_*+setlocal) back-to-back, skipping one dispatch-loop round trip.
  /// Fused pairs charge the same cycles and hit the same yield points as
  /// the unfused sequence. No flag turns it off; micro_overhead's and
  /// test_interp_modes' unfused profiles clear it directly.
  bool fuse_superinsns = true;

  /// Accumulate cycle charges in a host-local counter and flush to the
  /// simulated clock at span boundaries instead of per charge. Only applied
  /// in modes whose semantics never read the clock mid-span (GIL /
  /// FineGrained / Unsynced); HTM mode always charges eagerly because the
  /// facility samples the clock at every transactional access.
  bool batched_charging = true;

  /// Route cycle charges and private-line accesses through the host fast
  /// path (resolved pointers into the machine) instead of the virtual
  /// Machine interface. Off reproduces the pre-overhaul host cost profile —
  /// one virtual call per charge and per memory access — and exists solely
  /// as the micro_overhead baseline; simulated behaviour is identical.
  bool host_fast_path = true;
};

}  // namespace gilfree::vm
