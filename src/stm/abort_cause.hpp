// Why a software transaction failed to commit. Mirrors htm/abort_reason.hpp
// so the observability layer can name tier-2 aborts the same way it names
// tier-1 aborts (docs/TIERS.md).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace gilfree::stm {

enum class StmAbortCause : u8 {
  kNone = 0,
  /// Another thread published a write (a software or hardware commit, or
  /// a non-transactional store) to a line this transaction had read or
  /// written, dooming it.
  kValidation,
  /// GIL subscription fired. Eager mode: a thread acquired the GIL while
  /// this transaction was live, dooming it immediately. Lazy mode: the
  /// commit-time GIL-word check found the lock held.
  kGilSubscription,
  /// Read-marker table exceeded --stm-max-read lines.
  kOverflowRead,
  /// Write buffer exceeded --stm-max-write entries.
  kOverflowWrite,
  /// The span executed an operation software transactions cannot buffer
  /// (blocking builtins, I/O): same escape hatch as HTM's kUnsupported.
  kUnsupported,
  /// A full GC ran: collector writes bypass the transactional seam, so all
  /// live software transactions are doomed rather than validated.
  kGc,
};

inline constexpr std::size_t kNumStmAbortCauses = 7;

constexpr const char* stm_abort_cause_name(StmAbortCause c) {
  switch (c) {
    case StmAbortCause::kNone: return "none";
    case StmAbortCause::kValidation: return "validation";
    case StmAbortCause::kGilSubscription: return "gil-subscription";
    case StmAbortCause::kOverflowRead: return "overflow-read";
    case StmAbortCause::kOverflowWrite: return "overflow-write";
    case StmAbortCause::kUnsupported: return "unsupported";
    case StmAbortCause::kGc: return "gc";
  }
  return "?";
}

}  // namespace gilfree::stm
