// Configuration for the tier-2 software transaction engine (docs/TIERS.md).
//
// CLI surface (strict: semantic errors throw std::invalid_argument):
//   --stm[=bool]              enable the STM tier (default off)
//   --gil-subscription=MODE   eager | lazy (default eager)
//   --stm-commit-retry=N      STM attempts per span before the GIL (>0)
//   --stm-slice-yields=N      yield points per software transaction (>0)
//   --stm-max-read=N          read-marker capacity in lines (>0)
//   --stm-max-write=N         write-buffer capacity in entries (>0)
#pragma once

#include "common/cli.hpp"
#include "common/types.hpp"

namespace gilfree::stm {

/// When a software transaction learns about GIL acquisitions.
///
/// kEager adds the GIL word to every transaction's read set at begin: an
/// acquisition dooms all live software transactions on the spot, the
/// classic TLE subscription (paper §3.1 applied one tier down). kLazy only
/// checks the word at commit — transactions keep running concurrently with
/// a GIL holder, which is the throughput win, but they can observe torn
/// state the holder writes non-transactionally (the zombie hazard of
/// Dice/Harris/Kogan): a holder's store to a line the transaction already
/// holds dooms it at once, but a line the holder wrote before the
/// transaction first read it is seen as is. The commit-time GIL-word check
/// refuses such a commit; docs/TIERS.md works through both sides.
enum class GilSubscription : u8 { kEager = 0, kLazy = 1 };

constexpr const char* gil_subscription_name(GilSubscription s) {
  return s == GilSubscription::kEager ? "eager" : "lazy";
}

struct StmConfig {
  bool enabled = false;
  GilSubscription subscription = GilSubscription::kEager;

  /// STM attempts for one span before escalating to the GIL (tier 3).
  u32 commit_retry_max = 4;
  /// Yield points executed inside one software transaction before it
  /// commits (the tier-2 analogue of the Fig. 3 transaction length; STM
  /// needs no capacity-driven tuning, so it is a fixed slice).
  u32 slice_yields = 32;
  /// Capacity limits; exceeding either aborts with kOverflow{Read,Write}
  /// and the span falls through to the GIL.
  u32 max_read_lines = 8192;
  u32 max_write_entries = 4096;

  // --- cost model (virtual cycles; not CLI-exposed) -----------------------
  Cycles begin_cost = 40;          ///< Checkpoint + marker-table setup.
  Cycles commit_base_cost = 60;    ///< Fixed commit overhead.
  Cycles read_overhead = 4;        ///< Per load: marker lookup/insert.
  Cycles write_overhead = 6;       ///< Per store: write-buffer insert.
  Cycles validate_per_entry = 1;   ///< Per held line released at commit.
  Cycles publish_per_entry = 3;    ///< Per buffered write applied at commit.
  Cycles abort_penalty = 80;       ///< Rollback + retry dispatch.

  /// Line granularity of the read/write markers. Stamped by the engine
  /// from the active machine profile's HTM line size so both tiers
  /// conflict on the same 256-B-aligned line space.
  u64 line_bytes = 256;

  /// Parses the --stm-* / --gil-subscription flags. Strict: any
  /// out-of-range or malformed value throws std::invalid_argument.
  static StmConfig from_flags(const CliFlags& flags);

  /// The inverse of from_flags: every non-default CLI-exposed field as a
  /// canonical flag string (cost-model fields and line_bytes are not CLI
  /// surface — the engine stamps line_bytes from the machine profile).
  /// Used by the record stream so tools/replay can rebuild the config.
  std::vector<std::string> to_flags() const;
};

}  // namespace gilfree::stm
