// Guest address space: stable segment:offset addresses for simulated memory.
//
// Conflict grouping, arena/nursery attribution, and the trace events that
// carry addresses used to key on *host* pointers. Host pointers change with
// ASLR, so two OS processes running the same seeded program produced
// different LineId values and different address-bearing diagnostics — the
// standing cross-process caveat in docs/ARCHITECTURE.md. The fix follows
// stmgc's segment-relative addressing: every slab of simulated memory (the
// heap control block, each arena block, each spill block, every VM stack)
// registers here at creation, in deterministic creation order, and receives
// a guest segment index. A guest address is then
//
//     guest = (segment_index + 1) << 32 | byte_offset_within_segment
//
// which is stable across processes because registration order is part of
// the simulation, not of the host allocator. Segment bases are 2^32-aligned
// in guest space and kSegmentAlign (256)-byte aligned in host space, which
// add_segment enforces, so dividing a guest address by any power-of-two line
// size up to 256 yields the same line *grouping* as the host address did —
// behaviour is unchanged — while the line *values* become
// process-independent and can be emitted in traces, metrics, and the
// record/replay stream. sim::LineTable's host-line memo relies on the same
// alignment.
//
// Every access the HTM/STM tiers track must land in a registered segment:
// locate() fails a GILFREE_CHECK on host memory outside all of them, so a
// coverage gap stops the run instead of producing a host-derived (and
// therefore nondeterministic) line.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gilfree::sim {

/// A stable guest byte address. 0 is never a valid guest address (segment
/// indices are biased by one), so 0 doubles as "none" in trace events.
using GuestAddr = u64;

inline constexpr GuestAddr kInvalidGuestAddr = ~0ull;

/// A registered host byte as (segment index, byte offset within it).
struct GuestLoc {
  u32 segment = 0;
  u32 offset = 0;
};

class GuestSpace {
 public:
  struct Segment {
    std::string name;        ///< Deterministic label ("arena-3", "stack-t2").
    const std::byte* base;   ///< Host base address.
    u64 bytes;               ///< Extent; < 2^32 so offsets fit the low word.
    u32 index;               ///< Registration order = guest segment number.
  };

  /// Each guest segment occupies a disjoint 2^32-byte guest window.
  static constexpr unsigned kSegmentShift = 32;
  /// Host alignment of every segment base, and so the largest line size
  /// whose host lines each fall in one segment as one guest line.
  static constexpr u32 kSegmentAlign = 256;

  /// Registers a host range and returns its guest segment index. Ranges
  /// must not overlap; registration order must be deterministic (it defines
  /// the guest addresses). `base` must be kSegmentAlign-aligned and `bytes`
  /// must fit in 32 bits.
  u32 add_segment(std::string name, const void* base, u64 bytes);

  /// Host pointer -> (segment, offset): one probe of a direct-mapped
  /// host-page cache, with a binary search over the segments on a miss.
  /// Fails a GILFREE_CHECK when `host` lies outside every segment.
  GuestLoc locate(const void* host) const {
    const auto p = reinterpret_cast<std::uintptr_t>(host);
    const PageEntry& e = page_cache_[(p >> kPageShift) & (kPageCacheSize - 1)];
    if (p - e.base < e.bytes)
      return GuestLoc{e.segment, static_cast<u32>(p - e.base)};
    return locate_slow(host);
  }

  /// Host pointer -> guest address (a GILFREE_CHECK failure when
  /// unregistered, like locate()).
  GuestAddr translate(const void* host) const {
    return guest_addr(locate(host));
  }

  /// Guest address -> host pointer; nullptr when out of range.
  const void* to_host(GuestAddr guest) const;

  /// The guest line holding `host` (a GILFREE_CHECK failure when
  /// unregistered, like locate()).
  LineId line_of(const void* host, u64 line_bytes) const {
    return translate(host) / line_bytes;
  }

  /// The guest address of a located byte.
  static GuestAddr guest_addr(GuestLoc loc) {
    return (static_cast<GuestAddr>(loc.segment + 1) << kSegmentShift) |
           loc.offset;
  }

  /// Segment owning a guest address, or nullptr.
  const Segment* segment_of(GuestAddr guest) const;

  /// "name+0xOFF" for diagnostics; "unregistered" for invalid addresses.
  std::string describe(GuestAddr guest) const;

  std::size_t segment_count() const { return segments_.size(); }
  const Segment& segment(u32 index) const { return segments_.at(index); }

 private:
  /// One direct-mapped cache slot: the extent of the segment that last
  /// resolved an address in this host page (bytes == 0 never hits). A page
  /// may straddle two segments; the bounds check keeps that correct.
  struct PageEntry {
    std::uintptr_t base = 0;
    u64 bytes = 0;
    u32 segment = 0;
  };
  static constexpr unsigned kPageShift = 12;
  static constexpr std::size_t kPageCacheSize = 256;

  /// Binary search over by_base_; refills the page's cache slot.
  GuestLoc locate_slow(const void* host) const;

  std::vector<Segment> segments_;  ///< Indexed by registration order.
  std::vector<u32> by_base_;       ///< Segment indices sorted by host base.
  mutable std::array<PageEntry, kPageCacheSize> page_cache_{};
};

}  // namespace gilfree::sim
