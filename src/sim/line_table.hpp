// Direct-indexed per-line metadata over the guest address space.
//
// The HTM conflict masks and footprint bits and the STM holder masks are
// all "one small record per cache line of simulated memory". Guest
// addresses are dense per-segment windows (guest_space.hpp), so the record
// of a line is found by arithmetic — segment index, then line index within
// the segment — instead of by hashing a LineId, as in stmgc's per-segment
// layout. Records live in chunks of kChunkLines lines, zero-initialised and
// allocated by the first at() on one of their lines; find() only peeks and
// never allocates, so untransactional traffic over a large segment costs no
// metadata. Record addresses stay valid until clear() or destruction.
//
// Callers key the table on host addresses. A direct-mapped memo of
// kMemoSlots {host line, record} pairs answers most lookups with one probe,
// the way zEC12 finds a line's tx-read/tx-dirty bits in the same directory
// lookup that fetches the data; only a miss pays GuestSpace::locate and the
// segment → directory → chunk walk. The memo is exact because
//   * segment bases are GuestSpace::kSegmentAlign-aligned and lines are at
//     most that long, so a host line lies in one segment and is one guest
//     line;
//   * segments are never unregistered, so that guest line never changes;
//   * records never move until clear(), which also empties the memo.
// find() memoises absence too (a null record); allocating a chunk scrubs
// the memo slots of that chunk's lines, so a cached absence never outlives
// the record it stood for. Hit or miss, a lookup returns the same record,
// so no simulated output can depend on the memo's host-address-derived
// slots. A hit skips locate's coverage check, but only a host line that
// locate already resolved can hit: at most the unregistered tail of a
// segment's last line escapes the check.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/guest_space.hpp"

namespace gilfree::sim {

template <typename T>
class LineTable {
 public:
  static constexpr u32 kChunkLines = 64;
  static constexpr u32 kMemoSlots = 4096;

  /// `guest` (not owned) resolves memo misses; every host address handed
  /// to the table must lie in one of its segments.
  LineTable(const GuestSpace* guest, u32 line_bytes)
      : guest_(guest), memo_(kMemoSlots) {
    GILFREE_CHECK(guest_ != nullptr);
    GILFREE_CHECK_MSG(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                      "line size must be a power of two: " << line_bytes);
    GILFREE_CHECK_MSG(line_bytes <= GuestSpace::kSegmentAlign,
                      "line size exceeds the segment alignment: "
                          << line_bytes);
    shift_ = static_cast<u32>(__builtin_ctz(line_bytes));
  }

  /// The record of the line holding `host`, allocating its chunk if needed.
  T& at(const void* host) {
    const std::uintptr_t line = host_line(host);
    MemoSlot& m = memo_[line & (kMemoSlots - 1)];
    if (m.line == line && m.record != nullptr) return *m.record;
    const GuestLoc loc = guest_->locate(host);
    T& r = record(loc.segment, loc.offset >> shift_);
    m = MemoSlot{line, &r};
    return r;
  }

  /// The record of the line holding `host`, or nullptr if never allocated.
  const T* find(const void* host) const {
    const std::uintptr_t line = host_line(host);
    MemoSlot& m = memo_[line & (kMemoSlots - 1)];
    if (m.line == line) return m.record;
    const GuestLoc loc = guest_->locate(host);
    T* r = peek(loc.segment, loc.offset >> shift_);
    m = MemoSlot{line, r};
    return r;
  }

  /// The guest LineId of the line holding `host`.
  LineId line_id(const void* host) const {
    return guest_->translate(host) >> shift_;
  }

  /// Chunks allocated so far (kChunkLines records each).
  std::size_t chunks() const { return chunks_; }

  /// Frees every chunk; all record addresses handed out become invalid.
  void clear() {
    segments_.clear();
    chunks_ = 0;
    std::fill(memo_.begin(), memo_.end(), MemoSlot{});
  }

 private:
  struct Chunk {
    std::array<T, kChunkLines> records{};
  };
  using Directory = std::vector<std::unique_ptr<Chunk>>;
  /// A memoised lookup; record == nullptr caches "no chunk yet" for find().
  struct MemoSlot {
    std::uintptr_t line = ~std::uintptr_t{0};  ///< Never a host line.
    T* record = nullptr;
  };

  std::uintptr_t host_line(const void* host) const {
    return reinterpret_cast<std::uintptr_t>(host) >> shift_;
  }

  T& record(u32 segment, u32 index) {
    const u32 c = index / kChunkLines;
    if (segment < segments_.size()) {
      const Directory& d = segments_[segment];
      if (c < d.size() && d[c]) return d[c]->records[index % kChunkLines];
    }
    return allocate(segment, c)->records[index % kChunkLines];
  }

  T* peek(u32 segment, u32 index) const {
    if (segment >= segments_.size()) return nullptr;
    const Directory& d = segments_[segment];
    const u32 c = index / kChunkLines;
    if (c >= d.size() || !d[c]) return nullptr;
    return &d[c]->records[index % kChunkLines];
  }

  // Kept out of line so at() stays small enough to inline.
  [[gnu::noinline]] Chunk* allocate(u32 segment, u32 c) {
    if (segment >= segments_.size()) segments_.resize(segment + 1);
    Directory& d = segments_[segment];
    if (c >= d.size()) d.resize(c + 1);
    d[c] = std::make_unique<Chunk>();
    ++chunks_;
    // The chunk's lines are consecutive host lines from the line-aligned
    // segment base: drop any absence find() cached for them.
    const std::uintptr_t first = host_line(guest_->segment(segment).base) +
                                 std::uintptr_t{c} * kChunkLines;
    for (std::uintptr_t line = first; line < first + kChunkLines; ++line) {
      MemoSlot& m = memo_[line & (kMemoSlots - 1)];
      if (m.line == line) m = MemoSlot{};
    }
    return d[c].get();
  }

  const GuestSpace* guest_;
  u32 shift_ = 0;
  std::vector<Directory> segments_;  ///< Indexed by guest segment.
  std::size_t chunks_ = 0;
  /// Indexed by host line modulo kMemoSlots; written by find() too.
  mutable std::vector<MemoSlot> memo_;
};

}  // namespace gilfree::sim
