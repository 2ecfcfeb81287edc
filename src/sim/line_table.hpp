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
#pragma once

#include <array>
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

  explicit LineTable(u32 line_bytes) {
    GILFREE_CHECK_MSG(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                      "line size must be a power of two: " << line_bytes);
    shift_ = static_cast<u32>(__builtin_ctz(line_bytes));
  }

  /// The record of the line holding `loc`, allocating its chunk if needed.
  T& at(GuestLoc loc) { return record(loc.segment, loc.offset >> shift_); }
  /// The record of the line holding `loc`, or nullptr if never allocated.
  const T* find(GuestLoc loc) const {
    return peek(loc.segment, loc.offset >> shift_);
  }

  /// The same, keyed on a guest LineId (guest address / line size).
  T& at(LineId line) { return record(segment_of(line), index_of(line)); }
  const T* find(LineId line) const {
    return peek(segment_of(line), index_of(line));
  }

  /// The guest LineId of the line holding `loc`.
  LineId line_id(GuestLoc loc) const {
    return GuestSpace::guest_addr(loc) >> shift_;
  }

  /// Chunks allocated so far (kChunkLines records each).
  std::size_t chunks() const { return chunks_; }

  /// Frees every chunk; all record addresses handed out become invalid.
  void clear() {
    segments_.clear();
    chunks_ = 0;
  }

 private:
  struct Chunk {
    std::array<T, kChunkLines> records{};
  };
  using Directory = std::vector<std::unique_ptr<Chunk>>;

  u32 segment_of(LineId line) const {
    return static_cast<u32>((line >> (GuestSpace::kSegmentShift - shift_)) -
                            1);
  }
  u32 index_of(LineId line) const {
    return static_cast<u32>(line &
                            ((u64{1} << (GuestSpace::kSegmentShift - shift_)) -
                             1));
  }

  T& record(u32 segment, u32 index) {
    const u32 c = index / kChunkLines;
    if (segment < segments_.size()) {
      const Directory& d = segments_[segment];
      if (c < d.size() && d[c]) return d[c]->records[index % kChunkLines];
    }
    return allocate(segment, c)->records[index % kChunkLines];
  }

  const T* peek(u32 segment, u32 index) const {
    if (segment >= segments_.size()) return nullptr;
    const Directory& d = segments_[segment];
    const u32 c = index / kChunkLines;
    if (c >= d.size() || !d[c]) return nullptr;
    return &d[c]->records[index % kChunkLines];
  }

  // Kept out of line so record() stays small enough to inline.
  [[gnu::noinline]] Chunk* allocate(u32 segment, u32 c) {
    if (segment >= segments_.size()) segments_.resize(segment + 1);
    Directory& d = segments_[segment];
    if (c >= d.size()) d.resize(c + 1);
    d[c] = std::make_unique<Chunk>();
    ++chunks_;
    return d[c].get();
  }

  u32 shift_ = 0;
  std::vector<Directory> segments_;  ///< Indexed by guest segment.
  std::size_t chunks_ = 0;
};

}  // namespace gilfree::sim
