#include "sim/guest_space.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::sim {

namespace {

char hex_digit(u64 v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

void append_hex(std::string& out, u64 v) {
  char buf[16];
  int n = 0;
  do {
    buf[n++] = hex_digit(v & 0xf);
    v >>= 4;
  } while (v != 0);
  while (n > 0) out.push_back(buf[--n]);
}

}  // namespace

u32 GuestSpace::add_segment(std::string name, const void* base, u64 bytes) {
  GILFREE_CHECK_MSG(bytes > 0 && bytes < (1ull << kSegmentShift),
                    "guest segment must fit one 2^32 window: " << name);
  GILFREE_CHECK_MSG(
      reinterpret_cast<std::uintptr_t>(base) % kSegmentAlign == 0,
      "guest segment base must be " << kSegmentAlign
                                    << "-byte aligned: " << name);
  const auto* b = static_cast<const std::byte*>(base);
  const u32 index = static_cast<u32>(segments_.size());
  segments_.push_back(Segment{std::move(name), b, bytes, index});

  // Keep the base-sorted view; reject overlapping registrations so every
  // host byte has at most one guest address.
  const auto pos = std::upper_bound(
      by_base_.begin(), by_base_.end(), b,
      [this](const std::byte* p, u32 i) { return p < segments_[i].base; });
  if (pos != by_base_.begin()) {
    const Segment& prev = segments_[*(pos - 1)];
    GILFREE_CHECK_MSG(prev.base + prev.bytes <= b,
                      "guest segments overlap: " << prev.name);
  }
  if (pos != by_base_.end()) {
    const Segment& next = segments_[*pos];
    GILFREE_CHECK_MSG(b + bytes <= next.base,
                      "guest segments overlap: " << next.name);
  }
  by_base_.insert(pos, index);
  return index;
}

GuestLoc GuestSpace::locate_slow(const void* host) const {
  const auto* p = static_cast<const std::byte*>(host);
  // First segment whose base is > p, then step back one.
  const auto pos = std::upper_bound(
      by_base_.begin(), by_base_.end(), p,
      [this](const std::byte* q, u32 i) { return q < segments_[i].base; });
  GILFREE_CHECK_MSG(pos != by_base_.begin(),
                    "host address outside every guest segment: " << host);
  const Segment& s = segments_[*(pos - 1)];
  GILFREE_CHECK_MSG(p < s.base + s.bytes,
                    "host address outside every guest segment: " << host);
  const auto h = reinterpret_cast<std::uintptr_t>(host);
  page_cache_[(h >> kPageShift) & (kPageCacheSize - 1)] =
      PageEntry{reinterpret_cast<std::uintptr_t>(s.base), s.bytes, s.index};
  return GuestLoc{s.index, static_cast<u32>(p - s.base)};
}

const void* GuestSpace::to_host(GuestAddr guest) const {
  const Segment* s = segment_of(guest);
  if (s == nullptr) return nullptr;
  return s->base + (guest & ((1ull << kSegmentShift) - 1));
}

const GuestSpace::Segment* GuestSpace::segment_of(GuestAddr guest) const {
  if (guest == kInvalidGuestAddr) return nullptr;
  const u64 seg = guest >> kSegmentShift;
  if (seg == 0 || seg > segments_.size()) return nullptr;
  const Segment& s = segments_[seg - 1];
  if ((guest & ((1ull << kSegmentShift) - 1)) >= s.bytes) return nullptr;
  return &s;
}

std::string GuestSpace::describe(GuestAddr guest) const {
  const Segment* s = segment_of(guest);
  if (s == nullptr) return "unregistered";
  std::string out = s->name;
  out += "+0x";
  append_hex(out, guest & ((1ull << kSegmentShift) - 1));
  return out;
}

}  // namespace gilfree::sim
