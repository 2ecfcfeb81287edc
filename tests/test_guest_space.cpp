// Guest address space unit tests (src/sim/guest_space.hpp): stable
// segment:offset addresses, round-trips, overlap rejection, the check that
// stops accesses to unregistered host memory, the page cache behind
// locate(), and the alignment and line-grouping invariants the HTM/STM
// line tables rely on.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>

#include "common/check.hpp"
#include "sim/guest_space.hpp"
#include "sim/line_table.hpp"

using namespace gilfree;
using sim::GuestAddr;
using sim::GuestSpace;
using sim::kInvalidGuestAddr;

namespace {

// 256-aligned backing store, like every registered slab in the simulator.
struct alignas(256) Slab {
  std::array<std::byte, 4096> bytes{};
};

TEST(GuestSpace, TranslateIsSegmentBiasedOffset) {
  Slab a, b;
  GuestSpace gs;
  EXPECT_EQ(gs.add_segment("heap-control", a.bytes.data(), a.bytes.size()),
            0u);
  EXPECT_EQ(gs.add_segment("stack-t0", b.bytes.data(), b.bytes.size()), 1u);

  EXPECT_EQ(gs.translate(a.bytes.data()), GuestAddr{1} << 32);
  EXPECT_EQ(gs.translate(a.bytes.data() + 8), (GuestAddr{1} << 32) | 8);
  EXPECT_EQ(gs.translate(b.bytes.data() + 100), (GuestAddr{2} << 32) | 100);
}

TEST(GuestSpace, GuestAddressesDependOnRegistrationOrderNotHostOrder) {
  Slab a, b;
  // Register in the opposite of host-address order: guest addresses must
  // track registration order only.
  GuestSpace gs;
  std::byte* lo = a.bytes.data() < b.bytes.data() ? a.bytes.data()
                                                  : b.bytes.data();
  std::byte* hi = a.bytes.data() < b.bytes.data() ? b.bytes.data()
                                                  : a.bytes.data();
  gs.add_segment("second-in-memory", hi, 4096);
  gs.add_segment("first-in-memory", lo, 4096);
  EXPECT_EQ(gs.translate(hi), GuestAddr{1} << 32);
  EXPECT_EQ(gs.translate(lo), GuestAddr{2} << 32);
}

TEST(GuestSpace, ToHostRoundTrips) {
  Slab a;
  GuestSpace gs;
  gs.add_segment("arena-0", a.bytes.data(), a.bytes.size());
  for (u64 off : {u64{0}, u64{8}, u64{4088}}) {
    const GuestAddr g = gs.translate(a.bytes.data() + off);
    ASSERT_NE(g, kInvalidGuestAddr);
    EXPECT_EQ(gs.to_host(g), a.bytes.data() + off);
  }
  // One-past-the-end and out-of-range guests resolve to nothing.
  EXPECT_EQ(gs.to_host((GuestAddr{1} << 32) | 4096), nullptr);
  EXPECT_EQ(gs.to_host(GuestAddr{2} << 32), nullptr);
  EXPECT_EQ(gs.to_host(0), nullptr);
  EXPECT_EQ(gs.to_host(kInvalidGuestAddr), nullptr);
}

TEST(GuestSpace, UnregisteredHostMemoryIsInvalidAndFailsLocate) {
  Slab a;
  u64 outside = 0;
  GuestSpace gs;
  gs.add_segment("arena-0", a.bytes.data(), a.bytes.size());
  // The HTM/STM tiers key on locate()/line_of(): an access outside every
  // segment is a coverage bug and stops the run.
  EXPECT_THROW(gs.locate(&outside), CheckFailure);
  EXPECT_THROW(gs.translate(&outside), CheckFailure);
  EXPECT_THROW(gs.line_of(&outside, 256), CheckFailure);
  // Nor does a failed lookup poison the page cache for registered bytes.
  EXPECT_EQ(gs.line_of(a.bytes.data() + 256, 256), (u64{1} << 32) / 256 + 1);
}

TEST(GuestSpace, OverlappingSegmentsAreRejected) {
  Slab a;
  GuestSpace gs;
  gs.add_segment("arena-0", a.bytes.data(), a.bytes.size());
  EXPECT_THROW(gs.add_segment("overlap", a.bytes.data() + 256, 256),
               CheckFailure);
  EXPECT_THROW(gs.add_segment("empty", a.bytes.data() + a.bytes.size(), 0),
               CheckFailure);
}

TEST(GuestSpace, MisalignedSegmentBasesAreRejected) {
  // A base off the kSegmentAlign grid would split a host line between two
  // guest lines (or two segments), which sim::LineTable's host-line memo
  // cannot represent.
  Slab a;
  GuestSpace gs;
  EXPECT_THROW(gs.add_segment("misaligned", a.bytes.data() + 8, 256),
               CheckFailure);
  EXPECT_THROW(gs.add_segment("half-line", a.bytes.data() + 128, 256),
               CheckFailure);
  EXPECT_EQ(gs.segment_count(), 0u);
  const std::byte* aligned = a.bytes.data() + GuestSpace::kSegmentAlign;
  EXPECT_EQ(gs.add_segment("aligned", aligned, 256), 0u);
}

TEST(GuestSpace, LineTablesRejectLinesLongerThanTheSegmentAlignment) {
  // With 512-byte lines one 256-aligned segment's host line could span two
  // guest lines.
  Slab a;
  GuestSpace gs;
  gs.add_segment("arena-0", a.bytes.data(), a.bytes.size());
  EXPECT_THROW(sim::LineTable<u64>(&gs, 512), CheckFailure);
  sim::LineTable<u64> ok(&gs, GuestSpace::kSegmentAlign);
  EXPECT_EQ(ok.find(a.bytes.data()), nullptr);
}

TEST(GuestSpace, LineGroupingMatchesHostGrouping) {
  // The rebase-safety invariant: for a 256-aligned slab, two host addresses
  // share a host line of size L (any power of two up to 256) iff their
  // guest addresses share a guest line. Segment windows are 2^32-aligned,
  // so this reduces to offset arithmetic — checked here explicitly.
  Slab a;
  GuestSpace gs;
  gs.add_segment("arena-0", a.bytes.data(), a.bytes.size());
  for (u64 line_bytes : {u64{64}, u64{256}}) {
    for (u64 off = 0; off + 8 <= a.bytes.size(); off += 8) {
      const LineId host_line =
          reinterpret_cast<std::uintptr_t>(a.bytes.data() + off) / line_bytes;
      const LineId host_line0 =
          reinterpret_cast<std::uintptr_t>(a.bytes.data()) / line_bytes;
      const LineId guest_line = gs.line_of(a.bytes.data() + off, line_bytes);
      const LineId guest_line0 = gs.line_of(a.bytes.data(), line_bytes);
      EXPECT_EQ(guest_line - guest_line0, host_line - host_line0)
          << "offset " << off << " line_bytes " << line_bytes;
    }
  }
}

TEST(GuestSpace, DescribeNamesSegmentAndOffset) {
  Slab a;
  GuestSpace gs;
  gs.add_segment("nursery-t3", a.bytes.data(), a.bytes.size());
  EXPECT_EQ(gs.describe(gs.translate(a.bytes.data() + 0x2a8)),
            "nursery-t3+0x2a8");
  EXPECT_EQ(gs.describe(kInvalidGuestAddr), "unregistered");
  EXPECT_EQ(gs.describe(0), "unregistered");
}

TEST(GuestSpace, LocateResolvesSegmentsSharingAHostPage) {
  // Small 256-aligned segments packed into one host page: the page cache
  // holds one of them at a time and must fall back to the search for the
  // others.
  struct alignas(4096) Page {
    std::array<std::byte, 4096> bytes{};
  } page;
  GuestSpace gs;
  for (u32 i = 0; i < 4; ++i)
    gs.add_segment("s" + std::to_string(i), page.bytes.data() + 1024 * i, 512);
  for (int round = 0; round < 3; ++round) {
    for (u32 i : {3u, 0u, 2u, 1u, 0u}) {
      for (u64 off : {u64{0}, u64{8}, u64{504}}) {
        const std::byte* p = page.bytes.data() + 1024 * i + off;
        const sim::GuestLoc loc = gs.locate(p);
        EXPECT_EQ(loc.segment, i);
        EXPECT_EQ(loc.offset, off);
        EXPECT_EQ(gs.translate(p), (GuestAddr{i + 1} << 32) | off);
      }
    }
  }
  // The gaps between them belong to no segment.
  EXPECT_THROW(gs.locate(page.bytes.data() + 512), CheckFailure);
}

TEST(GuestSpace, MruCacheSurvivesInterleavedLookups) {
  Slab a, b, c;
  GuestSpace gs;
  gs.add_segment("s0", a.bytes.data(), a.bytes.size());
  gs.add_segment("s1", b.bytes.data(), b.bytes.size());
  gs.add_segment("s2", c.bytes.data(), c.bytes.size());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gs.translate(a.bytes.data() + 8u * (i % 16)) >> 32, 1u);
    EXPECT_EQ(gs.translate(c.bytes.data() + 8u * (i % 16)) >> 32, 3u);
    EXPECT_EQ(gs.translate(b.bytes.data() + 8u * (i % 16)) >> 32, 2u);
  }
}

}  // namespace
