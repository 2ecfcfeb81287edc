// The process-wide ZeroPages pool: a dying mapping comes back all-zero, with
// its dirtied pages still resident and its guard page intact, to the next
// ZeroPages of its size, oldest first.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <memory>

#include "common/types.hpp"
#include "common/zero_pages.hpp"

namespace gilfree {
namespace {

std::size_t page_words() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) / sizeof(u64);
}

/// A size no other test maps: 37 pages of u64s.
std::size_t slots() { return 37 * page_words(); }

long minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Stores into the first, a middle and the last page.
void dirty(const ZeroPages<u64>& m) {
  m[0] = 1;
  m[18 * page_words() + 5] = 2;
  m[m.size() - 1] = 3;
}

TEST(ZeroPagesPool, RecyclesTheOldestMappingAllZero) {
  zero_pages::trim();
  auto a = std::make_unique<ZeroPages<u64>>(slots());
  auto b = std::make_unique<ZeroPages<u64>>(slots());
  const u64* a_base = a->get();
  const u64* b_base = b->get();
  dirty(*a);
  dirty(*b);
  // Only read page 7: it must come back zero too.
  EXPECT_EQ(static_cast<volatile u64&>((*a)[7 * page_words()]), 0u);
  const zero_pages::PoolStats before = zero_pages::pool_stats();
  a.reset();
  b.reset();

  ZeroPages<u64> again(slots());
  EXPECT_EQ(again.get(), a_base) << "the oldest pooled mapping comes first";
  const zero_pages::PoolStats after = zero_pages::pool_stats();
  EXPECT_EQ(after.mapped, before.mapped);
  EXPECT_EQ(after.recycled, before.recycled + 1);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < again.size(); ++i) nonzero += again[i] != 0;
  EXPECT_EQ(nonzero, 0u) << "a recycled mapping must read all-zero";

  // The pages the last owner dirtied are still resident.
  const long faults = minor_faults();
  dirty(again);
  EXPECT_EQ(minor_faults() - faults, 0) << "dirtied pages stay resident";

  ZeroPages<u64> next(slots());
  EXPECT_EQ(next.get(), b_base);
}

TEST(ZeroPagesPool, AnotherSizeMapsFreshMemory) {
  zero_pages::trim();
  const u64* pooled_base = ZeroPages<u64>(slots()).get();
  const std::size_t mapped = zero_pages::pool_stats().mapped;
  ZeroPages<u64> other(slots() + page_words());
  EXPECT_NE(other.get(), pooled_base);
  EXPECT_EQ(zero_pages::pool_stats().mapped, mapped + 1);
  ZeroPages<u64> same(slots());
  EXPECT_EQ(same.get(), pooled_base);
}

TEST(ZeroPagesPoolDeathTest, StoreOnePastARecycledMappingFaults) {
  zero_pages::trim();
  const u64* first = ZeroPages<u64>(slots()).get();
  ZeroPages<u64> recycled(slots());
  ASSERT_EQ(recycled.get(), first);
  volatile u64* past_end = recycled.get() + recycled.size();
  EXPECT_DEATH(*past_end = 1, "") << "the guard page survives recycling";
}

}  // namespace
}  // namespace gilfree
