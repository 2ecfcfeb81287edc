// Unit tests of the common utilities: deterministic RNG, statistics,
// string helpers, CLI parsing, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "common/table.hpp"
#include "fault/fault_config.hpp"
#include "runtime/options.hpp"

namespace gilfree {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (u64 bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximately) {
  Rng r(11);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(1000.0);
  EXPECT_NEAR(sum / n, 1000.0, 25.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng fresh(5);
  (void)fresh.next_u64();  // account for split's own draw
  EXPECT_NE(child.next_u64(), fresh.next_u64());
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.bucket_count(0), 10u);
  EXPECT_EQ(h.underflow(), 0u);
  h.add(-5);
  h.add(1000);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(CounterMap, AddAndTotal) {
  CounterMap c;
  c.add("x");
  c.add("x", 4);
  c.add("y", 2);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
  EXPECT_EQ(c.total(), 7u);
}

TEST(StrUtil, SplitTrimPrefixes) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(Cli, ParsesFlagsAndRejectsUnknown) {
  const char* argv[] = {"prog", "--threads=12", "--fast", "pos",
                        "--ratio=0.5"};
  CliFlags flags(5, const_cast<char**>(argv), /*throw_errors=*/true);
  EXPECT_EQ(flags.get_int("threads", 1), 12);
  EXPECT_TRUE(flags.get_bool("fast", false));
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(flags.get("missing", "d"), "d");
  EXPECT_EQ(flags.positional().count("pos"), 1u);
  EXPECT_NO_THROW(flags.reject_unknown());

  const char* argv2[] = {"prog", "--tpyo=1"};
  CliFlags flags2(2, const_cast<char**>(argv2), /*throw_errors=*/true);
  EXPECT_THROW(flags2.reject_unknown(), std::invalid_argument);
}

TEST(Cli, RejectsMalformedFlagsAndValues) {
  // Single-dash flags are an error, not a silent positional.
  const char* dash[] = {"prog", "-threads=12"};
  EXPECT_THROW(CliFlags(2, const_cast<char**>(dash), /*throw_errors=*/true),
               std::invalid_argument);

  // An empty flag name is an error.
  const char* empty[] = {"prog", "--=3"};
  EXPECT_THROW(CliFlags(2, const_cast<char**>(empty), /*throw_errors=*/true),
               std::invalid_argument);

  // Negative numbers remain positionals (not misread as flags).
  const char* neg[] = {"prog", "-3"};
  CliFlags negf(2, const_cast<char**>(neg), /*throw_errors=*/true);
  EXPECT_EQ(negf.positional().count("-3"), 1u);

  // Non-numeric values for numeric getters are an error, including
  // trailing garbage that strtol/strtod would silently accept.
  const char* bad[] = {"prog", "--threads=twelve", "--ratio=0.5x",
                       "--seed=12"};
  CliFlags badf(4, const_cast<char**>(bad), /*throw_errors=*/true);
  EXPECT_THROW(badf.get_int("threads", 1), std::invalid_argument);
  EXPECT_THROW(badf.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_EQ(badf.get_int("seed", 0), 12);
  EXPECT_EQ(badf.get("threads", ""), "twelve");  // get() is still fine
}

TEST(Cli, RejectsOutOfRangeIntegers) {
  const char* argv[] = {"prog",
                        "--big=99999999999999999999",
                        "--small=-99999999999999999999",
                        "--wide=4294967296",
                        "--top=4294967295",
                        "--zero=0",
                        "--neg=-1"};
  CliFlags f(7, const_cast<char**>(argv), /*throw_errors=*/true);
  // strtol saturates at LONG_MAX/LONG_MIN with ERANGE: an error, not a
  // silently clamped value.
  EXPECT_THROW(f.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(f.get_int("small", 0), std::invalid_argument);
  EXPECT_EQ(f.get_int("wide", 0), 4294967296L);

  // get_u32 accepts [min, UINT32_MAX] and names the flag otherwise.
  EXPECT_EQ(f.get_u32("top", 1), 4294967295u);
  EXPECT_EQ(f.get_u32("zero", 1, /*min=*/0), 0u);
  EXPECT_EQ(f.get_u32("absent", 7), 7u);
  try {
    (void)f.get_u32("wide", 1);
    ADD_FAILURE() << "--wide=2^32 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--wide"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(f.get_u32("zero", 1), std::invalid_argument);
  EXPECT_THROW(f.get_u32("neg", 1, /*min=*/0), std::invalid_argument);
  EXPECT_THROW(f.get_u32("big", 1), std::invalid_argument);

  // Every u32 flag family goes through it.
  for (const char* flag :
       {"--gc-arena-min=4294967296", "--gc-arena-hot-cycles=4294967296",
        "--gc-sweep-deal=4294967296", "--gc-mark-quantum=-1",
        "--gc-nursery-slots=99999999999999999999"}) {
    vm::HeapConfig heap;
    const char* one[] = {"prog", flag};
    CliFlags g(2, const_cast<char**>(one), /*throw_errors=*/true);
    EXPECT_THROW(runtime::apply_gc_flags(g, heap), std::invalid_argument)
        << flag;
  }
  // Fault cycle counts may not be negative (they would wrap to ~2^64), and
  // a yield-point id past int is a bad id, not an uncaught out_of_range.
  for (const char* flag :
       {"--fault-handoff-delay=-1", "--fault-spurious-mean=-400",
        "--fault-interrupt-until=-1", "--fault-persistent-yps=99999999999",
        "--fault-seed=99999999999999999999"}) {
    const char* one[] = {"prog", flag};
    CliFlags g(2, const_cast<char**>(one), /*throw_errors=*/true);
    EXPECT_THROW((void)fault::FaultConfig::from_flags(g),
                 std::invalid_argument)
        << flag;
  }
}

TEST(Table, AlignedAndCsv) {
  TablePrinter t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,bb\n1,2\n333,4\n");
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Check, ThrowsWithMessage) {
  try {
    GILFREE_CHECK_MSG(1 == 2, "value was " << 42);
    FAIL();
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace gilfree
