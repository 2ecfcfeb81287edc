// HTM facility unit tests: transactional visibility, rollback, conflict
// resolution, capacity limits, SMT capacity halving, the learning model,
// the line table, and a seeded differential test against a reference model
// of the conflict algorithm built on ordered std containers.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/zero_pages.hpp"
#include "htm/htm.hpp"
#include "htm/profile.hpp"
#include "sim/line_table.hpp"
#include "stm/stm.hpp"

namespace gilfree::htm {
namespace {

/// Simulated memory for a raw facility: one 256-B-aligned slab, registered
/// as the facility's only guest segment.
struct alignas(256) Memory {
  u64 slots[16 * 1024] = {};
};

sim::GuestSpace guest_over(Memory& mem) {
  sim::GuestSpace g;
  g.add_segment("mem", mem.slots, sizeof mem.slots);
  return g;
}

struct Fixture {
  explicit Fixture(SystemProfile profile = SystemProfile::zec12())
      : machine(profile.machine), htm(profile.htm, &machine, &guest) {}
  u64* slot(std::size_t i) { return &mem->slots[i]; }
  std::unique_ptr<Memory> mem = std::make_unique<Memory>();
  sim::GuestSpace guest = guest_over(*mem);
  sim::Machine machine;
  HtmFacility htm;
};

TEST(Htm, CommitMakesStoresVisible) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_store(0, &word, 42, true);
  EXPECT_EQ(word, 1u) << "store must be buffered until commit";
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kNone);
  EXPECT_EQ(word, 42u);
}

TEST(Htm, ReadOwnWrites) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_store(0, &word, 7, true);
  EXPECT_EQ(f.htm.tx_load(0, &word, true), 7u);
  (void)f.htm.tx_commit(0);
}

TEST(Htm, ExplicitAbortDiscardsStores) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_store(0, &word, 42, true);
  f.htm.tx_abort(0, AbortReason::kExplicit);
  EXPECT_EQ(word, 1u);
  EXPECT_FALSE(f.htm.in_tx(0));
  EXPECT_EQ(f.htm.stats(0).aborts_by_reason[static_cast<int>(
                AbortReason::kExplicit)],
            1u);
}

TEST(Htm, WriterDoomsReaderOnRequesterWins) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  // CPU 0 reads the line transactionally.
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  (void)f.htm.tx_load(0, &word, true);
  // CPU 1 writes the same line: CPU 0's transaction is doomed.
  ASSERT_EQ(f.htm.tx_begin(1), AbortReason::kNone);
  f.htm.tx_store(1, &word, 5, true);
  EXPECT_EQ(f.htm.doom(0), AbortReason::kConflict);
  EXPECT_EQ(f.htm.tx_commit(1), AbortReason::kNone);
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kConflict);  // rolls back
  EXPECT_EQ(word, 5u);
}

TEST(Htm, ReaderDoomsSpeculativeWriter) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_store(0, &word, 9, true);
  ASSERT_EQ(f.htm.tx_begin(1), AbortReason::kNone);
  EXPECT_EQ(f.htm.tx_load(1, &word, true), 1u)
      << "reader must see committed memory, not the speculative value";
  EXPECT_EQ(f.htm.doom(0), AbortReason::kConflict);
  EXPECT_EQ(f.htm.tx_commit(1), AbortReason::kNone);
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kConflict);
  EXPECT_EQ(word, 1u);
}

TEST(Htm, PrivateLinesDoNotConflict) {
  Fixture f;
  u64& word = *f.slot(0);
  word = 1;
  const PrivateWindow window{f.slot(0), 64};
  ASSERT_EQ(f.htm.tx_begin(0, -1, window), AbortReason::kNone);
  f.htm.tx_store(0, &word, 9, /*shared=*/false);
  ASSERT_EQ(f.htm.tx_begin(1, -1, window), AbortReason::kNone);
  f.htm.tx_store(1, &word, 10, /*shared=*/false);
  EXPECT_EQ(f.htm.tx_load(1, &word, /*shared=*/false), 10u);
  EXPECT_EQ(word, 1u) << "private stores are buffered until commit";
  EXPECT_EQ(f.htm.doom(0), AbortReason::kNone);
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kNone);
  EXPECT_EQ(word, 9u);
  EXPECT_EQ(f.htm.tx_commit(1), AbortReason::kNone);
  EXPECT_EQ(word, 10u);
}

TEST(Htm, PrivateAccessOutsideTheWindowFailsTheCheck) {
  Fixture f;  // zEC12: 256 B lines = 32 slots
  const PrivateWindow window{f.slot(64), 64};
  ASSERT_EQ(f.htm.tx_begin(0, -1, window), AbortReason::kNone);
  EXPECT_THROW((void)f.htm.tx_load(0, f.slot(63), false), CheckFailure);
  EXPECT_THROW(f.htm.tx_store(0, f.slot(128), 1, false), CheckFailure);
  f.htm.tx_store(0, f.slot(127), 1, false);  // last slot: inside
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kNone);
  EXPECT_EQ(*f.slot(127), 1u);
  // Without a window every private access is outside it.
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  EXPECT_THROW((void)f.htm.tx_load(0, f.slot(64), false), CheckFailure);
  f.htm.tx_abort(0, AbortReason::kExplicit);
  // A window must start a guest line.
  EXPECT_THROW((void)f.htm.tx_begin(0, -1, {f.slot(65), 8}), CheckFailure);
}

TEST(Htm, NontxStoreDoomsAllTransactionalHolders) {
  Fixture f;
  u64& gil = *f.slot(0);
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  (void)f.htm.tx_load(0, &gil, true);
  ASSERT_EQ(f.htm.tx_begin(1), AbortReason::kNone);
  (void)f.htm.tx_load(1, &gil, true);
  f.htm.nontx_store(2, &gil, 1);  // GIL acquisition
  EXPECT_EQ(f.htm.doom(0), AbortReason::kConflict);
  EXPECT_EQ(f.htm.doom(1), AbortReason::kConflict);
  EXPECT_EQ(gil, 1u);
}

TEST(Htm, WriteCapacityOverflowIsPersistent) {
  Fixture f;  // zEC12: 32-line write set at 256 B lines
  const u32 cap = f.htm.effective_max_write(0);
  u64* buf = f.slot(0);
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  bool aborted = false;
  try {
    for (u32 i = 0; i < (cap + 2) * 32; i += 32)
      f.htm.tx_store(0, &buf[i], 1, true);
  } catch (const TxAbort& ab) {
    aborted = true;
    EXPECT_EQ(ab.reason, AbortReason::kOverflowWrite);
    EXPECT_TRUE(is_persistent(ab.reason));
  }
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(f.htm.in_tx(0));
}

TEST(Htm, ReadCapacityOverflow) {
  auto profile = SystemProfile::zec12();
  profile.htm.max_read_lines = 8;  // shrink for the test
  Fixture f(profile);
  u64* buf = f.slot(0);
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  bool aborted = false;
  try {
    for (u32 i = 0; i < 12 * 32; i += 32) (void)f.htm.tx_load(0, &buf[i], true);
  } catch (const TxAbort& ab) {
    aborted = true;
    EXPECT_EQ(ab.reason, AbortReason::kOverflowRead);
  }
  EXPECT_TRUE(aborted);
}

TEST(Htm, SmtHalvesCapacityWhenSiblingBusy) {
  Fixture f(SystemProfile::xeon_e3());  // 4 cores x 2 SMT
  const u32 full = f.htm.effective_max_write(0);
  f.machine.set_busy(0, true);
  f.machine.set_busy(4, true);  // sibling of cpu 0
  EXPECT_EQ(f.htm.effective_max_write(0), full / 2);
  f.machine.set_busy(4, false);
  EXPECT_EQ(f.htm.effective_max_write(0), full);
}

TEST(Htm, ForceAbortAndDoomAll) {
  Fixture f;
  u64& a = *f.slot(0);
  u64& b = *f.slot(64);  // another line at either line size
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_store(0, &a, 1, true);
  ASSERT_EQ(f.htm.tx_begin(1), AbortReason::kNone);
  f.htm.tx_store(1, &b, 1, true);

  f.htm.force_abort(0, AbortReason::kInterrupt);
  EXPECT_FALSE(f.htm.in_tx(0));
  EXPECT_EQ(a, 0u);

  f.htm.doom_all(kInvalidCpu, AbortReason::kConflict);
  EXPECT_EQ(f.htm.doom(1), AbortReason::kConflict);
  EXPECT_EQ(f.htm.tx_commit(1), AbortReason::kConflict);
  EXPECT_EQ(b, 0u);
}

TEST(Htm, StatsCountCommitsAndAborts) {
  Fixture f;
  u64& w = *f.slot(0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
    f.htm.tx_store(0, &w, static_cast<u64>(i), true);
    ASSERT_EQ(f.htm.tx_commit(0), AbortReason::kNone);
  }
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  f.htm.tx_abort(0, AbortReason::kExplicit);
  const HtmStats s = f.htm.total_stats();
  EXPECT_EQ(s.begins, 6u);
  EXPECT_EQ(s.commits, 5u);
  EXPECT_EQ(s.total_aborts(), 1u);
}

TEST(Htm, InterruptsAbortLongTransactions) {
  auto profile = SystemProfile::zec12();
  profile.htm.interrupt_mean_cycles = 1'000;
  Fixture f(profile);
  u64& w = *f.slot(0);
  u32 interrupted = 0;
  for (int t = 0; t < 50; ++t) {
    if (f.htm.tx_begin(0) != AbortReason::kNone) continue;
    try {
      for (int i = 0; i < 100; ++i) {
        f.machine.advance(0, 50);
        (void)f.htm.tx_load(0, &w, true);
      }
      (void)f.htm.tx_commit(0);
    } catch (const TxAbort& ab) {
      if (ab.reason == AbortReason::kInterrupt) ++interrupted;
    }
  }
  EXPECT_GT(interrupted, 25u) << "5000-cycle txs vs 1000-cycle interrupts";
}

TEST(TsxLearning, RecoversGraduallyAfterOverflows) {
  TsxLearningModel m(1, 0.2, 500, 42);
  for (int i = 0; i < 50; ++i) m.on_overflow(0);
  EXPECT_GT(m.pessimism(0), 0.9);
  // Clean transactions decay pessimism exponentially.
  int iters = 0;
  while (m.pessimism(0) > 0.05 && iters < 10'000) {
    m.on_non_overflow(0);
    ++iters;
  }
  EXPECT_GT(iters, 500) << "recovery must be gradual";
  EXPECT_LT(iters, 5'000);
}

TEST(Htm, ResetClearsConflictDiagnosticsStatsAndLearning) {
  Fixture f(SystemProfile::xeon_e3());  // includes the TSX learning model
  f.htm.set_collect_conflicts(true);
  u64& word = *f.slot(0);
  word = 1;
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  (void)f.htm.tx_load(0, &word, true);
  f.htm.nontx_store(1, &word, 9);  // dooms CPU 0's transaction
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kConflict);
  ASSERT_FALSE(f.htm.conflict_lines().empty());
  ASSERT_GT(f.htm.total_stats().begins, 0u);

  f.htm.reset();
  EXPECT_TRUE(f.htm.conflict_lines().empty())
      << "the conflict-line histogram must not leak across runs";
  EXPECT_EQ(f.htm.total_stats().begins, 0u);
  EXPECT_EQ(f.htm.total_stats().total_aborts(), 0u);
  EXPECT_FALSE(f.htm.in_tx(0));
}

TEST(Htm, ResetRederivesRngStreamsForIdenticalReplay) {
  // Back-to-back runs in one process must be identically distributed:
  // reset() re-derives the interrupt/learning RNG streams from the seed, so
  // replaying the same access pattern reproduces the same statistics.
  auto profile = SystemProfile::xeon_e3();
  profile.htm.interrupt_mean_cycles = 2'000;
  Fixture f(profile);
  u64& word = *f.slot(0);
  auto drive = [&] {
    for (int t = 0; t < 400; ++t) {
      if (f.htm.tx_begin(0) != AbortReason::kNone) {
        f.machine.advance(0, 200);
        continue;
      }
      try {
        for (int i = 0; i < 4; ++i) {
          f.machine.advance(0, 300);
          (void)f.htm.tx_load(0, &word, true);
        }
        (void)f.htm.tx_commit(0);
      } catch (const TxAbort&) {
      }
    }
    return f.htm.total_stats();
  };
  const HtmStats a = drive();
  ASSERT_GT(a.total_aborts(), 0u) << "interrupts must fire in this setup";
  f.htm.reset();
  const HtmStats b = drive();
  EXPECT_EQ(a.begins, b.begins);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.eager_aborts, b.eager_aborts);
  EXPECT_EQ(a.aborts_by_reason, b.aborts_by_reason);
}

TEST(Htm, ShardRngDerivationKeepsShardZeroIdenticalAndResetStable) {
  // Multi-engine sharding derives each shard's RNG streams from
  // (seed, shard_id). Three contracts: shard 0 is bit-identical to the
  // unsharded facility, sibling shards draw an independent stream, and
  // reset() re-derives the *shard* stream (not the unsharded one) so a
  // shard replays identically after a reset.
  auto profile = SystemProfile::xeon_e3();
  profile.htm.interrupt_mean_cycles = 2'000;

  auto drive = [](Fixture& f) {
    u64& word = *f.slot(0);
    for (int t = 0; t < 400; ++t) {
      if (f.htm.tx_begin(0) != AbortReason::kNone) {
        f.machine.advance(0, 200);
        continue;
      }
      try {
        for (int i = 0; i < 4; ++i) {
          f.machine.advance(0, 300);
          (void)f.htm.tx_load(0, &word, true);
        }
        (void)f.htm.tx_commit(0);
      } catch (const TxAbort&) {
      }
    }
    return f.htm.total_stats();
  };

  Fixture unsharded(profile);
  const HtmStats base = drive(unsharded);
  ASSERT_GT(base.total_aborts(), 0u) << "interrupts must fire in this setup";

  auto shard0_profile = profile;
  shard0_profile.htm.shard_id = 0;
  Fixture shard0(shard0_profile);
  const HtmStats s0 = drive(shard0);
  EXPECT_EQ(base.begins, s0.begins);
  EXPECT_EQ(base.commits, s0.commits);
  EXPECT_EQ(base.aborts_by_reason, s0.aborts_by_reason)
      << "shard 0 must be bit-identical to the unsharded run";

  auto shard1_profile = profile;
  shard1_profile.htm.shard_id = 1;
  Fixture shard1(shard1_profile);
  const HtmStats s1 = drive(shard1);
  EXPECT_NE(base.aborts_by_reason, s1.aborts_by_reason)
      << "sibling shards must draw independent interrupt streams";

  // Regression: reset() used to be equivalent only for shard 0; a sharded
  // facility must come back on its own (seed, shard_id) stream.
  shard1.htm.reset();
  shard1.machine.reset();
  const HtmStats replay = drive(shard1);
  EXPECT_EQ(s1.begins, replay.begins);
  EXPECT_EQ(s1.commits, replay.commits);
  EXPECT_EQ(s1.aborts_by_reason, replay.aborts_by_reason)
      << "reset() must re-derive the shard stream for identical replay";
}

// --- line table -------------------------------------------------------------

// The facility's conflict metadata is a sim::LineTable of per-line CPU
// masks; this is the reader/writer bookkeeping it does, on the table.
TEST(LineTable, ReaderWriterTracking) {
  struct Masks {
    u32 readers = 0;
    u32 writers = 0;
  };
  auto mem = std::make_unique<Memory>();
  const sim::GuestSpace gs = guest_over(*mem);
  sim::LineTable<Masks> table(&gs, 256);
  const u64* line10 = &mem->slots[10 * 32];
  EXPECT_EQ(table.find(line10), nullptr) << "peeking never allocates";
  EXPECT_EQ(table.chunks(), 0u);

  const auto add_reader = [&](CpuId cpu) {
    Masks& m = table.at(line10);
    m.readers |= 1u << cpu;
    return m.writers & ~(1u << cpu);
  };
  const auto add_writer = [&](CpuId cpu) {
    Masks& m = table.at(line10);
    const u32 others = (m.readers | m.writers) & ~(1u << cpu);
    m.writers |= 1u << cpu;
    return others;
  };
  EXPECT_EQ(add_reader(0), 0u);
  EXPECT_EQ(add_reader(1), 0u);
  EXPECT_EQ(add_writer(2), 0b011u);  // a writer sees both readers
  EXPECT_EQ(add_reader(3), 1u << 2);  // a reader sees the writer
  EXPECT_EQ(table.chunks(), 1u);

  // The line's last word reaches the same record, and the table names the
  // line by its guest LineId.
  EXPECT_EQ(table.line_id(line10), gs.line_of(line10, 256));
  EXPECT_EQ(table.line_id(line10 + 31), table.line_id(line10));
  EXPECT_EQ(table.find(line10 + 31)->readers, 0b1011u);
  EXPECT_EQ(table.find(line10 + 31)->writers, 0b0100u);

  // Neighbouring lines get their own zeroed records in the same chunk; a
  // line kChunkLines further on needs a second chunk.
  EXPECT_EQ(table.at(&mem->slots[11 * 32]).readers, 0u);
  EXPECT_EQ(table.chunks(), 1u);
  (void)table.at(&mem->slots[(10 + 64) * 32]);
  EXPECT_EQ(table.chunks(), 2u);

  table.clear();
  EXPECT_EQ(table.chunks(), 0u);
  EXPECT_EQ(table.find(line10), nullptr);
}

/// A registered segment far larger than the memo's reach. The table never
/// dereferences the addresses it is handed, so the pages stay untouched.
struct BigSegment {
  static constexpr std::size_t kBytes = std::size_t{4} << 20;
  BigSegment() : words(kBytes / 8) {
    gs.add_segment("big", words.get(), kBytes);
  }
  const u64* line(u32 line_bytes, std::size_t n) const {
    return words.get() + n * (line_bytes / 8);
  }
  ZeroPages<u64> words;
  sim::GuestSpace gs;
};

struct Probe {
  u64 value = 0;
};

constexpr std::size_t kMemoSlots = sim::LineTable<Probe>::kMemoSlots;

// Lines kMemoSlots apart share a memo slot: each lookup evicts the other,
// and each still reaches its own record.
TEST(LineTable, MemoCollisionsEvictEachOther) {
  const BigSegment seg;
  for (const u32 line_bytes : {64u, 256u}) {
    sim::LineTable<Probe> table(&seg.gs, line_bytes);
    const u64* a = seg.line(line_bytes, 3);
    const u64* b = seg.line(line_bytes, 3 + kMemoSlots);
    const u64* c = seg.line(line_bytes, 3 + 2 * kMemoSlots);
    table.at(a).value = 1;
    table.at(b).value = 2;
    EXPECT_NE(&table.at(a), &table.at(b));
    EXPECT_EQ(table.chunks(), 2u);
    for (int round = 0; round < 4; ++round) {
      EXPECT_EQ(table.at(a).value, 1u) << line_bytes;
      EXPECT_EQ(table.find(b)->value, 2u) << line_bytes;
      EXPECT_EQ(table.find(c), nullptr) << line_bytes;
      EXPECT_EQ(table.find(a)->value, 1u) << line_bytes;
      EXPECT_EQ(table.at(b).value, 2u) << line_bytes;
    }
    EXPECT_EQ(table.chunks(), 2u) << "find() never allocates";
  }
}

// find() caches absence, so allocating a chunk must drop what it cached for
// every line of that chunk, not only for the line at() was asked about.
TEST(LineTable, FindSeesAChunkANeighbourAllocated) {
  const BigSegment seg;
  for (const u32 line_bytes : {64u, 256u}) {
    sim::LineTable<Probe> table(&seg.gs, line_bytes);
    const u64* neighbour = seg.line(line_bytes, 70);
    const u64* other_chunk = seg.line(line_bytes, 130);
    EXPECT_EQ(table.find(neighbour), nullptr);
    EXPECT_EQ(table.find(other_chunk), nullptr);
    table.at(seg.line(line_bytes, 65)).value = 5;  // chunk 1: lines 64..127
    ASSERT_NE(table.find(neighbour), nullptr) << line_bytes;
    EXPECT_EQ(table.find(neighbour), &table.at(neighbour));
    EXPECT_EQ(table.find(other_chunk), nullptr) << "chunk 2 is still absent";
    EXPECT_EQ(table.chunks(), 1u);
  }
}

// Every word of a line reaches one record, whichever word resolved it
// first; the next line has its own.
TEST(LineTable, EveryWordOfALineReachesOneRecord) {
  const BigSegment seg;
  for (const u32 line_bytes : {64u, 256u}) {
    sim::LineTable<Probe> table(&seg.gs, line_bytes);
    const u32 words = line_bytes / 8;
    const u64* line = seg.line(line_bytes, 9);
    EXPECT_EQ(table.find(line + words - 1), nullptr);
    const Probe* r = &table.at(line + words / 2);
    for (u32 w = 0; w < words; ++w) {
      EXPECT_EQ(table.find(line + w), r) << line_bytes << " word " << w;
      EXPECT_EQ(&table.at(line + w), r) << line_bytes << " word " << w;
    }
    EXPECT_NE(&table.at(line + words), r);
  }
}

// clear() frees the chunks and forgets every memoised record with them.
TEST(LineTable, ClearEmptiesTheMemo) {
  const BigSegment seg;
  sim::LineTable<Probe> table(&seg.gs, 256);
  const u64* line = seg.line(256, 12);
  table.at(line).value = 7;
  EXPECT_EQ(table.find(line)->value, 7u);
  table.clear();
  EXPECT_EQ(table.find(line), nullptr);
  EXPECT_EQ(table.chunks(), 0u);
  EXPECT_EQ(table.at(line).value, 0u) << "a fresh, zeroed record";
  EXPECT_EQ(table.chunks(), 1u);
}

TEST(HtmLineTable, ChunksAreLazyAndResetFreesThem) {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  constexpr std::size_t kWords = kBytes / 8;
  struct Free {
    void operator()(u64* p) const { std::free(p); }
  };
  // Only the words the test writes are ever faulted in.
  std::unique_ptr<u64, Free> big(
      static_cast<u64*>(std::aligned_alloc(256, kBytes)));
  ASSERT_NE(big, nullptr);
  u64* words = big.get();
  sim::GuestSpace gs;
  gs.add_segment("big", words, kBytes);
  const SystemProfile profile = SystemProfile::zec12();  // 256 B lines
  sim::Machine machine(profile.machine);
  HtmFacility htm(profile.htm, &machine, &gs);

  // Untransactional traffic over the whole segment only peeks.
  for (std::size_t i = 0; i < kWords; i += 4096) {
    htm.nontx_store(1, &words[i], i);
    EXPECT_EQ(htm.nontx_load(2, &words[i]), i);
  }
  EXPECT_EQ(htm.line_table_chunks(), 0u);

  // One transaction: 8 lines a megabyte apart (one chunk each), then 8
  // stores to consecutive lines inside the first one's chunk.
  constexpr std::size_t kStride = (std::size_t{1} << 20) / 8;
  ASSERT_EQ(htm.tx_begin(0), AbortReason::kNone);
  for (std::size_t n = 0; n < 8; ++n)
    (void)htm.tx_load(0, &words[n * kStride], /*shared=*/true);
  EXPECT_EQ(htm.line_table_chunks(), 8u);
  for (std::size_t n = 0; n < 8; ++n)
    htm.tx_store(0, &words[n * 32], n, /*shared=*/true);
  EXPECT_EQ(htm.line_table_chunks(), 8u) << "16 lines, at most 16 chunks";

  // Peeks still find the transaction's lines without allocating: a load of
  // an untouched line is free, a store to a read line dooms the reader.
  EXPECT_EQ(htm.nontx_load(1, &words[4096]), 4096u);
  htm.nontx_store(1, &words[3 * kStride], 7);
  EXPECT_EQ(htm.doom(0), AbortReason::kConflict);
  EXPECT_EQ(htm.line_table_chunks(), 8u);
  EXPECT_EQ(htm.tx_commit(0), AbortReason::kConflict);

  htm.reset();
  EXPECT_EQ(htm.line_table_chunks(), 0u);
  // The facility is usable again: no footprint survives into the new table.
  ASSERT_EQ(htm.tx_begin(0), AbortReason::kNone);
  EXPECT_EQ(htm.read_line_count(0), 0u);
  htm.tx_store(0, &words[0], 42, /*shared=*/true);
  EXPECT_EQ(htm.tx_commit(0), AbortReason::kNone);
  EXPECT_EQ(words[0], 42u);
  EXPECT_EQ(htm.line_table_chunks(), 1u);
}

// The Fig. 6a probe reads the footprint after the transaction has ended;
// it stays readable until the CPU's next successful tx_begin.
TEST(Htm, DoomedTransactionReportsFootprintUntilNextBegin) {
  Fixture f;  // zEC12: 256 B lines = 32 slots
  ASSERT_EQ(f.htm.tx_begin(0, -1, {f.slot(4 * 32), 32}), AbortReason::kNone);
  for (u32 line = 0; line < 3; ++line)
    (void)f.htm.tx_load(0, f.slot(line * 32), /*shared=*/true);
  f.htm.tx_store(0, f.slot(3 * 32), 1, /*shared=*/true);
  f.htm.tx_store(0, f.slot(4 * 32), 1, /*shared=*/false);
  f.htm.nontx_store(1, f.slot(0), 9);  // dooms CPU 0
  EXPECT_EQ(f.htm.doom(0), AbortReason::kConflict);
  EXPECT_EQ(f.htm.read_line_count(0), 3u);
  EXPECT_EQ(f.htm.write_line_count(0), 2u);
  EXPECT_EQ(f.htm.tx_commit(0), AbortReason::kConflict);
  EXPECT_FALSE(f.htm.in_tx(0));
  EXPECT_EQ(*f.slot(4 * 32), 0u) << "rollback drops private stores";
  EXPECT_EQ(f.htm.read_line_count(0), 3u);
  EXPECT_EQ(f.htm.write_line_count(0), 2u);
  ASSERT_EQ(f.htm.tx_begin(0), AbortReason::kNone);
  EXPECT_EQ(f.htm.read_line_count(0), 0u);
  EXPECT_EQ(f.htm.write_line_count(0), 0u);
  (void)f.htm.tx_commit(0);
}

// --- differential: facility vs. reference model -----------------------------

constexpr CpuId kDiffCpus = 4;

/// The conflict algorithm on ordered std containers: per-transaction line
/// sets, a line -> {readers, writers} map and a redo map, each kept apart
/// for shared and private (window) accesses; capacity counts both. It
/// works on its own copy of memory (word indices), keyed by the facility's
/// guest lines.
struct RefHtm {
  struct Tx {
    bool active = false;
    bool detached = false;
    AbortReason doom = AbortReason::kNone;
    std::set<LineId> reads, writes;
    std::set<LineId> private_reads, private_writes;
    std::map<std::size_t, u64> redo, private_redo;
    std::size_t read_lines() const {
      return reads.size() + private_reads.size();
    }
    std::size_t write_lines() const {
      return writes.size() + private_writes.size();
    }
  };
  std::vector<LineId> line;  ///< Word index -> guest line.
  std::vector<u64> mem;
  u32 max_read = 0, max_write = 0;
  std::map<LineId, std::array<u32, 2>> table;  ///< {readers, writers}
  std::array<Tx, kDiffCpus> tx;
  std::array<LineId, kDiffCpus> last;

  void detach(CpuId c) {
    if (tx[c].detached) return;
    for (const std::set<LineId>* lines : {&tx[c].reads, &tx[c].writes})
      for (LineId l : *lines)
        if (auto it = table.find(l); it != table.end()) {
          for (u32& m : it->second) m &= ~(1u << c);
          if (it->second == std::array<u32, 2>{}) table.erase(it);
        }
    tx[c].detached = true;
  }
  void doom_mask(u32 mask, LineId l) {
    for (CpuId v = 0; v < kDiffCpus; ++v) {
      if (!(mask >> v & 1) || !tx[v].active || tx[v].doom != AbortReason::kNone)
        continue;
      tx[v].doom = AbortReason::kConflict;
      last[v] = l;
      detach(v);
    }
  }
  void rollback(CpuId c) {
    detach(c);
    tx[c].active = false;
    tx[c].doom = AbortReason::kNone;
    tx[c].redo.clear();
    tx[c].private_redo.clear();
  }
  [[noreturn]] void abort(CpuId c, AbortReason r) {
    rollback(c);
    throw TxAbort{r};
  }
  void begin(CpuId c) {
    tx[c] = Tx{};
    tx[c].active = true;
    last[c] = kInvalidLine;
  }
  u64 load(CpuId c, std::size_t i, bool shared) {
    Tx& t = tx[c];
    if (t.doom != AbortReason::kNone) abort(c, t.doom);
    auto& redo = shared ? t.redo : t.private_redo;
    if (auto it = redo.find(i); it != redo.end()) return it->second;
    const LineId l = line[i];
    if ((shared ? t.reads : t.private_reads).insert(l).second) {
      if (t.read_lines() > max_read) abort(c, AbortReason::kOverflowRead);
      if (shared) {
        auto& e = table[l];
        e[0] |= 1u << c;
        if (const u32 v = e[1] & ~(1u << c)) doom_mask(v, l);
      }
    }
    return mem[i];
  }
  void store(CpuId c, std::size_t i, u64 value, bool shared) {
    Tx& t = tx[c];
    if (t.doom != AbortReason::kNone) abort(c, t.doom);
    const LineId l = line[i];
    if ((shared ? t.writes : t.private_writes).insert(l).second) {
      if (t.write_lines() > max_write) abort(c, AbortReason::kOverflowWrite);
      if (shared) {
        auto& e = table[l];
        const u32 v = (e[0] | e[1]) & ~(1u << c);
        e[1] |= 1u << c;
        if (v) doom_mask(v, l);
      }
    }
    (shared ? t.redo : t.private_redo)[i] = value;
  }
  u32 holders(CpuId c, std::size_t i, bool readers_too) const {
    const auto it = table.find(line[i]);
    if (it == table.end()) return 0;
    return ((readers_too ? it->second[0] : 0) | it->second[1]) & ~(1u << c);
  }
  u64 nontx_load(CpuId c, std::size_t i) {
    if (const u32 v = holders(c, i, false)) doom_mask(v, line[i]);
    return mem[i];
  }
  void nontx_store(CpuId c, std::size_t i, u64 value) {
    if (const u32 v = holders(c, i, true)) doom_mask(v, line[i]);
    mem[i] = value;
  }
  AbortReason commit(CpuId c) {
    if (const AbortReason r = tx[c].doom; r != AbortReason::kNone) {
      rollback(c);
      return r;
    }
    for (const auto& [i, v] : tx[c].redo) mem[i] = v;
    for (const auto& [i, v] : tx[c].private_redo) mem[i] = v;
    detach(c);
    tx[c].active = false;
    tx[c].redo.clear();
    tx[c].private_redo.clear();
    return AbortReason::kNone;
  }
  void doom_all(CpuId except) {
    for (CpuId c = 0; c < kDiffCpus; ++c)
      if (c != except && tx[c].active && tx[c].doom == AbortReason::kNone) {
        tx[c].doom = AbortReason::kConflict;
        detach(c);
      }
  }
};

/// What one operation did: its value, or the abort it threw.
struct Outcome {
  u64 value = 0;
  bool aborted = false;
  AbortReason reason = AbortReason::kNone;
  bool operator==(const Outcome& o) const {
    return value == o.value && aborted == o.aborted && reason == o.reason;
  }
};

template <typename F>
Outcome outcome_of(F&& op) {
  Outcome o;
  try {
    o.value = op();
  } catch (const TxAbort& a) {
    o.aborted = true;
    o.reason = a.reason;
  }
  return o;
}

/// Where the two shared segments lie in host memory.
enum class SharedLayout {
  kAdjacent,  ///< Back to back, ahead of the stacks.
  /// kMemoSlots lines apart, so line k of one and line k of the other share
  /// a slot of the line table's memo and keep evicting each other.
  kMemoAliased,
};

void run_differential(u64 seed, u32 line_bytes, SharedLayout layout) {
  // Two shared segments of 256 words; shared accesses hit the first four
  // lines of each so that CPUs collide often. A third segment holds one
  // four-line private window per CPU (its "stack"); private accesses stay
  // inside the accessing CPU's window.
  struct alignas(256) Slab {
    u64 words[256] = {};
  };
  constexpr std::size_t kWords = 256;
  constexpr std::size_t kShared = 2 * kWords;
  const std::size_t words_per_line = line_bytes / 8;
  const std::size_t window_words = 4 * words_per_line;
  auto slabs = std::make_unique<std::array<Slab, 4>>();
  const std::size_t alias_words = kMemoSlots * words_per_line;
  ZeroPages<u64> far;
  u64* seg_a = (*slabs)[0].words;
  u64* seg_b = (*slabs)[1].words;
  if (layout == SharedLayout::kMemoAliased) {
    far = ZeroPages<u64>(alias_words + kWords);
    seg_a = far.get();
    seg_b = far.get() + alias_words;
  }
  sim::GuestSpace gs;
  gs.add_segment("seg-a", seg_a, sizeof(Slab));
  gs.add_segment("seg-b", seg_b, sizeof(Slab));
  gs.add_segment("stacks", (*slabs)[2].words, 2 * sizeof(Slab));
  const std::size_t total = kShared + kDiffCpus * window_words;
  ASSERT_LE(total, 4 * kWords);
  const auto word = [&](std::size_t i) {
    if (i < kWords) return seg_a + i;
    if (i < kShared) return seg_b + (i - kWords);
    return &(*slabs)[i / kWords].words[i % kWords];  // a stack
  };
  const auto window = [&](CpuId c) {
    return PrivateWindow{word(kShared + c * window_words),
                         static_cast<u32>(window_words)};
  };

  Rng rng(seed);
  SystemProfile profile = SystemProfile::zec12();
  profile.machine.line_bytes = line_bytes;
  profile.htm.line_bytes = line_bytes;
  profile.htm.max_read_lines = 2 + static_cast<u32>(rng.next_below(6));
  profile.htm.max_write_lines = 1 + static_cast<u32>(rng.next_below(4));
  profile.htm.interrupt_mean_cycles = Cycles{1} << 40;  // clocks stay at 0
  sim::Machine machine(profile.machine);
  HtmFacility htm(profile.htm, &machine, &gs);

  RefHtm ref;
  ref.max_read = profile.htm.max_read_lines;
  ref.max_write = profile.htm.max_write_lines;
  ref.mem.assign(total, 0);
  ref.last.fill(kInvalidLine);
  for (std::size_t i = 0; i < total; ++i)
    ref.line.push_back(gs.line_of(word(i), line_bytes));

  for (u32 step = 0; step < 200; ++step) {
    const auto c = static_cast<CpuId>(rng.next_below(kDiffCpus));
    const std::size_t si = rng.next_below(2) * kWords +
                           rng.next_below(4) * words_per_line +
                           rng.next_below(words_per_line);
    const bool shared = rng.next_below(3) != 0;
    // Transactional accesses touch a shared word or a slot of the CPU's
    // own window; untransactional ones only shared words.
    const std::size_t i =
        shared ? si : kShared + c * window_words + rng.next_below(window_words);
    const u64 value = rng.next_below(1000) + 1;
    Outcome got, want;
    // Idle CPUs mostly begin; running ones mostly access. Capacities are
    // small enough that overflows are common too.
    const u64 op = rng.next_below(20) + (htm.in_tx(c) ? 20 : 0);
    if (op < 10) {
      got.value = static_cast<u64>(htm.tx_begin(c, -1, window(c)));
      ref.begin(c);
    } else if (op < 14) {
      got.value = htm.nontx_load(c, word(si));
      want.value = ref.nontx_load(c, si);
    } else if (op < 18) {
      htm.nontx_store(c, word(si), value);
      ref.nontx_store(c, si, value);
    } else if (op == 18 || op == 37) {
      htm.force_abort(c, AbortReason::kInterrupt);
      if (ref.tx[c].active) ref.rollback(c);
    } else if (op == 19 || op == 38) {
      const CpuId except =
          rng.next_below(2) == 0 ? kInvalidCpu : static_cast<CpuId>(c);
      htm.doom_all(except, AbortReason::kConflict);
      ref.doom_all(except);
    } else if (op < 27 || op == 39) {
      got = outcome_of([&] { return htm.tx_load(c, word(i), shared); });
      want = outcome_of([&] { return ref.load(c, i, shared); });
    } else if (op < 32) {
      got = outcome_of([&] {
        htm.tx_store(c, word(i), value, shared);
        return u64{0};
      });
      want = outcome_of([&] {
        ref.store(c, i, value, shared);
        return u64{0};
      });
    } else if (op == 32) {
      // Read own writes, of a private slot or a shared word.
      got = outcome_of([&] {
        htm.tx_store(c, word(i), value, shared);
        return htm.tx_load(c, word(i), shared);
      });
      want = outcome_of([&] {
        ref.store(c, i, value, shared);
        return ref.load(c, i, shared);
      });
    } else if (op < 36) {
      got.value = static_cast<u64>(htm.tx_commit(c));
      want.value = static_cast<u64>(ref.commit(c));
    } else {  // 36
      htm.tx_abort(c, AbortReason::kExplicit);
      ref.rollback(c);
    }
    const auto where = [&] {
      return ::testing::Message()
             << "seed " << seed << " line_bytes " << line_bytes << " layout "
             << static_cast<int>(layout) << " step " << step << " op " << op
             << " cpu " << c;
    };
    ASSERT_EQ(got, want) << where() << " value " << got.value << " vs "
                         << want.value << " reason "
                         << static_cast<int>(got.reason) << " vs "
                         << static_cast<int>(want.reason);
    for (CpuId k = 0; k < kDiffCpus; ++k) {
      ASSERT_EQ(htm.in_tx(k), ref.tx[k].active) << where() << " cpu " << k;
      ASSERT_EQ(htm.doom(k), ref.tx[k].doom) << where() << " cpu " << k;
      ASSERT_EQ(htm.last_conflict_line(k), ref.last[k])
          << where() << " cpu " << k;
      ASSERT_EQ(htm.read_line_count(k), ref.tx[k].read_lines())
          << where() << " cpu " << k;
      ASSERT_EQ(htm.write_line_count(k), ref.tx[k].write_lines())
          << where() << " cpu " << k;
    }
    // Shared words and every window: a private store reaches memory only
    // when its own transaction commits, never on a peer's doom.
    for (std::size_t k = 0; k < total; ++k)
      ASSERT_EQ(*word(k), ref.mem[k]) << where() << " word " << k;
  }
}

TEST(HtmDifferential, MatchesReferenceModelOverSeededOpSequences) {
  for (u32 line_bytes : {64u, 256u}) {
    for (u64 seed = 1; seed <= 200; ++seed) {
      run_differential(seed, line_bytes, SharedLayout::kAdjacent);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(HtmDifferential, MatchesReferenceModelWhenSharedLinesAliasInTheMemo) {
  for (u32 line_bytes : {64u, 256u}) {
    for (u64 seed = 1; seed <= 200; ++seed) {
      run_differential(seed, line_bytes, SharedLayout::kMemoAliased);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// A facility with the STM tier listening for its non-transactional
/// writes, and live hardware and software transactions on CPUs 1-8 holding
/// lines inside and outside slots [37, 137). CPU 0 is left to store.
struct StoreRunTwin {
  StoreRunTwin() : stm(stm_config(), &f.guest, &f.htm) {
    f.htm.set_write_listener(&stm);
    f.htm.set_collect_conflicts(true);
    // zEC12 lines hold 32 slots: the run covers the tail of line 1, lines
    // 2 and 3, and the head of line 4.
    for (const CpuId c : {1, 2, 3, 4, 8})
      EXPECT_EQ(f.htm.tx_begin(c), AbortReason::kNone);
    (void)f.htm.tx_load(1, f.slot(40), true);      // reader, line 1
    f.htm.tx_store(2, f.slot(70), 7, true);        // writer, line 2
    (void)f.htm.tx_load(3, f.slot(200), true);     // outside the run
    (void)f.htm.tx_load(4, f.slot(130), true);     // reader, line 4
    // Reader of lines 1 and 3: detached by line 1's conflict, so line 3
    // has no hardware holder left when the run reaches it.
    (void)f.htm.tx_load(8, f.slot(45), true);
    (void)f.htm.tx_load(8, f.slot(100), true);
    stm.begin(0);
    (void)stm.load(0, 5, f.slot(100), true);       // line 3
    stm.begin(1);
    stm.store(1, 6, f.slot(10), 9, true);          // outside the run
    stm.begin(2);
    stm.store(2, 7, f.slot(136), 9, true);         // the run's last slot
  }
  static stm::StmConfig stm_config() {
    stm::StmConfig c;
    c.enabled = true;
    c.line_bytes = 256;
    return c;
  }
  Fixture f;
  stm::StmEngine stm;
};

TEST(Htm, NonTxStoreRunMatchesPerSlotStores) {
  std::vector<u64> values(100);
  for (u32 i = 0; i < values.size(); ++i) values[i] = 1000 + i;
  StoreRunTwin run;
  StoreRunTwin each;
  run.f.htm.nontx_store_run(0, run.f.slot(37), values.data(), 100);
  for (u32 i = 0; i < values.size(); ++i)
    each.f.htm.nontx_store(0, each.f.slot(37 + i), values[i]);

  for (CpuId c = 0; c <= 8; ++c) {
    EXPECT_EQ(run.f.htm.doom(c), each.f.htm.doom(c)) << "cpu " << c;
    EXPECT_EQ(run.f.htm.last_conflict_line(c),
              each.f.htm.last_conflict_line(c))
        << "cpu " << c;
  }
  EXPECT_EQ(run.f.htm.conflict_lines(), each.f.htm.conflict_lines());
  for (u32 tid = 0; tid <= 2; ++tid)
    EXPECT_EQ(run.stm.doomed(tid), each.stm.doomed(tid)) << "tid " << tid;
  EXPECT_EQ(std::memcmp(run.f.mem->slots, each.f.mem->slots,
                        sizeof run.f.mem->slots),
            0);

  // And the scenario exercises what it claims: holders in the run's lines
  // are doomed through both the facility and the listener, others live.
  EXPECT_EQ(run.f.htm.doom(1), AbortReason::kConflict);
  EXPECT_EQ(run.f.htm.doom(2), AbortReason::kConflict);
  EXPECT_EQ(run.f.htm.doom(3), AbortReason::kNone);
  EXPECT_EQ(run.f.htm.doom(4), AbortReason::kConflict);
  EXPECT_EQ(run.f.htm.doom(8), AbortReason::kConflict);
  EXPECT_EQ(run.f.htm.conflict_lines().size(), 3u);
  EXPECT_TRUE(run.stm.doomed(0));
  EXPECT_FALSE(run.stm.doomed(1));
  EXPECT_TRUE(run.stm.doomed(2));
  EXPECT_EQ(*run.f.slot(36), 0u);
  EXPECT_EQ(*run.f.slot(37), 1000u);
  EXPECT_EQ(*run.f.slot(136), 1099u);
  EXPECT_EQ(*run.f.slot(137), 0u);
  EXPECT_EQ(run.f.htm.tx_commit(3), AbortReason::kNone);
}

}  // namespace
}  // namespace gilfree::htm
