// Unit + randomized differential coverage for the flat hash containers
// and the chunked arena backing the CSR hot paths (src/util/flat_hash.h,
// src/util/chunked_arena.h). The random sections drive each container
// against its STL reference under a fixed seed so any divergence is a
// deterministic repro.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/util/chunked_arena.h"
#include "src/util/flat_hash.h"

namespace deepcrawl {
namespace {

TEST(FlatSet64Test, InsertReportsNewness) {
  FlatSet64 set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(42));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(1));
}

TEST(FlatSet64Test, GrowsPastInitialCapacityWithoutLoss) {
  FlatSet64 set;
  // Far past the initial 64 slots; forces several rehashes.
  for (uint64_t k = 1; k <= 10000; ++k) {
    EXPECT_TRUE(set.Insert(k * 2654435761u));
  }
  EXPECT_EQ(set.size(), 10000u);
  for (uint64_t k = 1; k <= 10000; ++k) {
    EXPECT_TRUE(set.Contains(k * 2654435761u));
    EXPECT_FALSE(set.Insert(k * 2654435761u));
  }
}

TEST(FlatSet64Test, MatchesUnorderedSetUnderRandomOps) {
  FlatSet64 set;
  std::unordered_set<uint64_t> reference;
  std::mt19937_64 rng(1234);
  // Small key space so inserts collide with earlier ones often.
  std::uniform_int_distribution<uint64_t> keys(1, 5000);
  for (int i = 0; i < 50000; ++i) {
    uint64_t key = keys(rng);
    EXPECT_EQ(set.Insert(key), reference.insert(key).second);
    EXPECT_EQ(set.size(), reference.size());
  }
  for (uint64_t key = 1; key <= 5000; ++key) {
    EXPECT_EQ(set.Contains(key), reference.count(key) > 0) << key;
  }
}

TEST(FlatMap64Test, SlotInsertsZeroInitialized) {
  FlatMap64 map;
  bool inserted = false;
  uint32_t& slot = map.Slot(99, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(slot, 0u);
  slot = 17;
  inserted = true;
  EXPECT_EQ(map.Slot(99, &inserted), 17u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.Find(99), 17u);
  EXPECT_EQ(map.Find(100), 0u);  // absent reads as zero
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, MatchesUnorderedMapUnderRandomBumps) {
  FlatMap64 map;
  std::unordered_map<uint64_t, uint32_t> reference;
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<uint64_t> keys(1, 3000);
  for (int i = 0; i < 60000; ++i) {
    uint64_t key = keys(rng);
    ++map.Slot(key);  // the co-occurrence counter idiom
    ++reference[key];
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    EXPECT_EQ(map.Find(key), count) << key;
  }
}

TEST(ChunkedArenaTest, AppendAndReadBackSingleRow) {
  ChunkedArena<uint32_t> arena;
  arena.EnsureRows(1);
  EXPECT_EQ(arena.num_rows(), 1u);
  EXPECT_EQ(arena.Row(0).size(), 0u);
  EXPECT_TRUE(arena.Row(0).empty());
  for (uint32_t i = 0; i < 100; ++i) arena.Append(0, i * 3);
  ASSERT_EQ(arena.Row(0).size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(arena.Row(0)[i], i * 3);
  EXPECT_EQ(arena.size(), 100u);
}

TEST(ChunkedArenaTest, InterleavedRowsPreserveOrderThroughRelocation) {
  // Round-robin appends force every row to relocate repeatedly as its
  // neighbors grow into the shared arena; the per-row order must be
  // exactly append order regardless.
  ChunkedArena<uint64_t> arena;
  constexpr uint32_t kRows = 7;
  constexpr uint32_t kPerRow = 500;
  arena.EnsureRows(kRows);
  for (uint32_t i = 0; i < kPerRow; ++i) {
    for (uint32_t row = 0; row < kRows; ++row) {
      arena.Append(row, static_cast<uint64_t>(row) * 1000000 + i);
    }
  }
  EXPECT_EQ(arena.size(), uint64_t{kRows} * kPerRow);
  for (uint32_t row = 0; row < kRows; ++row) {
    ASSERT_EQ(arena.Row(row).size(), kPerRow);
    auto span = arena.Row(row);
    for (uint32_t i = 0; i < kPerRow; ++i) {
      ASSERT_EQ(span[i], static_cast<uint64_t>(row) * 1000000 + i);
    }
  }
}

TEST(ChunkedArenaTest, CompactionBoundsGarbage) {
  // Skewed random growth creates lots of abandoned (relocated-away)
  // capacity; epoch compaction must keep total arena storage within a
  // constant factor of live data instead of growing without bound.
  ChunkedArena<uint32_t> arena;
  constexpr uint32_t kRows = 64;
  arena.EnsureRows(kRows);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint32_t> pick(0, kRows - 1);
  std::vector<std::vector<uint32_t>> reference(kRows);
  for (uint32_t i = 0; i < 200000; ++i) {
    uint32_t row = pick(rng);
    arena.Append(row, i);
    reference[row].push_back(i);
  }
  EXPECT_EQ(arena.size(), 200000u);
  // Live 200k entries; doubling rows waste < 2x and compaction caps the
  // relocation garbage, so a 4x overall bound has ample slack while
  // still failing if Compact() never fires.
  EXPECT_LT(arena.arena_capacity(), 4u * 200000u);
  for (uint32_t row = 0; row < kRows; ++row) {
    auto span = arena.Row(row);
    ASSERT_EQ(span.size(), reference[row].size());
    for (size_t i = 0; i < span.size(); ++i) {
      ASSERT_EQ(span[i], reference[row][i]) << "row " << row;
    }
  }
}

TEST(ChunkedArenaTest, EnsureRowsGrowsIncrementally) {
  ChunkedArena<uint32_t> arena;
  arena.EnsureRows(2);
  arena.Append(0, 10);
  arena.Append(1, 11);
  arena.EnsureRows(5);  // existing rows survive the grow
  EXPECT_EQ(arena.num_rows(), 5u);
  arena.EnsureRows(3);  // never shrinks
  EXPECT_EQ(arena.num_rows(), 5u);
  EXPECT_EQ(arena.Row(0)[0], 10u);
  EXPECT_EQ(arena.Row(1)[0], 11u);
  EXPECT_EQ(arena.Row(4).size(), 0u);
}

}  // namespace
}  // namespace deepcrawl
