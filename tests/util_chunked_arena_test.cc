// Regression and property tests for ChunkedArena's garbage accounting
// (src/util/chunked_arena.h).
//
// The bug under test: Relocate() used to add the moved row's chunk to
// garbage_ BEFORE deciding whether to compact. When the relocation
// itself triggered Compact(), the compaction zeroed garbage_ — and the
// compacted copy of the row, abandoned by the move immediately after,
// was never counted. Every compaction-triggering relocation thereafter
// undercounted garbage by the moved row's size, so later compactions
// fired late and the arena footprint drifted past its documented bound.
//
// The oracle here is externally observable: across a single Append,
// garbage can only (a) stay put, (b) grow by the abandoned chunk, or
// (c) — when compaction fired, observable as a garbage decrease — land
// at EXACTLY the moved row's pre-append size, because compaction zeroes
// the arena's garbage and the move then abandons the row's dense
// compacted copy. The pre-fix code reports 0 in case (c).

#include "src/util/chunked_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace deepcrawl {
namespace {

TEST(ChunkedArenaAccountingTest, CompactionCountsAbandonedCompactedChunk) {
  // A few near-equal large rows, each pushed just past its next
  // relocation in turn: their own abandoned chunks build the garbage
  // that eventually makes a relocation compact, and the moved row is
  // large — so the pre-fix undercount is large and unmissable.
  ChunkedArena<uint32_t> arena;
  const int kRows = 4;
  arena.EnsureRows(kRows);
  int compactions = 0;
  for (int cycle = 0; cycle < 14; ++cycle) {
    for (int row = 0; row < kRows; ++row) {
      size_t n = arena.Row(row).size() == 0 ? 5 : arena.Row(row).size() + 1;
      for (size_t i = 0; i < n; ++i) {
        size_t garbage_before = arena.arena_garbage();
        size_t row_before = arena.Row(row).size();
        arena.Append(row, static_cast<uint32_t>(row));
        size_t garbage_after = arena.arena_garbage();
        if (garbage_after < garbage_before) {
          ++compactions;
          EXPECT_EQ(garbage_after, row_before)
              << "compaction inside Relocate must leave exactly the "
                 "moved row's abandoned compacted copy as garbage";
        }
      }
    }
  }
  // The pattern must actually exercise the compact-inside-relocate
  // path, or the oracle above never fired.
  EXPECT_GE(compactions, 3);
  // Content survives all the churn.
  for (int row = 0; row < kRows; ++row) {
    for (uint32_t v : arena.Row(row)) {
      ASSERT_EQ(v, static_cast<uint32_t>(row));
    }
  }
}

TEST(ChunkedArenaAccountingTest, RandomWorkloadKeepsFootprintBounded) {
  // Property test: under a random skewed workload the accounting
  // invariant capacity <= 2*live + garbage + 4*rows must hold after
  // every append (each row wastes at most its own size in unused tail
  // capacity, plus 4 slack for tiny rows), and the epoch compaction
  // driven by an honest garbage counter keeps the total footprint
  // within a small multiple of the live data.
  Pcg32 rng(1234);
  ChunkedArena<uint32_t> arena;
  const size_t kRows = 48;
  arena.EnsureRows(kRows);
  for (int i = 0; i < 200000; ++i) {
    // Square the draw to skew appends toward low rows: a few heavy
    // rows plus many light ones, the LocalStore postings shape.
    size_t row = rng.NextBounded(kRows);
    row = row * row / kRows;
    arena.Append(row, static_cast<uint32_t>(i));
    size_t cap = arena.arena_capacity();
    ASSERT_LE(cap, 2 * arena.size() + arena.arena_garbage() + 4 * kRows)
        << "garbage undercount at append " << i;
  }
  EXPECT_EQ(arena.size(), 200000u);
  EXPECT_LT(arena.arena_capacity(), 4u * arena.size());
}

}  // namespace
}  // namespace deepcrawl
