// Tests of seed-reachability analysis ("convergence coverage", §1/§4).

#include "src/graph/reachability.h"

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

TEST(ReachabilityTest, Figure1FullyReachableFromA2) {
  Table table = MakeFigure1Table();
  InvertedIndex index(table);
  ValueId a2 = GetValueId(table, "A", "a2");
  ReachabilityReport report =
      ComputeReachability(table, index, std::vector<ValueId>{a2});
  EXPECT_EQ(report.reachable_records, table.num_records());
  EXPECT_DOUBLE_EQ(report.record_fraction, 1.0);
  EXPECT_EQ(report.reachable_values, table.num_distinct_values());
  // Example 2.1 needs three query waves from a2: a2 -> {...c2}, c2 ->
  // (a3,b4) / c1 -> (a1,b1).
  EXPECT_GE(report.max_depth, 2u);
  EXPECT_LE(report.max_depth, 3u);
}

TEST(ReachabilityTest, DataIslandStaysUnreachable) {
  Table table = MakeTable({
      {{"X", "x1"}, {"Y", "y1"}},
      {{"X", "x1"}, {"Y", "y2"}},
      {{"X", "x2"}, {"Y", "y3"}},
  });
  InvertedIndex index(table);
  ValueId x1 = GetValueId(table, "X", "x1");
  ReachabilityReport report =
      ComputeReachability(table, index, std::vector<ValueId>{x1});
  EXPECT_EQ(report.reachable_records, 2u);
  EXPECT_TRUE(report.reachable_record[0]);
  EXPECT_TRUE(report.reachable_record[1]);
  EXPECT_FALSE(report.reachable_record[2]);
}

TEST(ReachabilityTest, MultipleSeedsUnionTheirComponents) {
  Table table = MakeTable({
      {{"X", "x1"}, {"Y", "y1"}},
      {{"X", "x2"}, {"Y", "y2"}},
  });
  InvertedIndex index(table);
  std::vector<ValueId> seeds = {GetValueId(table, "X", "x1"),
                                GetValueId(table, "X", "x2")};
  ReachabilityReport report = ComputeReachability(table, index, seeds);
  EXPECT_EQ(report.reachable_records, 2u);
}

TEST(ReachabilityTest, UnknownSeedIsIgnored) {
  Table table = MakeFigure1Table();
  InvertedIndex index(table);
  ReachabilityReport report =
      ComputeReachability(table, index, std::vector<ValueId>{99999});
  EXPECT_EQ(report.reachable_records, 0u);
  EXPECT_EQ(report.reachable_values, 0u);
}

TEST(ReachabilityTest, ResultLimitCutsReachability) {
  // Hub h matches 5 records; only record 4 carries the bridge value to
  // a second cluster. With limit 3 the bridge record is never returned
  // (§5.4: limits reduce effective connectivity).
  Table table = MakeTable({
      {{"H", "h"}, {"Id", "r0"}},
      {{"H", "h"}, {"Id", "r1"}},
      {{"H", "h"}, {"Id", "r2"}},
      {{"H", "h"}, {"Id", "r3"}},
      {{"H", "h"}, {"Bridge", "b"}},
      {{"Bridge", "b"}, {"Id", "far"}},
  });
  InvertedIndex index(table);
  ValueId h = GetValueId(table, "H", "h");

  ReachabilityReport unlimited =
      ComputeReachability(table, index, std::vector<ValueId>{h});
  EXPECT_EQ(unlimited.reachable_records, 6u);

  ReachabilityReport limited = ComputeReachabilityWithLimit(
      table, index, std::vector<ValueId>{h}, /*result_limit=*/3);
  EXPECT_EQ(limited.reachable_records, 3u);
}

TEST(ReachabilityTest, CrawlNeverExceedsConvergenceCoverage) {
  // Property: any crawl's harvest is bounded by the reachability fixed
  // point of its seed, and an exhaustive crawl attains it.
  Table table = MakeTable({
      {{"A", "p"}, {"B", "q"}},
      {{"A", "p"}, {"B", "r"}},
      {{"A", "s"}, {"B", "r"}},
      {{"A", "t"}, {"B", "u"}},  // island
  });
  InvertedIndex index(table);
  for (ValueId seed = 0; seed < table.num_distinct_values(); ++seed) {
    ReachabilityReport bound =
        ComputeReachability(table, index, std::vector<ValueId>{seed});
    WebDbServer server(table, ServerOptions{});
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    crawler.AddSeed(seed);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, bound.reachable_records) << "seed " << seed;
  }
}

}  // namespace
}  // namespace deepcrawl
