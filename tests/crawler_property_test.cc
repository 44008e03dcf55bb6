// Cross-policy crawl property sweeps: determinism, budget extension,
// keyword/limit interplay, and conservation invariants.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/oracle_selector.h"
#include "src/datagen/workload_config.h"
#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

Table MakeDb(uint64_t seed) {
  SyntheticDbConfig config;
  config.name = "crawl-prop";
  config.num_records = 250;
  config.seed = seed;
  config.attributes = {
      {.name = "A", .num_distinct = 25, .zipf_exponent = 1.0},
      {.name = "B",
       .num_distinct = 120,
       .zipf_exponent = 0.6,
       .min_per_record = 1,
       .max_per_record = 2},
  };
  StatusOr<Table> table = GenerateTable(config);
  DEEPCRAWL_CHECK(table.ok());
  return std::move(*table);
}

std::unique_ptr<QuerySelector> MakeSelector(int policy,
                                            const LocalStore& store,
                                            const WebDbServer& server) {
  switch (policy) {
    case 0:
      return std::make_unique<BfsSelector>();
    case 1:
      return std::make_unique<DfsSelector>();
    case 2:
      return std::make_unique<RandomSelector>(11);
    case 3:
      return std::make_unique<GreedyLinkSelector>(store);
    case 4:
      return std::make_unique<MmmiSelector>(store);
    default:
      return std::make_unique<OracleSelector>(store, server.index(),
                                              server.options().page_size);
  }
}

class CrawlDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(CrawlDeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  int policy = GetParam();
  Table db = MakeDb(4);
  auto run_once = [&] {
    WebDbServer server(db, ServerOptions{});
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector(policy, store, server);
    CrawlOptions options;
    options.saturation_records = 200;
    CrawlEngine crawler(server, *selector, store, options);
    crawler.AddSeed(2);
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok());
    return std::move(*result);
  };
  CrawlResult a = run_once();
  CrawlResult b = run_once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.records, b.records);
  ASSERT_EQ(a.trace.points().size(), b.trace.points().size());
  for (size_t i = 0; i < a.trace.points().size(); ++i) {
    EXPECT_EQ(a.trace.points()[i].rounds, b.trace.points()[i].rounds);
    EXPECT_EQ(a.trace.points()[i].records, b.trace.points()[i].records);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CrawlDeterminismTest,
                         ::testing::Range(0, 6));

TEST(CrawlBudgetExtensionTest, SlicedCrawlMatchesOneShot) {
  Table db = MakeDb(9);
  // One-shot crawl to exhaustion.
  uint64_t oneshot_rounds, oneshot_records;
  {
    WebDbServer server(db, ServerOptions{});
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    crawler.AddSeed(0);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    oneshot_rounds = result->rounds;
    oneshot_records = result->records;
  }
  // Same crawl in budget slices of 10 rounds via set_max_rounds.
  {
    WebDbServer server(db, ServerOptions{});
    LocalStore store;
    BfsSelector selector;
    CrawlOptions options;
    options.max_rounds = 10;
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(0);
    CrawlResult last;
    for (int i = 0; i < 10000; ++i) {
      StatusOr<CrawlResult> result = crawler.Run();
      ASSERT_TRUE(result.ok());
      last = std::move(*result);
      if (last.stop_reason == StopReason::kFrontierExhausted) break;
      crawler.set_max_rounds(last.rounds + 10);
    }
    EXPECT_EQ(last.stop_reason, StopReason::kFrontierExhausted);
    // Slice boundaries park the in-flight drain and resume it exactly
    // where it stopped (see Run()'s contract), so slicing changes
    // nothing: same records, same rounds.
    EXPECT_EQ(last.records, oneshot_records);
    EXPECT_EQ(last.rounds, oneshot_rounds);
  }
}

class CrawlModeMatrixTest
    : public ::testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(CrawlModeMatrixTest, InvariantsHoldUnderKeywordAndLimits) {
  auto [keyword, limit] = GetParam();
  Table db = MakeDb(6);
  ServerOptions server_options;
  server_options.page_size = 7;
  server_options.result_limit = limit;
  WebDbServer server(db, server_options);
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlOptions options;
  options.use_keyword_interface = keyword;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(1);
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->stop_reason, StopReason::kFrontierExhausted);
  EXPECT_EQ(result->records, store.num_records());
  EXPECT_GE(result->rounds, result->queries);
  EXPECT_LE(result->records, db.num_records());
  // Observation accounting: total observations >= stored records, and
  // the abundance histogram sums back to the record count.
  EXPECT_GE(store.num_observations(), store.num_records());
  size_t histogram_total = 0;
  for (uint32_t k = 1; k <= 64; ++k) {
    histogram_total += store.RecordsObservedTimes(k);
  }
  EXPECT_LE(histogram_total, store.num_records());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrawlModeMatrixTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0u, 10u, 3u)));

TEST(CrawlConservationTest, LimitNeverIncreasesCoverage) {
  // Coverage under a tighter limit is never larger than under a looser
  // one at full exhaustion (reachability shrinks monotonically).
  Table db = MakeDb(13);
  uint64_t previous = std::numeric_limits<uint64_t>::max();
  for (uint32_t limit : {0u, 50u, 10u, 3u, 1u}) {
    ServerOptions server_options;
    server_options.result_limit = limit;
    WebDbServer server(db, server_options);
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    crawler.AddSeed(1);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    uint64_t records = result->records;
    if (limit != 0) {
      EXPECT_LE(records, previous) << "limit " << limit;
    }
    previous = records;
  }
}

}  // namespace
}  // namespace deepcrawl
