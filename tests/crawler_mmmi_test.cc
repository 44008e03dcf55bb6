// Tests of the Min-Max Mutual Information selector (§3.3).

#include "src/crawler/mmmi_selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/crawler/crawl_engine.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

TEST(MmmiSelectorTest, BehavesLikeGreedyBeforeSaturation) {
  LocalStore store;
  MmmiSelector selector(store);
  EXPECT_FALSE(selector.saturated());
  selector.OnValueDiscovered(1);
  selector.OnValueDiscovered(2);
  store.AddRecord(0, std::vector<ValueId>{2, 3, 4});
  selector.OnRecordHarvested(0);
  EXPECT_EQ(selector.SelectNext(), 2u);  // highest degree, greedy phase
}

TEST(MmmiSelectorTest, DependencyScoreIsMaxPmiWithIssuedQueries) {
  LocalStore store;
  MmmiSelector selector(store);
  // DBlocal: 4 records. Value 10 always co-occurs with issued query 1;
  // value 20 never does.
  store.AddRecord(0, std::vector<ValueId>{1, 10});
  store.AddRecord(1, std::vector<ValueId>{1, 10});
  store.AddRecord(2, std::vector<ValueId>{2, 20});
  store.AddRecord(3, std::vector<ValueId>{2, 30});

  QueryOutcome q1;
  q1.value = 1;
  selector.OnQueryCompleted(q1);

  // s(10) = ln( P(10,1) / (P(10) P(1)) ) = ln( (2/4) / ((2/4)(2/4)) )
  //       = ln 2.
  EXPECT_NEAR(selector.DependencyScore(10), std::log(2.0), 1e-12);
  // Value 20 shares no record with any issued query.
  EXPECT_EQ(selector.DependencyScore(20),
            -std::numeric_limits<double>::infinity());
}

TEST(MmmiSelectorTest, DependencyScoreTakesMaxOverQueries) {
  LocalStore store;
  MmmiSelector selector(store);
  store.AddRecord(0, std::vector<ValueId>{1, 10});
  store.AddRecord(1, std::vector<ValueId>{2, 10});
  store.AddRecord(2, std::vector<ValueId>{2, 10});
  store.AddRecord(3, std::vector<ValueId>{3, 4});

  QueryOutcome q;
  q.value = 1;
  selector.OnQueryCompleted(q);
  q.value = 2;
  selector.OnQueryCompleted(q);

  // PMI with 2 (co=2, freq2=2, freq10=3): ln(2*4/(3*2)) = ln(4/3).
  // PMI with 1 (co=1, freq1=1, freq10=3): ln(1*4/(3*1)) = ln(4/3).
  // Equal here; make query 2 stronger by construction of a tighter pair:
  EXPECT_NEAR(selector.DependencyScore(10), std::log(4.0 / 3.0), 1e-12);
}

TEST(MmmiSelectorTest, AfterSaturationPrefersUncorrelatedCandidates) {
  LocalStore store;
  MmmiSelector selector(store);
  // Frontier: 10 (correlated with issued 1), 20 (uncorrelated).
  selector.OnValueDiscovered(10);
  selector.OnValueDiscovered(20);
  store.AddRecord(0, std::vector<ValueId>{1, 10});
  selector.OnRecordHarvested(0);
  store.AddRecord(1, std::vector<ValueId>{1, 10, 11});
  selector.OnRecordHarvested(1);
  store.AddRecord(2, std::vector<ValueId>{2, 20});
  selector.OnRecordHarvested(2);

  QueryOutcome q1;
  q1.value = 1;
  selector.OnQueryCompleted(q1);

  // Greedy would pick 10 (degree 3 > degree 1); MMMI picks 20.
  selector.OnSaturation();
  EXPECT_TRUE(selector.saturated());
  EXPECT_EQ(selector.SelectNext(), 20u);
  EXPECT_EQ(selector.SelectNext(), 10u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(MmmiSelectorTest, BatchIsRecomputedWhenExhausted) {
  MmmiOptions options;
  options.batch_size = 1;  // force re-ranking on every selection
  LocalStore store;
  MmmiSelector selector(store, options);
  selector.OnValueDiscovered(10);
  selector.OnValueDiscovered(20);
  selector.OnValueDiscovered(30);
  store.AddRecord(0, std::vector<ValueId>{10, 20, 30});
  selector.OnRecordHarvested(0);
  selector.OnSaturation();
  std::set<ValueId> drained;
  for (int i = 0; i < 3; ++i) drained.insert(selector.SelectNext());
  EXPECT_EQ(drained, (std::set<ValueId>{10, 20, 30}));
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(MmmiSelectorTest, ValuesDiscoveredAfterSaturationAreStillServed) {
  LocalStore store;
  MmmiSelector selector(store);
  selector.OnSaturation();
  selector.OnValueDiscovered(5);
  store.AddRecord(0, std::vector<ValueId>{5, 6});
  selector.OnRecordHarvested(0);
  EXPECT_EQ(selector.SelectNext(), 5u);
}

TEST(MmmiSelectorTest, FullCrawlWithSaturationSwitchCompletes) {
  // End-to-end: a correlated database crawled through the switch-over.
  std::vector<testing_util::Row> rows;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 6; ++i) {
      rows.push_back({
          // A shared marketplace value keeps the AVG connected across
          // the otherwise-disjoint communities.
          {"Shop", "main"},
          {"Community", "c" + std::to_string(c)},
          {"Member", "m" + std::to_string(c) + "_" + std::to_string(i % 3)},
          {"Item", "i" + std::to_string(c) + "_" + std::to_string(i)},
      });
    }
  }
  Table table = MakeTable(rows);
  ServerOptions server_options;
  server_options.page_size = 3;
  WebDbServer server(table, server_options);
  LocalStore store;
  MmmiSelector selector(store);
  CrawlOptions crawl_options;
  crawl_options.saturation_records = table.num_records() / 2;
  CrawlEngine crawler(server, selector, store, crawl_options);
  crawler.AddSeed(GetValueId(table, "Community", "c0"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(selector.saturated());
  EXPECT_EQ(result->records, table.num_records());
}

}  // namespace
}  // namespace deepcrawl
