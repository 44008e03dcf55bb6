// Tests of the benchmark's own pieces: the decorators only forward, and
// the span arithmetic splits a crawl's time exactly.

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawlbench/src/crawl.h"
#include "crawlbench/src/layers.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/canned_workloads.h"
#include "src/server/web_db_server.h"

namespace crawlbench {
namespace {

namespace fs = std::filesystem;
using namespace deepcrawl;

// Everything a crawl emits: trace, harvest order, and the full engine
// checkpoint image (which also goes through the selector's SaveState).
struct Output {
  std::string trace_csv;
  std::vector<RecordId> harvest;
  std::string checkpoint;
  uint64_t rounds = 0;
};

Output RunSmallEbay(bool decorated, bool mmmi, uint32_t batch) {
  StatusOr<Table> table = GenerateTable(EbayConfig(0.02, 7));
  EXPECT_TRUE(table.ok());
  WebDbServer backend(*table, ServerOptions{});
  TimedQueryInterface timed_backend(backend);
  QueryInterface& server =
      decorated ? static_cast<QueryInterface&>(timed_backend) : backend;
  LocalStore store;
  std::unique_ptr<QuerySelector> selector;
  if (mmmi) {
    selector = std::make_unique<MmmiSelector>(store);
  } else {
    selector = std::make_unique<GreedyLinkSelector>(store);
  }
  WaveRecorder recorder;
  TimedSelector timed_selector(*selector, recorder);
  InlineFetchExecutor inline_executor;
  TimedFetchExecutor timed_executor(inline_executor, timed_backend, recorder);
  int checkpoints = 0;
  CheckpointSink sink = [&](const CrawlEngine&) {
    ++checkpoints;
    return Status::OK();
  };
  EngineOptions engine_options;
  engine_options.batch = batch;
  engine_options.checkpoint_every_waves = 5;
  engine_options.checkpoint_sink =
      decorated ? TimedCheckpointSink(sink, recorder) : sink;
  if (decorated) engine_options.shared_executor = &timed_executor;
  deepcrawl::CrawlOptions crawl_options;
  crawl_options.saturation_records = table->num_records() / 2;
  CrawlEngine engine(server,
                     decorated ? static_cast<QuerySelector&>(timed_selector)
                               : *selector,
                     store, crawl_options, engine_options);
  engine.AddSeed(table->record(0)[0]);
  uint64_t start = NowNs();
  if (decorated) recorder.BeginCrawl(start);
  StatusOr<CrawlResult> result = engine.Run();
  if (decorated) recorder.EndCrawl(NowNs());
  EXPECT_TRUE(result.ok());

  Output out;
  std::ostringstream csv;
  EXPECT_TRUE(WriteTraceCsv(result->trace, csv).ok());
  out.trace_csv = csv.str();
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest.push_back(store.OriginalRecordId(slot));
  }
  StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, nullptr);
  EXPECT_TRUE(image.ok());
  out.checkpoint = *image;
  out.rounds = result->rounds;
  EXPECT_GT(checkpoints, 0);
  if (decorated) {
    EXPECT_EQ(recorder.waves().size(), engine.waves_completed());
    EXPECT_EQ(timed_backend.calls(), result->rounds);
    uint64_t rank_calls = 0;
    for (const WaveSpan& w : recorder.waves()) rank_calls += w.rank_calls;
    EXPECT_GT(rank_calls, 0u);
  }
  return out;
}

void ExpectSameOutput(const Output& a, const Output& b) {
  EXPECT_GT(a.rounds, 0u);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.trace_csv, b.trace_csv);
  EXPECT_EQ(a.harvest, b.harvest);
  EXPECT_EQ(a.checkpoint, b.checkpoint);
}

TEST(DecoratorTest, DecoratedGreedyCrawlIsByteIdentical) {
  ExpectSameOutput(RunSmallEbay(false, false, 8), RunSmallEbay(true, false, 8));
}

TEST(DecoratorTest, DecoratedMmmiCrawlIsByteIdentical) {
  ExpectSameOutput(RunSmallEbay(false, true, 1), RunSmallEbay(true, true, 1));
}

TEST(DecoratorTest, QueryInterfaceForwardsEveryCall) {
  StatusOr<Table> table = GenerateTable(EbayConfig(0.01, 3));
  ASSERT_TRUE(table.ok());
  WebDbServer direct(*table, ServerOptions{});
  WebDbServer wrapped_backend(*table, ServerOptions{});
  TimedQueryInterface wrapped(wrapped_backend);

  auto same = [](const StatusOr<ResultPage>& a,
                 const StatusOr<ResultPage>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().ToString(), b.status().ToString());
      return;
    }
    ASSERT_EQ(a->records.size(), b->records.size());
    for (size_t i = 0; i < a->records.size(); ++i) {
      EXPECT_EQ(a->records[i].id, b->records[i].id);
    }
    EXPECT_EQ(a->total_matches, b->total_matches);
    EXPECT_EQ(a->has_more, b->has_more);
    EXPECT_EQ(a->page_number, b->page_number);
  };
  const ValueId v = table->record(0)[0];
  const ValueId w = table->record(0)[1];
  const AttributeId attr = table->catalog().attribute_of(v);
  const std::string text(table->catalog().text_of(v));
  const ValueId pair[] = {v, w};
  same(direct.FetchPage(v, 0), wrapped.FetchPage(v, 0));
  same(direct.FetchPage(v, 1000), wrapped.FetchPage(v, 1000));
  same(direct.FetchPageByText(attr, text, 0),
       wrapped.FetchPageByText(attr, text, 0));
  same(direct.FetchPageByKeyword(text, 0),
       wrapped.FetchPageByKeyword(text, 0));
  same(direct.FetchPageConjunctive(pair, 0),
       wrapped.FetchPageConjunctive(pair, 0));
  same(direct.FetchPageKeywordOf(v, 0), wrapped.FetchPageKeywordOf(v, 0));
  EXPECT_EQ(wrapped.calls(), 6u);
  EXPECT_EQ(direct.communication_rounds(), wrapped.communication_rounds());
  EXPECT_EQ(direct.queries_issued(), wrapped.queries_issued());
  EXPECT_EQ(direct.rtt_counters(), wrapped.rtt_counters());
  EXPECT_EQ(direct.options().page_size, wrapped.options().page_size);
  EXPECT_EQ(direct.IsQueriableValue(v), wrapped.IsQueriableValue(v));
  EXPECT_EQ(direct.IsQueriableValue(kInvalidValueId),
            wrapped.IsQueriableValue(kInvalidValueId));
  wrapped.ResetMeters();
  EXPECT_EQ(wrapped_backend.communication_rounds(), 0u);
}

// The benchmark's own crawl path: traced and untraced repetitions, and
// the reference configuration, agree on small versions of the TCP and
// paged workloads.
TEST(RunCrawlTest, TracedEqualsUntracedEqualsReference) {
  fs::path base = fs::path(testing::TempDir()) /
                  ("crawlbench_test_" + std::to_string(::getpid()));
  for (const char* name : {"tail-tcp-flaky", "paged-evict"}) {
    SCOPED_TRACE(name);
    WorkloadSpec spec = *FindWorkload(name);
    spec.scale = 0.02;
    spec.cache_pages = 64;
    spec.checkpoint_every = 10;
    uint64_t digests[3] = {};
    for (int i = 0; i < 3; ++i) {
      fs::path dir = base / std::to_string(i);
      fs::create_directories(dir);
      RunMode mode;
      mode.traced = i == 1;
      mode.reference = i == 2;
      StatusOr<CrawlSample> sample = RunCrawl(spec, 5, dir.string(), mode);
      ASSERT_TRUE(sample.ok()) << sample.status().ToString();
      digests[i] = sample->digest;
      EXPECT_GT(sample->disk_bytes, 0u);
      if (mode.traced) {
        const LayerTotals& l = *sample->layers;
        EXPECT_EQ(l.waves.size(), sample->waves);
        uint64_t sum = l.engine_self_ns + l.selector_rank_ns +
                       l.selector_update_ns + l.fetch_ns + l.checkpoint_ns;
        EXPECT_NEAR(static_cast<double>(sum) / 1e9, sample->crawl_s, 1e-6);
        EXPECT_GT(l.backend_calls, 0u);
        EXPECT_LE(l.backend_ns, l.fetch_ns);
      }
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
  }
  fs::remove_all(base);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  const Interval parent{100, 200};
  EXPECT_EQ(SelfTimeNs(parent, {}, 0), 100u);
  const Interval disjoint[] = {{110, 120}, {150, 170}};
  EXPECT_EQ(SelfTimeNs(parent, disjoint, 0), 70u);
  // Overlapping children are counted once.
  const Interval overlapping[] = {{110, 140}, {120, 150}, {130, 135}};
  EXPECT_EQ(SelfTimeNs(parent, overlapping, 0), 60u);
  // Children are clipped to the parent.
  const Interval outside[] = {{50, 110}, {190, 260}, {300, 400}};
  EXPECT_EQ(SelfTimeNs(parent, outside, 0), 80u);
  // Summed children come off on top; the result never goes negative.
  EXPECT_EQ(SelfTimeNs(parent, disjoint, 25), 45u);
  EXPECT_EQ(SelfTimeNs(parent, disjoint, 500), 0u);
  // Empty children (e.g. a wave without a checkpoint) cover nothing.
  const Interval empty[] = {{0, 0}, {150, 150}};
  EXPECT_EQ(SelfTimeNs(parent, empty, 0), 100u);
}

TEST(SpanTest, WavesTileTheCrawl) {
  WaveRecorder recorder;
  recorder.BeginCrawl(1000);
  recorder.AddRank(5);        // ranking before the first fetch
  recorder.FetchStarted(1010);
  recorder.FetchEnded(1050, 30);
  recorder.AddUpdate(7);
  recorder.AddCheckpoint({1060, 1080});
  recorder.AddRank(3);
  recorder.FetchStarted(1100);  // closes wave 0 at 1100
  recorder.FetchEnded(1120, 10);
  recorder.AddUpdate(4);
  recorder.EndCrawl(1130);

  const std::vector<WaveSpan>& waves = recorder.waves();
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].wave.start_ns, 1000u);
  EXPECT_EQ(waves[0].wave.end_ns, 1100u);
  EXPECT_EQ(waves[1].wave.start_ns, 1100u);
  EXPECT_EQ(waves[1].wave.end_ns, 1130u);
  // Wave 0: 100 long - fetch 40 - checkpoint 20 - rank 8 - update 7.
  EXPECT_EQ(waves[0].SelfNs(), 25u);
  EXPECT_EQ(waves[0].rank_calls, 2u);
  EXPECT_EQ(waves[0].backend_ns, 30u);
  // Wave 1: 30 long - fetch 20 - update 4.
  EXPECT_EQ(waves[1].SelfNs(), 6u);
  uint64_t total = 0;
  for (const WaveSpan& w : waves) {
    total += w.SelfNs() + w.fetch.length() + w.checkpoint.length() +
             w.rank_ns + w.update_ns;
  }
  EXPECT_EQ(total, 130u);
}

}  // namespace
}  // namespace crawlbench
