// Differential suite for the hot-path overhaul: the optimized data
// layouts must be observationally INVISIBLE.
//
// Two independent optimization axes are cross-checked against their
// reference implementations:
//
//   * LocalStore layout: epoch-compacted CSR arenas + flat edge hash
//     (Layout::kCsr) vs one unordered_set / vector per value
//     (Layout::kReference);
//   * MMMI scoring: incrementally-maintained co-occurrence counters vs
//     the full postings rescan (MmmiOptions::reference_scoring).
//
// For every selection policy × fault profile, serial and parallel
// (--threads 8 --batch 8), a fully-optimized run must produce a
// byte-identical CrawlTrace (CSV serialization compared as strings) and
// identical meters/harvest order/resilience counters to the
// all-reference run — and the two mixed combinations must match too, so
// a compensating pair of bugs cannot hide.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/locked_interface.h"
#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;
constexpr uint64_t kSelectorSeed = 5;

const char* const kPolicies[] = {"bfs", "dfs", "random", "greedy", "mmmi"};
const char* const kProfiles[] = {"none", "flaky", "lossy", "hostile"};

// One point in the optimization space.
struct Variant {
  LocalStore::Layout layout = LocalStore::Layout::kCsr;
  bool mmmi_reference_scoring = false;
};

constexpr Variant kOptimized{LocalStore::Layout::kCsr, false};
constexpr Variant kReference{LocalStore::Layout::kReference, true};

FaultProfile ProfileByName(const std::string& name) {
  FaultProfile profile;
  if (name == "flaky") {
    profile.unavailable_rate = 0.05;
    profile.timeout_rate = 0.03;
    profile.rate_limit_rate = 0.02;
  } else if (name == "lossy") {
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.05;
  } else if (name == "hostile") {
    profile.unavailable_rate = 0.10;
    profile.timeout_rate = 0.05;
    profile.rate_limit_rate = 0.05;
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.02;
  }
  return profile;
}

std::unique_ptr<QuerySelector> MakeSelector(const std::string& policy,
                                            const LocalStore& store,
                                            const Variant& variant) {
  if (policy == "bfs") return std::make_unique<BfsSelector>();
  if (policy == "dfs") return std::make_unique<DfsSelector>();
  if (policy == "random") {
    return std::make_unique<RandomSelector>(kSelectorSeed);
  }
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "mmmi") {
    MmmiOptions options;
    options.reference_scoring = variant.mmmi_reference_scoring;
    return std::make_unique<MmmiSelector>(store, options);
  }
  ADD_FAILURE() << "unknown policy " << policy;
  return nullptr;
}

ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

const Table& DifferentialTarget() {
  static const Table* table = [] {
    MovieDomainPairConfig config;
    config.universe_size = 1500;
    config.target_size = 400;
    config.seed = 7;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new Table(std::move(pair->target));
  }();
  return *table;
}

CrawlOptions BaseOptions(const Table& target) {
  CrawlOptions options;
  // Past the switch-over most of the crawl runs MMMI batches — exactly
  // the path whose scoring implementation is under test.
  options.saturation_records =
      static_cast<uint64_t>(0.6 * static_cast<double>(target.num_records()));
  return options;
}

// Everything two equivalent crawls must agree on, including the
// byte-exact CSV rendering of the trace.
struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;
  uint64_t clock_ticks = 0;
  std::string trace_csv;
};

RunOutput Capture(const CrawlResult& result, const LocalStore& store,
                  uint64_t clock_ticks) {
  RunOutput out;
  out.result = result;
  out.harvest_order.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  out.clock_ticks = clock_ticks;
  std::ostringstream csv;
  Status written = WriteTraceCsv(result.trace, csv);
  DEEPCRAWL_CHECK(written.ok()) << written.ToString();
  out.trace_csv = csv.str();
  return out;
}

// threads == 0 selects the serial crawler; otherwise the parallel
// engine with the given threads/batch.
RunOutput RunVariant(const std::string& policy,
                     const std::string& profile_name, const Variant& variant,
                     uint32_t threads, uint32_t batch) {
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);
  WebDbServer backend(target, ServerOptions());
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* direct = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    direct = &*faulty;
  }
  LocalStore::Options store_options;
  store_options.layout = variant.layout;
  LocalStore store(store_options);
  std::unique_ptr<QuerySelector> selector =
      MakeSelector(policy, store, variant);
  RetryPolicy retry((RetryPolicyConfig()));
  if (threads == 0) {
    CrawlEngine crawler(*direct, *selector, store, options, EngineOptions{},
                        /*abort_policy=*/nullptr, &retry);
    crawler.AddSeed(FirstQueriableSeed(target));
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return Capture(*result, store, crawler.clock().now());
  }
  LockedQueryInterface server(*direct);
  CrawlEngine crawler(server, *selector, store, options,
                      EngineOptions{.threads = threads, .batch = batch},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store, crawler.clock().now());
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.stop_reason, b.result.stop_reason);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.queries, b.result.queries);
  EXPECT_EQ(a.result.records, b.result.records);
  EXPECT_EQ(a.result.trace.points(), b.result.trace.points());
  EXPECT_EQ(a.result.resilience, b.result.resilience);
  EXPECT_EQ(a.harvest_order, b.harvest_order);
  EXPECT_EQ(a.clock_ticks, b.clock_ticks);
  EXPECT_EQ(a.trace_csv, b.trace_csv);  // byte-identical serialization
}

// Serial: optimized vs reference for every policy × fault profile.
TEST(HotPathDifferentialTest, SerialAllPoliciesAllProfiles) {
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      RunOutput optimized = RunVariant(policy, profile, kOptimized, 0, 0);
      RunOutput reference = RunVariant(policy, profile, kReference, 0, 0);
      ExpectIdentical(optimized, reference,
                      std::string("serial/") + policy + "/" + profile);
    }
  }
}

// Parallel engine at --threads 8 --batch 8: same cross-check. Batched
// waves change the crawl order relative to serial, so this exercises
// the optimized structures under a genuinely different event sequence
// (and, at 8 threads, under TSan in the check.sh concurrency pass).
TEST(HotPathDifferentialTest, ParallelThreads8Batch8AllPolicies) {
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      RunOutput optimized = RunVariant(policy, profile, kOptimized, 8, 8);
      RunOutput reference = RunVariant(policy, profile, kReference, 8, 8);
      ExpectIdentical(optimized, reference,
                      std::string("parallel/") + policy + "/" + profile);
    }
  }
}

// The two axes are independent: mixed combinations (CSR store +
// reference scoring, reference store + incremental scoring) must match
// the corners too, so a bug in one axis cannot be masked by a
// compensating bug in the other.
TEST(HotPathDifferentialTest, MixedAxesAgreeForMmmi) {
  const Variant kMixedA{LocalStore::Layout::kCsr, true};
  const Variant kMixedB{LocalStore::Layout::kReference, false};
  for (const char* profile : {"none", "hostile"}) {
    RunOutput corner = RunVariant("mmmi", profile, kOptimized, 0, 0);
    ExpectIdentical(corner, RunVariant("mmmi", profile, kMixedA, 0, 0),
                    std::string("csr+refscore/") + profile);
    ExpectIdentical(corner, RunVariant("mmmi", profile, kMixedB, 0, 0),
                    std::string("refstore+incr/") + profile);
  }
}

}  // namespace
}  // namespace deepcrawl
