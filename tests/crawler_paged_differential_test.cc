// Differential suite for the out-of-core paged store: kPaged must be
// observationally INVISIBLE relative to the in-memory kCsr layout.
//
// For every selection policy × fault profile, serial and parallel
// (--threads 8 --batch 8), a crawl over a paged store with a page
// cache far below the working set (tiny 512-byte pages, 8 frames —
// every wave thrashes) must produce a byte-identical CrawlTrace CSV,
// identical harvest order, meters, clock, and resilience counters to
// the in-memory run. A checkpoint/reopen/resume leg proves the
// manifest protocol restores the paged state mid-crawl with the same
// bit-identity guarantee (the SIGKILL variant of that leg lives in
// tools/check.sh pass 9, on top of the CLI).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/checkpoint.h"
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
#include "src/util/page_cache.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

// Chosen so that no fault profile's keyed faults gut the seed query
// (e.g. seed 29 truncates it under the lossy profile, harvesting zero
// records — a vacuous differential and an idle page cache).
constexpr uint64_t kFaultSeed = 37;
constexpr uint64_t kSelectorSeed = 5;

const char* const kPolicies[] = {"bfs", "dfs", "random", "greedy", "mmmi"};
const char* const kProfiles[] = {"none", "flaky", "lossy", "hostile"};

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
                                            const LocalStore& store) {
  if (policy == "bfs") return std::make_unique<BfsSelector>();
  if (policy == "dfs") return std::make_unique<DfsSelector>();
  if (policy == "random") {
    return std::make_unique<RandomSelector>(kSelectorSeed);
  }
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "mmmi") {
    return std::make_unique<MmmiSelector>(store, MmmiOptions());
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
  options.saturation_records =
      static_cast<uint64_t>(0.6 * static_cast<double>(target.num_records()));
  return options;
}

struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;
  uint64_t clock_ticks = 0;
  std::string trace_csv;
  uint64_t cache_evictions = 0;
};

LocalStore::Options PagedOptions(const std::string& dir) {
  LocalStore::Options options;
  options.layout = LocalStore::Layout::kPaged;
  options.paged_dir = dir;
  // Tiny pages + 8 frames: ~4KB resident over a multi-hundred-KB
  // working set, so every wave faults and evicts.
  options.page_bytes = 512;
  options.cache_pages = 8;
  return options;
}

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
  if (store.options().layout == LocalStore::Layout::kPaged) {
    out.cache_evictions = store.paged_cache_stats().evictions;
  }
  return out;
}

// threads == 0 selects the serial engine; otherwise threads/batch.
RunOutput RunLayout(const std::string& policy, const std::string& profile_name,
                    LocalStore::Layout layout, uint32_t threads,
                    uint32_t batch) {
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
  // Declared before the store, so it outlives the store's page files.
  std::optional<testing_util::ScopedTempDir> store_dir;
  LocalStore::Options store_options;
  if (layout == LocalStore::Layout::kPaged) {
    store_dir.emplace("paged_diff_");
    store_options = PagedOptions(store_dir->path());
  }
  LocalStore store(store_options);
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store);
  RetryPolicy retry((RetryPolicyConfig()));
  std::optional<LockedQueryInterface> locked;
  QueryInterface* server = direct;
  EngineOptions engine_options;
  if (threads > 0) {
    locked.emplace(*direct);
    server = &*locked;
    engine_options.threads = threads;
    engine_options.batch = batch;
  }
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  engine.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store, engine.clock().now());
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

// Serial: paged vs in-memory CSR for every policy × fault profile.
TEST(PagedDifferentialTest, SerialAllPoliciesAllProfiles) {
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      RunOutput memory =
          RunLayout(policy, profile, LocalStore::Layout::kCsr, 0, 0);
      RunOutput paged =
          RunLayout(policy, profile, LocalStore::Layout::kPaged, 0, 0);
      ASSERT_GT(paged.cache_evictions, 0u)
          << "cache must thrash or the sweep proves nothing";
      ExpectIdentical(memory, paged,
                      std::string("serial/") + policy + "/" + profile);
    }
  }
}

// Parallel engine at --threads 8 --batch 8. The store is mutated from
// the apply phase only (single-threaded by the engine's design), but
// batched waves change the crawl order, exercising the paged arenas
// under a different access sequence.
TEST(PagedDifferentialTest, ParallelThreads8Batch8AllPolicies) {
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      RunOutput memory =
          RunLayout(policy, profile, LocalStore::Layout::kCsr, 8, 8);
      RunOutput paged =
          RunLayout(policy, profile, LocalStore::Layout::kPaged, 8, 8);
      ASSERT_GT(paged.cache_evictions, 0u);
      ExpectIdentical(memory, paged,
                      std::string("parallel/") + policy + "/" + profile);
    }
  }
}

// Checkpoint mid-crawl, tear the whole stack down, rebuild it over the
// same directory, resume from the checkpoint file, and run to the end:
// the trace must be byte-identical to the uninterrupted paged (and
// in-memory) run. This is the in-process half of the durability story;
// check.sh pass 9 repeats it with a real SIGKILL through the CLI.
TEST(PagedDifferentialTest, CheckpointReopenResumeBitIdentical) {
  const Table& target = DifferentialTarget();
  for (const char* policy : {"greedy", "mmmi"}) {
    for (const char* profile : {"none", "hostile"}) {
      SCOPED_TRACE(std::string(policy) + "/" + profile);
      RunOutput uninterrupted =
          RunLayout(policy, profile, LocalStore::Layout::kCsr, 0, 0);

      const testing_util::ScopedTempDir store_dir("paged_diff_resume_");
      const std::string& dir = store_dir.path();
      std::string ckpt = dir + "/crawl.ckpt";
      FaultProfile fault_profile = ProfileByName(profile);

      // Leg 1: crawl with checkpoint-every-8-waves until done; the
      // LAST checkpoint written mid-crawl is what we resume from — so
      // remember the one taken at a fixed early wave instead.
      {
        WebDbServer backend(target, ServerOptions());
        std::optional<FaultyServer> faulty;
        QueryInterface* direct = &backend;
        if (!fault_profile.IsAllZero()) {
          faulty.emplace(backend, fault_profile, kFaultSeed);
          faulty->set_keyed_faults(true);
          direct = &*faulty;
        }
        LocalStore store(PagedOptions(dir));
        std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store);
        RetryPolicy retry((RetryPolicyConfig()));
        CrawlOptions options = BaseOptions(target);
        EngineOptions engine_options;
        engine_options.checkpoint_every_waves = 8;
        bool saved = false;
        FaultyServer* faulty_ptr = faulty.has_value() ? &*faulty : nullptr;
        engine_options.checkpoint_sink = [&](const CrawlEngine& engine) {
          if (saved) return Status::OK();  // keep only the first
          saved = true;
          return SaveCrawlCheckpoint(engine, faulty_ptr, ckpt);
        };
        CrawlEngine engine(*direct, *selector, store, options, engine_options,
                           /*abort_policy=*/nullptr, &retry);
        engine.AddSeed(FirstQueriableSeed(target));
        StatusOr<CrawlResult> result = engine.Run();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_TRUE(saved) << "crawl finished before the first checkpoint";
      }

      // Leg 2: fresh stack over the SAME directory, resume, finish.
      {
        WebDbServer backend(target, ServerOptions());
        std::optional<FaultyServer> faulty;
        QueryInterface* direct = &backend;
        if (!fault_profile.IsAllZero()) {
          faulty.emplace(backend, fault_profile, kFaultSeed);
          faulty->set_keyed_faults(true);
          direct = &*faulty;
        }
        LocalStore::Options store_options = PagedOptions(dir);
        store_options.paged_resume = true;
        LocalStore store(store_options);
        std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store);
        RetryPolicy retry((RetryPolicyConfig()));
        CrawlOptions options = BaseOptions(target);
        CrawlEngine engine(*direct, *selector, store, options, EngineOptions(),
                           /*abort_policy=*/nullptr, &retry);
        ASSERT_TRUE(LoadCrawlCheckpoint(ckpt, engine,
                                        faulty.has_value() ? &*faulty : nullptr)
                        .ok());
        StatusOr<CrawlResult> result = engine.Run();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        RunOutput resumed = Capture(*result, store, engine.clock().now());
        ExpectIdentical(uninterrupted, resumed, "resumed-vs-uninterrupted");
      }
    }
  }
}

}  // namespace
}  // namespace deepcrawl
