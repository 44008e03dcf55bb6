// Differential test suite for the parallel batched crawl engine:
// serial-vs-parallel equivalence for every selection policy and fault
// profile, and thread-count invariance at every batch size.
//
// The determinism contract under test (DESIGN.md §8):
//   * the engine with batch == 1 is BIT-IDENTICAL to the serial
//     configuration — same trace points, resilience counters, stop reason,
//     meters, and harvest order — at any thread count;
//   * at any batch size, the output is a pure function of the seed and
//     the batch: thread count never changes anything but wall-clock.
// Fault runs use the FaultyServer's keyed mode so the fault stream is a
// function of logical fetch identity rather than arrival order.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/abort_policy.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/optimal_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/adversarial_workload.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/locked_interface.h"
#include "src/server/web_db_server.h"
#include "src/util/checkpoint_io.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;
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

// One crawl environment: target table, server knobs, and the canonical
// seed value. The movie env is the original differential workload; the
// adversarial env points the same sweeps at a greedy-trap instance so
// the optimal selectors run their native hierarchy descent.
struct Env {
  const Table* target = nullptr;
  ServerOptions server_options;
  ValueId seed_value = kInvalidValueId;
};

Env MovieEnv() {
  Env env;
  env.target = &DifferentialTarget();
  env.seed_value = FirstQueriableSeed(*env.target);
  return env;
}

const AdversarialInstance& DifferentialTrap() {
  static const AdversarialInstance* instance = [] {
    AdversarialConfig config;
    config.family = AdversarialFamily::kGreedyTrap;
    config.leaf_buckets = 12;  // rounds to B = 16 with the decoys
    config.bucket_records = 4;
    config.decoy_buckets = 4;
    config.decoy_width = 8;
    config.seed = 3;
    StatusOr<AdversarialInstance> generated =
        GenerateAdversarialInstance(config);
    DEEPCRAWL_CHECK(generated.ok()) << generated.status().ToString();
    return new AdversarialInstance(std::move(generated).value());
  }();
  return *instance;
}

Env AdversarialEnv() {
  const AdversarialInstance& instance = DifferentialTrap();
  Env env;
  env.target = &instance.table;
  env.server_options.page_size = instance.result_limit;
  env.server_options.result_limit = instance.result_limit;
  env.seed_value = instance.root_value;
  return env;
}

std::unique_ptr<QuerySelector> MakeSelector(const std::string& policy,
                                            const LocalStore& store,
                                            const Env& env) {
  if (policy == "bfs") return std::make_unique<BfsSelector>();
  if (policy == "dfs") return std::make_unique<DfsSelector>();
  if (policy == "random") {
    return std::make_unique<RandomSelector>(kSelectorSeed);
  }
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "mmmi") return std::make_unique<MmmiSelector>(store);
  if (policy == "opt-rank" || policy == "opt-threshold") {
    StatusOr<AttributeId> rank_attr =
        env.target->schema().FindAttribute("range");
    DEEPCRAWL_CHECK(rank_attr.ok()) << "env target has no rank attribute";
    StatusOr<QueryHierarchy> hierarchy = QueryHierarchy::FromCatalog(
        env.target->catalog(), rank_attr.value());
    DEEPCRAWL_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
    OptimalSelectorOptions options;
    options.mode = policy == "opt-rank" ? OptimalMode::kRank
                                        : OptimalMode::kThreshold;
    options.result_limit = env.server_options.result_limit;
    return std::make_unique<RankOptimalSelector>(
        store, std::move(hierarchy).value(), options);
  }
  ADD_FAILURE() << "unknown policy " << policy;
  return nullptr;
}

CrawlOptions BaseOptions(const Table& target) {
  CrawlOptions options;
  // Exercise the MMMI switch-over; harmless for the other selectors.
  options.saturation_records =
      static_cast<uint64_t>(0.6 * static_cast<double>(target.num_records()));
  return options;
}

// Everything two equivalent crawls must agree on.
struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;  // store slots in commit order
  uint64_t clock_ticks = 0;
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
  return out;
}

RunOutput RunSerial(const Env& env, const std::string& policy,
                    const std::string& profile_name, CrawlOptions options) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(*server, *selector, store, options, EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store, crawler.clock().now());
}

RunOutput RunParallel(const Env& env, const std::string& policy,
                      const std::string& profile_name, CrawlOptions options,
                      uint32_t threads, uint32_t batch) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* direct = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    direct = &*faulty;
  }
  LockedQueryInterface server(*direct);
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(server, *selector, store, options,
                      EngineOptions{.threads = threads, .batch = batch},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(env.seed_value);
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
}

// batch == 1: the parallel engine must reproduce the serial crawler
// bit-for-bit, for every selector, fault profile, and thread count.
TEST(ParallelCrawlerDifferentialTest, SerialEquivalenceAllPolicies) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      CrawlOptions options = BaseOptions(DifferentialTarget());
      RunOutput serial = RunSerial(env, policy, profile, options);
      for (uint32_t threads : {1u, 4u, 8u}) {
        RunOutput parallel =
            RunParallel(env, policy, profile, options, threads, /*batch=*/1);
        ExpectIdentical(serial, parallel,
                        std::string(policy) + "/" + profile + "/threads=" +
                            std::to_string(threads));
      }
    }
  }
}

// batch == 4: thread count is an execution detail — outputs at 1, 4,
// and 8 threads must be identical to each other.
TEST(ParallelCrawlerDifferentialTest, ThreadCountInvarianceBatch4) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      CrawlOptions options = BaseOptions(DifferentialTarget());
      RunOutput reference = RunParallel(env, policy, profile, options,
                                        /*threads=*/1, /*batch=*/4);
      for (uint32_t threads : {4u, 8u}) {
        RunOutput other =
            RunParallel(env, policy, profile, options, threads, /*batch=*/4);
        ExpectIdentical(reference, other,
                        std::string(policy) + "/" + profile + "/threads=" +
                            std::to_string(threads));
      }
    }
  }
}

// batch > 1 changes the crawl ORDER even for BFS (a wave interleaves
// its slots' discoveries page by page, where serial appends one full
// drain at a time), but never the outcome of an exhaustive crawl: the
// final coverage, round count, and query count all match serial.
TEST(ParallelCrawlerDifferentialTest, BfsBatchedReachesSerialCoverage) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  RunOutput serial = RunSerial(env, "bfs", "none", options);
  RunOutput batched = RunParallel(env, "bfs", "none", options, /*threads=*/4,
                                  /*batch=*/4);
  EXPECT_EQ(batched.result.stop_reason, StopReason::kFrontierExhausted);
  EXPECT_EQ(batched.result.records, serial.result.records);
  // BFS drains every discovered value completely, so an exhaustive
  // crawl issues the same queries and fetches the same pages in both
  // engines — only their order differs.
  EXPECT_EQ(batched.result.rounds, serial.result.rounds);
  EXPECT_EQ(batched.result.queries, serial.result.queries);
  std::set<RecordId> serial_ids(serial.harvest_order.begin(),
                                serial.harvest_order.end());
  std::set<RecordId> batched_ids(batched.harvest_order.begin(),
                                 batched.harvest_order.end());
  EXPECT_EQ(batched_ids, serial_ids);
}

// Keyword-interface crawls flow through FetchPageKeywordOf; the
// equivalence must hold there too.
TEST(ParallelCrawlerDifferentialTest, KeywordModeEquivalence) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  options.use_keyword_interface = true;
  RunOutput serial = RunSerial(env, "greedy", "flaky", options);
  RunOutput parallel =
      RunParallel(env, "greedy", "flaky", options, /*threads=*/4, /*batch=*/1);
  ExpectIdentical(serial, parallel, "keyword/greedy/flaky");
}

// Round-budget semantics: a target and a budget must stop both engines
// at the same point with the same stop reason.
TEST(ParallelCrawlerDifferentialTest, BudgetAndTargetStops) {
  const Env env = MovieEnv();
  for (uint64_t max_rounds : {25u, 120u}) {
    CrawlOptions options = BaseOptions(DifferentialTarget());
    options.max_rounds = max_rounds;
    options.target_records = 150;
    RunOutput serial = RunSerial(env, "greedy", "hostile", options);
    RunOutput parallel = RunParallel(env, "greedy", "hostile", options,
                                     /*threads=*/4, /*batch=*/1);
    ExpectIdentical(serial, parallel,
                    "budget=" + std::to_string(max_rounds));
  }
}

// Sliced execution: running the parallel engine in many small budget
// increments must land exactly where one unbounded Run() lands —
// parked slots resume with no page re-fetched and no record
// double-counted, at any batch size.
TEST(ParallelCrawlerDifferentialTest, SlicedRunsResumeExactly) {
  const Env env = MovieEnv();
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);

  RunOutput one_shot =
      RunParallel(env, "greedy", "flaky", options, /*threads=*/4, /*batch=*/3);

  WebDbServer backend(target, ServerOptions());
  FaultProfile profile = ProfileByName("flaky");
  FaultyServer faulty(backend, profile, kFaultSeed);
  faulty.set_keyed_faults(true);
  LockedQueryInterface server(faulty);
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector("greedy", store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(server, *selector, store, options,
                      EngineOptions{.threads = 4, .batch = 3}, nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> sliced = Status::Internal("never ran");
  for (uint64_t budget = 17;; budget += 17) {
    crawler.set_max_rounds(budget);
    sliced = crawler.Run();
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    if (sliced->stop_reason != StopReason::kRoundBudget) break;
  }
  RunOutput sliced_out = Capture(*sliced, store, crawler.clock().now());
  // The one-shot run never sees a budget, so compare everything except
  // the stop bookkeeping path: trace, meters, harvest, resilience.
  EXPECT_EQ(one_shot.result.rounds, sliced_out.result.rounds);
  EXPECT_EQ(one_shot.result.queries, sliced_out.result.queries);
  EXPECT_EQ(one_shot.result.records, sliced_out.result.records);
  EXPECT_EQ(one_shot.result.trace.points(), sliced_out.result.trace.points());
  EXPECT_EQ(one_shot.result.resilience, sliced_out.result.resilience);
  EXPECT_EQ(one_shot.harvest_order, sliced_out.harvest_order);
  EXPECT_EQ(one_shot.clock_ticks, sliced_out.clock_ticks);
}

// --- checkpoint/resume bit-identity sweep ----------------------------
//
// The checkpoint contract (DESIGN.md §10): interrupting a crawl at ANY
// wave boundary, restoring the checkpoint into a freshly built stack,
// and running to completion must emit byte-identical output — trace CSV
// bytes, meters, resilience counters, harvest order, simulated clock —
// versus the uninterrupted run. Corrupt-input rejection lives in
// tests/crawler_checkpoint_test.cc; this sweep owns bit-identity.

std::string TraceCsvBytes(const CrawlTrace& trace) {
  std::ostringstream out;
  Status status = WriteTraceCsv(trace, out);
  DEEPCRAWL_CHECK(status.ok()) << status.ToString();
  return out.str();
}

// Runs a one-shot crawl that also encodes a checkpoint image at every
// `every`-th wave boundary.
struct InstrumentedRun {
  RunOutput output;
  std::vector<std::string> images;
};

InstrumentedRun RunWithCheckpoints(const Env& env, const std::string& policy,
                                   const std::string& profile_name,
                                   CrawlOptions options, uint32_t threads,
                                   uint32_t batch, uint64_t every) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* direct = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    direct = &*faulty;
  }
  std::optional<LockedQueryInterface> locked;
  QueryInterface* server = direct;
  if (threads > 1) {
    locked.emplace(*direct);
    server = &*locked;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  InstrumentedRun run;
  const FaultyServer* faulty_ptr = faulty ? &*faulty : nullptr;
  EngineOptions engine_options;
  engine_options.threads = threads;
  engine_options.batch = batch;
  engine_options.checkpoint_every_waves = every;
  engine_options.checkpoint_sink = [&run,
                                    faulty_ptr](const CrawlEngine& engine) {
    StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, faulty_ptr);
    if (!image.ok()) return image.status();
    run.images.push_back(std::move(*image));
    return Status::OK();
  };
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  engine.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  run.output = Capture(*result, store, engine.clock().now());
  return run;
}

// Restores `image` into a freshly built stack and runs to completion.
RunOutput ResumeFromImage(const Env& env, const std::string& image,
                          const std::string& policy,
                          const std::string& profile_name,
                          CrawlOptions options, uint32_t threads,
                          uint32_t batch) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* direct = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    direct = &*faulty;
  }
  std::optional<LockedQueryInterface> locked;
  QueryInterface* server = direct;
  if (threads > 1) {
    locked.emplace(*direct);
    server = &*locked;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  EngineOptions engine_options;
  engine_options.threads = threads;
  engine_options.batch = batch;
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  Status loaded =
      DecodeCrawlCheckpoint(image, engine, faulty ? &*faulty : nullptr);
  DEEPCRAWL_CHECK(loaded.ok()) << loaded.ToString();
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store, engine.clock().now());
}

void ExpectIdenticalWithCsv(const RunOutput& a, const RunOutput& b,
                            const std::string& label) {
  ExpectIdentical(a, b, label);
  SCOPED_TRACE(label);
  EXPECT_EQ(TraceCsvBytes(a.result.trace), TraceCsvBytes(b.result.trace));
}

// Interrupt-at-EVERY-wave sweep for one serial and one batched
// configuration: each checkpoint a run ever writes must resume into the
// exact one-shot output.
TEST(ParallelCrawlerDifferentialTest, CheckpointEveryWaveResumesIdentically) {
  struct Config {
    uint32_t threads;
    uint32_t batch;
  };
  const Env env = MovieEnv();
  for (const Config& config : {Config{1, 1}, Config{8, 8}}) {
    CrawlOptions options = BaseOptions(DifferentialTarget());
    InstrumentedRun reference =
        RunWithCheckpoints(env, "greedy", "flaky", options, config.threads,
                           config.batch, /*every=*/1);
    // The checkpoint sink is pure instrumentation: the instrumented run
    // matches a plain one-shot run.
    RunOutput plain = config.batch == 1
                          ? RunSerial(env, "greedy", "flaky", options)
                          : RunParallel(env, "greedy", "flaky", options,
                                        config.threads, config.batch);
    ExpectIdenticalWithCsv(plain, reference.output, "instrumented-vs-plain");
    ASSERT_FALSE(reference.images.empty());
    for (size_t i = 0; i < reference.images.size(); ++i) {
      RunOutput resumed =
          ResumeFromImage(env, reference.images[i], "greedy", "flaky",
                          options, config.threads, config.batch);
      ExpectIdenticalWithCsv(
          reference.output, resumed,
          "threads=" + std::to_string(config.threads) + "/batch=" +
              std::to_string(config.batch) + "/wave=" + std::to_string(i));
    }
  }
}

// Full matrix: every selection policy x fault profile x {serial,
// 8-thread/batch-8}, resuming from an early, a middle, and a late
// checkpoint of each run.
TEST(ParallelCrawlerDifferentialTest, CheckpointMatrixResumesIdentically) {
  struct Config {
    uint32_t threads;
    uint32_t batch;
  };
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      for (const Config& config : {Config{1, 1}, Config{8, 8}}) {
        CrawlOptions options = BaseOptions(DifferentialTarget());
        SCOPED_TRACE(std::string(policy) + "/" + profile + "/threads=" +
                     std::to_string(config.threads) + "/batch=" +
                     std::to_string(config.batch));
        // every=1 (not a sampled stride): some fault profiles collapse a
        // crawl after a single wave (a truncated seed page kills the BFS
        // frontier), and the run must still produce a checkpoint.
        InstrumentedRun reference = RunWithCheckpoints(
            env, policy, profile, options, config.threads, config.batch,
            /*every=*/1);
        ASSERT_FALSE(reference.images.empty());
        size_t last = reference.images.size() - 1;
        std::set<size_t> picks = {0, last / 2, last};
        for (size_t i : picks) {
          RunOutput resumed =
              ResumeFromImage(env, reference.images[i], policy, profile,
                              options, config.threads, config.batch);
          ExpectIdenticalWithCsv(
              reference.output, resumed,
              std::string(policy) + "/" + profile + "/threads=" +
                  std::to_string(config.threads) + "/batch=" +
                  std::to_string(config.batch) + "/image=" +
                  std::to_string(i));
        }
      }
    }
  }
}

// A checkpoint taken mid-crawl may also be resumed under a DIFFERENT
// thread count (threads are wall-clock only and deliberately not part
// of the checkpoint fingerprint); the output must not change.
TEST(ParallelCrawlerDifferentialTest, CheckpointResumesAcrossThreadCounts) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  InstrumentedRun reference = RunWithCheckpoints(
      env, "mmmi", "hostile", options, /*threads=*/8, /*batch=*/4,
      /*every=*/5);
  ASSERT_FALSE(reference.images.empty());
  const std::string& image =
      reference.images[reference.images.size() / 2];
  for (uint32_t threads : {1u, 2u, 8u}) {
    RunOutput resumed = ResumeFromImage(env, image, "mmmi", "hostile",
                                        options, threads, /*batch=*/4);
    ExpectIdenticalWithCsv(reference.output, resumed,
                           "resume-threads=" + std::to_string(threads));
  }
}

// Abort policies are consulted at the same points in both engines.
TEST(ParallelCrawlerDifferentialTest, AbortPolicyEquivalence) {
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);

  auto run = [&](bool parallel) {
    WebDbServer backend(target, ServerOptions());
    LockedQueryInterface locked(backend);
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector("greedy", store, MovieEnv());
    CountBasedAbort abort_policy(/*min_harvest_rate=*/2.0);
    StatusOr<CrawlResult> result = Status::Internal("never ran");
    uint64_t ticks = 0;
    if (parallel) {
      CrawlEngine crawler(locked, *selector, store, options,
                          EngineOptions{.threads = 4, .batch = 1},
                          &abort_policy, nullptr);
      crawler.AddSeed(FirstQueriableSeed(target));
      result = crawler.Run();
      ticks = crawler.clock().now();
    } else {
      CrawlEngine crawler(backend, *selector, store, options, EngineOptions{},
                          &abort_policy, nullptr);
      crawler.AddSeed(FirstQueriableSeed(target));
      result = crawler.Run();
      ticks = crawler.clock().now();
    }
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return Capture(*result, store, ticks);
  };

  ExpectIdentical(run(false), run(true), "count-abort");
}

// --- optimal-selector determinism on the adversarial env -------------
//
// The Sheng et al. selectors keep extra mutable state (descent queue,
// per-node status/count arrays); the same contracts that hold for the
// classic selectors must hold for them: batch == 1 parallel is
// bit-identical to serial, thread count never matters, and every
// checkpoint resumes into the exact one-shot output via the SELC
// section round-trip.

TEST(ParallelCrawlerDifferentialTest, OptimalSerialEquivalenceAllProfiles) {
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const char* profile : kProfiles) {
      CrawlOptions options;
      RunOutput serial = RunSerial(env, policy, profile, options);
      for (uint32_t threads : {1u, 4u, 8u}) {
        RunOutput parallel =
            RunParallel(env, policy, profile, options, threads, /*batch=*/1);
        ExpectIdentical(serial, parallel,
                        std::string(policy) + "/" + profile + "/threads=" +
                            std::to_string(threads));
      }
    }
  }
}

TEST(ParallelCrawlerDifferentialTest, OptimalThreadInvarianceBatch4) {
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const char* profile : kProfiles) {
      CrawlOptions options;
      RunOutput reference = RunParallel(env, policy, profile, options,
                                        /*threads=*/1, /*batch=*/4);
      for (uint32_t threads : {4u, 8u}) {
        RunOutput other =
            RunParallel(env, policy, profile, options, threads, /*batch=*/4);
        ExpectIdentical(reference, other,
                        std::string(policy) + "/" + profile + "/threads=" +
                            std::to_string(threads));
      }
    }
  }
}

TEST(ParallelCrawlerDifferentialTest,
     OptimalCheckpointEveryWaveResumesIdentically) {
  struct Config {
    uint32_t threads;
    uint32_t batch;
  };
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const Config& config : {Config{1, 1}, Config{8, 4}}) {
      CrawlOptions options;
      SCOPED_TRACE(std::string(policy) + "/threads=" +
                   std::to_string(config.threads) + "/batch=" +
                   std::to_string(config.batch));
      InstrumentedRun reference =
          RunWithCheckpoints(env, policy, "flaky", options, config.threads,
                             config.batch, /*every=*/1);
      ASSERT_FALSE(reference.images.empty());
      size_t last = reference.images.size() - 1;
      std::set<size_t> picks = {0, last / 2, last};
      for (size_t i : picks) {
        RunOutput resumed =
            ResumeFromImage(env, reference.images[i], policy, "flaky",
                            options, config.threads, config.batch);
        ExpectIdenticalWithCsv(reference.output, resumed,
                               "image=" + std::to_string(i));
      }
    }
  }
}

// Greedy-link checkpoints (opt-rank's included, which extends the
// greedy heap) write only the heap's live entries, one per pending
// value, while the in-memory heap also holds stale and already-taken
// entries. Every checkpoint of a crawl must encode exactly the
// frontier's size, some must have dropped entries, and a resume from an
// early, a middle, and a late image must match the one-shot trace byte
// for byte.
TEST(ParallelCrawlerDifferentialTest, LiveHeapCheckpointResumesIdentically) {
  struct Case {
    const char* policy;
    Env env;
  };
  for (const Case& c : {Case{"greedy", MovieEnv()},
                        Case{"opt-rank", AdversarialEnv()}}) {
    SCOPED_TRACE(c.policy);
    const CrawlOptions options;
    WebDbServer backend(*c.env.target, c.env.server_options);
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector(c.policy, store, c.env);
    const auto& greedy = dynamic_cast<const GreedyLinkSelector&>(*selector);
    std::vector<std::string> images;
    bool dropped_entries = false;
    EngineOptions engine_options;
    engine_options.checkpoint_every_waves = 1;
    engine_options.checkpoint_sink = [&](const CrawlEngine& engine) {
      CheckpointWriter writer;
      DEEPCRAWL_RETURN_IF_ERROR(greedy.SaveState(writer));
      CheckpointReader reader(writer.buffer());
      EXPECT_EQ(reader.ReadU64(), greedy.frontier_size());
      if (greedy.heap_size() > greedy.frontier_size()) dropped_entries = true;
      DEEPCRAWL_ASSIGN_OR_RETURN(std::string image,
                                 EncodeCrawlCheckpoint(engine, nullptr));
      images.push_back(std::move(image));
      return Status::OK();
    };
    RetryPolicy retry((RetryPolicyConfig()));
    CrawlEngine engine(backend, *selector, store, options, engine_options,
                       /*abort_policy=*/nullptr, &retry);
    engine.AddSeed(c.env.seed_value);
    StatusOr<CrawlResult> result = engine.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RunOutput reference =
        Capture(*result, store, engine.clock().now());
    EXPECT_TRUE(dropped_entries) << "no checkpoint dropped a heap entry";
    ASSERT_FALSE(images.empty());
    const size_t last = images.size() - 1;
    for (size_t i : std::set<size_t>{0, last / 2, last}) {
      RunOutput resumed = ResumeFromImage(c.env, images[i], c.policy, "none",
                                          options, /*threads=*/1,
                                          /*batch=*/1);
      ExpectIdenticalWithCsv(reference, resumed,
                             std::string(c.policy) + "/image=" +
                                 std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace deepcrawl
