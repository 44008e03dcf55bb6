// Parallel crawl engine bench: wall-clock speedup of the batched wave
// engine over a serial crawl under simulated network latency, plus
// thread-count-invariance evidence.
//
// The paper's cost model counts communication rounds, not seconds; this
// bench is about the orthogonal systems question of how much wall-clock
// a crawler saves by keeping `batch` queries in flight when every round
// costs one network RTT. Simulated RTT is injected by
// LockedQueryInterface (the sleep happens OUTSIDE its lock, so
// concurrent fetches overlap exactly like real requests).
//
// Determinism on display: for a fixed batch, every thread count yields
// the SAME rounds/records/queries — only the wall-clock column moves.

#include <chrono>
#include <cstdint>
#include <string>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/movie_domain.h"
#include "src/server/locked_interface.h"

namespace deepcrawl {
namespace bench {
namespace {

constexpr uint64_t kLatencyUs = 200;  // simulated per-fetch RTT

Table MakeTarget() {
  MovieDomainPairConfig config;
  config.universe_size = 4000;
  config.target_size = 1200;
  config.seed = 7;
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
  return std::move(pair->target);
}

struct BenchRun {
  uint64_t rounds = 0;
  uint64_t records = 0;
  uint64_t queries = 0;
  double wall_ms = 0.0;
};

BenchRun CrawlOnce(const Table& target, uint32_t threads, uint32_t batch) {
  WebDbServer backend(target, ServerOptions());
  LockedQueryInterface server(backend, kLatencyUs);
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlOptions options;
  options.target_records =
      static_cast<uint64_t>(0.9 * static_cast<double>(target.num_records()));
  auto start = std::chrono::steady_clock::now();
  CrawlResult result =
      RunCrawl(server, selector, store, options, SeedValue(target, 0),
               /*retry_policy=*/nullptr,
               EngineOptions{.threads = threads, .batch = batch});
  auto elapsed = std::chrono::steady_clock::now() - start;
  BenchRun run;
  run.rounds = result.rounds;
  run.records = result.records;
  run.queries = result.queries;
  run.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          elapsed)
          .count();
  return run;
}

void SpeedupSweep(const Table& target) {
  PrintBanner(
      "Parallel crawl engine: wall-clock vs threads x batch",
      "n/a (systems bench; the paper counts rounds, not seconds)",
      "greedy-link to 90% coverage, simulated RTT " +
          std::to_string(kLatencyUs) + "us/fetch, movie target " +
          std::to_string(target.num_records()) + " records");

  // Warm up caches, the branch predictor, and the CPU frequency
  // governor so the first measured row is not penalized.
  (void)CrawlOnce(target, 2, 2);

  TablePrinter table({"threads", "batch", "rounds", "records", "queries",
                      "wall ms", "speedup"});
  for (uint32_t batch : {1u, 4u, 8u}) {
    double baseline_ms = 0.0;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      BenchRun run = CrawlOnce(target, threads, batch);
      if (threads == 1) baseline_ms = run.wall_ms;
      table.AddRow({std::to_string(threads), std::to_string(batch),
                    TablePrinter::FormatCount(run.rounds),
                    TablePrinter::FormatCount(run.records),
                    TablePrinter::FormatCount(run.queries),
                    TablePrinter::FormatDouble(run.wall_ms, 1),
                    TablePrinter::FormatDouble(baseline_ms / run.wall_ms, 2) +
                        "x"});
    }
  }
  table.Print(std::cout);
  std::cout << "\nnote: within each batch block the rounds/records/queries\n"
               "columns are constant — thread count changes wall-clock only\n"
               "(the engine's determinism contract, DESIGN.md §8). batch=1\n"
               "cannot overlap fetches and shows no speedup by design.\n";
}

// Reduced fixed-configuration sweep for the check.sh perf pass: one
// serial and one 8-thread batched crawl (speedup + determinism canary),
// written as BENCH_parallel.json.
void RunJsonSuite(const Table& target, const std::string& json_path) {
  BenchJson json("parallel");

  (void)CrawlOnce(target, 2, 2);  // warm-up
  BenchRun serial = CrawlOnce(target, 1, 8);
  BenchRun threaded = CrawlOnce(target, 8, 8);
  DEEPCRAWL_CHECK_EQ(serial.rounds, threaded.rounds)
      << "thread count changed crawl semantics";
  json.Add("crawl_speedup_8t_batch8", serial.wall_ms / threaded.wall_ms, "x",
           /*higher_is_better=*/true);
  json.Add("crawl_rounds_batch8", static_cast<double>(serial.rounds),
           "rounds", /*higher_is_better=*/false);

  json.WriteFile(json_path);
}

}  // namespace
}  // namespace bench
}  // namespace deepcrawl

int main(int argc, char** argv) {
  deepcrawl::Table target = deepcrawl::bench::MakeTarget();
  std::string json_path = deepcrawl::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    deepcrawl::bench::RunJsonSuite(target, json_path);
    return 0;
  }
  deepcrawl::bench::SpeedupSweep(target);
  return 0;
}
