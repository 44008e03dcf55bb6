// The benchmark's workloads and one seeded crawl of a workload: set-up,
// crawl, checks, output digest and (when traced) the per-layer tallies.
// Every input is derived from the workload seed; the program under test
// only sees the generated table.

#ifndef CRAWLBENCH_SRC_CRAWL_H_
#define CRAWLBENCH_SRC_CRAWL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crawlbench/src/layers.h"
#include "src/crawler/metrics.h"
#include "src/util/page_cache.h"
#include "src/util/status.h"

namespace crawlbench {

struct WorkloadSpec {
  std::string name;
  double scale = 1.0;           // 1.0 = the paper's table size
  uint32_t batch = 32;          // drain slots per wave
  double target_coverage = 0;   // 0 = crawl until the frontier is empty
  bool flaky = false;           // keyed FaultyServer, "flaky" profile
  bool tcp = false;             // loopback WebDbTcpServer + NetFetchExecutor
  bool paged = false;           // --layout=paged store, 4 KiB pages
  uint32_t cache_pages = 1024;  // paged only
  uint64_t checkpoint_every = 0;  // waves between checkpoints (0 = none)
};

// The benchmark's workload of that name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

// Per-layer tallies of one traced crawl.
struct LayerTotals {
  std::vector<WaveSpan> waves;
  uint64_t selector_rank_ns = 0;
  uint64_t selector_rank_calls = 0;
  uint64_t selector_update_ns = 0;
  uint64_t selector_update_calls = 0;
  uint64_t fetch_ns = 0;
  uint64_t backend_ns = 0;
  uint64_t backend_calls = 0;
  // Periodic checkpoints, inside the crawl; the final checkpoint written
  // after CrawlEngine::Run returns is timed apart.
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;  // summed checkpoint file sizes
  uint64_t checkpoint_ns = 0;
  uint64_t checkpoint_max_ns = 0;
  uint64_t checkpoint_final_ns = 0;
  uint64_t engine_self_ns = 0;
  uint64_t replay_ingest_ns = 0;
  double rtt_mean_us = 0;
  uint64_t reconnects = 0;
  uint64_t protocol_errors = 0;
  uint64_t requests_served = 0;
  uint64_t faults_injected = 0;
  // /proc/self/io deltas over CrawlEngine::Run (the TCP server thread
  // shares the process, so its socket I/O is included).
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
  uint64_t io_syscalls = 0;
};

// One crawl of a workload.
struct CrawlSample {
  double datagen_s = 0;
  double server_build_s = 0;
  double setup_s = 0;
  double crawl_s = 0;

  uint64_t table_records = 0;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t records = 0;
  uint64_t waves = 0;
  std::string stop_reason;
  deepcrawl::ResilienceCounters resilience;
  deepcrawl::PageCacheStats cache;
  uint64_t checkpoints = 0;       // including the final one, if any
  uint64_t checkpoint_bytes = 0;  // summed sizes of those checkpoints
  uint64_t disk_bytes = 0;        // left in the crawl's state dir at stop

  // FNV-1a over the trace CSV, the harvest order and the counts: equal
  // digests mean the crawls produced the same output.
  uint64_t digest = 0;

  std::optional<LayerTotals> layers;  // traced crawls only
};

struct RunMode {
  bool traced = false;
  // Runs the crawl in its reference configuration: in-process instead of
  // TCP, the in-memory store instead of the paged one, no periodic
  // checkpoints. The repo's determinism contract makes its output equal
  // the real configuration's.
  bool reference = false;
  // Where the spans of a traced crawl are written (empty = nowhere).
  std::string spans_path;
};

// Generates the workload's table from `seed`, builds the stack, crawls,
// checkpoints an in-memory store at stop, and checks the harvest against
// the table. `state_dir` must exist and be private to this crawl; its
// contents are left in place for the caller to measure and remove.
deepcrawl::StatusOr<CrawlSample> RunCrawl(const WorkloadSpec& spec,
                                          uint64_t seed,
                                          const std::string& state_dir,
                                          const RunMode& mode);

}  // namespace crawlbench

#endif  // CRAWLBENCH_SRC_CRAWL_H_
