#include "crawlbench/src/crawl.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/canned_workloads.h"
#include "src/net/event_loop.h"
#include "src/net/net_client.h"
#include "src/net/tcp_server.h"
#include "src/relation/table.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/random.h"

namespace crawlbench {

namespace fs = std::filesystem;
using namespace deepcrawl;

namespace {

// Sizes and shapes: see crawlbench/README.md for why each was chosen.
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;
  WorkloadSpec harvest;
  harvest.name = "harvest-inproc";
  // The productive head of the crawl: 97% of the records in ~30k rounds.
  // The rounds from 97% to 99% are low-yield tail (tail-tcp-flaky's
  // subject), and their query count varies by +-10% between table seeds.
  harvest.target_coverage = 0.97;
  harvest.checkpoint_every = 400;
  all.push_back(harvest);

  WorkloadSpec tail;
  tail.name = "tail-tcp-flaky";
  tail.flaky = true;
  tail.tcp = true;
  all.push_back(tail);

  WorkloadSpec paged;
  paged.name = "paged-evict";
  paged.scale = 0.2;
  // Not 0.99: on a 30k-record table the rounds from 97% to 99% vary by
  // +-8% between table seeds, which would swamp every timing.
  paged.target_coverage = 0.97;
  paged.paged = true;
  // A little below the crawl's working set: a few hundred evictions.
  // Each writeback is a file create+rename+unlink whose cost on a
  // journaling disk swings by 5x, so thousands of them (a cache of half
  // the working set) make crawl_s unsteady.
  paged.cache_pages = 5120;
  all.push_back(paged);
  return all;
}

// TCP connections of the network workload: at most 2 threads (crawl +
// server loop) and 4 connections per workload.
constexpr uint32_t kConnections = 4;
// Page size of the paged store.
constexpr uint32_t kPageBytes = 4096;

// The CLI's --fault-profile=flaky: ~10% of rounds lost to transient
// failures of mixed kinds.
FaultProfile FlakyProfile() {
  FaultProfile profile;
  profile.unavailable_rate = 0.05;
  profile.timeout_rate = 0.03;
  profile.rate_limit_rate = 0.02;
  return profile;
}

// A WebDbTcpServer on its own loop thread, serving `backend` on an
// ephemeral loopback port.
class LoopbackServer {
 public:
  LoopbackServer() = default;
  ~LoopbackServer() { Stop(); }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  Status Start(QueryInterface& backend, uint32_t num_values) {
    DEEPCRAWL_RETURN_IF_ERROR(loop_.Init());
    TcpServerOptions options;
    options.num_values = num_values;
    server_.emplace(loop_, backend, options);
    DEEPCRAWL_RETURN_IF_ERROR(server_->Start());
    thread_ = std::thread([this] { loop_.Run(); });
    return Status::OK();
  }

  // Joins the loop thread; the server's counters are stable afterwards.
  void Stop() {
    if (thread_.joinable()) {
      loop_.Stop();
      thread_.join();
      server_->Shutdown();
    }
  }

  uint16_t port() const { return server_->port(); }
  const WebDbTcpServer& server() const { return *server_; }

 private:
  EventLoop loop_;
  std::optional<WebDbTcpServer> server_;
  std::thread thread_;
};

struct ProcIo {
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  uint64_t syscalls = 0;
};

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream file("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (file >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
    if (key == "syscr:" || key == "syscw:") io.syscalls += value;
  }
  return io;
}

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename T>
uint64_t Fnv1aValue(uint64_t hash, const T& value) {
  return Fnv1a(hash, std::string_view(reinterpret_cast<const char*>(&value),
                                      sizeof(value)));
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Every harvested record must be a record of the table, with exactly the
// table's values.
Status CheckHarvest(const Table& table, const LocalStore& store) {
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    RecordId id = store.OriginalRecordId(slot);
    if (id >= table.num_records()) {
      return Status::Internal("harvested record id " + std::to_string(id) +
                              " is not in the table");
    }
    std::span<const ValueId> got = store.RecordValues(slot);
    std::span<const ValueId> want = table.record(id);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      return Status::Internal("harvested record " + std::to_string(id) +
                              " differs from the table");
    }
  }
  return Status::OK();
}

uint64_t OutputDigest(const CrawlResult& result, const LocalStore& store) {
  std::ostringstream csv;
  Status written = WriteTraceCsv(result.trace, csv);
  uint64_t hash = Fnv1a(1469598103934665603ULL, csv.str());
  hash = Fnv1aValue(hash, written.ok());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    hash = Fnv1aValue(hash, store.OriginalRecordId(slot));
  }
  const ResilienceCounters& r = result.resilience;
  for (uint64_t v : {result.rounds, result.queries, result.records,
                     r.transient_failures, r.retries, r.backoff_ticks,
                     r.requeues, r.abandoned_values, r.degraded_queries}) {
    hash = Fnv1aValue(hash, v);
  }
  return hash;
}

// Re-ingests the harvest into a fresh store of the same layout; returns
// the ingest time. The records are copied out first so only AddRecord is
// timed.
StatusOr<uint64_t> ReplayIngestNs(const LocalStore& store,
                                  LocalStore::Options options,
                                  const std::string& dir) {
  std::vector<ValueId> values;
  std::vector<size_t> offsets = {0};
  std::vector<RecordId> ids;
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    std::span<const ValueId> record = store.RecordValues(slot);
    values.insert(values.end(), record.begin(), record.end());
    offsets.push_back(values.size());
    ids.push_back(store.OriginalRecordId(slot));
  }
  if (options.layout == LocalStore::Layout::kPaged) {
    options.paged_dir = dir;
    fs::create_directories(dir);
  }
  LocalStore replay(options);
  uint64_t start = NowNs();
  for (size_t i = 0; i < ids.size(); ++i) {
    replay.AddRecord(ids[i], std::span<const ValueId>(
                                 values.data() + offsets[i],
                                 offsets[i + 1] - offsets[i]));
  }
  uint64_t elapsed = NowNs() - start;
  if (replay.num_records() != store.num_records()) {
    return Status::Internal("replay ingest lost records");
  }
  return elapsed;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  for (const WorkloadSpec& spec : all) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

StatusOr<CrawlSample> RunCrawl(const WorkloadSpec& workload, uint64_t seed,
                               const std::string& state_dir,
                               const RunMode& mode) {
  WorkloadSpec spec = workload;
  if (mode.reference) {
    spec.tcp = false;
    spec.paged = false;
    spec.checkpoint_every = 0;
  }
  CrawlSample sample;

  // --- set-up: table, server, listener + connection, store ------------
  const uint64_t setup_start = NowNs();
  DEEPCRAWL_ASSIGN_OR_RETURN(
      Table table, GenerateTable(AcmDlConfig(spec.scale, seed)));
  const uint64_t generated = NowNs();
  ServerOptions server_options;
  WebDbServer backend(table, server_options);
  const uint64_t built = NowNs();
  sample.datagen_s = Seconds(generated - setup_start);
  sample.server_build_s = Seconds(built - generated);
  sample.table_records = table.num_records();

  std::optional<FaultyServer> faulty;
  QueryInterface* source = &backend;
  if (spec.flaky) {
    faulty.emplace(backend, FlakyProfile(), seed);
    faulty->set_keyed_faults(true);
    source = &*faulty;
  }
  std::optional<TimedQueryInterface> timed_source;
  if (mode.traced) source = &timed_source.emplace(*source);

  LoopbackServer tcp;
  std::unique_ptr<NetQueryClient> client;
  std::optional<NetFetchExecutor> net_executor;
  InlineFetchExecutor inline_executor;
  QueryInterface* crawl_interface = source;
  FetchExecutor* executor = nullptr;  // the engine's own inline executor
  if (spec.tcp) {
    DEEPCRAWL_RETURN_IF_ERROR(tcp.Start(
        *source, static_cast<uint32_t>(table.num_distinct_values())));
    NetClientOptions net_options;
    net_options.port = tcp.port();
    net_options.connections = kConnections;
    DEEPCRAWL_ASSIGN_OR_RETURN(client, NetQueryClient::Connect(net_options));
    net_executor.emplace(*client);
    crawl_interface = client.get();
    executor = &*net_executor;
  } else if (mode.traced) {
    executor = &inline_executor;
  }

  LocalStore::Options store_options;
  if (spec.paged) {
    store_options.layout = LocalStore::Layout::kPaged;
    store_options.paged_dir = state_dir + "/store";
    store_options.page_bytes = kPageBytes;
    store_options.cache_pages = spec.cache_pages;
    fs::create_directories(store_options.paged_dir);
  }
  LocalStore store(store_options);
  GreedyLinkSelector selector(store);

  WaveRecorder recorder;
  QuerySelector* crawl_selector = &selector;
  std::optional<TimedSelector> timed_selector;
  std::optional<TimedFetchExecutor> timed_executor;
  if (mode.traced) {
    crawl_selector = &timed_selector.emplace(selector, recorder);
    executor = &timed_executor.emplace(*executor, *timed_source, recorder);
  }

  RetryPolicyConfig retry_config;
  retry_config.seed = seed;
  RetryPolicy retry_policy(retry_config);
  deepcrawl::CrawlOptions crawl_options;
  const double n = static_cast<double>(table.num_records());
  crawl_options.target_records =
      static_cast<uint64_t>(spec.target_coverage * n);

  // Over TCP the fault proxy lives server-side; the checkpoint carries it
  // only in-process, as deepcrawl_crawl does.
  const FaultyServer* checkpointed_faults =
      spec.tcp || !faulty.has_value() ? nullptr : &*faulty;
  const std::string checkpoint_path = state_dir + "/crawl.ckpt";
  CheckpointSink sink = [&](const CrawlEngine& engine) {
    Status saved =
        SaveCrawlCheckpoint(engine, checkpointed_faults, checkpoint_path);
    if (saved.ok()) {
      ++sample.checkpoints;
      sample.checkpoint_bytes += fs::file_size(checkpoint_path);
    }
    return saved;
  };
  EngineOptions engine_options;
  engine_options.batch = spec.batch;
  engine_options.shared_executor = executor;
  if (spec.checkpoint_every > 0) {
    engine_options.checkpoint_every_waves = spec.checkpoint_every;
    engine_options.checkpoint_sink =
        mode.traced ? TimedCheckpointSink(sink, recorder) : sink;
  }
  const bool use_retry = spec.flaky || spec.tcp;
  CrawlEngine engine(*crawl_interface, *crawl_selector, store, crawl_options,
                     engine_options, /*abort_policy=*/nullptr,
                     use_retry ? &retry_policy : nullptr);
  // One start value: the first from a seeded random position that occurs
  // in at least kMinSeedFrequency records. deepcrawl_crawl --seed takes
  // the first that occurs at all, which can be a value of a few isolated
  // records (eBay seed 8 harvests 2 records that way).
  constexpr uint32_t kMinSeedFrequency = 10;
  Pcg32 rng(seed);
  const uint32_t num_values =
      static_cast<uint32_t>(table.num_distinct_values());
  ValueId seed_value = rng.NextBounded(num_values);
  for (uint32_t tried = 0;
       table.value_frequency(seed_value) < kMinSeedFrequency; ++tried) {
    if (tried == num_values) {
      return Status::FailedPrecondition("no value occurs in 10 records");
    }
    seed_value = static_cast<ValueId>((seed_value + 1) % num_values);
  }
  engine.AddSeed(seed_value);
  sample.setup_s = Seconds(NowNs() - setup_start);

  // --- the crawl --------------------------------------------------------
  const ProcIo io_before = ReadProcIo();
  const uint64_t crawl_start = NowNs();
  if (mode.traced) recorder.BeginCrawl(crawl_start);
  StatusOr<CrawlResult> run = engine.Run();
  const uint64_t crawl_end = NowNs();
  if (mode.traced) recorder.EndCrawl(crawl_end);
  const ProcIo io_after = ReadProcIo();
  if (!run.ok()) return run.status();
  const CrawlResult& result = *run;
  sample.crawl_s = Seconds(crawl_end - crawl_start);
  const uint64_t periodic_checkpoints = sample.checkpoints;
  const uint64_t periodic_checkpoint_bytes = sample.checkpoint_bytes;

  // --- stop: final checkpoint, checks, tallies ----------------------------
  // An in-memory store leaves nothing on disk unless it is checkpointed,
  // so those crawls stop with a durable checkpoint, as a crawl that is
  // to be resumed would. The paged store's files are already on disk, and
  // its checkpoint (an fsync per page file) would dominate the run.
  uint64_t final_ns = 0;
  if (!spec.paged) {
    const uint64_t final_start = NowNs();
    DEEPCRAWL_RETURN_IF_ERROR(sink(engine));
    final_ns = NowNs() - final_start;
  }
  sample.disk_bytes = DirBytes(state_dir);

  sample.rounds = result.rounds;
  sample.queries = result.queries;
  sample.records = result.records;
  sample.waves = engine.waves_completed();
  sample.stop_reason = StopReasonToString(result.stop_reason);
  sample.resilience = result.resilience;
  if (spec.paged) sample.cache = store.paged_cache_stats();
  sample.digest = OutputDigest(result, store);

  if (result.records != store.num_records()) {
    return Status::Internal("result records differ from the store");
  }
  if (crawl_options.target_records > 0 &&
      result.stop_reason != StopReason::kTargetReached) {
    return Status::Internal(std::string("crawl stopped early: ") +
                            sample.stop_reason);
  }
  DEEPCRAWL_RETURN_IF_ERROR(CheckHarvest(table, store));

  if (mode.traced) {
    LayerTotals layers;
    layers.waves = recorder.waves();
    for (const WaveSpan& w : layers.waves) {
      layers.selector_rank_ns += w.rank_ns;
      layers.selector_rank_calls += w.rank_calls;
      layers.selector_update_ns += w.update_ns;
      layers.selector_update_calls += w.update_calls;
      layers.fetch_ns += w.fetch.length();
      layers.backend_ns += w.backend_ns;
      layers.checkpoint_ns += w.checkpoint.length();
      layers.checkpoint_max_ns =
          std::max(layers.checkpoint_max_ns, w.checkpoint.length());
      layers.engine_self_ns += w.SelfNs();
    }
    layers.checkpoint_final_ns = final_ns;
    layers.checkpoints = periodic_checkpoints;
    layers.checkpoint_bytes = periodic_checkpoint_bytes;
    layers.backend_calls = timed_source->calls();
    layers.rtt_mean_us = result.rtt.MeanUs();
    if (client) layers.reconnects = client->reconnects();
    tcp.Stop();
    if (spec.tcp) {
      layers.protocol_errors = tcp.server().protocol_errors();
      layers.requests_served = tcp.server().requests_served();
    }
    if (faulty.has_value()) {
      layers.faults_injected = faulty->fault_counters().total();
    }
    layers.io_read_bytes = io_after.rchar - io_before.rchar;
    layers.io_write_bytes = io_after.wchar - io_before.wchar;
    layers.io_syscalls = io_after.syscalls - io_before.syscalls;
    DEEPCRAWL_ASSIGN_OR_RETURN(
        layers.replay_ingest_ns,
        ReplayIngestNs(store, store_options, state_dir + "/replay"));
    if (!mode.spans_path.empty()) {
      std::ofstream spans(mode.spans_path);
      recorder.WriteJsonLines(spans);
    }
    sample.layers = std::move(layers);
  }
  return sample;
}

}  // namespace crawlbench
