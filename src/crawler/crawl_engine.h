// CrawlEngine: the paper's query-harvest-decompose loop (§1, §2.5), run
// as waves of page fetches. One engine serves every configuration — the
// serial crawl (threads == 1, batch == 1) and the batched, multi-threaded
// one (DESIGN.md §10) — layered as:
//
//   * the wave planner/committer (this class): selector ranking, slot
//     refill, strict slot-rank commit order, retry/backoff via the
//     shared DegradationTracker, pending-drain parking across budget
//     slices, trace emission, and stop-reason resolution;
//   * a pluggable FetchExecutor underneath: InlineFetchExecutor runs a
//     wave's fetches sequentially on the calling thread (the serial
//     configuration — no thread is ever spawned), ThreadPoolFetchExecutor
//     runs them concurrently. Executors only decide WHERE the fetch
//     closures run; every task writes its own rank-indexed result cell
//     and the commit phase consumes cells strictly by rank, so the
//     executor choice is invisible to the crawl output *by
//     construction*.
//
// The determinism contract (proven by
// tests/crawler_parallel_differential_test.cc):
//   * batch == 1 is the serial crawl order, bit-identically at any
//     thread count;
//   * at any batch, output is a pure function of (seed, batch); thread
//     count affects wall-clock only;
//   * batch > 1 is semantic: each wave picks its top-B frontier
//     candidates from the previous wave's knowledge (the round-limited
//     access model of Sheng et al., PAPERS.md).
//
// Checkpoint/resume: SaveState/LoadState serialize the engine's entire
// crawl state — local store, selector, retry queues, parked slots, wave
// cursor, clock, trace, resilience counters — such that checkpoint +
// restore + continue emits the SAME trace CSV byte-for-byte as the
// uninterrupted run. See src/crawler/checkpoint.h for the file format
// and the whole-crawl orchestration (including fault-proxy state).

#ifndef DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_
#define DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/crawler/abort_policy.h"
#include "src/crawler/local_store.h"
#include "src/crawler/metrics.h"
#include "src/crawler/query_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace deepcrawl {

class CheckpointReader;
class CheckpointWriter;
class CrawlEngine;

struct CrawlOptions {
  // Stop after this many communication rounds (0 = unbounded).
  uint64_t max_rounds = 0;
  // Stop once this many distinct records were harvested (0 = crawl until
  // the frontier is exhausted). Figure 3's "reach 90% coverage" runs set
  // this to 0.9 * |DB|.
  uint64_t target_records = 0;
  // Notify the selector of saturation once this many records were
  // harvested (0 = never). Drives the §3.3 GL -> MMMI switch-over.
  uint64_t saturation_records = 0;
  // Issue queries through the site's keyword box instead of typed
  // attribute fields (§2.2 "fading schema"): the selected value's text
  // is matched by the server against every attribute, so e.g. a person
  // name harvests both acting and directing credits in one query.
  bool use_keyword_interface = false;
};

enum class StopReason {
  kFrontierExhausted,
  kRoundBudget,
  kTargetReached,
};

const char* StopReasonToString(StopReason reason);

struct CrawlResult {
  StopReason stop_reason = StopReason::kFrontierExhausted;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t records = 0;
  CrawlTrace trace;
  // Copy of trace.resilience(), for reporting convenience.
  ResilienceCounters resilience;
  // Round-trip-time tallies from the query interface the crawl ran
  // against: simulated latency (LockedQueryInterface --latency-us) and
  // measured socket RTT (NetQueryClient) land in these SAME counters,
  // so latency reporting is uniform across in-process and TCP crawls.
  // Wall-clock-derived for network crawls, hence excluded from the
  // determinism contract (never serialized, never traced).
  RttCounters rtt;
  // Per-source degradation reports. Empty for a bare engine crawl; a
  // fleet's merged result carries one entry per source so partial
  // results under chaos are explicit, never silent (DESIGN.md §11).
  std::vector<SourceDegradation> source_reports;
};

// Builds the CrawlResult snapshot every stop path returns — the one
// place stop-reason resolution materializes a result.
CrawlResult MakeCrawlResult(StopReason reason, uint64_t rounds,
                            uint64_t queries, uint64_t records,
                            const CrawlTrace& trace);

// One planned page fetch of a wave, in selector-rank order. The typed
// form (rather than an opaque closure) is what lets transport-aware
// executors see a whole wave at once: the network executor pipelines
// every request of the wave over its connections before reading any
// response (DESIGN.md §13).
struct FetchRequest {
  ValueId value = kInvalidValueId;
  uint32_t page_number = 0;
  // FetchPageKeywordOf instead of FetchPage (CrawlOptions::
  // use_keyword_interface).
  bool keyword = false;
};

// Issues `request` against `server` through the query form the request
// names — the one fetch dispatch shared by every executor.
StatusOr<ResultPage> ExecuteFetch(QueryInterface& server,
                                  const FetchRequest& request);

// Executes one wave of page fetches, writing results[i] for
// requests[i]. Implementations only choose the transport/execution
// vehicle; each fetch lands in its own rank-indexed result cell, so
// execution (and completion) order is invisible to the commit phase.
class FetchExecutor {
 public:
  virtual ~FetchExecutor() = default;
  virtual void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) = 0;
};

// Fetches sequentially on the calling thread (the serial engine
// configuration; never spawns a thread).
class InlineFetchExecutor : public FetchExecutor {
 public:
  void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) override;
};

// Fetches concurrently on an owned ThreadPool. The server behind the
// engine must be thread-safe (see src/server/locked_interface.h).
class ThreadPoolFetchExecutor : public FetchExecutor {
 public:
  explicit ThreadPoolFetchExecutor(uint32_t threads);
  void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) override;

 private:
  ThreadPool pool_;
  // Wave closures, reused across waves (cleared, never shrunk).
  std::vector<std::function<void()>> tasks_;
};

// Graceful-degradation bookkeeping shared by every engine configuration:
// given a failed page fetch, decides retry / re-queue / abandon / fail,
// and owns the ResilienceCounters accumulation plus the frontier-tail
// retry queue those decisions feed.
class DegradationTracker {
 public:
  enum class FailureAction {
    kFailCrawl,  // not retryable (or no policy): the crawl must fail
    kRetry,      // backoff charged; re-fetch the same page next wave
    kRequeue,    // drain gave up; value re-queued at the frontier tail
    kAbandon,    // drain gave up; re-queue budget exhausted, value dropped
  };

  // `policy` may be null (every failure fails the crawl). `clock` is
  // advanced by backoff waits and must outlive the tracker.
  DegradationTracker(const RetryPolicy* policy, SimulatedClock& clock)
      : policy_(policy), clock_(clock) {}

  // Handles one failed fetch of `value`: bumps `failures` (the drain's
  // failed-attempt count) and the resilience tallies, charges backoff to
  // the clock, and re-queues the value when its drain gives up.
  FailureAction OnFetchFailure(const Status& failure, ValueId value,
                               uint32_t& failures,
                               ResilienceCounters& resilience);

  // Pops the next re-queued value (frontier tail), or kInvalidValueId.
  ValueId PopRetry();

  void SaveState(CheckpointWriter& writer) const;
  Status LoadState(CheckpointReader& reader);

 private:
  const RetryPolicy* policy_;
  SimulatedClock& clock_;
  // Values whose drain gave up, waiting at the frontier tail, and how
  // often each was already re-queued.
  std::deque<ValueId> retry_queue_;
  std::unordered_map<ValueId, uint32_t> requeue_count_;
};

struct EngineOptions {
  // Worker threads fetching pages (>= 1). threads == 1 uses the inline
  // executor (fully serial, no thread spawned); threads > 1 uses a
  // ThreadPool and requires a thread-safe server. Wall-clock only.
  uint32_t threads = 1;
  // Concurrent drain slots per wave (>= 1). Semantic: batch == 1 is
  // exactly the serial crawl order.
  uint32_t batch = 1;
  // Invoke `checkpoint_sink` after every N completed waves (0 = never).
  // Wave boundaries are the engine's durable points: the sink sees a
  // state from which a restored engine continues bit-identically.
  uint64_t checkpoint_every_waves = 0;
  // Called at checkpoint boundaries (typically SaveCrawlCheckpoint); a
  // non-OK return fails the crawl with that status.
  std::function<Status(const CrawlEngine&)> checkpoint_sink = nullptr;
  // When set, the engine fetches through this executor instead of
  // constructing its own, and `threads` is ignored. A fleet points every
  // source's engine at one shared pool so N sources never spawn N pools;
  // waves still run one engine at a time, so the shared executor needs
  // no cross-engine synchronization. Must outlive the engine.
  FetchExecutor* shared_executor = nullptr;
};

class CrawlEngine {
 public:
  // All referenced objects must outlive the engine. When engine.threads
  // > 1 the server must be thread-safe (wrap it in a
  // LockedQueryInterface); `abort_policy` may be null (never abort);
  // `retry_policy` may be null (fail the crawl on the first fetch
  // error).
  CrawlEngine(QueryInterface& server, QuerySelector& selector,
              LocalStore& store, CrawlOptions options,
              EngineOptions engine_options = EngineOptions{},
              AbortPolicy* abort_policy = nullptr,
              const RetryPolicy* retry_policy = nullptr);

  CrawlEngine(const CrawlEngine&) = delete;
  CrawlEngine& operator=(const CrawlEngine&) = delete;

  // Plants a seed attribute value; duplicate seeds are ignored.
  void AddSeed(ValueId v);

  // Runs waves until a stop condition fires. May be called again to
  // continue (e.g. with a raised budget): slots interrupted by the
  // round budget stay parked and resume exactly, with no page
  // re-fetched and no record double-counted.
  StatusOr<CrawlResult> Run();

  // Adjusts budgets between Run() calls (0 = unbounded), enabling
  // incremental/staged crawls and resumed runs.
  void set_max_rounds(uint64_t max_rounds) {
    options_.max_rounds = max_rounds;
  }
  void set_target_records(uint64_t target_records) {
    options_.target_records = target_records;
  }

  uint64_t rounds_used() const { return rounds_used_; }
  uint64_t queries_issued() const { return queries_issued_; }
  uint64_t waves_completed() const { return waves_completed_; }
  const LocalStore& store() const { return store_; }
  const SimulatedClock& clock() const { return clock_; }
  const CrawlTrace& trace() const { return trace_; }
  const CrawlOptions& options() const { return options_; }
  const EngineOptions& engine_options() const { return engine_options_; }

  // --- checkpointing ---------------------------------------------------
  // Serializes the engine's full crawl state (config fingerprint, loop
  // state, local store, selector) into `writer`. Fails cleanly when the
  // selector does not support checkpointing (oracle/domain policies).
  Status SaveState(CheckpointWriter& writer) const;
  // Restores state saved by SaveState into a freshly constructed engine
  // whose construction parameters (batch, keyword mode, store options,
  // selector policy) match the checkpointing run; anything else is
  // rejected with a clean error. On error the engine may be partially
  // populated and must be discarded — never continue a crawl on it.
  Status LoadState(CheckpointReader& reader);

 private:
  // One in-flight drain: which value, which page comes next, and the
  // outcome accumulated so far. Parked across Run() calls on budget
  // expiry.
  struct Slot {
    ValueId value = kInvalidValueId;
    uint32_t next_page = 0;
    uint32_t failures = 0;
    QueryOutcome outcome;
  };

  void DiscoverValue(ValueId v);
  ValueId NextValue();
  // Applies one fetched page to the crawl state. Clears `slot_box` when
  // the drain ended; leaves it parked for the next wave otherwise.
  // Returns a non-OK status only when the crawl must fail.
  Status CommitFetch(std::optional<Slot>& slot_box,
                     StatusOr<ResultPage> fetched);
  // Drain-finished bookkeeping shared by the completion paths.
  void FinishDrain(std::optional<Slot>& slot_box);
  void CheckSaturation();
  CrawlResult MakeResult(StopReason reason) const;

  QueryInterface& server_;
  QuerySelector& selector_;
  LocalStore& store_;
  CrawlOptions options_;
  EngineOptions engine_options_;
  AbortPolicy* abort_policy_;
  const RetryPolicy* retry_policy_;
  // Owned when the engine built its own executor; empty when fetching
  // through engine_options_.shared_executor. `executor_` is the one the
  // wave loop uses either way.
  std::unique_ptr<FetchExecutor> owned_executor_;
  FetchExecutor* executor_;

  std::vector<char> seen_;  // value already in Lto-query or Lqueried
  bool saturation_notified_ = false;
  uint64_t rounds_used_ = 0;
  uint64_t queries_issued_ = 0;
  uint64_t waves_completed_ = 0;
  CrawlTrace trace_;
  SimulatedClock clock_;
  DegradationTracker degradation_;

  std::vector<std::optional<Slot>> slots_;
  // The wave currently being executed (slot indices, lowest rank
  // first) and how many of its fetches have been committed. A wave is
  // an atomic unit of the crawl order: when the round budget expires
  // mid-wave, the unfetched suffix survives across Run() calls and is
  // fetched FIRST on resume, before any refill — this is what makes a
  // budget-sliced run bit-identical to a one-shot run at any batch.
  std::vector<size_t> wave_;
  size_t wave_pos_ = 0;
  // Per-wave trace points, flushed through CrawlTrace::AddWave once per
  // wave slice (single buffered append instead of one write per page).
  std::vector<TracePoint> wave_points_;
  // Wave-assembly scratch, reused across waves (cleared, never shrunk)
  // so steady-state waves allocate nothing.
  std::vector<std::optional<StatusOr<ResultPage>>> fetch_results_;
  std::vector<FetchRequest> fetch_requests_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_
