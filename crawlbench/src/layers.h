// Layer timing from outside the program: forwarding decorators around the
// public entry points of each crawl layer, plus the per-wave span record
// they feed.
//
// Nothing here changes what a crawl does. Every decorator forwards every
// virtual of the interface it wraps, so a decorated crawl emits the same
// trace and harvest as an undecorated one (the tests and every traced
// benchmark run check this). The decorators only add clock reads.
//
// Spans: a wave is the interval from one FetchExecutor::FetchWave call to
// the next (the first wave starts when CrawlEngine::Run starts, the last
// ends when it returns), so the wave spans tile the crawl exactly. Each
// wave's children are its fetch interval, its checkpoint interval, and
// the summed time of the selector calls made during it; the wave's self
// time is what is left, i.e. the engine's commit work, store ingest
// included.

#ifndef CRAWLBENCH_SRC_LAYERS_H_
#define CRAWLBENCH_SRC_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/query_selector.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace crawlbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Half-open [start_ns, end_ns) on the NowNs clock.
struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t length() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

// Self time of `parent`: its length minus the part of it covered by the
// union of `children` (each clipped to the parent), minus
// `summed_child_ns`, the total of children recorded only as durations.
// The summed children must not overlap the interval children or each
// other; the result is clamped at zero.
uint64_t SelfTimeNs(Interval parent, std::span<const Interval> children,
                    uint64_t summed_child_ns);

// One wave of a traced crawl.
struct WaveSpan {
  Interval wave;
  Interval fetch;
  Interval checkpoint;       // empty when the wave wrote none
  uint64_t backend_ns = 0;   // backend time serving this wave's fetches
  uint64_t rank_ns = 0;      // QuerySelector::SelectNext
  uint64_t rank_calls = 0;
  uint64_t update_ns = 0;    // every other QuerySelector callback
  uint64_t update_calls = 0;

  uint64_t SelfNs() const;
};

// Collects WaveSpans in memory while a crawl runs; single-threaded (the
// engine's thread).
class WaveRecorder {
 public:
  void BeginCrawl(uint64_t now_ns);
  // FetchWave started: closes the open wave if it already fetched, and
  // opens the next one at `now_ns`.
  void FetchStarted(uint64_t now_ns);
  void FetchEnded(uint64_t now_ns, uint64_t backend_ns);
  void AddRank(uint64_t ns) {
    current_.rank_ns += ns;
    ++current_.rank_calls;
  }
  void AddUpdate(uint64_t ns) {
    current_.update_ns += ns;
    ++current_.update_calls;
  }
  void AddCheckpoint(Interval interval) { current_.checkpoint = interval; }
  void EndCrawl(uint64_t now_ns);

  const std::vector<WaveSpan>& waves() const { return waves_; }

  // One JSON object per wave (times relative to the crawl start).
  void WriteJsonLines(std::ostream& out) const;

 private:
  bool open_ = false;
  bool fetched_ = false;
  uint64_t crawl_start_ns_ = 0;
  WaveSpan current_;
  std::vector<WaveSpan> waves_;
};

// Times every call into the source backend. Thread-safe tallies: over
// TCP the backend runs on the server's loop thread while the crawl
// thread reads the totals.
class TimedQueryInterface : public deepcrawl::QueryInterface {
 public:
  explicit TimedQueryInterface(deepcrawl::QueryInterface& inner)
      : inner_(inner) {}

  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPage(
      deepcrawl::ValueId value, uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageByText(
      deepcrawl::AttributeId attr, std::string_view text,
      uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageByKeyword(
      std::string_view text, uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageConjunctive(
      std::span<const deepcrawl::ValueId> values,
      uint32_t page_number) override;
  deepcrawl::StatusOr<deepcrawl::ResultPage> FetchPageKeywordOf(
      deepcrawl::ValueId value, uint32_t page_number) override;

  uint64_t communication_rounds() const override {
    return inner_.communication_rounds();
  }
  uint64_t queries_issued() const override { return inner_.queries_issued(); }
  void ResetMeters() override { inner_.ResetMeters(); }
  deepcrawl::RttCounters rtt_counters() const override {
    return inner_.rtt_counters();
  }
  const deepcrawl::ServerOptions& options() const override {
    return inner_.options();
  }
  bool IsQueriableValue(deepcrawl::ValueId value) const override {
    return inner_.IsQueriableValue(value);
  }

  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_acquire); }
  uint64_t calls() const { return calls_.load(std::memory_order_acquire); }

 private:
  template <typename Fn>
  deepcrawl::StatusOr<deepcrawl::ResultPage> Timed(Fn&& fn);

  deepcrawl::QueryInterface& inner_;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> calls_{0};
};

// Times every selector callback into the recorder's open wave.
class TimedSelector : public deepcrawl::QuerySelector {
 public:
  TimedSelector(deepcrawl::QuerySelector& inner, WaveRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void OnValueDiscovered(deepcrawl::ValueId v) override;
  void OnRecordHarvested(uint32_t slot) override;
  void OnQueryCompleted(const deepcrawl::QueryOutcome& outcome) override;
  void OnSaturation() override;
  void OnValueTaken(deepcrawl::ValueId v) override;
  deepcrawl::ValueId SelectNext() override;
  std::string_view name() const override { return inner_.name(); }
  bool MaySelectUndiscovered() const override {
    return inner_.MaySelectUndiscovered();
  }
  deepcrawl::Status SaveState(
      deepcrawl::CheckpointWriter& writer) const override {
    return inner_.SaveState(writer);
  }
  deepcrawl::Status LoadState(deepcrawl::CheckpointReader& reader,
                              deepcrawl::ValueId value_bound) override {
    return inner_.LoadState(reader, value_bound);
  }

 private:
  deepcrawl::QuerySelector& inner_;
  WaveRecorder& recorder_;
};

// Opens and closes waves around the wrapped executor's FetchWave, and
// charges each wave the backend time spent serving it.
class TimedFetchExecutor : public deepcrawl::FetchExecutor {
 public:
  TimedFetchExecutor(deepcrawl::FetchExecutor& inner,
                     const TimedQueryInterface& backend,
                     WaveRecorder& recorder)
      : inner_(inner), backend_(backend), recorder_(recorder) {}

  void FetchWave(
      deepcrawl::QueryInterface& server,
      std::span<const deepcrawl::FetchRequest> requests,
      std::span<std::optional<deepcrawl::StatusOr<deepcrawl::ResultPage>>>
          results) override;

 private:
  deepcrawl::FetchExecutor& inner_;
  const TimedQueryInterface& backend_;
  WaveRecorder& recorder_;
};

using CheckpointSink =
    std::function<deepcrawl::Status(const deepcrawl::CrawlEngine&)>;

// Wraps a checkpoint sink so each call is recorded as the current wave's
// checkpoint interval.
CheckpointSink TimedCheckpointSink(CheckpointSink inner,
                                   WaveRecorder& recorder);

}  // namespace crawlbench

#endif  // CRAWLBENCH_SRC_LAYERS_H_
