#include "crawlbench/src/layers.h"

#include <algorithm>
#include <utility>

namespace crawlbench {

using deepcrawl::ResultPage;
using deepcrawl::StatusOr;
using deepcrawl::ValueId;

uint64_t SelfTimeNs(Interval parent, std::span<const Interval> children,
                    uint64_t summed_child_ns) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& child : children) {
    Interval c{std::max(child.start_ns, parent.start_ns),
               std::min(child.end_ns, parent.end_ns)};
    if (c.length() > 0) clipped.push_back(c);
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  uint64_t covered = 0;
  uint64_t reach = parent.start_ns;  // end of the union so far
  for (const Interval& c : clipped) {
    uint64_t from = std::max(c.start_ns, reach);
    if (c.end_ns > from) covered += c.end_ns - from;
    reach = std::max(reach, c.end_ns);
  }
  uint64_t taken = covered + summed_child_ns;
  return parent.length() > taken ? parent.length() - taken : 0;
}

uint64_t WaveSpan::SelfNs() const {
  const Interval children[] = {fetch, checkpoint};
  return SelfTimeNs(wave, children, rank_ns + update_ns);
}

void WaveRecorder::BeginCrawl(uint64_t now_ns) {
  waves_.clear();
  current_ = WaveSpan{};
  current_.wave.start_ns = now_ns;
  crawl_start_ns_ = now_ns;
  open_ = true;
  fetched_ = false;
}

void WaveRecorder::FetchStarted(uint64_t now_ns) {
  if (fetched_) {
    current_.wave.end_ns = now_ns;
    waves_.push_back(current_);
    current_ = WaveSpan{};
    current_.wave.start_ns = now_ns;
  }
  current_.fetch.start_ns = now_ns;
  fetched_ = true;
}

void WaveRecorder::FetchEnded(uint64_t now_ns, uint64_t backend_ns) {
  current_.fetch.end_ns = now_ns;
  current_.backend_ns = backend_ns;
}

void WaveRecorder::EndCrawl(uint64_t now_ns) {
  if (!open_) return;
  current_.wave.end_ns = now_ns;
  waves_.push_back(current_);
  open_ = false;
  fetched_ = false;
}

void WaveRecorder::WriteJsonLines(std::ostream& out) const {
  auto rel = [this](uint64_t ns) {
    return ns == 0 ? 0 : (ns - crawl_start_ns_) / 1000;
  };
  for (size_t i = 0; i < waves_.size(); ++i) {
    const WaveSpan& w = waves_[i];
    out << "{\"wave\":" << i << ",\"start_us\":" << rel(w.wave.start_ns)
        << ",\"end_us\":" << rel(w.wave.end_ns)
        << ",\"fetch_us\":" << w.fetch.length() / 1000
        << ",\"backend_us\":" << w.backend_ns / 1000
        << ",\"rank_us\":" << w.rank_ns / 1000
        << ",\"rank_calls\":" << w.rank_calls
        << ",\"update_us\":" << w.update_ns / 1000
        << ",\"update_calls\":" << w.update_calls
        << ",\"checkpoint_us\":" << w.checkpoint.length() / 1000
        << ",\"self_us\":" << w.SelfNs() / 1000 << "}\n";
  }
}

template <typename Fn>
StatusOr<ResultPage> TimedQueryInterface::Timed(Fn&& fn) {
  uint64_t start = NowNs();
  StatusOr<ResultPage> page = fn();
  busy_ns_.fetch_add(NowNs() - start, std::memory_order_acq_rel);
  calls_.fetch_add(1, std::memory_order_acq_rel);
  return page;
}

StatusOr<ResultPage> TimedQueryInterface::FetchPage(ValueId value,
                                                    uint32_t page_number) {
  return Timed([&] { return inner_.FetchPage(value, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageByText(
    deepcrawl::AttributeId attr, std::string_view text, uint32_t page_number) {
  return Timed(
      [&] { return inner_.FetchPageByText(attr, text, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageByKeyword(
    std::string_view text, uint32_t page_number) {
  return Timed([&] { return inner_.FetchPageByKeyword(text, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageConjunctive(
    std::span<const ValueId> values, uint32_t page_number) {
  return Timed(
      [&] { return inner_.FetchPageConjunctive(values, page_number); });
}

StatusOr<ResultPage> TimedQueryInterface::FetchPageKeywordOf(
    ValueId value, uint32_t page_number) {
  return Timed([&] { return inner_.FetchPageKeywordOf(value, page_number); });
}

namespace {

// Charges the time until its destruction to the recorder's open wave.
class ChargeOnExit {
 public:
  using Add = void (WaveRecorder::*)(uint64_t);
  ChargeOnExit(WaveRecorder& recorder, Add add)
      : recorder_(recorder), add_(add) {}
  ~ChargeOnExit() { (recorder_.*add_)(NowNs() - start_); }
  ChargeOnExit(const ChargeOnExit&) = delete;
  ChargeOnExit& operator=(const ChargeOnExit&) = delete;

 private:
  WaveRecorder& recorder_;
  Add add_;
  uint64_t start_ = NowNs();
};

}  // namespace

void TimedSelector::OnValueDiscovered(ValueId v) {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddUpdate);
  inner_.OnValueDiscovered(v);
}

void TimedSelector::OnRecordHarvested(uint32_t slot) {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddUpdate);
  inner_.OnRecordHarvested(slot);
}

void TimedSelector::OnQueryCompleted(const deepcrawl::QueryOutcome& outcome) {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddUpdate);
  inner_.OnQueryCompleted(outcome);
}

void TimedSelector::OnSaturation() {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddUpdate);
  inner_.OnSaturation();
}

void TimedSelector::OnValueTaken(ValueId v) {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddUpdate);
  inner_.OnValueTaken(v);
}

ValueId TimedSelector::SelectNext() {
  ChargeOnExit charge(recorder_, &WaveRecorder::AddRank);
  return inner_.SelectNext();
}

void TimedFetchExecutor::FetchWave(
    deepcrawl::QueryInterface& server,
    std::span<const deepcrawl::FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  uint64_t backend_before = backend_.busy_ns();
  recorder_.FetchStarted(NowNs());
  inner_.FetchWave(server, requests, results);
  recorder_.FetchEnded(NowNs(), backend_.busy_ns() - backend_before);
}

CheckpointSink TimedCheckpointSink(CheckpointSink inner,
                                   WaveRecorder& recorder) {
  return [inner = std::move(inner),
          &recorder](const deepcrawl::CrawlEngine& engine) {
    uint64_t start = NowNs();
    deepcrawl::Status status = inner(engine);
    recorder.AddCheckpoint(Interval{start, NowNs()});
    return status;
  };
}

}  // namespace crawlbench
