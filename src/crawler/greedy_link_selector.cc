#include "src/crawler/greedy_link_selector.h"

#include <algorithm>

#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

GreedyLinkSelector::GreedyLinkSelector(const LocalStore& store)
    : FrontierSelector(store) {
  heap_.reserve(1024);
}

void GreedyLinkSelector::EnsureCapacity(ValueId v) {
  if (v < last_pushed_degree_.size()) return;
  last_pushed_degree_.resize(static_cast<size_t>(v) + 1, kNeverPushed);
}

void GreedyLinkSelector::PushEntry(ValueId v, uint64_t degree) {
  last_pushed_degree_[v] = degree;
  heap_.push_back(HeapEntry{degree, v});
  std::push_heap(heap_.begin(), heap_.end());
  ++heap_pushes_;
}

void GreedyLinkSelector::Push(ValueId v) {
  if (!IsPending(v)) return;
  uint64_t degree = store().LocalDegree(v);
  // The heap already holds an entry at this exact key; a duplicate
  // cannot change pop order (see header).
  if (degree == last_pushed_degree_[v]) return;
  PushEntry(v, degree);
}

void GreedyLinkSelector::OnFrontierInsert(ValueId v) {
  EnsureCapacity(v);
  PushEntry(v, store().LocalDegree(v));
}

void GreedyLinkSelector::OnRecordHarvested(uint32_t slot) {
  // Every pending value in the record may have gained links; refresh.
  for (ValueId v : store().RecordValues(slot)) {
    Push(v);
  }
}

Status GreedyLinkSelector::SaveState(CheckpointWriter& writer) const {
  // Only live entries are written: a pending value's entry at its
  // last-pushed degree. Every other entry is skipped on pop (stale or
  // not pending), so dropping them cannot change pop order; sorted
  // descending, the live entries already form a valid max-heap.
  std::vector<HeapEntry> live;
  live.reserve(frontier_size());
  for (const HeapEntry& entry : heap_) {
    if (IsPending(entry.value) &&
        entry.degree == last_pushed_degree_[entry.value]) {
      live.push_back(entry);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return b < a; });
  writer.WriteU64(live.size());
  for (const HeapEntry& entry : live) {
    writer.WriteU64(entry.degree);
    writer.WriteU32(entry.value);
  }
  SaveFrontier(writer);
  uint64_t pushed = 0;
  for (uint64_t degree : last_pushed_degree_) {
    if (degree != kNeverPushed) ++pushed;
  }
  writer.WriteU64(pushed);
  for (size_t v = 0; v < last_pushed_degree_.size(); ++v) {
    if (last_pushed_degree_[v] == kNeverPushed) continue;
    writer.WriteU32(static_cast<ValueId>(v));
    writer.WriteU64(last_pushed_degree_[v]);
  }
  writer.WriteU64(heap_pushes_);
  return Status::OK();
}

Status GreedyLinkSelector::LoadState(CheckpointReader& reader,
                                     ValueId value_bound) {
  heap_.clear();
  last_pushed_degree_.assign(value_bound, kNeverPushed);
  uint64_t heap_size = reader.ReadCount(12);
  heap_.reserve(static_cast<size_t>(heap_size));
  for (uint64_t i = 0; i < heap_size && reader.ok(); ++i) {
    uint64_t degree = reader.ReadU64();
    ValueId v = reader.ReadU32();
    if (v >= value_bound) {
      reader.MarkCorrupt("heap value id out of range");
      break;
    }
    // Entries were saved in descending order, so the vector is a valid
    // max-heap as-is — pop order is preserved exactly.
    heap_.push_back(HeapEntry{degree, v});
  }
  LoadFrontier(reader, value_bound);
  uint64_t pushed = reader.ReadCount(12);
  for (uint64_t i = 0; i < pushed && reader.ok(); ++i) {
    ValueId v = reader.ReadU32();
    uint64_t degree = reader.ReadU64();
    if (v >= value_bound) {
      reader.MarkCorrupt("pushed-degree value id out of range");
      break;
    }
    last_pushed_degree_[v] = degree;
  }
  heap_pushes_ = reader.ReadU64();
  return reader.status();
}

ValueId GreedyLinkSelector::SelectNext() {
  while (!heap_.empty()) {
    HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    if (!IsPending(top.value)) continue;  // already selected earlier
    uint64_t degree = store().LocalDegree(top.value);
    if (degree != top.degree) continue;  // stale; a fresher entry exists
    MarkNotPending(top.value);
    return top.value;
  }
  return kInvalidValueId;
}

}  // namespace deepcrawl
