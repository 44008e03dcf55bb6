// Greedy relational-link query selection (§3.2).
//
// Motivated by the power-law degree distribution of real database graphs
// (Figure 2), the greedy link-based crawler estimates a candidate's
// harvest rate as proportional to its degree in the local graph G_local
// and always queries the frontier value with the greatest link number —
// hub values uncover large portions of the database quickly.
//
// Implementation: a lazy max-heap keyed by local degree, held in an
// explicit vector (std::push_heap/pop_heap) so the backing storage is
// reserved once and reused across the crawl. Degrees only grow, so
// entries are re-pushed when a harvested record grows a pending value's
// degree, and stale (smaller-degree) entries are skipped on pop. A
// per-value last-pushed-degree table suppresses the duplicate pushes
// the old implementation made for every record touching a pending value
// even when its degree did not change (records re-containing an
// existing neighbor pair): while v is pending the heap always holds an
// entry at v's current degree — degree growth implies v appeared in the
// record that grew it, which triggers a fresh push — and identical
// (degree, value) keys are interchangeable under the heap's total
// order, so dropping same-degree re-pushes cannot change pop order.
// This bounds lifetime heap pushes by
//   #discovered values + Σ_v LocalDegree(v) increments,
// instead of #discovered + Σ records × record width.
//
// The frontier (Lto-query) lives in the shared FrontierSelector base
// (query_selector.h); this class adds the degree-keyed heap on top.

#ifndef DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"

namespace deepcrawl {

class GreedyLinkSelector : public FrontierSelector {
 public:
  // `store` must outlive the selector and be the store the crawler
  // feeds; degrees are read from it.
  explicit GreedyLinkSelector(const LocalStore& store);

  void OnRecordHarvested(uint32_t slot) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "greedy-link"; }

  // Checkpointing: the heap's live entries (pending values at their
  // last-pushed degree) in descending order, which is a valid max-heap
  // with the same pop order as the full heap; the frontier in its
  // current swap-erase permutation; and the last-pushed-degree table
  // sparsely.
  Status SaveState(CheckpointWriter& writer) const override;
  Status LoadState(CheckpointReader& reader, ValueId value_bound) override;

  // Diagnostics for the stress test's heap-growth assertion.
  size_t heap_size() const { return heap_.size(); }
  uint64_t heap_pushes() const { return heap_pushes_; }

 protected:
  static constexpr uint64_t kNeverPushed = UINT64_MAX;

  // Re-inserts `v` with its current degree (no-op unless pending or the
  // degree matches the entry already in the heap).
  void Push(ValueId v);

  void OnFrontierInsert(ValueId v) override;

 private:
  struct HeapEntry {
    uint64_t degree;
    ValueId value;
    bool operator<(const HeapEntry& other) const {
      if (degree != other.degree) return degree < other.degree;
      // Deterministic tie-break: prefer smaller id (max-heap pops it last
      // among equals reversed, so compare greater-id as "less").
      return value > other.value;
    }
  };

  void EnsureCapacity(ValueId v);
  void PushEntry(ValueId v, uint64_t degree);

  std::vector<HeapEntry> heap_;
  std::vector<uint64_t> last_pushed_degree_;  // by value; kNeverPushed
  uint64_t heap_pushes_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_
