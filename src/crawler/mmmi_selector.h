// Min-Max Mutual Information query selection (MMMI, §3.3).
//
// The greedy link-based strategy favours popular values, but popularity
// ignores the *dependency* between a candidate and the queries already
// issued: co-author-style correlations mean a popular value may return
// mostly duplicate records once its frequent companions were queried.
// The paper observes this "low marginal benefit" phenomenon past ~85%
// coverage and proposes MMMI: rate each candidate q by
//
//   s(q) = max_{q_j in Lqueried} ln P(q, q_j | DBlocal)
//                                  / (P(q | DBlocal) P(q_j | DBlocal))
//
// (its maximum pointwise mutual information with any issued query, which
// "avoids bad decisions" like query optimizers do) and prefer candidates
// with the SMALLEST s — the ones least correlated with what was already
// asked. HR(q) is taken proportional to 1/s(q).
//
// Per §3.3 the crawler starts as plain greedy-link (dependency estimates
// from a small DBlocal would be noise) and switches to MMMI ordering when
// the harness signals saturation; dependency scores are recomputed in
// batch mode to bound the computational cost.
//
// Hot path: co-occurrence counts co(q, q_j) are maintained
// *incrementally* — each harvested record bumps co(v, u) for its
// (pending v, issued u) occurrence pairs, and when a query u completes,
// one backfill scan over postings(u) credits the records harvested
// before u was issued. Every (record, v, u) contribution lands exactly
// once: a record is harvested either after u completed (live path; u is
// in the issued bitmap at harvest time) or before (backfill path), and
// the bitmap guard makes the backfill fire once per value.
// RecomputeBatch then ranks candidates from the cached counters instead
// of rescanning postings × record values per batch — the full rescan
// stays available behind MmmiOptions::reference_scoring as the
// differential-test yardstick. Both paths
// aggregate a candidate's (partner, count) pairs sorted ascending by
// partner id through one shared routine, so floating-point sums are
// bit-identical regardless of which path produced the counts. See
// DESIGN.md §9.

#ifndef DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/util/chunked_arena.h"

namespace deepcrawl {

// How the dependency score is folded into the marginal-phase ranking.
enum class MmmiRanking {
  // Literal §3.3 text: sort Lto-query ascending by s(q) alone
  // (HR(q) taken proportional to 1/s(q)).
  kPureDependency,
  // §3.3 also states MMMI "is used together with the greedy link-based
  // approach": rank by degree(q) * exp(-s(q)) descending, i.e. the
  // greedy popularity estimate discounted by the dependency penalty
  // (exp(-s) = min_j P(q)P(q_j)/P(q,q_j), an independence discount).
  // This is the default: on Zipf-distributed databases the pure ordering
  // ignores query productivity and loses to plain greedy (the ablation
  // bench quantifies this).
  kDegreeDiscount,
  // Residual-frequency ranking: num(q, DBlocal) minus the co-occurrence
  // count with the single most-covering issued query — the local records
  // NOT explained by the strongest dependency. A containment variant of
  // the same min-max idea: a value whose every local record also carries
  // some issued value is predicted fully drained.
  kResidualFrequency,
  // §3.3 explicitly leaves open "whether max() is the best function to
  // capture the correlation ... (e.g. the linear weighted function can
  // be a good alternative)": score by the co-occurrence-weighted MEAN of
  // the pairwise PMIs instead of their max, then apply the same degree
  // discount. Less conservative than max (one bad pairing no longer
  // vetoes a candidate); compared in bench_mmmi_ablation.
  kWeightedDependency,
};

struct MmmiOptions {
  // Queries served from one dependency ranking before re-sorting (§3.3's
  // batch-mode recomputation).
  uint32_t batch_size = 10;
  MmmiRanking ranking = MmmiRanking::kDegreeDiscount;
  // Score batches with the pre-optimization full postings rescan instead
  // of the incremental counters. Selection output is identical either
  // way (the differential suite proves it); this exists as the yardstick
  // and for A/B benchmarking.
  bool reference_scoring = false;
};

class MmmiSelector : public GreedyLinkSelector {
 public:
  MmmiSelector(const LocalStore& store, MmmiOptions options = MmmiOptions{});

  void OnRecordHarvested(uint32_t slot) override;
  void OnQueryCompleted(const QueryOutcome& outcome) override;
  void OnSaturation() override { saturated_ = true; }
  ValueId SelectNext() override;
  std::string_view name() const override {
    return "greedy-link+mmmi";
  }

  bool saturated() const { return saturated_; }

  // Checkpointing: base (greedy) state plus the saturation flag, issued
  // bitmap, batch queue, and the incremental co-occurrence rows (each
  // row restored in its sorted-ascending order). The MmmiOptions
  // fingerprint is verified on load.
  Status SaveState(CheckpointWriter& writer) const override;
  Status LoadState(CheckpointReader& reader, ValueId value_bound) override;

  // Dependency score s(q) of a candidate against the issued queries,
  // computed on the current DBlocal by the reference scan (so it works
  // without the selector having observed the crawl events). Exposed for
  // tests. Returns -infinity when q co-occurs with no issued query.
  double DependencyScore(ValueId q) const;

  // Total incremental counter bumps (diagnostics / tests).
  uint64_t co_bumps() const { return co_bumps_; }

 private:
  struct Dependency {
    double max_pmi;        // s(q); -inf when no co-occurrence
    uint32_t max_co;       // largest co-occurrence count with one query
    double weighted_pmi;   // co-weighted mean PMI; -inf when none
  };
  // Folds (partner, co) pairs — MUST be sorted ascending by partner id —
  // into a Dependency. Shared by both scoring paths so their FP results
  // are bit-identical.
  Dependency AggregateSorted(
      ValueId q, std::span<const std::pair<ValueId, uint32_t>> cos) const;
  // Reference path: one postings(q) × record-values scan.
  Dependency ComputeDependency(ValueId q) const;
  // Incremental path: aggregate q's cached (partner, count) row.
  Dependency CachedDependency(ValueId q) const {
    return AggregateSorted(q, partners_.Row(q));
  }

  bool IsIssued(ValueId u) const {
    return u < queried_bitmap_.size() && queried_bitmap_[u] != 0;
  }
  void Bump(ValueId v, ValueId u);
  void RecomputeBatch();

  MmmiOptions options_;
  bool saturated_ = false;
  std::vector<char> queried_bitmap_;
  std::deque<ValueId> batch_queue_;

  // Incremental co-occurrence state: row v holds (issued partner u,
  // co(v, u)) pairs kept sorted ascending by u — Bump does a binary
  // search + in-place increment (or a sorted insert for a new partner),
  // and CachedDependency aggregates the row directly with no copy, hash
  // probe, or per-call sort.
  ChunkedArena<std::pair<ValueId, uint32_t>> partners_;
  uint64_t co_bumps_ = 0;

  // Scratch reused across events/batches (cleared, never shrunk).
  std::vector<ValueId> issued_in_record_;
  struct Scored {
    double dependency;
    uint64_t degree;
    double combined;  // degree * exp(-dependency), for kDegreeDiscount
    ValueId value;
  };
  std::vector<Scored> scored_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_
