// LocalStore: the crawler's local database DBlocal and the incremental
// statistics table over it.
//
// §2.5: the Query Selector keeps a statistics table with "all the
// information needed ... to make the selection decision", fed by the
// Result Extractor as records are harvested. This class is that store:
//
//   * deduplicated harvested records (the crawler may receive the same
//     record from many queries; only the first copy counts);
//   * per-value local match counts num(q, DBlocal);
//   * local postings (which local records contain a value), powering the
//     mutual-information computations of §3.3;
//   * the degree of every value in the local attribute-value graph
//     G_local, maintained incrementally, powering the greedy link-based
//     selector of §3.2. Exact distinct-neighbor tracking can be switched
//     off in favour of a cheap "link count" (degree with multiplicity)
//     when memory matters; the ablation bench compares both.
//
// Hot-path layout (the kCsr default): postings live in a ChunkedArena
// dynamic-CSR store (one flat buffer, amortized relocation on doubling,
// epoch compaction), and G_local is kept only as what the selectors
// read from it, a per-value degree counter. Edge dedup goes through one
// flat open-addressing hash of packed (min, max) value pairs, probed
// once per record value pair with every pair's slot prefetched first;
// a new edge bumps both endpoints' counters. The pre-optimization
// layout (one unordered_set of neighbors and one vector of postings per
// value) is kept behind Options::layout = kReference so the
// differential suite can prove the two produce byte-identical crawls;
// see DESIGN.md §9.

#ifndef DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
#define DEEPCRAWL_CRAWLER_LOCAL_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/relation/types.h"
#include "src/util/chunked_arena.h"
#include "src/util/flat_hash.h"
#include "src/util/status.h"

namespace deepcrawl {

class PagedStore;
struct PageCacheStats;

class LocalStore {
 public:
  // Which physical layout backs the statistics table. All produce
  // identical observable behaviour (degrees, postings, frequencies, and
  // their orders); kReference exists only as the differential-test
  // yardstick and for A/B benchmarking, kPaged spills to disk through
  // a bounded page cache so the store can exceed RAM (DESIGN.md §14).
  enum class Layout {
    kCsr,        // flat arena + edge hash + degree counters (the default)
    kReference,  // one unordered_set / vector per value (pre-PR layout)
    kPaged,      // on-disk page-cache backend (src/crawler/paged_store.h)
  };

  struct Options {
    // Track exact distinct-neighbor degrees (true) or the cheaper
    // with-multiplicity link count (false).
    bool exact_degrees = true;
    Layout layout = Layout::kCsr;
    // kPaged only: store directory, page size (power of two >= 64),
    // page-cache capacity in frames, and whether existing on-disk
    // state is kept for a follow-up LoadPagedCheckpoint.
    std::string paged_dir;
    uint32_t page_bytes = 4096;
    uint32_t cache_pages = 1024;
    bool paged_resume = false;
  };

  LocalStore();  // default options
  explicit LocalStore(Options options);
  ~LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Adds a harvested record. Returns true when the record was new.
  // A new record starts with one observation.
  bool AddRecord(RecordId id, std::span<const ValueId> values);

  bool ContainsRecord(RecordId id) const;

  // Notes that an already-stored record was returned again by some
  // query. Duplicate-observation counts ("abundance data") feed the
  // Chao-style online size estimators in src/estimate. Aborts when the
  // record was never added.
  void ObserveDuplicate(RecordId id);

  // Checkpoint-restore path: sets the record's observation counter to
  // `count` (>= 1) in one step, equivalent to AddRecord followed by
  // count - 1 ObserveDuplicate calls but O(1) — decode cost must not
  // scale with a counter read from (possibly corrupt) input. Aborts
  // when the record was never added or `count` is zero.
  void RestoreObservations(RecordId id, uint32_t count);

  // Total result records observed, duplicates included.
  uint64_t num_observations() const;

  // Number of stored records observed exactly `k` times (k >= 1).
  size_t RecordsObservedTimes(uint32_t k) const;

  size_t num_records() const;
  size_t num_values_seen() const;

  // num(q, DBlocal): local records containing `v`.
  uint32_t LocalFrequency(ValueId v) const;

  // Degree of `v` in G_local: distinct co-occurring values when exact
  // tracking is on, otherwise the with-multiplicity link count.
  uint64_t LocalDegree(ValueId v) const;

  // Local record slots (indices into this store) containing `v`.
  // Invalidated by the next AddRecord (kPaged: or LocalPostings call).
  std::span<const uint32_t> LocalPostings(ValueId v) const;

  // Values of the local record in slot `slot`. Invalidated by the
  // next AddRecord (kPaged: or RecordValues call).
  std::span<const ValueId> RecordValues(uint32_t slot) const;

  // Original (server-side) record id of slot `slot`.
  RecordId OriginalRecordId(uint32_t slot) const;

  // Times the record in slot `slot` was observed (>= 1), for the
  // checkpoint layer's logical-replay serialization.
  uint32_t ObservationCount(uint32_t slot) const;

  const Options& options() const { return options_; }

  // --- kPaged checkpoint surface (aborts unless layout == kPaged) ---
  // Flushes dirty pages, fsyncs, and durably writes MANIFEST.<stamp>;
  // the returned stamp goes into the crawl checkpoint's STOR section.
  StatusOr<uint64_t> CheckpointPaged();
  // Restores the paged backend to MANIFEST.<stamp> (sweeping crash
  // leftovers and validating every referenced page checksum).
  Status LoadPagedCheckpoint(uint64_t stamp);
  // Page-cache hit/miss/eviction/writeback counters.
  const PageCacheStats& paged_cache_stats() const;

 private:
  void EnsureValueCapacity(ValueId v);

  Options options_;

  // Record content, CSR-style; slot i holds the i-th harvested record.
  std::vector<ValueId> record_values_;
  std::vector<size_t> record_offsets_ = {0};
  std::vector<RecordId> original_ids_;
  std::unordered_map<RecordId, uint32_t> slot_of_;
  std::vector<uint32_t> observation_count_;  // per slot
  uint64_t num_observations_ = 0;

  // Per-value statistics, indexed by ValueId (grown on demand).
  std::vector<uint32_t> local_frequency_;
  std::vector<uint64_t> link_count_;

  // kCsr layout: dynamic-CSR postings, the flat hash that deduplicates
  // G_local edges ((min << 32) | max keys), the exact degrees it counts,
  // and one record's pair keys (scratch reused across AddRecord calls).
  ChunkedArena<uint32_t> postings_csr_;
  FlatSet64 edge_set_;
  std::vector<uint32_t> degree_;
  std::vector<uint64_t> pair_keys_;

  // kReference layout: the pre-optimization containers.
  std::vector<std::vector<uint32_t>> local_postings_ref_;
  std::vector<std::unordered_set<ValueId>> neighbor_sets_ref_;

  // kPaged layout: the on-disk backend plus one scratch buffer per
  // span accessor (rows cross page boundaries, so spans are served
  // from copy-outs; mutable because reading pages touches the cache).
  std::unique_ptr<PagedStore> paged_;
  mutable std::vector<uint32_t> postings_scratch_;
  mutable std::vector<ValueId> record_scratch_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
