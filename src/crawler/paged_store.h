// PagedStore: the out-of-core backend behind LocalStore's
// Layout::kPaged — every statistics-table structure the in-memory kCsr
// layout keeps in RAM, rebuilt as paged segments over a shared
// PageCache so a crawl's working state can exceed memory by orders of
// magnitude (ROADMAP item 1; DESIGN.md §14).
//
// Segment map (all fixed-stride arrays, one slot file `<name>.seg`
// each; see src/util/page_cache.h for the on-disk format):
//
//   recvals   record-values CSR data      (ValueId)
//   recoff    record-values CSR offsets   (u64, recoff[slot+1] = end)
//   recid     slot -> original RecordId
//   recobs    slot -> observation count
//   freq      value -> local frequency
//   link      value -> link count (degree with multiplicity)
//   postdata  postings arena              (record slots)
//   postdir   postings row directory      (offset/size/capacity)
//   adjdata   G_local adjacency arena     (neighbor ValueIds)
//   adjdir    adjacency row directory
//   idmap     RecordId -> slot hash       (persistent value->id map)
//   edges     dedup set of (min,max) G_local edge keys
//
// The two dynamic-CSR arenas use the same doubling relocation as
// ChunkedArena but never compact: abandoned chunks cost at most ~3x
// the live data in *disk* (the geometric chunk series), which is the
// cheap resource here, and skipping compaction keeps appends O(1)
// pages touched. Row content order — the thing selectors observe — is
// append order in both layouts, so crawls are bit-identical.
//
// The hash segments grow by generations: a rehash writes a fresh
// `<name>.g<gen+1>.seg` file and retires the old generation's file,
// which is kept until two more checkpoints commit (older manifests
// may still reference it) and then deleted — or deleted at once while
// the store has no manifest yet.
//
// Checkpoint contract: Checkpoint() flushes dirty frames, fsyncs
// each segment written since the last checkpoint, durably writes
// MANIFEST.<stamp> (scalars + per-segment page→slot tables), then
// frees the slots that fell out of the two-manifest durable window.
// LoadCheckpoint(stamp) reloads a manifest, sweeps every store file
// the manifest does not reference (crash leftovers), and eagerly
// re-reads every referenced page so corruption surfaces as a clean
// Status at resume time, not an abort mid-crawl.

#ifndef DEEPCRAWL_CRAWLER_PAGED_STORE_H_
#define DEEPCRAWL_CRAWLER_PAGED_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/relation/types.h"
#include "src/util/page_cache.h"
#include "src/util/status.h"

namespace deepcrawl {

// Manifest format version (independent of the crawl checkpoint
// version; the manifest is the store's own recovery root).
inline constexpr uint32_t kPagedManifestVersion = 2;

class PagedStore {
 public:
  struct Options {
    std::string dir;            // store directory (created if missing)
    uint32_t page_bytes = 4096; // power of two, >= 64
    uint32_t cache_pages = 1024;
    bool exact_degrees = true;
    // When false, opening deletes any leftover store files so the
    // store starts empty; when true, files are preserved for a
    // follow-up LoadCheckpoint (which does its own sweep).
    bool resume = false;
  };

  // Opens the store. Aborts on invalid options (page size not a
  // power of two / < 64).
  explicit PagedStore(const Options& options);
  ~PagedStore();

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  // --- LocalStore-mirroring operations (same contracts) ---
  bool AddRecord(RecordId id, std::span<const ValueId> values);
  bool ContainsRecord(RecordId id) const;
  void ObserveDuplicate(RecordId id);
  void RestoreObservations(RecordId id, uint32_t count);
  uint64_t num_observations() const { return num_observations_; }
  size_t RecordsObservedTimes(uint32_t k) const;
  size_t num_records() const { return num_records_; }
  size_t num_values_seen() const { return num_values_; }
  uint32_t LocalFrequency(ValueId v) const;
  uint64_t LocalDegree(ValueId v) const;
  RecordId OriginalRecordId(uint32_t slot) const;
  uint32_t ObservationCount(uint32_t slot) const;

  // Copy-out accessors (paged rows cross page boundaries, so spans
  // into the cache are impossible; LocalStore serves spans over these
  // into per-accessor scratch buffers).
  void CopyNeighbors(ValueId v, std::vector<ValueId>& out) const;
  void CopyPostings(ValueId v, std::vector<uint32_t>& out) const;
  void CopyRecordValues(uint32_t slot, std::vector<ValueId>& out) const;

  // --- checkpoint / recovery ---
  // Flushes, syncs, and writes MANIFEST.<stamp>; returns the stamp
  // (monotonic from 1) for the crawl checkpoint's STOR section.
  StatusOr<uint64_t> Checkpoint();
  // Restores the store to the state of MANIFEST.<stamp>, discarding
  // all in-cache state, sweeping unreferenced files, and validating
  // every referenced page's checksum.
  Status LoadCheckpoint(uint64_t stamp);

  uint64_t last_stamp() const { return last_stamp_; }
  const PageCacheStats& cache_stats() const;
  const Options& options() const { return options_; }

 private:
  // 16-byte row directory entry for the paged dynamic-CSR arenas.
  struct RowMeta {
    uint64_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  // 16-byte linear-probing slot; key 0 = empty (keys are RecordId+1
  // or packed nonzero edge pairs, so 0 never collides with data).
  struct HashSlot {
    uint64_t key = 0;
    uint32_t value = 0;
    uint32_t pad = 0;
  };

  struct PagedHash;
  struct Impl;

  // Builds an empty Impl (cache + registered segment files).
  void ResetImpl();
  // Store-wide sweep: deletes every file in the directory that starts
  // with a store prefix but is not in `expected` (paths).
  Status SweepDirectory(const std::vector<std::string>& expected) const;
  // Deletes retired hash-generation files at once while no manifest
  // exists, otherwise queues them until two more checkpoints commit.
  void Retire(std::vector<std::string> paths);
  // Arena append with doubling relocation (no compaction).
  void ArenaAppend(PagedArray<uint32_t>& data, PagedArray<RowMeta>& dir,
                   uint64_t& tail, uint64_t row, uint32_t value);
  void MoveRange(PagedArray<uint32_t>& data, uint64_t from, uint64_t to,
                 uint64_t count);

  Options options_;
  std::unique_ptr<Impl> impl_;

  // Logical scalars (checkpointed in the manifest).
  uint64_t num_records_ = 0;
  uint64_t num_observations_ = 0;
  uint64_t num_values_ = 0;
  uint64_t recvals_size_ = 0;
  uint64_t post_tail_ = 0;
  uint64_t adj_tail_ = 0;
  uint64_t last_stamp_ = 0;

  // Retired hash-generation files pending deletion once `delete_at`
  // commits (older manifests may reference them until then).
  struct Retired {
    uint64_t delete_at;
    std::vector<std::string> paths;
  };
  std::vector<Retired> retired_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_PAGED_STORE_H_
