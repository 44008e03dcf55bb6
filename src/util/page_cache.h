// Paged on-disk storage: slot-file shadow paging + a pinned/dirty
// clock page cache — the substrate under LocalStore's Layout::kPaged
// backend (see DESIGN.md §14).
//
// A PagedFile is one logical segment (an array of fixed-size pages)
// stored in one file of fixed-size slots, kept open:
//
//   <dir>/<name>.seg    slot s at byte offset s * frame_bytes()
//
// Each slot holds one page in the standard framing (magic, version,
// payload size, FNV-1a checksum), so a torn or bit-flipped page is
// detected on read. A page with no slot is virgin and reads as zeroes.
// A write pwrites into a free slot, never over the slot of the page's
// current version nor the slots named by the *last two* manifests
// (durable_last / durable_prev): the crawl checkpoint that names
// manifest N is written after manifest N, so a crash in that window
// must still be able to load manifest N-1. Slots leaving that window
// are reused, so the file holds the live pages plus the window.
//
// Durability is deferred to checkpoint boundaries: writes between
// checkpoints are not fsynced (a crash loses them — by design; the
// recovery point is the last manifest). At checkpoint time the store
// flushes dirty frames, fsyncs each segment written since the last
// checkpoint (SyncPending), records every page→slot table in a
// manifest, and only then slides the durable window (CommitDurable).
//
// The PageCache holds a bounded number of page frames shared by all
// segments of a store, with clock (second-chance) eviction, pin
// counts (RAII Handle), and dirty tracking. Its page table is one
// page→frame vector per file, so a hit is two array loads. When every
// frame is pinned the cache soft-overflows by allocating an extra
// frame rather than deadlocking. Hot-path I/O failures abort via
// DEEPCRAWL_CHECK; checkpoint/recovery paths return Status.

#ifndef DEEPCRAWL_UTIL_PAGE_CACHE_H_
#define DEEPCRAWL_UTIL_PAGE_CACHE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/logging.h"
#include "src/util/status.h"

namespace deepcrawl {

class CheckpointReader;
class CheckpointWriter;

// On-disk page frame format version (framing payload = one page).
inline constexpr uint32_t kPageFormatVersion = 1;

// One logical segment: a growable array of fixed-size pages stored in
// one slot file. Not thread-safe (the paged store is single-writer by
// construction).
class PagedFile {
 public:
  // Opens <dir>/<name>.seg, creating it if missing; `dir` must exist.
  // `page_bytes` is the fixed page payload size.
  PagedFile(const std::string& dir, const std::string& name,
            uint32_t page_bytes);
  ~PagedFile();

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;
  PagedFile(PagedFile&&) = delete;
  PagedFile& operator=(PagedFile&&) = delete;

  const std::string& path() const { return path_; }
  uint32_t page_bytes() const { return page_bytes_; }
  // Bytes of one slot: the framed page.
  uint64_t frame_bytes() const { return frame_bytes_; }
  uint64_t num_pages() const { return pages_.size(); }

  // Grows the page directory (new pages are virgin).
  void EnsurePages(uint64_t n);

  // Reads page `page` into `out` (exactly page_bytes). Virgin pages
  // read as zeroes. Validates framing + checksum; any corruption or
  // I/O failure is a clean error.
  Status ReadPage(uint64_t page, char* out) const;

  // Writes page `page` (exactly page_bytes) into a free slot and frees
  // the page's previous slot unless a manifest still names it.
  // Durable only after the next SyncPending().
  Status WritePage(uint64_t page, const char* data);

  // fsyncs the file if it was written since the last SyncPending
  // (plus its directory if the file was created since). Part of the
  // checkpoint protocol.
  Status SyncPending();

  // Called after a manifest naming the current slots has been durably
  // written: slides the per-page durable window (prev <- last <-
  // current) and frees the slots that fell out.
  void CommitDurable();

  // Serializes / restores the slot count and page→slot table for the
  // manifest. LoadMeta rejects a slot at or past the slot count, two
  // pages sharing a slot, or a slot count the file cannot hold; it
  // resets the durable window to the loaded slots, rebuilds the free
  // list and truncates the file to the loaded slot count.
  void AppendMeta(CheckpointWriter& w) const;
  Status LoadMeta(CheckpointReader& r);

 private:
  static constexpr uint64_t kNoSlot = ~uint64_t{0};  // virgin page

  struct PageState {
    uint64_t current = kNoSlot;       // slot of the latest write
    uint64_t durable_last = kNoSlot;  // slot named by the last manifest
    uint64_t durable_prev = kNoSlot;  // slot named by the one before
  };

  // Frees `slot` unless `st` still names it.
  void ReleaseSlot(const PageState& st, uint64_t slot);

  std::string path_;
  uint32_t page_bytes_;
  uint64_t frame_bytes_;
  int fd_ = -1;
  bool created_ = false;  // file created since the last SyncPending
  bool written_ = false;  // file written since the last SyncPending
  uint64_t num_slots_ = 0;
  std::vector<uint64_t> free_slots_;
  std::vector<PageState> pages_;
  // Reused frame buffer for both directions of slot I/O.
  mutable std::string frame_;
};

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;  // dirty frames written out on eviction
};

// Bounded pool of page frames over any number of registered
// PagedFiles, with clock eviction, pin counts, and dirty tracking.
class PageCache {
 public:
  PageCache(uint32_t page_bytes, uint32_t capacity_frames);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Registers a segment; the returned id keys every Acquire. The file
  // must outlive the cache (or be dropped with UnregisterFile first).
  uint32_t RegisterFile(PagedFile* file);

  // RAII pin on a cached page frame. The frame pointer stays valid and
  // unevictable until the handle is destroyed.
  class Handle {
   public:
    Handle() = default;
    Handle(PageCache* cache, uint32_t frame)
        : cache_(cache), frame_(frame) {}
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept {
      Release();
      cache_ = other.cache_;
      frame_ = other.frame_;
      other.cache_ = nullptr;
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Release(); }

    char* data() { return cache_->frames_[frame_].data.data(); }
    const char* data() const { return cache_->frames_[frame_].data.data(); }
    // Must be called before (or after) mutating data(): marks the
    // frame for writeback on eviction/flush.
    void MarkDirty() { cache_->frames_[frame_].dirty = true; }

   private:
    void Release() {
      if (cache_ != nullptr) {
        DEEPCRAWL_DCHECK(cache_->frames_[frame_].pins > 0);
        --cache_->frames_[frame_].pins;
        cache_ = nullptr;
      }
    }
    PageCache* cache_ = nullptr;
    uint32_t frame_ = 0;
  };

  // Pins page (`file_id`, `page`) in a frame, faulting it in (and
  // evicting a victim) as needed. Grows the file's page directory on
  // access past the end. Aborts on I/O error — this is the hot path;
  // recovery-time validation goes through PagedFile directly.
  Handle Acquire(uint32_t file_id, uint64_t page) {
    DEEPCRAWL_DCHECK(file_id < files_.size() &&
                     files_[file_id].file != nullptr)
        << "unregistered file id";
    const std::vector<uint32_t>& frame_of = files_[file_id].frame_of;
    if (page < frame_of.size() && frame_of[page] != kNoFrame) {
      const uint32_t i = frame_of[page];
      Frame& frame = frames_[i];
      frame.referenced = true;
      ++frame.pins;
      ++stats_.hits;
      return Handle(this, i);
    }
    return AcquireMiss(file_id, page);
  }

  // Writes every dirty frame across all files, clearing dirty bits;
  // frames stay cached. Checkpoint step 1.
  Status FlushAll();

  // Invalidates every frame of `file_id` (all must be unpinned);
  // dirty contents are discarded — callers flush first if they matter.
  void DropFile(uint32_t file_id);

  // Severs a registered file (after DropFile) so its PagedFile can be
  // destroyed — used when a hash segment retires an old generation.
  // The id is not reused; acquiring through it aborts.
  void UnregisterFile(uint32_t file_id);

  const PageCacheStats& stats() const { return stats_; }
  uint32_t capacity_frames() const { return capacity_frames_; }

 private:
  friend class Handle;

  static constexpr uint32_t kNoFrame = ~uint32_t{0};

  struct Frame {
    std::vector<char> data;
    uint32_t file_id = 0;
    uint64_t page = 0;
    uint32_t pins = 0;
    bool dirty = false;
    bool referenced = false;
    bool valid = false;
  };

  struct Registered {
    PagedFile* file = nullptr;
    std::vector<uint32_t> frame_of;  // page -> frame, kNoFrame if absent
  };

  // Acquire's out-of-line miss path: reclaims a frame and reads the
  // page into it.
  Handle AcquireMiss(uint32_t file_id, uint64_t page);

  // Picks (evicting if needed) a frame for a new page. Clock sweep
  // with second chance; soft-overflows when everything is pinned.
  uint32_t ReclaimFrame();

  uint32_t page_bytes_;
  uint32_t capacity_frames_;
  std::vector<Registered> files_;
  std::vector<Frame> frames_;
  size_t clock_hand_ = 0;
  PageCacheStats stats_;
};

// Fixed-stride element array over one PagedFile + cache: the paged
// analogue of std::vector<T> for trivially copyable T. Elements never
// straddle pages (stride = page_bytes / sizeof(T), a power of two);
// untouched elements read as value-zero (virgin pages). Logical size
// is the caller's business — this is pure random access.
template <typename T>
class PagedArray {
 public:
  PagedArray() = default;
  PagedArray(PageCache* cache, PagedFile* file, uint32_t file_id)
      : cache_(cache), file_id_(file_id) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t per_page = file->page_bytes() / sizeof(T);
    DEEPCRAWL_CHECK(std::has_single_bit(per_page))
        << "elements per page must be a power of two, got " << per_page;
    shift_ = static_cast<uint32_t>(std::countr_zero(per_page));
    mask_ = per_page - 1;
  }

  T Get(uint64_t i) const {
    PageCache::Handle h = cache_->Acquire(file_id_, i >> shift_);
    T out;
    std::memcpy(&out, h.data() + (i & mask_) * sizeof(T), sizeof(T));
    return out;
  }

  void Set(uint64_t i, const T& v) {
    PageCache::Handle h = cache_->Acquire(file_id_, i >> shift_);
    h.MarkDirty();
    std::memcpy(h.data() + (i & mask_) * sizeof(T), &v, sizeof(T));
  }

  // Bulk copy-out of [i, i+n) into dst, page by page.
  void Load(uint64_t i, T* dst, size_t n) const {
    while (n > 0) {
      const size_t at = i & mask_;
      const size_t run = std::min<size_t>(n, mask_ + 1 - at);
      PageCache::Handle h = cache_->Acquire(file_id_, i >> shift_);
      std::memcpy(dst, h.data() + at * sizeof(T), run * sizeof(T));
      dst += run;
      i += run;
      n -= run;
    }
  }

  // Bulk store of [i, i+n) from src, page by page.
  void Store(uint64_t i, const T* src, size_t n) {
    while (n > 0) {
      const size_t at = i & mask_;
      const size_t run = std::min<size_t>(n, mask_ + 1 - at);
      PageCache::Handle h = cache_->Acquire(file_id_, i >> shift_);
      h.MarkDirty();
      std::memcpy(h.data() + at * sizeof(T), src, run * sizeof(T));
      src += run;
      i += run;
      n -= run;
    }
  }

  uint64_t elements_per_page() const { return mask_ + 1; }

 private:
  PageCache* cache_ = nullptr;
  uint32_t file_id_ = 0;
  uint32_t shift_ = 0;
  uint64_t mask_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_PAGE_CACHE_H_
