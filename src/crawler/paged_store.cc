#include "src/crawler/paged_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <unordered_set>
#include <utility>

#include "src/util/checkpoint_io.h"
#include "src/util/flat_hash.h"
#include "src/util/logging.h"

namespace deepcrawl {

namespace {

// Every file the store may create starts with one of these, so sweeps
// never touch foreign files (a crawl checkpoint parked in the same
// directory, editor droppings, ...).
constexpr const char* kStorePrefixes[] = {
    "recvals.", "recoff.",  "recid.",  "recobs.", "freq.",
    "link.",    "postdata.", "postdir.", "adjdata.", "adjdir.",
    "idmap.",   "edges.",   "MANIFEST.",
};

bool HasStorePrefix(const std::string& name) {
  for (const char* prefix : kStorePrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string ManifestName(uint64_t stamp) {
  return "MANIFEST." + std::to_string(stamp);
}

}  // namespace

// Linear-probing hash segment with generation-file growth. A rehash
// opens `<base>.g<gen+1>`, reinserts every live slot, and hands the
// old generation's slot file back for deferred deletion.
struct PagedStore::PagedHash {
  PageCache* cache = nullptr;
  std::string dir;
  std::string base;
  uint32_t page_bytes = 0;
  uint64_t slots_per_page = 0;
  uint64_t gen = 0;
  uint64_t num_pages = 1;
  uint64_t capacity = 0;
  uint64_t size = 0;
  std::unique_ptr<PagedFile> file;
  uint32_t file_id = 0;
  PagedArray<HashSlot> arr;

  void Create(PageCache* c, const std::string& d, std::string b,
              uint32_t pb) {
    cache = c;
    dir = d;
    base = std::move(b);
    page_bytes = pb;
    slots_per_page = pb / sizeof(HashSlot);
    gen = 0;
    num_pages = 1;
    size = 0;
    OpenGeneration();
  }

  void OpenGeneration() {
    capacity = num_pages * slots_per_page;
    file = std::make_unique<PagedFile>(dir, base + ".g" + std::to_string(gen),
                                       page_bytes);
    file->EnsurePages(num_pages);
    file_id = cache->RegisterFile(file.get());
    arr = PagedArray<HashSlot>(cache, file.get(), file_id);
  }

  bool Lookup(uint64_t key, uint32_t* value) const {
    uint64_t mask = capacity - 1;
    uint64_t i = FlatHashMix(key) & mask;
    while (true) {
      HashSlot s = arr.Get(i);
      if (s.key == 0) return false;
      if (s.key == key) {
        *value = s.value;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  // Returns {stored value, inserted}; grows (possibly retiring the
  // current generation into `retired`) at 3/4 load, matching the
  // in-memory flat hashes.
  std::pair<uint32_t, bool> TryInsert(uint64_t key, uint32_t value,
                                      std::vector<std::string>* retired) {
    DEEPCRAWL_DCHECK(key != 0) << "0 is the empty-slot sentinel";
    if ((size + 1) * 4 > capacity * 3) Grow(retired);
    uint64_t mask = capacity - 1;
    uint64_t i = FlatHashMix(key) & mask;
    while (true) {
      HashSlot s = arr.Get(i);
      if (s.key == 0) {
        arr.Set(i, HashSlot{key, value, 0});
        ++size;
        return {value, true};
      }
      if (s.key == key) return {s.value, false};
      i = (i + 1) & mask;
    }
  }

  void Grow(std::vector<std::string>* retired) {
    std::unique_ptr<PagedFile> old_file = std::move(file);
    uint32_t old_id = file_id;
    PagedArray<HashSlot> old_arr = arr;
    uint64_t old_capacity = capacity;
    ++gen;
    num_pages *= 2;
    OpenGeneration();
    uint64_t mask = capacity - 1;
    for (uint64_t j = 0; j < old_capacity; ++j) {
      HashSlot s = old_arr.Get(j);
      if (s.key == 0) continue;
      uint64_t i = FlatHashMix(s.key) & mask;
      while (arr.Get(i).key != 0) i = (i + 1) & mask;
      arr.Set(i, s);
    }
    // Drop (not flush) the old generation's frames: its file is
    // retired whole, and older manifests still name its slots.
    cache->UnregisterFile(old_id);
    retired->push_back(old_file->path());
    old_file.reset();
  }

  void AppendMeta(CheckpointWriter& w) const {
    w.WriteU64(gen);
    w.WriteU64(num_pages);
    w.WriteU64(size);
    file->AppendMeta(w);
  }

  Status LoadMeta(CheckpointReader& r) {
    uint64_t loaded_gen = r.ReadU64();
    uint64_t loaded_pages = r.ReadU64();
    uint64_t loaded_size = r.ReadU64();
    if (!r.ok()) return r.status();
    if (loaded_pages == 0 || (loaded_pages & (loaded_pages - 1)) != 0) {
      r.MarkCorrupt("hash segment '" + base +
                    "' page count is not a power of two");
      return r.status();
    }
    cache->UnregisterFile(file_id);
    gen = loaded_gen;
    num_pages = loaded_pages;
    OpenGeneration();
    Status status = file->LoadMeta(r);
    if (!status.ok()) return status;
    if (file->num_pages() > num_pages || loaded_size > capacity) {
      r.MarkCorrupt("hash segment '" + base +
                    "' metadata exceeds its capacity");
      return r.status();
    }
    file->EnsurePages(num_pages);
    size = loaded_size;
    return Status::OK();
  }
};

// The cache plus every segment file; rebuilt wholesale on load so a
// resumed store shares no state with the pre-load instance.
struct PagedStore::Impl {
  PageCache cache;
  std::unique_ptr<PagedFile> recvals_f, recoff_f, recid_f, recobs_f, freq_f,
      link_f, postdata_f, postdir_f, adjdata_f, adjdir_f;
  PagedArray<uint32_t> recvals;
  PagedArray<uint64_t> recoff;
  PagedArray<uint32_t> recid;
  PagedArray<uint32_t> recobs;
  PagedArray<uint32_t> freq;
  PagedArray<uint64_t> link;
  PagedArray<uint32_t> postdata;
  PagedArray<RowMeta> postdir;
  PagedArray<uint32_t> adjdata;
  PagedArray<RowMeta> adjdir;
  PagedHash idmap;
  PagedHash edges;

  explicit Impl(const Options& o) : cache(o.page_bytes, o.cache_pages) {
    auto open_u32 = [&](std::unique_ptr<PagedFile>& f, const char* name) {
      f = std::make_unique<PagedFile>(o.dir, name, o.page_bytes);
      return PagedArray<uint32_t>(&cache, f.get(), cache.RegisterFile(f.get()));
    };
    auto open_u64 = [&](std::unique_ptr<PagedFile>& f, const char* name) {
      f = std::make_unique<PagedFile>(o.dir, name, o.page_bytes);
      return PagedArray<uint64_t>(&cache, f.get(), cache.RegisterFile(f.get()));
    };
    auto open_row = [&](std::unique_ptr<PagedFile>& f, const char* name) {
      f = std::make_unique<PagedFile>(o.dir, name, o.page_bytes);
      return PagedArray<RowMeta>(&cache, f.get(), cache.RegisterFile(f.get()));
    };
    recvals = open_u32(recvals_f, "recvals");
    recoff = open_u64(recoff_f, "recoff");
    recid = open_u32(recid_f, "recid");
    recobs = open_u32(recobs_f, "recobs");
    freq = open_u32(freq_f, "freq");
    link = open_u64(link_f, "link");
    postdata = open_u32(postdata_f, "postdata");
    postdir = open_row(postdir_f, "postdir");
    adjdata = open_u32(adjdata_f, "adjdata");
    adjdir = open_row(adjdir_f, "adjdir");
    idmap.Create(&cache, o.dir, "idmap", o.page_bytes);
    edges.Create(&cache, o.dir, "edges", o.page_bytes);
  }

  std::vector<PagedFile*> AllFiles() {
    return {recvals_f.get(),  recoff_f.get(), recid_f.get(),  recobs_f.get(),
            freq_f.get(),     link_f.get(),   postdata_f.get(),
            postdir_f.get(),  adjdata_f.get(), adjdir_f.get(),
            idmap.file.get(), edges.file.get()};
  }
};

PagedStore::PagedStore(const Options& options) : options_(options) {
  DEEPCRAWL_CHECK(!options_.dir.empty()) << "paged store needs a directory";
  DEEPCRAWL_CHECK(options_.page_bytes >= 64 &&
                  (options_.page_bytes & (options_.page_bytes - 1)) == 0)
      << "--page-bytes must be a power of two >= 64, got "
      << options_.page_bytes;
  DEEPCRAWL_CHECK(options_.cache_pages >= 1) << "--cache-pages must be >= 1";
  ::mkdir(options_.dir.c_str(), 0755);  // EEXIST is fine
  // Sweep before ResetImpl opens (and creates) the segment files.
  if (!options_.resume) {
    Status status = SweepDirectory({});
    DEEPCRAWL_CHECK(status.ok())
        << "cannot initialize paged store: " << status.message();
  }
  ResetImpl();
}

PagedStore::~PagedStore() = default;

void PagedStore::ResetImpl() { impl_ = std::make_unique<Impl>(options_); }

const PageCacheStats& PagedStore::cache_stats() const {
  return impl_->cache.stats();
}

Status PagedStore::SweepDirectory(
    const std::vector<std::string>& expected) const {
  std::unordered_set<std::string> keep(expected.begin(), expected.end());
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return Status::NotFound("cannot open store directory '" + options_.dir +
                            "'");
  }
  std::vector<std::string> doomed;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    std::string path = options_.dir + "/" + name;
    if (keep.count(path) == 0 && HasStorePrefix(name)) doomed.push_back(path);
  }
  ::closedir(dir);
  for (const std::string& path : doomed) std::remove(path.c_str());
  return Status::OK();
}

void PagedStore::MoveRange(PagedArray<uint32_t>& data, uint64_t from,
                           uint64_t to, uint64_t count) {
  uint32_t buf[512];
  while (count > 0) {
    uint64_t n = std::min<uint64_t>(count, 512);
    data.Load(from, buf, n);
    data.Store(to, buf, n);
    from += n;
    to += n;
    count -= n;
  }
}

void PagedStore::ArenaAppend(PagedArray<uint32_t>& data,
                             PagedArray<RowMeta>& dir, uint64_t& tail,
                             uint64_t row, uint32_t value) {
  RowMeta meta = dir.Get(row);
  if (meta.size == meta.capacity) {
    uint32_t new_capacity = meta.capacity == 0 ? 4 : meta.capacity * 2;
    uint64_t new_offset = tail;
    tail += new_capacity;
    if (meta.size > 0) MoveRange(data, meta.offset, new_offset, meta.size);
    meta.offset = new_offset;
    meta.capacity = new_capacity;
  }
  data.Set(meta.offset + meta.size, value);
  ++meta.size;
  dir.Set(row, meta);
}

void PagedStore::Retire(std::vector<std::string> paths) {
  if (paths.empty()) return;
  if (last_stamp_ == 0) {
    // No manifest exists yet, so none can name these files.
    for (const std::string& path : paths) std::remove(path.c_str());
    return;
  }
  retired_.push_back(Retired{last_stamp_ + 2, std::move(paths)});
}

bool PagedStore::AddRecord(RecordId id, std::span<const ValueId> values) {
  DEEPCRAWL_CHECK(!values.empty()) << "harvested record has no values";
  uint32_t slot = static_cast<uint32_t>(num_records_);
  std::vector<std::string> retired;
  auto [unused, inserted] =
      impl_->idmap.TryInsert(static_cast<uint64_t>(id) + 1, slot, &retired);
  (void)unused;
  Retire(std::move(retired));
  if (!inserted) return false;

  impl_->recvals.Store(recvals_size_, values.data(), values.size());
  recvals_size_ += values.size();
  impl_->recoff.Set(slot + 1, recvals_size_);
  impl_->recid.Set(slot, id);
  impl_->recobs.Set(slot, 1);
  ++num_records_;
  ++num_observations_;

  for (ValueId v : values) {
    if (static_cast<uint64_t>(v) + 1 > num_values_) {
      num_values_ = static_cast<uint64_t>(v) + 1;
    }
    impl_->freq.Set(v, impl_->freq.Get(v) + 1);
    ArenaAppend(impl_->postdata, impl_->postdir, post_tail_, v, slot);
    impl_->link.Set(v, impl_->link.Get(v) + values.size() - 1);
  }
  if (options_.exact_degrees) {
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        ValueId a = values[i];
        ValueId b = values[j];
        if (a == b) continue;
        uint64_t key = PackUnorderedPair(a, b);
        std::vector<std::string> edge_retired;
        auto [eunused, fresh] = impl_->edges.TryInsert(key, 1, &edge_retired);
        (void)eunused;
        Retire(std::move(edge_retired));
        if (fresh) {
          ArenaAppend(impl_->adjdata, impl_->adjdir, adj_tail_, a, b);
          ArenaAppend(impl_->adjdata, impl_->adjdir, adj_tail_, b, a);
        }
      }
    }
  }
  return true;
}

bool PagedStore::ContainsRecord(RecordId id) const {
  uint32_t slot = 0;
  return impl_->idmap.Lookup(static_cast<uint64_t>(id) + 1, &slot);
}

void PagedStore::ObserveDuplicate(RecordId id) {
  uint32_t slot = 0;
  DEEPCRAWL_CHECK(impl_->idmap.Lookup(static_cast<uint64_t>(id) + 1, &slot))
      << "duplicate observation of a record never added";
  impl_->recobs.Set(slot, impl_->recobs.Get(slot) + 1);
  ++num_observations_;
}

void PagedStore::RestoreObservations(RecordId id, uint32_t count) {
  DEEPCRAWL_CHECK_GE(count, 1u);
  uint32_t slot = 0;
  DEEPCRAWL_CHECK(impl_->idmap.Lookup(static_cast<uint64_t>(id) + 1, &slot))
      << "restoring observations of a record never added";
  uint32_t stored = impl_->recobs.Get(slot);
  num_observations_ += count;
  num_observations_ -= stored;
  impl_->recobs.Set(slot, count);
}

size_t PagedStore::RecordsObservedTimes(uint32_t k) const {
  DEEPCRAWL_CHECK_GE(k, 1u);
  size_t count = 0;
  uint32_t buf[1024];
  uint64_t i = 0;
  while (i < num_records_) {
    uint64_t n = std::min<uint64_t>(1024, num_records_ - i);
    impl_->recobs.Load(i, buf, n);
    for (uint64_t j = 0; j < n; ++j) {
      if (buf[j] == k) ++count;
    }
    i += n;
  }
  return count;
}

uint32_t PagedStore::LocalFrequency(ValueId v) const {
  if (v >= num_values_) return 0;
  return impl_->freq.Get(v);
}

uint64_t PagedStore::LocalDegree(ValueId v) const {
  if (v >= num_values_) return 0;
  if (options_.exact_degrees) return impl_->adjdir.Get(v).size;
  return impl_->link.Get(v);
}

RecordId PagedStore::OriginalRecordId(uint32_t slot) const {
  DEEPCRAWL_CHECK_LT(slot, num_records_) << "local record slot out of range";
  return impl_->recid.Get(slot);
}

uint32_t PagedStore::ObservationCount(uint32_t slot) const {
  DEEPCRAWL_CHECK_LT(slot, num_records_) << "local record slot out of range";
  return impl_->recobs.Get(slot);
}

void PagedStore::CopyNeighbors(ValueId v, std::vector<ValueId>& out) const {
  out.clear();
  if (!options_.exact_degrees || v >= num_values_) return;
  RowMeta meta = impl_->adjdir.Get(v);
  out.resize(meta.size);
  if (meta.size > 0) impl_->adjdata.Load(meta.offset, out.data(), meta.size);
}

void PagedStore::CopyPostings(ValueId v, std::vector<uint32_t>& out) const {
  out.clear();
  if (v >= num_values_) return;
  RowMeta meta = impl_->postdir.Get(v);
  out.resize(meta.size);
  if (meta.size > 0) impl_->postdata.Load(meta.offset, out.data(), meta.size);
}

void PagedStore::CopyRecordValues(uint32_t slot,
                                  std::vector<ValueId>& out) const {
  DEEPCRAWL_CHECK_LT(slot, num_records_) << "local record slot out of range";
  uint64_t begin = impl_->recoff.Get(slot);
  uint64_t end = impl_->recoff.Get(slot + 1);
  out.resize(end - begin);
  if (end > begin) impl_->recvals.Load(begin, out.data(), end - begin);
}

StatusOr<uint64_t> PagedStore::Checkpoint() {
  uint64_t stamp = last_stamp_ + 1;
  // Retired generations scheduled for this stamp (or earlier) are no
  // longer reachable from any loadable manifest — delete them now.
  {
    std::vector<Retired> still_pending;
    for (Retired& r : retired_) {
      if (r.delete_at <= stamp) {
        for (const std::string& path : r.paths) std::remove(path.c_str());
      } else {
        still_pending.push_back(std::move(r));
      }
    }
    retired_ = std::move(still_pending);
  }
  Status status = impl_->cache.FlushAll();
  if (!status.ok()) return status;
  std::vector<PagedFile*> files = impl_->AllFiles();
  for (PagedFile* file : files) {
    status = file->SyncPending();
    if (!status.ok()) return status;
  }
  CheckpointWriter w;
  w.WriteU32(options_.page_bytes);
  w.WriteU8(options_.exact_degrees ? 1 : 0);
  w.WriteU64(num_records_);
  w.WriteU64(num_observations_);
  w.WriteU64(num_values_);
  w.WriteU64(recvals_size_);
  w.WriteU64(post_tail_);
  w.WriteU64(adj_tail_);
  // The ten fixed segments; the two hash segments write their own
  // meta (generation + size + file table) below. AllFiles() orders
  // the hash files last.
  for (size_t i = 0; i + 2 < files.size(); ++i) files[i]->AppendMeta(w);
  impl_->idmap.AppendMeta(w);
  impl_->edges.AppendMeta(w);
  std::string framed = FrameCheckpoint(w.buffer(), kPagedManifestVersion);
  status =
      WriteFileAtomic(options_.dir + "/" + ManifestName(stamp), framed);
  if (!status.ok()) return status;
  for (PagedFile* file : files) file->CommitDurable();
  if (stamp >= 3) {
    std::remove((options_.dir + "/" + ManifestName(stamp - 2)).c_str());
  }
  last_stamp_ = stamp;
  return stamp;
}

Status PagedStore::LoadCheckpoint(uint64_t stamp) {
  if (stamp == 0) {
    return Status::InvalidArgument("paged store manifest stamp 0 is invalid");
  }
  StatusOr<std::string> bytes =
      ReadFileBytes(options_.dir + "/" + ManifestName(stamp));
  if (!bytes.ok()) return bytes.status();
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(*bytes, kPagedManifestVersion);
  if (!payload.ok()) return payload.status();
  CheckpointReader r(*payload);
  uint32_t page_bytes = r.ReadU32();
  uint8_t exact = r.ReadU8();
  uint64_t num_records = r.ReadU64();
  uint64_t num_observations = r.ReadU64();
  uint64_t num_values = r.ReadU64();
  uint64_t recvals_size = r.ReadU64();
  uint64_t post_tail = r.ReadU64();
  uint64_t adj_tail = r.ReadU64();
  if (!r.ok()) return r.status();
  if (page_bytes != options_.page_bytes) {
    return Status::InvalidArgument(
        "paged store manifest was written with --page-bytes=" +
        std::to_string(page_bytes) + " but the store was opened with " +
        std::to_string(options_.page_bytes));
  }
  if ((exact != 0) != options_.exact_degrees) {
    return Status::InvalidArgument(
        "paged store manifest exact-degrees mode does not match the "
        "store options");
  }
  ResetImpl();
  // Order matches Checkpoint(): the ten fixed segments, then the two
  // hash segments (whose LoadMeta re-opens the recorded generation).
  std::vector<PagedFile*> files = impl_->AllFiles();
  for (size_t i = 0; i + 2 < files.size(); ++i) {
    Status status = files[i]->LoadMeta(r);
    if (!status.ok()) return status;
  }
  Status status = impl_->idmap.LoadMeta(r);
  if (!status.ok()) return status;
  status = impl_->edges.LoadMeta(r);
  if (!status.ok()) return status;
  if (!r.ok()) return r.status();
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "corrupt paged store manifest: trailing bytes");
  }
  num_records_ = num_records;
  num_observations_ = num_observations;
  num_values_ = num_values;
  recvals_size_ = recvals_size;
  post_tail_ = post_tail;
  adj_tail_ = adj_tail;
  last_stamp_ = stamp;
  retired_.clear();
  // Sweep crash leftovers: every store file this manifest does not
  // reference (newer manifests, stale temp files, hash generations
  // other than the loaded one) is garbage.
  std::vector<std::string> expected;
  expected.push_back(options_.dir + "/" + ManifestName(stamp));
  files = impl_->AllFiles();
  for (PagedFile* file : files) expected.push_back(file->path());
  status = SweepDirectory(expected);
  if (!status.ok()) return status;
  // Recovery scrub: read back every page now so a corrupt frame is a
  // clean load-time error, not an abort mid-crawl.
  std::vector<char> buf(options_.page_bytes);
  for (PagedFile* file : files) {
    for (uint64_t page = 0; page < file->num_pages(); ++page) {
      status = file->ReadPage(page, buf.data());
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

}  // namespace deepcrawl
