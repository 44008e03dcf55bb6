#include "src/util/page_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "src/util/checkpoint_io.h"

namespace deepcrawl {

namespace {

// Bytes the framing adds around a page: magic, version, payload size
// ahead of it and the checksum behind it.
constexpr uint64_t kFrameOverhead = 4 + 4 + 8 + 8;

}  // namespace

PagedFile::PagedFile(const std::string& dir, const std::string& name,
                     uint32_t page_bytes)
    : path_(dir + "/" + name + ".seg"),
      page_bytes_(page_bytes),
      frame_bytes_(page_bytes + kFrameOverhead) {
  DEEPCRAWL_CHECK(page_bytes_ > 0) << "page size must be positive";
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  created_ = fd_ >= 0;
  if (!created_ && errno == EEXIST) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  }
  DEEPCRAWL_CHECK(fd_ >= 0) << "cannot open segment file '" << path_
                            << "': " << std::strerror(errno);
}

PagedFile::~PagedFile() { ::close(fd_); }

void PagedFile::EnsurePages(uint64_t n) {
  if (n > pages_.size()) pages_.resize(n);
}

Status PagedFile::ReadPage(uint64_t page, char* out) const {
  if (page >= pages_.size() || pages_[page].current == kNoSlot) {
    std::memset(out, 0, page_bytes_);
    return Status::OK();
  }
  const uint64_t slot = pages_[page].current;
  frame_.resize(frame_bytes_);
  const ssize_t n = ::pread(fd_, frame_.data(), frame_bytes_,
                            static_cast<off_t>(slot * frame_bytes_));
  if (n < 0) {
    return Status::Internal("read failed for slot " + std::to_string(slot) +
                            " of '" + path_ + "': " + std::strerror(errno));
  }
  // A whole frame carries exactly page_bytes of payload; a short read
  // fails the framing's size check.
  StatusOr<std::string_view> payload = UnframeCheckpoint(
      std::string_view(frame_.data(), n), kPageFormatVersion);
  if (!payload.ok()) {
    return Status::InvalidArgument(
        "corrupt page in slot " + std::to_string(slot) + " of '" + path_ +
        "': " + payload.status().message());
  }
  std::memcpy(out, payload->data(), page_bytes_);
  return Status::OK();
}

void PagedFile::ReleaseSlot(const PageState& st, uint64_t slot) {
  if (slot == kNoSlot || slot == st.current || slot == st.durable_last ||
      slot == st.durable_prev) {
    return;
  }
  free_slots_.push_back(slot);
}

Status PagedFile::WritePage(uint64_t page, const char* data) {
  EnsurePages(page + 1);
  uint64_t slot = num_slots_;
  if (free_slots_.empty()) {
    ++num_slots_;
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  frame_.clear();
  const size_t payload_start = OpenCheckpointFrame(frame_, kPageFormatVersion);
  frame_.append(data, page_bytes_);
  CloseCheckpointFrame(frame_, payload_start);
  const ssize_t n = ::pwrite(fd_, frame_.data(), frame_bytes_,
                             static_cast<off_t>(slot * frame_bytes_));
  if (n != static_cast<ssize_t>(frame_bytes_)) {
    const std::string why = n < 0 ? std::strerror(errno) : "short write";
    free_slots_.push_back(slot);
    return Status::Internal("write failed for slot " + std::to_string(slot) +
                            " of '" + path_ + "': " + why);
  }
  written_ = true;
  PageState& st = pages_[page];
  const uint64_t old = st.current;
  st.current = slot;
  ReleaseSlot(st, old);
  return Status::OK();
}

Status PagedFile::SyncPending() {
  if (!written_) return Status::OK();
  if (created_) {
    // A new file's directory entry must be durable too.
    Status status = SyncFileDurable(path_);
    if (!status.ok()) return status;
  } else if (::fsync(fd_) != 0) {
    return Status::Internal("fsync failed for '" + path_ +
                            "': " + std::strerror(errno));
  }
  created_ = false;
  written_ = false;
  return Status::OK();
}

void PagedFile::CommitDurable() {
  for (PageState& st : pages_) {
    const uint64_t out = st.durable_prev;
    st.durable_prev = st.durable_last;
    st.durable_last = st.current;
    ReleaseSlot(st, out);
  }
}

void PagedFile::AppendMeta(CheckpointWriter& w) const {
  w.WriteU64(num_slots_);
  w.WriteU64(pages_.size());
  for (const PageState& st : pages_) w.WriteU64(st.current);
}

Status PagedFile::LoadMeta(CheckpointReader& r) {
  const uint64_t num_slots = r.ReadU64();
  if (!r.ok()) return r.status();
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::Internal("cannot stat '" + path_ +
                            "': " + std::strerror(errno));
  }
  // Validated before anything sized by it is allocated.
  if (num_slots > static_cast<uint64_t>(st.st_size) / frame_bytes_) {
    r.MarkCorrupt("segment '" + path_ + "' names " +
                  std::to_string(num_slots) + " slots but holds " +
                  std::to_string(st.st_size / frame_bytes_));
    return r.status();
  }
  const uint64_t num_pages = r.ReadCount(8);
  std::vector<PageState> pages(num_pages);
  std::vector<bool> used(num_slots, false);
  for (PageState& page : pages) {
    const uint64_t slot = r.ReadU64();
    if (slot == kNoSlot) continue;
    if (slot >= num_slots) {
      r.MarkCorrupt("page slot " + std::to_string(slot) +
                    " past the slot count of '" + path_ + "'");
      break;
    }
    if (used[slot]) {
      r.MarkCorrupt("two pages share slot " + std::to_string(slot) +
                    " of '" + path_ + "'");
      break;
    }
    used[slot] = true;
    page = PageState{slot, slot, slot};
  }
  if (!r.ok()) return r.status();
  // Slots past the loaded count hold only writes made after this
  // manifest; drop them so the file is live pages plus free slots.
  if (::ftruncate(fd_, static_cast<off_t>(num_slots * frame_bytes_)) != 0) {
    return Status::Internal("cannot truncate '" + path_ +
                            "': " + std::strerror(errno));
  }
  free_slots_.clear();
  for (uint64_t slot = num_slots; slot-- > 0;) {
    if (!used[slot]) free_slots_.push_back(slot);
  }
  num_slots_ = num_slots;
  pages_ = std::move(pages);
  written_ = false;
  return Status::OK();
}

PageCache::PageCache(uint32_t page_bytes, uint32_t capacity_frames)
    : page_bytes_(page_bytes),
      capacity_frames_(capacity_frames == 0 ? 1 : capacity_frames) {
  frames_.reserve(capacity_frames_);
}

uint32_t PageCache::RegisterFile(PagedFile* file) {
  DEEPCRAWL_CHECK(file->page_bytes() == page_bytes_)
      << "segment page size " << file->page_bytes()
      << " does not match cache page size " << page_bytes_;
  files_.push_back(Registered{file, {}});
  return static_cast<uint32_t>(files_.size() - 1);
}

uint32_t PageCache::ReclaimFrame() {
  if (frames_.size() < capacity_frames_) {
    frames_.emplace_back();
    frames_.back().data.resize(page_bytes_);
    return static_cast<uint32_t>(frames_.size() - 1);
  }
  // Clock sweep: first pass clears reference bits, so within two laps
  // an unpinned frame is found unless every frame is pinned.
  size_t limit = frames_.size() * 2;
  for (size_t step = 0; step < limit; ++step) {
    uint32_t i = static_cast<uint32_t>(clock_hand_);
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    Frame& frame = frames_[i];
    if (frame.pins > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.valid) {
      Registered& owner = files_[frame.file_id];
      if (frame.dirty) {
        Status status = owner.file->WritePage(frame.page, frame.data.data());
        DEEPCRAWL_CHECK(status.ok())
            << "page writeback failed: " << status.message();
        ++stats_.writebacks;
      }
      owner.frame_of[frame.page] = kNoFrame;
      frame.valid = false;
      frame.dirty = false;
      ++stats_.evictions;
    }
    return i;
  }
  // Every frame is pinned: soft overflow rather than deadlock. The
  // extra frame joins the clock rotation and shrinks back naturally
  // as eviction preference (it starts unreferenced).
  frames_.emplace_back();
  frames_.back().data.resize(page_bytes_);
  return static_cast<uint32_t>(frames_.size() - 1);
}

PageCache::Handle PageCache::AcquireMiss(uint32_t file_id, uint64_t page) {
  ++stats_.misses;
  const uint32_t i = ReclaimFrame();
  Frame& frame = frames_[i];
  Registered& owner = files_[file_id];
  owner.file->EnsurePages(page + 1);
  Status status = owner.file->ReadPage(page, frame.data.data());
  DEEPCRAWL_CHECK(status.ok()) << "page read failed: " << status.message();
  frame.file_id = file_id;
  frame.page = page;
  frame.pins = 1;
  frame.dirty = false;
  frame.referenced = true;
  frame.valid = true;
  if (page >= owner.frame_of.size()) owner.frame_of.resize(page + 1, kNoFrame);
  owner.frame_of[page] = i;
  return Handle(this, i);
}

Status PageCache::FlushAll() {
  for (Frame& frame : frames_) {
    if (!frame.valid || !frame.dirty) continue;
    Status status =
        files_[frame.file_id].file->WritePage(frame.page, frame.data.data());
    if (!status.ok()) return status;
    frame.dirty = false;
  }
  return Status::OK();
}

void PageCache::DropFile(uint32_t file_id) {
  for (Frame& frame : frames_) {
    if (!frame.valid || frame.file_id != file_id) continue;
    DEEPCRAWL_CHECK(frame.pins == 0) << "dropping a pinned page frame";
    files_[file_id].frame_of[frame.page] = kNoFrame;
    frame.valid = false;
    frame.dirty = false;
    frame.referenced = false;
  }
}

void PageCache::UnregisterFile(uint32_t file_id) {
  DropFile(file_id);
  files_[file_id] = Registered{};
}

}  // namespace deepcrawl
