// Unit tests for the slot-file shadow-paging substrate
// (src/util/page_cache.h): PagedFile read/write/durability windows,
// slot reuse and manifest validation,
// PageCache eviction/pinning/writeback, and the PagedArray element
// view.

#include "src/util/page_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/checkpoint_io.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

TEST(PagedFileTest, VirginPagesReadAsZeroes) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 128);
  file.EnsurePages(3);
  std::vector<char> page(128, 'x');
  ASSERT_TRUE(file.ReadPage(2, page.data()).ok());
  for (char c : page) EXPECT_EQ(c, 0);
}

TEST(PagedFileTest, WriteReadRoundtripAndEpochAdvance) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 128);
  file.EnsurePages(2);
  std::vector<char> out(128, 0);
  for (int round = 0; round < 3; ++round) {
    std::vector<char> page(128, static_cast<char>('a' + round));
    ASSERT_TRUE(file.WritePage(1, page.data()).ok());
    ASSERT_TRUE(file.ReadPage(1, out.data()).ok());
    EXPECT_EQ(out, page);
  }
}

TEST(PagedFileTest, CorruptPageFileIsCleanError) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 128);
  file.EnsurePages(1);
  std::vector<char> page(128, 'z');
  ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  // The one write landed in slot 0; flip a byte of it in place, so the
  // open fd reads the damaged inode.
  testing_util::FlipByteInPlace(file.path(), file.frame_bytes() / 2);
  Status read = file.ReadPage(0, page.data());
  EXPECT_FALSE(read.ok());
}

TEST(PagedFileTest, MetaRoundtripRestoresEpochTable) {
  const testing_util::ScopedTempDir dir;
  std::vector<char> page(64, 'q');
  CheckpointWriter writer;
  {
    PagedFile file(dir.path(), "seg", 64);
    file.EnsurePages(4);
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    ASSERT_TRUE(file.WritePage(2, page.data()).ok());
    ASSERT_TRUE(file.SyncPending().ok());
    file.AppendMeta(writer);
  }
  PagedFile reopened(dir.path(), "seg", 64);
  CheckpointReader reader(writer.buffer());
  ASSERT_TRUE(reopened.LoadMeta(reader).ok());
  EXPECT_EQ(reopened.num_pages(), 4u);
  std::vector<char> out(64, 0);
  ASSERT_TRUE(reopened.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
  ASSERT_TRUE(reopened.ReadPage(1, out.data()).ok());
  EXPECT_EQ(out, std::vector<char>(64, 0));
  ASSERT_TRUE(reopened.ReadPage(2, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(PagedFileTest, ReloadDiscardsPostManifestWrites) {
  const testing_util::ScopedTempDir dir;
  std::vector<char> page(64, 'a');
  CheckpointWriter writer;
  {
    PagedFile file(dir.path(), "seg", 64);
    file.EnsurePages(1);
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    ASSERT_TRUE(file.SyncPending().ok());
    file.AppendMeta(writer);  // manifest references this slot
    file.CommitDurable();     // ...and the manifest is now durable
    // Crash-window writes after the manifest: newer slots on disk.
    page.assign(64, 'b');
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    page.assign(64, 'c');
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  }
  PagedFile recovered(dir.path(), "seg", 64);
  CheckpointReader reader(writer.buffer());
  ASSERT_TRUE(recovered.LoadMeta(reader).ok());
  std::vector<char> out(64, 0);
  ASSERT_TRUE(recovered.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, std::vector<char>(64, 'a'));
  // Exactly one slot (the manifest's) survives the reload.
  EXPECT_EQ(std::filesystem::file_size(recovered.path()),
            recovered.frame_bytes());
}

// Hand-built segment metadata: slot count, page count, page slots.
std::string SegmentMeta(uint64_t num_slots,
                        const std::vector<uint64_t>& slots) {
  CheckpointWriter w;
  w.WriteU64(num_slots);
  w.WriteU64(slots.size());
  for (uint64_t slot : slots) w.WriteU64(slot);
  return w.TakeBuffer();
}

TEST(PagedFileTest, ForgedManifestIsRejected) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);
  std::vector<char> page(64, 'f');
  ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  ASSERT_TRUE(file.WritePage(1, page.data()).ok());  // two slots on disk
  const struct {
    const char* what;
    std::string meta;
  } forged[] = {
      {"slot at the slot count", SegmentMeta(2, {0, 2})},
      {"two pages share a slot", SegmentMeta(2, {1, 1})},
      // Checked against the file size before anything is sized by it.
      {"slot count the file cannot hold", SegmentMeta(1ull << 40, {0, 1})},
  };
  for (const auto& f : forged) {
    CheckpointReader reader(f.meta);
    EXPECT_FALSE(file.LoadMeta(reader).ok()) << f.what;
  }
  const std::string good = SegmentMeta(2, {1, 0});
  CheckpointReader reader(good);
  ASSERT_TRUE(file.LoadMeta(reader).ok());
  std::vector<char> out(64, 0);
  ASSERT_TRUE(file.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(PagedFileTest, GarbageInFreeSlotsLeavesManifestIntact) {
  const testing_util::ScopedTempDir dir;
  const int kPages = 4;
  // Each write fills its page with a byte no other write uses, so a
  // slot's payload names the write it came from.
  char fill = 'A';
  auto write = [&](PagedFile& file, uint64_t p) {
    std::vector<char> page(64, fill++);
    ASSERT_TRUE(file.WritePage(p, page.data()).ok());
  };
  CheckpointWriter writer;
  std::vector<std::vector<char>> durable(kPages);
  std::string path;
  uint64_t frame_bytes = 0;
  {
    PagedFile file(dir.path(), "seg", 64);
    path = file.path();
    frame_bytes = file.frame_bytes();
    for (int p = 0; p < kPages; ++p) write(file, p);
    write(file, 0);
    write(file, 0);  // page 0 moved twice: its old slots are free
    ASSERT_TRUE(file.SyncPending().ok());
    file.AppendMeta(writer);
    file.CommitDurable();
    for (int p = 0; p < kPages; ++p) {
      durable[p].resize(64);
      ASSERT_TRUE(file.ReadPage(p, durable[p].data()).ok());
    }
    write(file, 2);  // post-manifest writes land in free slots
    write(file, 3);
  }
  // Overwrite every slot that holds no page the manifest names.
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  const uint64_t slots = std::filesystem::file_size(path) / frame_bytes;
  int garbled = 0;
  for (uint64_t s = 0; s < slots; ++s) {
    std::string frame(frame_bytes, 0);
    io.seekg(s * frame_bytes);
    io.read(frame.data(), frame_bytes);
    StatusOr<std::string_view> payload =
        UnframeCheckpoint(frame, kPageFormatVersion);
    ASSERT_TRUE(payload.ok());
    bool named = false;
    for (const std::vector<char>& d : durable) {
      named = named || std::string_view(d.data(), d.size()) == *payload;
    }
    if (named) continue;
    io.seekp(s * frame_bytes);
    io.write(std::string(frame_bytes, '\x5a').data(), frame_bytes);
    ++garbled;
  }
  io.close();
  ASSERT_GE(garbled, 2);
  PagedFile recovered(dir.path(), "seg", 64);
  CheckpointReader reader(writer.buffer());
  ASSERT_TRUE(recovered.LoadMeta(reader).ok());
  std::vector<char> out(64, 0);
  for (int p = 0; p < kPages; ++p) {
    ASSERT_TRUE(recovered.ReadPage(p, out.data()).ok()) << p;
    EXPECT_EQ(out, durable[p]) << p;
  }
  // The rebuilt free list hands out only the garbled slots: writes
  // after the reload never clobber a page the manifest names.
  for (int round = 0; round < 3; ++round) write(recovered, 1);
  for (int p = 0; p < kPages; ++p) {
    if (p == 1) continue;
    ASSERT_TRUE(recovered.ReadPage(p, out.data()).ok()) << p;
    EXPECT_EQ(out, durable[p]) << p;
  }
}

TEST(PagedFileTest, RewritesReuseFreedSlots) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);
  const uint64_t kTouched = 3;
  std::vector<char> page(64, 0);
  for (uint64_t p = 0; p < kTouched; ++p) {
    ASSERT_TRUE(file.WritePage(p, page.data()).ok());
  }
  for (int i = 0; i < 1000; ++i) {
    page.assign(64, static_cast<char>(i));
    ASSERT_TRUE(file.WritePage(1, page.data()).ok());
  }
  EXPECT_LE(std::filesystem::file_size(file.path()),
            (kTouched + 2) * file.frame_bytes());
  std::vector<char> out(64, 0);
  ASSERT_TRUE(file.ReadPage(1, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(PageCacheTest, EvictionWritesBackDirtyFrames) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);
  PageCache cache(64, 2);  // two frames over many pages
  uint32_t id = cache.RegisterFile(&file);
  const int kPages = 16;
  for (int p = 0; p < kPages; ++p) {
    PageCache::Handle h = cache.Acquire(id, p);
    h.MarkDirty();
    std::memset(h.data(), 'a' + p, 64);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().writebacks, 0u);
  // Everything reads back despite only 2 resident frames.
  for (int p = 0; p < kPages; ++p) {
    PageCache::Handle h = cache.Acquire(id, p);
    EXPECT_EQ(h.data()[0], 'a' + p) << "page " << p;
    EXPECT_EQ(h.data()[63], 'a' + p) << "page " << p;
  }
}

TEST(PageCacheTest, PinnedFramesSurviveEvictionPressure) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);
  PageCache cache(64, 2);
  uint32_t id = cache.RegisterFile(&file);
  PageCache::Handle pinned = cache.Acquire(id, 0);
  pinned.MarkDirty();
  std::memset(pinned.data(), 'P', 64);
  // Thrash past capacity while the pin is held; the frame must not be
  // reused (soft overflow allocates extra frames when all are pinned).
  for (int p = 1; p < 12; ++p) {
    PageCache::Handle h = cache.Acquire(id, p);
    h.MarkDirty();
    std::memset(h.data(), 'x', 64);
  }
  EXPECT_EQ(pinned.data()[0], 'P');
  EXPECT_EQ(pinned.data()[63], 'P');
}

TEST(PageCacheTest, FlushAllPersistsWithoutInvalidation) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);
  PageCache cache(64, 8);
  uint32_t id = cache.RegisterFile(&file);
  {
    PageCache::Handle h = cache.Acquire(id, 3);
    h.MarkDirty();
    std::memset(h.data(), 'F', 64);
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  // The on-disk page now matches the cached frame.
  std::vector<char> out(64, 0);
  ASSERT_TRUE(file.ReadPage(3, out.data()).ok());
  EXPECT_EQ(out, std::vector<char>(64, 'F'));
  uint64_t misses = cache.stats().misses;
  PageCache::Handle h = cache.Acquire(id, 3);
  EXPECT_EQ(cache.stats().misses, misses) << "flush must not evict";
  EXPECT_EQ(h.data()[0], 'F');
}

// The cache's counters over one fixed Acquire/MarkDirty trace on three
// files and four frames, step by step. The crawl benchmark pins these
// counters per crawl, so a rebuild of the cache must reproduce the
// same hits, misses, evictions and writebacks, including while the
// cache soft-overflows and after a file is unregistered mid-trace.
TEST(PageCacheTest, CountersPinnedOverFixedTrace) {
  const testing_util::ScopedTempDir dir;
  PagedFile a(dir.path(), "a", 64);
  PagedFile b(dir.path(), "b", 64);
  PagedFile c(dir.path(), "c", 64);
  PageCache cache(64, 4);
  const uint32_t ia = cache.RegisterFile(&a);
  const uint32_t ib = cache.RegisterFile(&b);
  const uint32_t ic = cache.RegisterFile(&c);
  // Dirtied pages hold a byte derived from (file id, page).
  auto mark = [](uint32_t id, uint64_t page) {
    return static_cast<char>(1 + id * 16 + page);
  };
  auto touch = [&](uint32_t id, uint64_t page, bool dirty) {
    PageCache::Handle h = cache.Acquire(id, page);
    if (dirty) {
      h.MarkDirty();
      std::memset(h.data(), mark(id, page), 64);
    }
  };
  auto expect = [&](const char* step, uint64_t hits, uint64_t misses,
                    uint64_t evictions, uint64_t writebacks) {
    SCOPED_TRACE(step);
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().misses, misses);
    EXPECT_EQ(cache.stats().evictions, evictions);
    EXPECT_EQ(cache.stats().writebacks, writebacks);
  };

  touch(ia, 0, true);
  touch(ia, 1, false);
  touch(ib, 0, true);
  touch(ic, 0, false);
  expect("fill four frames", 0, 4, 0, 0);

  touch(ia, 0, false);
  touch(ib, 0, false);
  expect("hits on resident pages", 2, 4, 0, 0);

  touch(ic, 1, true);
  touch(ia, 2, true);
  expect("misses on a full cache", 2, 6, 2, 1);

  {
    std::vector<PageCache::Handle> held;
    held.push_back(cache.Acquire(ia, 0));
    held.push_back(cache.Acquire(ib, 0));
    held.push_back(cache.Acquire(ic, 1));
    held.push_back(cache.Acquire(ia, 2));
    expect("four pins fill the cache", 4, 8, 4, 2);
    held.push_back(cache.Acquire(ic, 2));
    expect("fifth pin soft-overflows", 4, 9, 4, 2);
  }

  for (uint64_t page = 3; page < 7; ++page) touch(ia, page, true);
  expect("thrash after the overflow", 4, 13, 8, 4);

  touch(ib, 1, true);
  touch(ib, 0, true);
  expect("dirty two pages of b", 4, 15, 10, 5);

  // b's frames are dropped, dirty or not, without a writeback.
  cache.UnregisterFile(ib);
  expect("unregister b", 4, 15, 10, 5);

  touch(ic, 0, false);
  touch(ia, 0, false);
  touch(ic, 1, false);
  touch(ia, 4, true);
  touch(ic, 3, true);
  expect("trace continues without b", 4, 20, 13, 8);

  // Every dirtied page of the surviving files reads back.
  for (uint64_t page : {0, 2, 3, 4, 5, 6}) {
    PageCache::Handle h = cache.Acquire(ia, page);
    EXPECT_EQ(h.data()[0], mark(ia, page)) << "a page " << page;
  }
  for (uint64_t page : {1, 3}) {
    PageCache::Handle h = cache.Acquire(ic, page);
    EXPECT_EQ(h.data()[0], mark(ic, page)) << "c page " << page;
  }
  expect("read back", 6, 26, 19, 10);
}

TEST(PagedArrayTest, ElementRoundtripAcrossPages) {
  const testing_util::ScopedTempDir dir;
  PagedFile file(dir.path(), "seg", 64);  // 16 u32 per page
  PageCache cache(64, 2);
  uint32_t id = cache.RegisterFile(&file);
  PagedArray<uint32_t> array(&cache, &file, id);
  EXPECT_EQ(array.elements_per_page(), 16u);
  const uint64_t kCount = 1000;
  for (uint64_t i = 0; i < kCount; ++i) {
    array.Set(i, static_cast<uint32_t>(i * 2654435761u));
  }
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(array.Get(i), static_cast<uint32_t>(i * 2654435761u)) << i;
  }
  // Bulk Load/Store spanning page boundaries.
  std::vector<uint32_t> bulk(100);
  for (size_t i = 0; i < bulk.size(); ++i) bulk[i] = 7000 + i;
  array.Store(9, bulk.data(), bulk.size());
  std::vector<uint32_t> readback(100, 0);
  array.Load(9, readback.data(), readback.size());
  EXPECT_EQ(readback, bulk);
  // Untouched tail reads as zero (virgin pages).
  EXPECT_EQ(array.Get(5000), 0u);
}

}  // namespace
}  // namespace deepcrawl
