// Unit tests for the epoch-file shadow-paging substrate
// (src/util/page_cache.h): PagedFile read/write/durability windows,
// PageCache eviction/pinning/writeback, and the PagedArray element
// view.

#include "src/util/page_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
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
  // Flip a byte in the one non-virgin page file.
  std::vector<std::string> names;
  file.AppendCurrentFileNames(names);
  ASSERT_EQ(names.size(), 1u);
  std::string path = dir.path() + "/" + names[0];
  StatusOr<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, *bytes).ok());
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

TEST(PagedFileTest, SweepOrphansDropsUnreferencedEpochs) {
  const testing_util::ScopedTempDir dir;
  std::vector<char> page(64, 'a');
  CheckpointWriter writer;
  {
    PagedFile file(dir.path(), "seg", 64);
    file.EnsurePages(1);
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    ASSERT_TRUE(file.SyncPending().ok());
    file.AppendMeta(writer);  // manifest references this epoch
    file.CommitDurable();     // ...and the manifest is now durable
    // Crash-window writes after the manifest: newer epochs on disk.
    page.assign(64, 'b');
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    page.assign(64, 'c');
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  }
  PagedFile recovered(dir.path(), "seg", 64);
  CheckpointReader reader(writer.buffer());
  ASSERT_TRUE(recovered.LoadMeta(reader).ok());
  ASSERT_TRUE(recovered.SweepOrphans().ok());
  std::vector<char> out(64, 0);
  ASSERT_TRUE(recovered.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, std::vector<char>(64, 'a'));
  // Exactly one file (the manifest's epoch) survives the sweep.
  std::vector<std::string> names;
  recovered.AppendCurrentFileNames(names);
  EXPECT_EQ(names.size(), 1u);
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
