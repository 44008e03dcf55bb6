// PagedStore (src/crawler/paged_store.h) unit tests: LocalStore-
// equivalence under a randomized record stream with a cache far below
// the working set, checkpoint/reopen fidelity, crash-leftover
// sweeping, and corruption surfacing as clean Status at load.

#include "src/crawler/paged_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/util/checkpoint_io.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

PagedStore::Options TinyOptions(const std::string& dir) {
  PagedStore::Options options;
  options.dir = dir;
  options.page_bytes = 256;  // force rows across many pages
  options.cache_pages = 6;   // far below the working set
  return options;
}

// Feeds the same pseudo-random record stream (with duplicates) to both
// stores; returns the records fed.
std::vector<std::vector<ValueId>> FeedBoth(LocalStore& reference,
                                           PagedStore& paged, int records,
                                           uint32_t universe, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<ValueId>> fed;
  for (int r = 0; r < records; ++r) {
    std::vector<ValueId> values;
    uint32_t n = 1 + rng.NextBounded(6);
    for (uint32_t i = 0; i < n; ++i) values.push_back(rng.NextBounded(universe));
    RecordId id = static_cast<RecordId>(rng.NextBounded(records));
    bool added_ref = reference.AddRecord(id, values);
    bool added_paged = paged.AddRecord(id, values);
    EXPECT_EQ(added_ref, added_paged) << "record " << r;
    if (!added_ref) {
      reference.ObserveDuplicate(id);
      paged.ObserveDuplicate(id);
    }
    fed.push_back(std::move(values));
  }
  return fed;
}

void ExpectStoresEqual(const LocalStore& reference, const PagedStore& paged,
                       uint32_t universe) {
  ASSERT_EQ(reference.num_records(), paged.num_records());
  ASSERT_EQ(reference.num_observations(), paged.num_observations());
  ASSERT_EQ(reference.num_values_seen(), paged.num_values_seen());
  for (uint32_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(reference.RecordsObservedTimes(k), paged.RecordsObservedTimes(k))
        << "k=" << k;
  }
  std::vector<ValueId> neighbors;
  std::vector<uint32_t> postings;
  for (ValueId v = 0; v < universe; ++v) {
    EXPECT_EQ(reference.LocalFrequency(v), paged.LocalFrequency(v)) << v;
    EXPECT_EQ(reference.LocalDegree(v), paged.LocalDegree(v)) << v;
    const std::vector<ValueId> ref_neighbors =
        testing_util::LocalNeighborsBruteForce(reference, v);
    paged.CopyNeighbors(v, neighbors);
    ASSERT_EQ(ref_neighbors.size(), neighbors.size()) << v;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      ASSERT_EQ(ref_neighbors[i], neighbors[i]) << v << ":" << i;
    }
    auto ref_postings = reference.LocalPostings(v);
    paged.CopyPostings(v, postings);
    ASSERT_EQ(ref_postings.size(), postings.size()) << v;
    for (size_t i = 0; i < postings.size(); ++i) {
      ASSERT_EQ(ref_postings[i], postings[i]) << v << ":" << i;
    }
  }
  std::vector<ValueId> record;
  for (uint32_t slot = 0; slot < reference.num_records(); ++slot) {
    EXPECT_EQ(reference.OriginalRecordId(slot), paged.OriginalRecordId(slot));
    EXPECT_EQ(reference.ObservationCount(slot), paged.ObservationCount(slot));
    auto ref_values = reference.RecordValues(slot);
    paged.CopyRecordValues(slot, record);
    ASSERT_EQ(ref_values.size(), record.size()) << slot;
    for (size_t i = 0; i < record.size(); ++i) {
      ASSERT_EQ(ref_values[i], record[i]) << slot << ":" << i;
    }
  }
  EXPECT_FALSE(paged.ContainsRecord(0xfffffff0u));
}

TEST(PagedStoreTest, MatchesInMemoryStoreUnderThrashingCache) {
  const uint32_t kUniverse = 400;
  LocalStore reference;
  const testing_util::ScopedTempDir dir;
  PagedStore paged(TinyOptions(dir.path()));
  FeedBoth(reference, paged, 1200, kUniverse, 17);
  ASSERT_GT(paged.cache_stats().evictions, 0u)
      << "cache sized above the working set — thrash not exercised";
  ExpectStoresEqual(reference, paged, kUniverse);
}

TEST(PagedStoreTest, LinkCountModeMatches) {
  const uint32_t kUniverse = 200;
  LocalStore::Options ref_options;
  ref_options.exact_degrees = false;
  LocalStore reference(ref_options);
  const testing_util::ScopedTempDir dir;
  PagedStore::Options options = TinyOptions(dir.path());
  options.exact_degrees = false;
  PagedStore paged(options);
  FeedBoth(reference, paged, 600, kUniverse, 23);
  for (ValueId v = 0; v < kUniverse; ++v) {
    EXPECT_EQ(reference.LocalDegree(v), paged.LocalDegree(v)) << v;
  }
}

TEST(PagedStoreTest, CheckpointReopenRestoresEverything) {
  const uint32_t kUniverse = 300;
  const testing_util::ScopedTempDir dir;
  LocalStore reference;
  uint64_t stamp = 0;
  {
    PagedStore paged(TinyOptions(dir.path()));
    FeedBoth(reference, paged, 800, kUniverse, 31);
    StatusOr<uint64_t> result = paged.Checkpoint();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    stamp = *result;
  }
  PagedStore::Options options = TinyOptions(dir.path());
  options.resume = true;
  PagedStore reopened(options);
  ASSERT_TRUE(reopened.LoadCheckpoint(stamp).ok());
  ExpectStoresEqual(reference, reopened, kUniverse);
  // The reopened store keeps working: add more and stay consistent.
  FeedBoth(reference, reopened, 200, kUniverse, 37);
  ExpectStoresEqual(reference, reopened, kUniverse);
}

TEST(PagedStoreTest, PostCheckpointWritesDiscardedOnReload) {
  // Writes after a checkpoint are not part of it: reloading the stamp
  // must roll the store back to the checkpointed state even though
  // newer epoch files hit the disk in between (crash-window recovery).
  const uint32_t kUniverse = 150;
  const testing_util::ScopedTempDir dir;
  LocalStore reference;
  PagedStore paged(TinyOptions(dir.path()));
  FeedBoth(reference, paged, 400, kUniverse, 41);
  StatusOr<uint64_t> stamp = paged.Checkpoint();
  ASSERT_TRUE(stamp.ok());
  // Post-checkpoint dirt: more records (fresh high ids so they always
  // insert), flushed to disk by cache thrash along the way.
  Pcg32 rng(43);
  for (int r = 0; r < 300; ++r) {
    std::vector<ValueId> values;
    uint32_t n = 1 + rng.NextBounded(6);
    for (uint32_t i = 0; i < n; ++i) values.push_back(rng.NextBounded(kUniverse));
    ASSERT_TRUE(paged.AddRecord(1000000u + static_cast<RecordId>(r), values));
  }
  ASSERT_TRUE(paged.LoadCheckpoint(*stamp).ok());
  ExpectStoresEqual(reference, paged, kUniverse);
}

// Names of the files in `dir` that start with `prefix`.
std::vector<std::string> FilesWithPrefix(const std::string& dir,
                                         std::string_view prefix) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.starts_with(prefix)) names.push_back(std::move(name));
  }
  return names;
}

TEST(PagedStoreTest, UncheckpointedStoreKeepsOnlyNewestHashGeneration) {
  // Before the first manifest no checkpoint can name a retired hash
  // generation, so each rehash deletes the old generation's file at
  // once instead of keeping it until process exit.
  const uint32_t kUniverse = 300;
  const testing_util::ScopedTempDir dir;
  LocalStore reference;
  PagedStore::Options options = TinyOptions(dir.path());
  options.page_bytes = 512;
  uint64_t stamp = 0;
  {
    PagedStore paged(options);
    FeedBoth(reference, paged, 800, kUniverse, 59);
    const std::vector<std::string> edges =
        FilesWithPrefix(dir.path(), "edges.g");
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_NE(edges[0], "edges.g0.seg") << "edge set never rehashed";
    const std::vector<std::string> idmap =
        FilesWithPrefix(dir.path(), "idmap.g");
    ASSERT_EQ(idmap.size(), 1u);
    EXPECT_NE(idmap[0], "idmap.g0.seg") << "id map never rehashed";
    StatusOr<uint64_t> result = paged.Checkpoint();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    stamp = *result;
  }
  options.resume = true;
  PagedStore reopened(options);
  ASSERT_TRUE(reopened.LoadCheckpoint(stamp).ok());
  ExpectStoresEqual(reference, reopened, kUniverse);
}

TEST(PagedStoreTest, CorruptPageSurfacesAsStatusAtLoad) {
  const testing_util::ScopedTempDir dir;
  uint64_t stamp = 0;
  {
    PagedStore paged(TinyOptions(dir.path()));
    LocalStore reference;
    FeedBoth(reference, paged, 300, 100, 47);
    StatusOr<uint64_t> result = paged.Checkpoint();
    ASSERT_TRUE(result.ok());
    stamp = *result;
  }
  // Flip one byte in place in the slot of freq.seg that the manifest
  // names for page 0 (it exists after any nonempty crawl). The
  // manifest lists, after its header, each segment's slot count,
  // page count and page slots; freq is the fifth segment.
  StatusOr<std::string> manifest =
      ReadFileBytes(dir.path() + "/MANIFEST." + std::to_string(stamp));
  ASSERT_TRUE(manifest.ok());
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(*manifest, kPagedManifestVersion);
  ASSERT_TRUE(payload.ok());
  CheckpointReader r(*payload);
  r.ReadU32();  // page size
  r.ReadU8();   // exact-degrees mode
  for (int i = 0; i < 6; ++i) r.ReadU64();  // store scalars
  for (int segment = 0; segment < 4; ++segment) {
    r.ReadU64();  // slot count
    uint64_t pages = r.ReadU64();
    for (uint64_t p = 0; p < pages; ++p) r.ReadU64();
  }
  const uint64_t freq_slots = r.ReadU64();
  ASSERT_GT(r.ReadU64(), 0u) << "freq segment has no pages";
  const uint64_t slot = r.ReadU64();
  ASSERT_TRUE(r.ok());
  ASSERT_LT(slot, freq_slots);
  const std::string victim = dir.path() + "/freq.seg";
  const uint64_t frame_bytes = std::filesystem::file_size(victim) / freq_slots;
  // Land in the checksum/payload.
  testing_util::FlipByteInPlace(victim, (slot + 1) * frame_bytes - 3);

  PagedStore::Options options = TinyOptions(dir.path());
  options.resume = true;
  PagedStore reopened(options);
  Status loaded = reopened.LoadCheckpoint(stamp);
  EXPECT_FALSE(loaded.ok()) << "corrupt page must fail the load scrub";
}

TEST(PagedStoreTest, OldFormatManifestIsCleanError) {
  // A store directory written before the slot-file format: its
  // manifest carries version 1 and must fail the resume cleanly.
  const testing_util::ScopedTempDir dir;
  {
    PagedStore paged(TinyOptions(dir.path()));
    LocalStore reference;
    FeedBoth(reference, paged, 50, 40, 53);
    ASSERT_TRUE(paged.Checkpoint().ok());
  }
  const std::string path = dir.path() + "/MANIFEST.1";
  StatusOr<std::string> manifest = ReadFileBytes(path);
  ASSERT_TRUE(manifest.ok());
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(*manifest, kPagedManifestVersion);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(WriteFileAtomic(path, FrameCheckpoint(*payload, 1)).ok());
  PagedStore::Options options = TinyOptions(dir.path());
  options.resume = true;
  PagedStore reopened(options);
  Status loaded = reopened.LoadCheckpoint(1);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();
}

TEST(PagedStoreTest, MissingManifestIsCleanError) {
  const testing_util::ScopedTempDir dir;
  PagedStore::Options options = TinyOptions(dir.path());
  options.resume = true;
  PagedStore paged(options);
  EXPECT_FALSE(paged.LoadCheckpoint(1).ok());
}

}  // namespace
}  // namespace deepcrawl
