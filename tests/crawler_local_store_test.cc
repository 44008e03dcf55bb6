#include "src/crawler/local_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::LocalNeighborsBruteForce;

std::vector<ValueId> V(std::initializer_list<ValueId> ids) { return ids; }

TEST(LocalStoreTest, AddRecordDeduplicatesByRecordId) {
  LocalStore store;
  EXPECT_TRUE(store.AddRecord(7, V({1, 2, 3})));
  EXPECT_FALSE(store.AddRecord(7, V({1, 2, 3})));
  EXPECT_EQ(store.num_records(), 1u);
  EXPECT_TRUE(store.ContainsRecord(7));
  EXPECT_FALSE(store.ContainsRecord(8));
}

TEST(LocalStoreTest, LocalFrequencyCountsRecords) {
  LocalStore store;
  store.AddRecord(0, V({1, 2}));
  store.AddRecord(1, V({2, 3}));
  store.AddRecord(2, V({2, 4}));
  EXPECT_EQ(store.LocalFrequency(2), 3u);
  EXPECT_EQ(store.LocalFrequency(1), 1u);
  EXPECT_EQ(store.LocalFrequency(99), 0u);  // never seen
}

TEST(LocalStoreTest, ExactDegreesCountDistinctNeighbors) {
  LocalStore store;
  store.AddRecord(0, V({1, 2, 3}));
  store.AddRecord(1, V({1, 2, 4}));
  // Value 1 co-occurs with {2, 3, 4}: degree 3 despite 2 occurring twice.
  EXPECT_EQ(store.LocalDegree(1), 3u);
  EXPECT_EQ(store.LocalDegree(3), 2u);
  EXPECT_EQ(store.LocalDegree(99), 0u);
}

TEST(LocalStoreTest, LinkCountModeCountsWithMultiplicity) {
  LocalStore::Options options;
  options.exact_degrees = false;
  LocalStore store(options);
  store.AddRecord(0, V({1, 2, 3}));
  store.AddRecord(1, V({1, 2, 4}));
  // Value 1: (3-1) + (3-1) = 4 link endpoints.
  EXPECT_EQ(store.LocalDegree(1), 4u);
  // Value 3 sits in one record of three values: 2 link endpoints.
  EXPECT_EQ(store.LocalDegree(3), 2u);
}

TEST(LocalStoreTest, NeighborsSpanEmptyInProxyDegreeMode) {
  LocalStore::Options options;
  options.exact_degrees = false;
  LocalStore store(options);
  store.AddRecord(0, V({1, 2, 3}));
  EXPECT_EQ(store.LocalDegree(1), 2u);
  // No adjacency is kept in this mode, so a pair seen again is not
  // recognised as a known edge: it adds two more link endpoints.
  store.AddRecord(1, V({1, 2, 3}));
  EXPECT_EQ(store.LocalDegree(1), 4u);
  EXPECT_EQ(LocalNeighborsBruteForce(store, 1), V({2, 3}));
}

TEST(LocalStoreTest, PostingsTrackSlots) {
  LocalStore store;
  store.AddRecord(10, V({5}));
  store.AddRecord(20, V({5, 6}));
  auto postings = store.LocalPostings(5);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0], 0u);
  EXPECT_EQ(postings[1], 1u);
  EXPECT_EQ(store.OriginalRecordId(0), 10u);
  EXPECT_EQ(store.OriginalRecordId(1), 20u);
  EXPECT_TRUE(store.LocalPostings(99).empty());
}

TEST(LocalStoreTest, RecordValuesRoundTrip) {
  LocalStore store;
  store.AddRecord(3, V({9, 4, 7}));
  auto values = store.RecordValues(0);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 9u);  // stored in given order
  EXPECT_EQ(values[1], 4u);
  EXPECT_EQ(values[2], 7u);
}

TEST(LocalStoreTest, NumValuesSeenGrowsWithMaxId) {
  LocalStore store;
  EXPECT_EQ(store.num_values_seen(), 0u);
  store.AddRecord(0, V({100}));
  EXPECT_EQ(store.num_values_seen(), 101u);  // dense id space
  EXPECT_EQ(store.LocalFrequency(50), 0u);
}

TEST(LocalStoreTest, LocalDegreeCountsDistinctCoOccurringValues) {
  LocalStore store;
  store.AddRecord(0, V({1, 2, 3}));
  store.AddRecord(1, V({1, 4, 2}));  // edge 1-2 already known, 1-4 and 4-2 new
  EXPECT_EQ(LocalNeighborsBruteForce(store, 1), V({2, 3, 4}));
  EXPECT_EQ(LocalNeighborsBruteForce(store, 4), V({1, 2}));
  for (ValueId v = 0; v < store.num_values_seen(); ++v) {
    EXPECT_EQ(store.LocalDegree(v), LocalNeighborsBruteForce(store, v).size())
        << v;
  }
  EXPECT_EQ(store.LocalDegree(1), 3u);
  EXPECT_EQ(store.LocalDegree(2), 3u);
  EXPECT_EQ(store.LocalDegree(3), 2u);
  EXPECT_EQ(store.LocalDegree(4), 2u);
  EXPECT_EQ(store.LocalDegree(99), 0u);
}

TEST(LocalStoreTest, CsrAndReferenceLayoutsAreObservationallyIdentical) {
  LocalStore::Options reference_options;
  reference_options.layout = LocalStore::Layout::kReference;
  LocalStore csr;  // default layout is kCsr
  LocalStore reference(reference_options);
  // Overlapping records with intra-record duplicates to stress dedup.
  const std::vector<std::vector<ValueId>> records = {
      {1, 2, 3}, {2, 3, 4}, {5, 5, 1}, {4, 1, 2, 2}, {6}, {3, 6, 5},
  };
  for (RecordId id = 0; id < records.size(); ++id) {
    EXPECT_EQ(csr.AddRecord(id, records[id]),
              reference.AddRecord(id, records[id]));
  }
  ASSERT_EQ(csr.num_values_seen(), reference.num_values_seen());
  for (ValueId v = 0; v < csr.num_values_seen(); ++v) {
    EXPECT_EQ(csr.LocalDegree(v), reference.LocalDegree(v)) << v;
    EXPECT_EQ(csr.LocalFrequency(v), reference.LocalFrequency(v)) << v;
    const std::vector<ValueId> neighbors = LocalNeighborsBruteForce(csr, v);
    EXPECT_EQ(LocalNeighborsBruteForce(reference, v), neighbors) << v;
    EXPECT_EQ(csr.LocalDegree(v), neighbors.size()) << v;
    EXPECT_EQ(reference.LocalDegree(v), neighbors.size()) << v;
    auto csr_postings = csr.LocalPostings(v);
    auto ref_postings = reference.LocalPostings(v);
    ASSERT_EQ(csr_postings.size(), ref_postings.size()) << v;
    for (size_t i = 0; i < csr_postings.size(); ++i) {
      EXPECT_EQ(csr_postings[i], ref_postings[i]) << v << "/" << i;
    }
  }
}

TEST(LocalStoreTest, HubDegreeMatchesBruteForceCount) {
  LocalStore store;
  // Chain with a hub: enough growth to rehash the edge set repeatedly.
  for (RecordId id = 0; id < 200; ++id) {
    store.AddRecord(id, V({0, static_cast<ValueId>(id + 1),
                           static_cast<ValueId>(id + 2)}));
  }
  for (ValueId v = 0; v < store.num_values_seen(); ++v) {
    EXPECT_EQ(store.LocalDegree(v), LocalNeighborsBruteForce(store, v).size())
        << v;
  }
  EXPECT_EQ(store.LocalDegree(0), 201u);  // hub saw every other value
}

TEST(LocalStoreDeathTest, EmptyRecordAborts) {
  LocalStore store;
  EXPECT_DEATH(store.AddRecord(0, {}), "no values");
}

}  // namespace
}  // namespace deepcrawl
