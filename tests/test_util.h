// Shared helpers for deepcrawl unit and integration tests.

#ifndef DEEPCRAWL_TESTS_TEST_UTIL_H_
#define DEEPCRAWL_TESTS_TEST_UTIL_H_

#include <stdlib.h>
#include <string.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <system_error>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/relation/table.h"
#include "src/util/logging.h"

namespace deepcrawl {
namespace testing_util {

// A directory of its own under std::filesystem::temp_directory_path(),
// made by mkdtemp and removed with everything in it on destruction. mkdtemp names are unique across processes, so suites
// that `ctest -j` runs side by side never share state, and reruns
// never inherit a previous run's leftovers.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix = "deepcrawl_test_") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (prefix + "XXXXXX"))
            .string();
    DEEPCRAWL_CHECK(mkdtemp(pattern.data()) != nullptr)
        << "mkdtemp " << pattern << ": " << strerror(errno);
    path_ = std::move(pattern);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Flips one byte of the file at `path` in place: same inode, so a
// reader holding the file open sees the damage.
inline void FlipByteInPlace(const std::string& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  DEEPCRAWL_CHECK(file.is_open()) << "cannot open " << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x40));
  DEEPCRAWL_CHECK(file.good()) << "cannot flip byte " << offset << " of "
                               << path;
}

// The G_local neighbors of `v` counted from the stored records alone:
// the distinct values sharing a local record with `v`, in first
// co-occurrence order (records in slot order, values in record order).
inline std::vector<ValueId> LocalNeighborsBruteForce(const LocalStore& store,
                                                     ValueId v) {
  std::span<const uint32_t> postings = store.LocalPostings(v);
  const std::vector<uint32_t> slots(postings.begin(), postings.end());
  std::vector<ValueId> neighbors;
  std::unordered_set<ValueId> seen;
  for (uint32_t slot : slots) {
    for (ValueId u : store.RecordValues(slot)) {
      if (u != v && seen.insert(u).second) neighbors.push_back(u);
    }
  }
  return neighbors;
}

// One test record: list of (attribute name, value text) pairs.
using Row = std::vector<std::pair<std::string, std::string>>;

// Builds a table from rows; the schema is the union of attribute names
// in first-appearance order. Aborts (CHECK) on malformed input — tests
// construct valid fixtures.
inline Table MakeTable(const std::vector<Row>& rows) {
  Schema schema;
  for (const Row& row : rows) {
    for (const auto& [attr, _] : row) {
      if (!schema.FindAttribute(attr).ok()) {
        DEEPCRAWL_CHECK(schema.AddAttribute(attr).ok());
      }
    }
  }
  Table table(std::move(schema));
  for (const Row& row : rows) {
    std::vector<Cell> cells;
    for (const auto& [attr, text] : row) {
      StatusOr<AttributeId> id = table.schema().FindAttribute(attr);
      DEEPCRAWL_CHECK(id.ok());
      cells.push_back(Cell{*id, text});
    }
    DEEPCRAWL_CHECK(table.AddRecord(cells).ok());
  }
  return table;
}

// Looks up an interned value id; aborts when absent.
inline ValueId GetValueId(const Table& table, const std::string& attr,
                          const std::string& text) {
  StatusOr<AttributeId> a = table.schema().FindAttribute(attr);
  DEEPCRAWL_CHECK(a.ok()) << "no attribute " << attr;
  ValueId v = table.catalog().Find(*a, text);
  DEEPCRAWL_CHECK(v != kInvalidValueId) << "no value " << attr << "=" << text;
  return v;
}

// The running example of Figure 1: a database whose AVG the paper draws.
//   (a1 b1 c1), (a2 b2 c1), (a2 b2 c2), (a2 b3 c2), (a3 b4 c2)
inline Table MakeFigure1Table() {
  return MakeTable({
      {{"A", "a1"}, {"B", "b1"}, {"C", "c1"}},
      {{"A", "a2"}, {"B", "b2"}, {"C", "c1"}},
      {{"A", "a2"}, {"B", "b2"}, {"C", "c2"}},
      {{"A", "a2"}, {"B", "b3"}, {"C", "c2"}},
      {{"A", "a3"}, {"B", "b4"}, {"C", "c2"}},
  });
}

}  // namespace testing_util
}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_TEST_UTIL_H_
