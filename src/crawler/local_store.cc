#include "src/crawler/local_store.h"

#include "src/crawler/paged_store.h"
#include "src/util/logging.h"

namespace deepcrawl {

LocalStore::LocalStore() : LocalStore(Options{}) {}

LocalStore::LocalStore(Options options) : options_(std::move(options)) {
  if (options_.layout == Layout::kPaged) {
    PagedStore::Options paged;
    paged.dir = options_.paged_dir;
    paged.page_bytes = options_.page_bytes;
    paged.cache_pages = options_.cache_pages;
    paged.exact_degrees = options_.exact_degrees;
    paged.resume = options_.paged_resume;
    paged_ = std::make_unique<PagedStore>(paged);
  }
}

LocalStore::~LocalStore() = default;

void LocalStore::EnsureValueCapacity(ValueId v) {
  if (v < local_frequency_.size()) return;
  size_t new_size = static_cast<size_t>(v) + 1;
  local_frequency_.resize(new_size, 0);
  link_count_.resize(new_size, 0);
  if (options_.layout == Layout::kCsr) {
    postings_csr_.EnsureRows(new_size);
    if (options_.exact_degrees) degree_.resize(new_size, 0);
  } else {
    local_postings_ref_.resize(new_size);
    if (options_.exact_degrees) neighbor_sets_ref_.resize(new_size);
  }
}

bool LocalStore::AddRecord(RecordId id, std::span<const ValueId> values) {
  if (paged_ != nullptr) return paged_->AddRecord(id, values);
  DEEPCRAWL_CHECK(!values.empty()) << "harvested record has no values";
  uint32_t slot = static_cast<uint32_t>(num_records());
  if (!slot_of_.emplace(id, slot).second) return false;

  record_values_.insert(record_values_.end(), values.begin(), values.end());
  record_offsets_.push_back(record_values_.size());
  original_ids_.push_back(id);
  observation_count_.push_back(1);
  ++num_observations_;

  const bool csr = options_.layout == Layout::kCsr;
  for (ValueId v : values) {
    EnsureValueCapacity(v);
    ++local_frequency_[v];
    if (csr) {
      postings_csr_.Append(v, slot);
    } else {
      local_postings_ref_[v].push_back(slot);
    }
    link_count_[v] += values.size() - 1;
  }
  if (options_.exact_degrees) {
    if (csr) {
      // One probe per unordered pair; a new (min, max) edge bumps both
      // endpoints' degrees. The table grows once for the whole record,
      // and every pair's home slot is prefetched before the first probe
      // so the probes' cache misses overlap instead of queueing.
      pair_keys_.clear();
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        for (size_t j = i + 1; j < values.size(); ++j) {
          if (values[i] == values[j]) continue;
          pair_keys_.push_back(PackUnorderedPair(values[i], values[j]));
        }
      }
      edge_set_.Reserve(pair_keys_.size());
      for (uint64_t key : pair_keys_) edge_set_.Prefetch(key);
      for (uint64_t key : pair_keys_) {
        if (edge_set_.Insert(key)) {
          ++degree_[key >> 32];
          ++degree_[static_cast<ValueId>(key)];
        }
      }
    } else {
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        for (size_t j = i + 1; j < values.size(); ++j) {
          ValueId a = values[i];
          ValueId b = values[j];
          if (a == b) continue;
          neighbor_sets_ref_[a].insert(b);
          neighbor_sets_ref_[b].insert(a);
        }
      }
    }
  }
  return true;
}

bool LocalStore::ContainsRecord(RecordId id) const {
  if (paged_ != nullptr) return paged_->ContainsRecord(id);
  return slot_of_.count(id) != 0;
}

void LocalStore::ObserveDuplicate(RecordId id) {
  if (paged_ != nullptr) return paged_->ObserveDuplicate(id);
  auto it = slot_of_.find(id);
  DEEPCRAWL_CHECK(it != slot_of_.end())
      << "duplicate observation of a record never added";
  ++observation_count_[it->second];
  ++num_observations_;
}

void LocalStore::RestoreObservations(RecordId id, uint32_t count) {
  if (paged_ != nullptr) return paged_->RestoreObservations(id, count);
  DEEPCRAWL_CHECK_GE(count, 1u);
  auto it = slot_of_.find(id);
  DEEPCRAWL_CHECK(it != slot_of_.end())
      << "restoring observations of a record never added";
  uint32_t& stored = observation_count_[it->second];
  num_observations_ += count;
  num_observations_ -= stored;
  stored = count;
}

uint64_t LocalStore::num_observations() const {
  if (paged_ != nullptr) return paged_->num_observations();
  return num_observations_;
}

size_t LocalStore::num_records() const {
  if (paged_ != nullptr) return paged_->num_records();
  return record_offsets_.size() - 1;
}

size_t LocalStore::num_values_seen() const {
  if (paged_ != nullptr) return paged_->num_values_seen();
  return local_frequency_.size();
}

size_t LocalStore::RecordsObservedTimes(uint32_t k) const {
  if (paged_ != nullptr) return paged_->RecordsObservedTimes(k);
  DEEPCRAWL_CHECK_GE(k, 1u);
  size_t count = 0;
  for (uint32_t observations : observation_count_) {
    if (observations == k) ++count;
  }
  return count;
}

uint32_t LocalStore::LocalFrequency(ValueId v) const {
  if (paged_ != nullptr) return paged_->LocalFrequency(v);
  if (v >= local_frequency_.size()) return 0;
  return local_frequency_[v];
}

uint64_t LocalStore::LocalDegree(ValueId v) const {
  if (paged_ != nullptr) return paged_->LocalDegree(v);
  if (v >= local_frequency_.size()) return 0;
  if (options_.exact_degrees) {
    if (options_.layout == Layout::kCsr) return degree_[v];
    return neighbor_sets_ref_[v].size();
  }
  return link_count_[v];
}

std::span<const uint32_t> LocalStore::LocalPostings(ValueId v) const {
  if (paged_ != nullptr) {
    paged_->CopyPostings(v, postings_scratch_);
    return postings_scratch_;
  }
  if (v >= local_frequency_.size()) return {};
  if (options_.layout == Layout::kCsr) return postings_csr_.Row(v);
  return local_postings_ref_[v];
}

std::span<const ValueId> LocalStore::RecordValues(uint32_t slot) const {
  if (paged_ != nullptr) {
    paged_->CopyRecordValues(slot, record_scratch_);
    return record_scratch_;
  }
  DEEPCRAWL_CHECK_LT(slot, num_records()) << "local record slot out of range";
  size_t begin = record_offsets_[slot];
  size_t end = record_offsets_[slot + 1];
  return std::span<const ValueId>(record_values_.data() + begin, end - begin);
}

RecordId LocalStore::OriginalRecordId(uint32_t slot) const {
  if (paged_ != nullptr) return paged_->OriginalRecordId(slot);
  DEEPCRAWL_CHECK_LT(slot, num_records()) << "local record slot out of range";
  return original_ids_[slot];
}

uint32_t LocalStore::ObservationCount(uint32_t slot) const {
  if (paged_ != nullptr) return paged_->ObservationCount(slot);
  return observation_count_[slot];
}

StatusOr<uint64_t> LocalStore::CheckpointPaged() {
  DEEPCRAWL_CHECK(paged_ != nullptr)
      << "CheckpointPaged on a non-paged layout";
  return paged_->Checkpoint();
}

Status LocalStore::LoadPagedCheckpoint(uint64_t stamp) {
  DEEPCRAWL_CHECK(paged_ != nullptr)
      << "LoadPagedCheckpoint on a non-paged layout";
  return paged_->LoadCheckpoint(stamp);
}

const PageCacheStats& LocalStore::paged_cache_stats() const {
  DEEPCRAWL_CHECK(paged_ != nullptr)
      << "paged_cache_stats on a non-paged layout";
  return paged_->cache_stats();
}

}  // namespace deepcrawl
