#include "core/instance_set.h"

namespace ips {

int64_t InstanceSet::Add(TypeId type, FeatureId fid,
                         const CountVector& counts, ReduceFn reduce) {
  auto [it, inserted] = types_.try_emplace(type);
  int64_t delta = inserted ? static_cast<int64_t>(
                                 sizeof(TypeId) +
                                 sizeof(IndexedFeatureStats) + 32)
                           : 0;
  delta += it->second.Upsert(fid, counts, reduce);
  return delta;
}

const IndexedFeatureStats* InstanceSet::Find(TypeId type) const {
  auto it = types_.find(type);
  return it == types_.end() ? nullptr : &it->second;
}

void InstanceSet::MergeFrom(const InstanceSet& other, ReduceFn reduce) {
  for (const auto& [type, stats] : other.types_) {
    types_[type].MergeFrom(stats, reduce);
  }
}

void InstanceSet::MergeFrom(const InstanceSet& other, ReduceFn reduce,
                            std::vector<FeatureStat>* merge_scratch) {
  for (const auto& [type, stats] : other.types_) {
    types_[type].MergeFrom(stats, reduce, merge_scratch);
  }
}

size_t InstanceSet::TotalFeatures() const {
  size_t total = 0;
  for (const auto& [type, stats] : types_) total += stats.size();
  return total;
}

size_t InstanceSet::ApproximateBytes() const {
  size_t bytes = sizeof(InstanceSet);
  for (const auto& [type, stats] : types_) {
    bytes += sizeof(TypeId) + stats.ApproximateBytes() +
             32;  // hash node overhead estimate
  }
  return bytes;
}

}  // namespace ips
