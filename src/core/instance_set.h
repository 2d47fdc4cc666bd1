// Instance Set (Section III-B): the per-slot map from category type to the
// indexed feature stats recorded for that type within one slice.
#ifndef IPS_CORE_INSTANCE_SET_H_
#define IPS_CORE_INSTANCE_SET_H_

#include <cstddef>
#include <unordered_map>

#include "core/feature_stat.h"
#include "core/types.h"

namespace ips {

/// Map: TypeId -> IndexedFeatureStats. A flat hash layout is unnecessary —
/// each slice touches a handful of types — but memory is accounted so the
/// cache layer can enforce its thresholds.
class InstanceSet {
 public:
  /// Adds counts for (type, fid). Returns the approximate memory-footprint
  /// delta (see IndexedFeatureStats::Upsert).
  int64_t Add(TypeId type, FeatureId fid, const CountVector& counts,
              ReduceFn reduce = ReduceFn::kSum);

  /// Stats for `type`, or nullptr when the type is absent.
  const IndexedFeatureStats* Find(TypeId type) const;

  /// Merges all of `other` into this set.
  void MergeFrom(const InstanceSet& other, ReduceFn reduce);

  /// MergeFrom with a caller-owned merge buffer (see
  /// IndexedFeatureStats::MergeFrom); used by compaction to reuse one
  /// buffer across every per-type merge of a slice merge.
  void MergeFrom(const InstanceSet& other, ReduceFn reduce,
                 std::vector<FeatureStat>* merge_scratch);

  const std::unordered_map<TypeId, IndexedFeatureStats>& types() const {
    return types_;
  }
  std::unordered_map<TypeId, IndexedFeatureStats>& mutable_types() {
    return types_;
  }

  bool empty() const { return types_.empty(); }
  size_t TotalFeatures() const;
  size_t ApproximateBytes() const;

 private:
  std::unordered_map<TypeId, IndexedFeatureStats> types_;
};

}  // namespace ips

#endif  // IPS_CORE_INSTANCE_SET_H_
