// Slice (Sections II-A, III-B): a snapshot of one profile's feature behaviour
// over a non-overlapping time interval, holding a map slot -> InstanceSet.
// A profile's history is a time-serial list of slices; compaction merges
// consecutive slices into wider ones (Fig 10).
#ifndef IPS_CORE_SLICE_H_
#define IPS_CORE_SLICE_H_

#include <cstddef>
#include <unordered_map>

#include "core/instance_set.h"
#include "core/types.h"

namespace ips {

class Slice {
 public:
  Slice() = default;
  /// Creates an empty slice covering [start_ms, end_ms).
  Slice(TimestampMs start_ms, TimestampMs end_ms)
      : start_ms_(start_ms), end_ms_(end_ms) {}

  TimestampMs start_ms() const { return start_ms_; }
  TimestampMs end_ms() const { return end_ms_; }
  void set_range(TimestampMs start_ms, TimestampMs end_ms) {
    start_ms_ = start_ms;
    end_ms_ = end_ms;
  }

  /// Width of the covered interval.
  int64_t DurationMs() const { return end_ms_ - start_ms_; }

  /// True when `ts` falls inside [start, end).
  bool Contains(TimestampMs ts) const {
    return ts >= start_ms_ && ts < end_ms_;
  }

  /// True when this slice overlaps the closed-open window [from, to).
  bool Overlaps(TimestampMs from, TimestampMs to) const {
    return start_ms_ < to && end_ms_ > from;
  }

  /// Records counts for (slot, type, fid). Returns the approximate
  /// memory-footprint delta for incremental accounting.
  int64_t Add(SlotId slot, TypeId type, FeatureId fid,
              const CountVector& counts, ReduceFn reduce = ReduceFn::kSum);

  /// Instance set for `slot`, or nullptr.
  const InstanceSet* FindSlot(SlotId slot) const;

  /// Absorbs all data of `other` (an adjacent slice) and widens this slice's
  /// interval to cover both. The reduce function aggregates same-fid counts,
  /// exactly the Compact merge of Fig 10.
  void MergeFrom(const Slice& other, ReduceFn reduce);

  /// MergeFrom with a caller-owned merge buffer threaded through to the
  /// per-type IndexedFeatureStats merges, so repeated merges (compaction)
  /// reuse one allocation instead of building a fresh vector per type.
  void MergeFrom(const Slice& other, ReduceFn reduce,
                 std::vector<FeatureStat>* merge_scratch);

  const std::unordered_map<SlotId, InstanceSet>& slots() const {
    return slots_;
  }
  std::unordered_map<SlotId, InstanceSet>& mutable_slots() { return slots_; }

  bool empty() const { return slots_.empty(); }
  size_t TotalFeatures() const;
  size_t ApproximateBytes() const;

 private:
  TimestampMs start_ms_ = 0;
  TimestampMs end_ms_ = 0;
  std::unordered_map<SlotId, InstanceSet> slots_;
};

}  // namespace ips

#endif  // IPS_CORE_SLICE_H_
