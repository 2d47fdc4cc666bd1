#include "core/slice.h"

#include <algorithm>

namespace ips {

int64_t Slice::Add(SlotId slot, TypeId type, FeatureId fid,
                   const CountVector& counts, ReduceFn reduce) {
  auto [it, inserted] = slots_.try_emplace(slot);
  int64_t delta =
      inserted
          ? static_cast<int64_t>(sizeof(SlotId) + sizeof(InstanceSet) + 32)
          : 0;
  delta += it->second.Add(type, fid, counts, reduce);
  return delta;
}

const InstanceSet* Slice::FindSlot(SlotId slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second;
}

void Slice::MergeFrom(const Slice& other, ReduceFn reduce) {
  for (const auto& [slot, set] : other.slots_) {
    slots_[slot].MergeFrom(set, reduce);
  }
  start_ms_ = std::min(start_ms_, other.start_ms_);
  end_ms_ = std::max(end_ms_, other.end_ms_);
}

void Slice::MergeFrom(const Slice& other, ReduceFn reduce,
                      std::vector<FeatureStat>* merge_scratch) {
  for (const auto& [slot, set] : other.slots_) {
    slots_[slot].MergeFrom(set, reduce, merge_scratch);
  }
  start_ms_ = std::min(start_ms_, other.start_ms_);
  end_ms_ = std::max(end_ms_, other.end_ms_);
}

size_t Slice::TotalFeatures() const {
  size_t total = 0;
  for (const auto& [slot, set] : slots_) total += set.TotalFeatures();
  return total;
}

size_t Slice::ApproximateBytes() const {
  size_t bytes = sizeof(Slice);
  for (const auto& [slot, set] : slots_) {
    bytes += sizeof(SlotId) + set.ApproximateBytes() + 32;
  }
  return bytes;
}

}  // namespace ips
