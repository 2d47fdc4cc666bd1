#include "core/profile_data.h"

#include <algorithm>

namespace ips {

TimestampMs ProfileData::AlignDown(TimestampMs ts) const {
  const int64_t g = write_granularity_ms_;
  if (g <= 1) return ts;
  TimestampMs aligned = (ts / g) * g;
  if (ts < 0 && aligned > ts) aligned -= g;  // floor for negative timestamps
  return aligned;
}

Status ProfileData::Add(TimestampMs timestamp, SlotId slot, TypeId type,
                        FeatureId fid, const CountVector& counts,
                        ReduceFn reduce) {
  if (counts.empty()) {
    return Status::InvalidArgument("empty count vector");
  }
  last_action_ms_ = std::max(last_action_ms_, timestamp);

  const TimestampMs aligned = AlignDown(timestamp);
  const TimestampMs aligned_end = aligned + write_granularity_ms_;

  // Locate the slice covering `timestamp`, or open one in its gap (the
  // vector is newest-first), at `index`.
  const size_t block_before = SliceBlockBytes();
  size_t index = 0;
  if (slices_.empty()) {
    slices_.emplace_back(aligned, aligned_end);
  } else if (timestamp >= slices_.front().end_ms()) {
    // Newer than (or at) the head's end: open a new head slice. Its start
    // is clamped to the head's end so intervals stay disjoint even when the
    // head has been compacted into a non-grid-aligned width.
    const TimestampMs start = std::max(aligned, slices_.front().end_ms());
    slices_.emplace(slices_.begin(), start, std::max(aligned_end, start + 1));
  } else {
    // Walk newest -> oldest to find the covering slice or the insertion gap.
    while (index < slices_.size() && !slices_[index].Contains(timestamp) &&
           timestamp < slices_[index].end_ms()) {
      ++index;
    }
    if (index == slices_.size()) {
      // Older than everything: append at the tail.
      const TimestampMs hi = std::min(aligned_end, slices_.back().start_ms());
      const TimestampMs lo = std::min(aligned, hi - 1);
      slices_.emplace_back(lo, hi);
    } else if (!slices_[index].Contains(timestamp)) {
      // Gap between the newer slice index - 1 and slices_[index].
      const TimestampMs lo = std::max(aligned, slices_[index].end_ms());
      const TimestampMs hi =
          std::min(aligned_end, slices_[index - 1].start_ms());
      slices_.emplace(slices_.begin() + static_cast<ptrdiff_t>(index), lo,
                      std::max(hi, lo + 1));
    }
  }
  const int64_t delta = slices_[index].Add(slot, type, fid, counts, reduce);
  approx_bytes_ +=
      SliceBlockBytes() - block_before + static_cast<size_t>(delta);
  return Status::OK();
}

TimestampMs ProfileData::NewestMs() const {
  return slices_.empty() ? 0 : slices_.front().end_ms();
}

TimestampMs ProfileData::OldestMs() const {
  return slices_.empty() ? 0 : slices_.back().start_ms();
}

size_t ProfileData::TotalFeatures() const {
  size_t total = 0;
  for (const auto& s : slices_) total += s.TotalFeatures();
  return total;
}

size_t ProfileData::SliceBlockBytes() const {
  return HeapBlockBytes(slices_.capacity() * sizeof(Slice));
}

size_t ProfileData::RecomputeBytes() {
  size_t bytes = sizeof(ProfileData) + SliceBlockBytes();
  for (const auto& s : slices_) bytes += s.HeapBytes();
  approx_bytes_ = bytes;
  return bytes;
}

bool ProfileData::CheckInvariants() const {
  TimestampMs prev_start = 0;
  bool first = true;
  for (const auto& s : slices_) {
    if (s.start_ms() >= s.end_ms()) return false;
    if (!first && s.end_ms() > prev_start) return false;  // overlap/disorder
    prev_start = s.start_ms();
    first = false;
    if (!RowsSorted(s.rows())) return false;
  }
  return true;
}

void ProfileData::MergeProfile(const ProfileData& other, ReduceFn reduce) {
  for (auto it = other.slices_.rbegin(); it != other.slices_.rend(); ++it) {
    // Re-add every feature of the foreign slice through the normal write
    // path, stamped at the slice's start. This keeps the disjointness
    // invariant without needing interval surgery; isolation-merge slices are
    // narrow (seconds wide) so the aggregation error is bounded by the write
    // granularity, the same trade-off the paper accepts for compaction.
    for (const FeatureRow& row : it->rows()) {
      Add(it->start_ms(), row.slot, row.type, row.fid, row.counts, reduce)
          .ok();
    }
  }
  last_action_ms_ = std::max(last_action_ms_, other.last_action_ms_);
}

}  // namespace ips
