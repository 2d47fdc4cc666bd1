// Slice (Sections II-A, III-B): a snapshot of one profile's feature behaviour
// over a non-overlapping time interval. Its slot -> type -> sorted feature
// stats hierarchy is one vector of feature rows sorted by (slot, type, fid)
// (see feature_stat.h). A profile's history is a time-serial list of slices;
// compaction merges consecutive slices into wider ones (Fig 10).
#ifndef IPS_CORE_SLICE_H_
#define IPS_CORE_SLICE_H_

#include <cstddef>
#include <vector>

#include "core/feature_stat.h"
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

  /// Records counts for (slot, type, fid): a binary search, then a reduce
  /// into the existing row or an insert. Returns the change in HeapBytes()
  /// for incremental accounting.
  int64_t Add(SlotId slot, TypeId type, FeatureId fid,
              const CountVector& counts, ReduceFn reduce = ReduceFn::kSum);

  /// Absorbs all data of `other` (an adjacent slice) and widens this slice's
  /// interval to cover both: one linear merge of the two sorted row vectors
  /// through the thread's merge buffer, reducing same-key counts — exactly
  /// the Compact merge of Fig 10.
  void MergeFrom(const Slice& other, ReduceFn reduce);

  /// All rows, sorted by (slot, type, fid).
  RowSpan rows() const { return rows_; }
  /// Direct access for decoders and compaction, which must keep the rows
  /// sorted (ProfileData::CheckInvariants verifies).
  std::vector<FeatureRow>& mutable_rows() { return rows_; }

  /// The rows of one slot / one (slot, type) group (empty when absent).
  RowSpan SlotRows(SlotId slot) const;
  RowSpan GroupRows(SlotId slot, TypeId type) const;
  /// The row for (slot, type, fid), or nullptr.
  const FeatureRow* Find(SlotId slot, TypeId type, FeatureId fid) const;

  bool empty() const { return rows_.empty(); }
  size_t TotalFeatures() const { return rows_.size(); }

  /// Heap bytes owned: the row block (by capacity) and any count vectors
  /// too wide to live inline.
  size_t HeapBytes() const;

 private:
  TimestampMs start_ms_ = 0;
  TimestampMs end_ms_ = 0;
  std::vector<FeatureRow> rows_;
};

}  // namespace ips

#endif  // IPS_CORE_SLICE_H_
