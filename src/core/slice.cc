#include "core/slice.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>

namespace ips {

namespace {

size_t RowBlockBytes(const std::vector<FeatureRow>& rows) {
  return HeapBlockBytes(rows.capacity() * sizeof(FeatureRow));
}

// The rows whose `key(row)` equals `want`, by binary search over sorted
// rows.
template <typename Key, typename Value>
RowSpan EqualRange(RowSpan rows, Key key, const Value& want) {
  auto lo = std::partition_point(
      rows.begin(), rows.end(),
      [&](const FeatureRow& r) { return key(r) < want; });
  auto hi = std::partition_point(
      lo, rows.end(), [&](const FeatureRow& r) { return key(r) == want; });
  return RowSpan(lo, hi);
}

// Index of the first row whose key is not below (slot, type, fid).
size_t LowerBound(RowSpan rows, SlotId slot, TypeId type, FeatureId fid) {
  const auto key = std::tie(slot, type, fid);
  auto below = [&](const FeatureRow& r) { return r.Key() < key; };
  return static_cast<size_t>(
      std::partition_point(rows.begin(), rows.end(), below) - rows.begin());
}

}  // namespace

int64_t Slice::Add(SlotId slot, TypeId type, FeatureId fid,
                   const CountVector& counts, ReduceFn reduce) {
  auto it = rows_.begin() + static_cast<ptrdiff_t>(
                                LowerBound(rows_, slot, type, fid));
  if (it != rows_.end() && it->Key() == std::tie(slot, type, fid)) {
    const size_t before = it->counts.HeapBytes();
    ReduceInto(it->counts, counts, reduce);
    return static_cast<int64_t>(it->counts.HeapBytes()) -
           static_cast<int64_t>(before);
  }
  const size_t block_before = RowBlockBytes(rows_);
  it = rows_.insert(it, FeatureRow{slot, type, fid, counts});
  return static_cast<int64_t>(RowBlockBytes(rows_) + it->counts.HeapBytes()) -
         static_cast<int64_t>(block_before);
}

RowSpan Slice::SlotRows(SlotId slot) const {
  // A slice whose rows all belong to `slot` (the common one-slot profile)
  // needs no search.
  if (!rows_.empty() && rows_.front().slot == slot &&
      rows_.back().slot == slot) {
    return rows_;
  }
  return EqualRange(rows_, SlotKey, slot);
}

RowSpan Slice::GroupRows(SlotId slot, TypeId type) const {
  return EqualRange(rows_, GroupKey, std::pair(slot, type));
}

const FeatureRow* Slice::Find(SlotId slot, TypeId type, FeatureId fid) const {
  const size_t i = LowerBound(rows_, slot, type, fid);
  return i < rows_.size() && rows_[i].Key() == std::tie(slot, type, fid)
             ? &rows_[i]
             : nullptr;
}

void Slice::MergeFrom(const Slice& other, ReduceFn reduce) {
  start_ms_ = std::min(start_ms_, other.start_ms_);
  end_ms_ = std::max(end_ms_, other.end_ms_);
  if (other.rows_.empty()) return;
  if (rows_.empty()) {
    rows_ = other.rows_;
    return;
  }
  // The merged rows are staged in a per-thread buffer at its high-water
  // capacity, then moved back: the slice's block is reallocated (exactly
  // sized) only when the merge adds rows past its capacity.
  thread_local std::vector<FeatureRow> merged;
  merged.clear();
  merged.reserve(rows_.size() + other.rows_.size());
  auto mine = rows_.begin();
  auto theirs = other.rows_.begin();
  while (mine != rows_.end() && theirs != other.rows_.end()) {
    if (RowLess(*mine, *theirs)) {
      merged.push_back(std::move(*mine++));
    } else if (RowLess(*theirs, *mine)) {
      merged.push_back(*theirs++);
    } else {
      merged.push_back(std::move(*mine++));
      ReduceInto(merged.back().counts, (theirs++)->counts, reduce);
    }
  }
  std::move(mine, rows_.end(), std::back_inserter(merged));
  merged.insert(merged.end(), theirs, other.rows_.end());
  rows_.assign(std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()));
  merged.clear();
}

size_t Slice::HeapBytes() const {
  size_t bytes = RowBlockBytes(rows_);
  for (const FeatureRow& row : rows_) bytes += row.counts.HeapBytes();
  return bytes;
}

}  // namespace ips
