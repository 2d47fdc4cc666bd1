// Feature rows (Section III-B): the statistics a slice records, one row per
// (slot, type, fid) with its per-action counts. A slice keeps its rows in one
// vector sorted by (slot, type, fid), so the paper's slot -> type -> sorted
// feature stats hierarchy is a set of nested contiguous ranges: a slot's
// rows, and within them one sorted run per type (the "fid_index" window
// queries merge across slices). The helpers here order and walk those
// ranges; Slice finds them by binary search.
#ifndef IPS_CORE_FEATURE_STAT_H_
#define IPS_CORE_FEATURE_STAT_H_

#include <cstddef>
#include <span>
#include <tuple>
#include <utility>

#include "core/types.h"

namespace ips {

/// One feature's statistics within a slice: its key plus per-action counts.
struct FeatureRow {
  SlotId slot = 0;
  TypeId type = 0;
  FeatureId fid = 0;
  CountVector counts;

  auto Key() const { return std::tie(slot, type, fid); }
};

static_assert(sizeof(FeatureRow) <= 56, "a row is its key plus counts");

/// A contiguous, key-sorted range of rows.
using RowSpan = std::span<const FeatureRow>;

/// The row order of a slice.
inline bool RowLess(const FeatureRow& a, const FeatureRow& b) {
  return a.Key() < b.Key();
}

/// The keys of a row's slot and of its (slot, type) group.
inline SlotId SlotKey(const FeatureRow& r) { return r.slot; }
inline std::pair<SlotId, TypeId> GroupKey(const FeatureRow& r) {
  return {r.slot, r.type};
}

/// True when rows are strictly ascending by (slot, type, fid) — the
/// invariant every slice mutation keeps and every decoder checks.
bool RowsSorted(RowSpan rows);

/// Applies `reduce` element-wise, growing `into` to `from`'s width.
inline void ReduceInto(CountVector& into, const CountVector& from,
                       ReduceFn reduce) {
  into.Reduce(from, reduce);
}

/// Calls `fn(run)` for each maximal run of rows with an equal `key(row)`,
/// in order: with SlotKey one call per slot, with GroupKey one per
/// (slot, type) group. `rows` must be sorted so that equal keys are
/// adjacent.
template <typename Key, typename Fn>
void ForEachRun(RowSpan rows, Key key, Fn fn) {
  size_t begin = 0;
  while (begin < rows.size()) {
    size_t end = begin + 1;
    while (end < rows.size() && key(rows[end]) == key(rows[begin])) ++end;
    fn(rows.subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace ips

#endif  // IPS_CORE_FEATURE_STAT_H_
