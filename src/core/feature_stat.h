// Indexed Feature Stat (Section III-B): the per-(slot, type) collection of
// feature statistics inside one Slice. Entries are kept sorted by feature id
// so that window queries can run a multi-way merge across slices without
// per-slice sorting; this is the role of the paper's "fid_index".
#ifndef IPS_CORE_FEATURE_STAT_H_
#define IPS_CORE_FEATURE_STAT_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace ips {

/// One feature's statistics within a slice: its id plus per-action counts.
struct FeatureStat {
  FeatureId fid = 0;
  CountVector counts;

  size_t ApproximateBytes() const {
    return sizeof(FeatureStat) - sizeof(CountVector) +
           counts.ApproximateBytes();
  }
};

/// Sorted-by-fid feature list with upsert and merge support.
///
/// Sizes are small in steady state (the paper reports ~730-byte average
/// slices, i.e. tens of features), so binary-search + vector insert is both
/// cache-friendly and asymptotically irrelevant; the sorted invariant is what
/// the query layer's k-way merge relies on.
class IndexedFeatureStats {
 public:
  /// Adds `counts` for `fid` using the reduce function; creates the entry if
  /// absent. Returns the approximate change in memory footprint, so callers
  /// can maintain O(1) byte accounting (the cache layer charges every write
  /// against its memory budget without re-walking the profile).
  int64_t Upsert(FeatureId fid, const CountVector& counts,
                 ReduceFn reduce = ReduceFn::kSum);

  /// Returns the entry for `fid`, or nullptr.
  const FeatureStat* Find(FeatureId fid) const;

  /// Merges all entries of `other` into this set with `reduce`.
  void MergeFrom(const IndexedFeatureStats& other, ReduceFn reduce);

  /// MergeFrom with a caller-owned merge buffer. The merged vector is built
  /// in `*scratch` and swapped in, so a caller that merges repeatedly (the
  /// compaction pool) reuses one heap block at its high-water capacity
  /// instead of allocating a fresh vector per merge. After the call
  /// `*scratch` holds this set's previous (moved-from) storage.
  void MergeFrom(const IndexedFeatureStats& other, ReduceFn reduce,
                 std::vector<FeatureStat>* scratch);

  /// Move-merging variant: entries only present in `other` are moved, not
  /// copied, so their count storage changes owner without reallocating.
  void MergeFrom(IndexedFeatureStats&& other, ReduceFn reduce,
                 std::vector<FeatureStat>* scratch);

  /// Keeps only the features for which `keep(stat)` is true.
  template <typename Pred>
  void Retain(Pred keep) {
    size_t out = 0;
    for (size_t i = 0; i < stats_.size(); ++i) {
      if (keep(stats_[i])) {
        if (out != i) stats_[out] = std::move(stats_[i]);
        ++out;
      }
    }
    stats_.resize(out);
  }

  const std::vector<FeatureStat>& stats() const { return stats_; }
  size_t size() const { return stats_.size(); }
  bool empty() const { return stats_.empty(); }
  void Reserve(size_t n) { stats_.reserve(n); }

  /// Direct append for deserialization; caller guarantees ascending fids.
  void AppendSortedUnchecked(FeatureStat stat) {
    stats_.push_back(std::move(stat));
  }

  size_t ApproximateBytes() const;

  /// True when entries are strictly ascending by fid (invariant check used
  /// by property tests and debug assertions).
  bool IsSorted() const;

 private:
  std::vector<FeatureStat> stats_;
};

}  // namespace ips

#endif  // IPS_CORE_FEATURE_STAT_H_
