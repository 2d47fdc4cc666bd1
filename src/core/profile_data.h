// Profile Data (Sections II-A, III-B): one user's entire profile — a
// time-serial list of non-overlapping slices, newest first. Writes are
// append/insert (no in-place update of past intervals beyond count
// aggregation inside a slice); the slice boundaries are managed here and
// consolidated later by the compaction machinery.
#ifndef IPS_CORE_PROFILE_DATA_H_
#define IPS_CORE_PROFILE_DATA_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/slice.h"
#include "core/types.h"

namespace ips {

class ProfileData {
 public:
  /// `write_granularity_ms` is the width of newly created slices (the paper's
  /// finest time dimension, e.g. "1s" or 5 minutes depending on the table).
  explicit ProfileData(int64_t write_granularity_ms = 60'000)
      : write_granularity_ms_(write_granularity_ms) {}

  /// Records `counts` for (slot, type, fid) at `timestamp`. The slice that
  /// covers `timestamp` is located (or created, aligned to the write
  /// granularity): a newer-than-head timestamp opens a new slice at the front
  /// of the list, matching Section II-B's add_profile contract.
  Status Add(TimestampMs timestamp, SlotId slot, TypeId type, FeatureId fid,
             const CountVector& counts, ReduceFn reduce = ReduceFn::kSum);

  /// Slices newest-first, in one vector. Query code iterates this to collect
  /// the slices overlapping a window.
  const std::vector<Slice>& slices() const { return slices_; }
  std::vector<Slice>& mutable_slices() { return slices_; }

  size_t SliceCount() const { return slices_.size(); }
  bool empty() const { return slices_.empty(); }

  /// Timestamp of the most recent data (end of the newest slice), or 0 when
  /// empty. RELATIVE time ranges anchor here.
  TimestampMs NewestMs() const;
  /// Start of the oldest slice, or 0 when empty.
  TimestampMs OldestMs() const;

  /// Most recent single-action timestamp observed via Add (finer than slice
  /// granularity); RELATIVE windows anchor on this.
  TimestampMs LastActionMs() const { return last_action_ms_; }
  void set_last_action_ms(TimestampMs ts) { last_action_ms_ = ts; }

  int64_t write_granularity_ms() const { return write_granularity_ms_; }
  void set_write_granularity_ms(int64_t ms) { write_granularity_ms_ = ms; }

  size_t TotalFeatures() const;

  /// Memory footprint: this object, the slice vector's block and every
  /// slice's heap bytes, by capacity and as malloc rounds each block (what
  /// the layout really allocates). O(1): maintained incrementally by Add.
  /// Code that mutates the slice list directly (compaction, deserialization,
  /// anything going through mutable_slices()) must call RecomputeBytes()
  /// afterwards — the cache layer charges this value against its memory
  /// budget on every write, so it cannot afford a full walk per operation.
  size_t ApproximateBytes() const { return approx_bytes_; }

  /// Full re-measurement after direct structural mutation.
  size_t RecomputeBytes();

  /// True when slices are strictly newest-first and non-overlapping — the
  /// core invariant every mutation must preserve (checked by property tests).
  bool CheckInvariants() const;

  /// Merges the entire contents of `other` into this profile, slice
  /// boundaries included (used by the read-write isolation merge and by
  /// multi-region reconciliation).
  void MergeProfile(const ProfileData& other, ReduceFn reduce);

 private:
  /// Aligns `ts` down to the write granularity grid.
  TimestampMs AlignDown(TimestampMs ts) const;
  /// Heap bytes of the slice vector's block.
  size_t SliceBlockBytes() const;

  int64_t write_granularity_ms_;
  TimestampMs last_action_ms_ = 0;
  size_t approx_bytes_ = sizeof(ProfileData);
  std::vector<Slice> slices_;  // newest first
};

}  // namespace ips

#endif  // IPS_CORE_PROFILE_DATA_H_
