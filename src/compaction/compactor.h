// Profile compaction and elimination (Section III-D): the mechanisms that
// keep a profile's memory bounded while preserving feature quality.
//
//  * Compact  — merge consecutive slices into wider windows per the
//               time-dimension ladder (Listings 2/3, Fig 10). Lossless in
//               counts, lossy only in time precision.
//  * Truncate — drop slices older than a maximum age or beyond a maximum
//               slice count (Fig 11).
//  * Shrink   — eliminate low-value long-tail features per slot, keeping the
//               top features by a multi-dimensional importance score and
//               never touching data inside the freshness horizon (Listing 4).
#ifndef IPS_COMPACTION_COMPACTOR_H_
#define IPS_COMPACTION_COMPACTOR_H_

#include <cstddef>

#include "common/clock.h"
#include "core/profile_data.h"
#include "core/table_schema.h"

namespace ips {

/// Outcome counters for one compaction pass, surfaced into metrics.
struct CompactionStats {
  size_t slices_merged = 0;      // removed by Compact
  size_t slices_truncated = 0;   // removed by Truncate
  size_t features_shrunk = 0;    // removed by Shrink

  bool AnyWork() const {
    return slices_merged + slices_truncated + features_shrunk > 0;
  }
};

/// Stateless compaction engine configured by a table schema. All operations
/// mutate the profile in place; the caller holds the profile's lock.
class Compactor {
 public:
  explicit Compactor(const TableSchema* schema) : schema_(schema) {}

  /// Full pass: Compact + Truncate + Shrink, in that order (merging first
  /// makes the shrink budgets apply to consolidated windows).
  CompactionStats FullCompact(ProfileData& profile, TimestampMs now_ms) const;

  /// Partial pass: only the cheap steps (Truncate + at most one ladder rung
  /// of merging). Used under load per Section III-D's partial-compaction
  /// strategy.
  CompactionStats PartialCompact(ProfileData& profile,
                                 TimestampMs now_ms) const;

  /// Merges consecutive slices according to the time-dimension ladder.
  /// When `max_merges` > 0 the pass stops after that many merge operations
  /// (the partial mode). Returns the number of slices eliminated.
  size_t Compact(ProfileData& profile, TimestampMs now_ms,
                 size_t max_merges = 0) const;

  /// Applies the truncate policy; returns slices dropped.
  size_t Truncate(ProfileData& profile, TimestampMs now_ms) const;

  /// Applies the shrink policy; returns features eliminated.
  size_t Shrink(ProfileData& profile, TimestampMs now_ms) const;

  /// The earliest time, never before `now_ms`, at which FullCompact would
  /// do any work on `profile` (the maximum TimestampMs if never): the first
  /// ladder interval where Compact merges an adjacent pair, the truncate
  /// age of the oldest slice, the slice cap, or an over-budget slot's
  /// slice leaving the shrink freshness horizon.
  TimestampMs NextDueMs(const ProfileData& profile, TimestampMs now_ms) const;

  /// Importance score of a feature under the schema's action weights:
  /// sum_i weight[i] * counts[i]. Exposed for tests and benches.
  double ImportanceScore(const CountVector& counts) const;

 private:
  const TableSchema* schema_;
};

}  // namespace ips

#endif  // IPS_COMPACTION_COMPACTOR_H_
