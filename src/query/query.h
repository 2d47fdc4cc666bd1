// The feature-computation engine of IPS (Section II-B): given a profile, a
// (slot, type) scope and a time range, collect the overlapping slices, run a
// multi-way merge + aggregation over their feature stats (optionally decay-
// weighted by slice age), then filter / sort / top-K the aggregated result.
// This is the computation that runs inline on every feature query — the
// paper's core departure from plain key-value profile stores.
#ifndef IPS_QUERY_QUERY_H_
#define IPS_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"
#include "query/decay.h"
#include "query/scratch.h"
#include "query/time_range.h"

namespace ips {

/// One aggregated feature in a query result.
struct FeatureResult {
  FeatureId fid = 0;
  /// Counts aggregated across the window (reduce function of the table).
  CountVector counts;
  /// Decay-weighted counts; equals raw counts when no decay is applied.
  WeightVector weighted;
  /// End timestamp of the newest slice that contributed (for sort-by-time).
  TimestampMs newest_ms = 0;

  /// Weighted value of one action dimension (0 when out of range).
  double WeightedAt(size_t i) const { return weighted.At(i); }
};

/// Filter predicates for get_profile_filter.
enum class FilterOp : int {
  kNone = 0,
  kCountAtLeast = 1,   // counts[action] >= operand
  kCountLess = 2,      // counts[action] < operand
  kFidIn = 3,          // fid is in the provided set
  kFidNotIn = 4,
};

struct FilterSpec {
  FilterOp op = FilterOp::kNone;
  ActionIndex action = 0;
  int64_t operand = 0;
  std::vector<FeatureId> fids;  // for kFidIn / kFidNotIn (sorted internally)
};

/// Fully specified query. The three public read APIs are thin wrappers that
/// populate this struct.
struct QuerySpec {
  SlotId slot = 0;
  /// Type scope; nullopt means "all types in the slot" (the Listing 1 query
  /// groups over a whole slot).
  std::optional<TypeId> type;
  TimeRange time_range = TimeRange::Current(kMillisPerDay);
  SortBy sort_by = SortBy::kActionCount;
  /// Action dimension used when sort_by == kActionCount.
  ActionIndex sort_action = 0;
  /// Maximum results; 0 means unlimited.
  size_t k = 0;
  DecaySpec decay;
  FilterSpec filter;
  /// Reduce function for cross-slice aggregation (from the table schema).
  ReduceFn reduce = ReduceFn::kSum;
};

struct QueryResult {
  std::vector<FeatureResult> features;
  /// Number of slices that overlapped the window (observability; the paper
  /// reports average slice-list lengths).
  size_t slices_scanned = 0;
  /// Total feature entries merged before filter/top-K.
  size_t features_merged = 0;
  /// Graceful degradation: the profile behind this result may be stale — it
  /// was loaded from a fallback replica during a storage outage, or is a
  /// resident copy that currently cannot be revalidated. Callers choosing
  /// availability over freshness use it as-is; strict callers treat it as a
  /// miss.
  bool degraded = false;
};

/// Executes `spec` against `profile` at time `now_ms`.
///
/// Thread-compatibility: takes the profile by const reference; callers hold
/// whatever lock guards the profile (cache entry lock on the serving path).
Result<QueryResult> ExecuteQuery(const ProfileData& profile,
                                 const QuerySpec& spec, TimestampMs now_ms);

/// Allocation-free core of ExecuteQuery: all transient state lives in
/// `*scratch` and the result is written into `*out` reusing whatever storage
/// it already holds (`out->features` elements are overwritten in place and
/// the vector is resized to the result count). Result features keep their
/// counts and weights inline (<= 4 actions), so with a warmed scratch a query
/// performs zero heap allocations into a reused `out`, and exactly one — the
/// `features` array, sized once — into a fresh one: the properties the
/// bench_micro --smoke gate asserts.
///
/// `out->degraded` is left untouched for the caller to set.
Status ExecuteQueryInto(const ProfileData& profile, const QuerySpec& spec,
                        TimestampMs now_ms, QueryScratch* scratch,
                        QueryResult* out);

/// Convenience wrappers mirroring the paper's three read APIs.
Result<QueryResult> GetProfileTopK(const ProfileData& profile, SlotId slot,
                                   std::optional<TypeId> type,
                                   const TimeRange& range, SortBy sort_by,
                                   ActionIndex sort_action, size_t k,
                                   TimestampMs now_ms,
                                   ReduceFn reduce = ReduceFn::kSum);

Result<QueryResult> GetProfileFilter(const ProfileData& profile, SlotId slot,
                                     std::optional<TypeId> type,
                                     const TimeRange& range,
                                     const FilterSpec& filter,
                                     TimestampMs now_ms,
                                     ReduceFn reduce = ReduceFn::kSum);

Result<QueryResult> GetProfileDecay(const ProfileData& profile, SlotId slot,
                                    std::optional<TypeId> type,
                                    const TimeRange& range,
                                    const DecaySpec& decay,
                                    TimestampMs now_ms,
                                    ReduceFn reduce = ReduceFn::kSum);

}  // namespace ips

#endif  // IPS_QUERY_QUERY_H_
