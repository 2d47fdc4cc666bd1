// Reusable per-thread working memory for the query compute path.
//
// ExecuteQuery runs on every read; its transient state (the run list, the
// fid-keyed accumulator table, filter fid copies, merge buffers) used to be
// rebuilt on the heap per call. A QueryScratch owns all of it with retained
// capacity, so a warmed thread executes queries with ZERO steady-state heap
// allocations in the compute core — the property bench_micro's --smoke gate
// asserts with the operator-new counting hook.
//
// Not thread-safe; use ThreadLocal() or one instance per worker. Contents
// between queries are unspecified (buffers hold stale data on purpose).
#ifndef IPS_QUERY_SCRATCH_H_
#define IPS_QUERY_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "core/feature_stat.h"
#include "core/types.h"

namespace ips {

struct QueryScratch {
  /// One window-overlapping sorted fid run: the slice's rows of one queried
  /// (slot, type) group plus the slice-derived merge parameters.
  struct Run {
    RowSpan rows;
    double weight;
    TimestampMs end_ms;
  };

  /// One merged feature. Dense storage: the first `acc_count` elements of
  /// `accs` are live; elements are overwritten in place across queries so
  /// their count/weight buffers keep their high-water capacity.
  struct Accumulator {
    FeatureId fid = 0;
    CountVector counts;
    WeightVector weighted;
    TimestampMs newest_ms = 0;

    /// Weighted value of one action dimension (0 when out of range), the
    /// sort key for count-ordered results.
    double WeightedAt(size_t i) const { return weighted.At(i); }
  };

  std::vector<Run> runs;
  std::vector<Accumulator> accs;
  size_t acc_count = 0;

  /// Open-addressing index over `accs`: slot value = accumulator index + 1,
  /// 0 = empty. Only the first `table_size` (a power of two) slots are
  /// active; the vector never shrinks.
  std::vector<uint32_t> table;
  size_t table_size = 0;

  /// Sorted copy of FilterSpec::fids for kFidIn / kFidNotIn queries.
  std::vector<FeatureId> filter_fids;

  /// Filter-surviving accumulator indices, sorted for emission. Top-K runs
  /// over these 4-byte indices, not over FeatureResult objects, and only the
  /// K winners are materialized into the caller's result.
  std::vector<uint32_t> emit_order;

  /// Queries served by this scratch (the first one pays the warm-up
  /// allocations; the rest are the `query.scratch_reuse` counter).
  uint64_t uses = 0;

  /// The calling thread's scratch (one per thread, lazily created).
  static QueryScratch& ThreadLocal() {
    thread_local QueryScratch scratch;
    return scratch;
  }
};

}  // namespace ips

#endif  // IPS_QUERY_SCRATCH_H_
