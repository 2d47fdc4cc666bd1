// Reusable per-thread working memory for the query compute path.
//
// ExecuteQuery runs on every read; its transient state (the run list, the
// fid-keyed accumulator table, filter fid copies, rank keys) used to be
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
  /// One slice's window-overlapping rows (the queried (slot, type) group,
  /// or the whole slot) plus the slice-derived merge parameters.
  struct Run {
    RowSpan rows;
    double weight;
    TimestampMs end_ms;
  };

  /// One merged feature; the first `acc_count` elements of `accs` are live.
  /// Elements are overwritten in place across queries, so their buffers
  /// keep their high-water capacity. Only decayed queries fill `weighted`.
  struct Accumulator {
    FeatureId fid = 0;
    CountVector counts;
    WeightVector weighted;
    TimestampMs newest_ms = 0;
  };

  /// A slot of the fid -> accumulator index, occupied only while `stamp`
  /// equals the scratch's: a query empties the table by bumping the stamp.
  struct Probe {
    FeatureId fid = 0;
    uint32_t acc = 0;
    uint32_t stamp = 0;
  };

  /// A filter survivor's sort score, tie-breaking fid and accumulator.
  struct RankKey {
    double score;
    FeatureId fid;
    uint32_t acc;
  };

  std::vector<Run> runs;
  std::vector<Accumulator> accs;
  size_t acc_count = 0;

  /// The probe table (a query uses a power-of-two prefix) and the current
  /// query's stamp, never 0; when it wraps, every slot's stamp is zeroed.
  std::vector<Probe> probes;
  uint32_t stamp = 0;

  /// Sorted copy of FilterSpec::fids for kFidIn / kFidNotIn queries.
  std::vector<FeatureId> filter_fids;

  /// Rank keys of the filter survivors; the first K end up sorted.
  std::vector<RankKey> ranked;

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
