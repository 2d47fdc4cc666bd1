#include "query/query.h"

#include <algorithm>

#include "common/hash.h"

namespace ips {

namespace {

using Accumulator = QueryScratch::Accumulator;

// Accumulator (re)initialization overwrites a possibly-reused element. Counts
// and weights of <= 4 actions live inline, so a warmed scratch initializes
// without touching the heap.
void InitAccumulator(Accumulator& acc, const FeatureRow& stat, double weight,
                     TimestampMs slice_end_ms) {
  acc.fid = stat.fid;
  acc.counts = stat.counts;
  acc.weighted.Resize(stat.counts.size());
  for (size_t i = 0; i < stat.counts.size(); ++i) {
    acc.weighted[i] = static_cast<double>(stat.counts[i]) * weight;
  }
  acc.newest_ms = slice_end_ms;
}

void AccumulateInto(Accumulator& acc, const FeatureRow& stat, double weight,
                    TimestampMs slice_end_ms, ReduceFn reduce) {
  ReduceInto(acc.counts, stat.counts, reduce);
  if (acc.weighted.size() < stat.counts.size()) {
    acc.weighted.Resize(stat.counts.size());
  }
  for (size_t i = 0; i < stat.counts.size(); ++i) {
    const double contribution = static_cast<double>(stat.counts[i]) * weight;
    if (reduce == ReduceFn::kSum) {
      acc.weighted[i] += contribution;
    } else {
      acc.weighted[i] = std::max(acc.weighted[i], contribution);
    }
  }
  acc.newest_ms = std::max(acc.newest_ms, slice_end_ms);
}

// `sorted_fids` is the scratch-held sorted copy of filter.fids (only
// populated for the fid-set predicates).
bool PassesFilter(const FilterSpec& filter,
                  const std::vector<FeatureId>& sorted_fids, FeatureId fid,
                  const CountVector& counts) {
  switch (filter.op) {
    case FilterOp::kNone:
      return true;
    case FilterOp::kCountAtLeast:
      return counts.At(filter.action) >= filter.operand;
    case FilterOp::kCountLess:
      return counts.At(filter.action) < filter.operand;
    case FilterOp::kFidIn:
      return std::binary_search(sorted_fids.begin(), sorted_fids.end(), fid);
    case FilterOp::kFidNotIn:
      return !std::binary_search(sorted_fids.begin(), sorted_fids.end(), fid);
  }
  return true;
}

// Strict-weak ordering for the final sort; works over Accumulator (the
// serving path sorts accumulator indices) and FeatureResult alike. Weighted
// values are used for the count sort so decay queries rank by decayed score,
// as the API intends.
template <typename T>
bool ResultLess(const T& a, const T& b, SortBy sort_by, ActionIndex action) {
  switch (sort_by) {
    case SortBy::kActionCount: {
      const double wa = a.WeightedAt(action);
      const double wb = b.WeightedAt(action);
      if (wa != wb) return wa > wb;  // descending by score
      return a.fid < b.fid;         // deterministic tie-break
    }
    case SortBy::kTimestamp:
      if (a.newest_ms != b.newest_ms) return a.newest_ms > b.newest_ms;
      return a.fid < b.fid;
    case SortBy::kFeatureId:
      return a.fid < b.fid;
  }
  return a.fid < b.fid;
}

}  // namespace

Status ExecuteQueryInto(const ProfileData& profile, const QuerySpec& spec,
                        TimestampMs now_ms, QueryScratch* scratch,
                        QueryResult* out) {
  IPS_RETURN_IF_ERROR(spec.decay.Validate());
  IPS_ASSIGN_OR_RETURN(auto window, spec.time_range.Resolve(profile, now_ms));
  const auto [from_ms, to_ms] = window;

  ++scratch->uses;
  out->slices_scanned = 0;
  out->features_merged = 0;

  const FilterSpec& filter = spec.filter;
  if (filter.op == FilterOp::kFidIn || filter.op == FilterOp::kFidNotIn) {
    scratch->filter_fids.assign(filter.fids.begin(), filter.fids.end());
    std::sort(scratch->filter_fids.begin(), scratch->filter_fids.end());
  }

  // Step 1 (paper II-B): locate the sorted fid runs of the slices
  // overlapping the window: one run per (slot, type) group, each a span of
  // the slice's rows found by binary search. The slice list is newest-first;
  // once a slice ends at or before `from` every older slice is out of range
  // too. Knowing every run's length up front is what lets step 2 size its
  // table exactly once — the payoff of keeping each group a sorted run.
  scratch->runs.clear();
  size_t total_entries = 0;
  for (const auto& slice : profile.slices()) {
    if (slice.start_ms() >= to_ms) continue;  // newer than the window
    if (slice.end_ms() <= from_ms) break;     // older; list is sorted
    const RowSpan slot_rows = slice.SlotRows(spec.slot);
    if (slot_rows.empty()) continue;
    ++out->slices_scanned;

    // Decay weight depends on the age of the slice midpoint relative to the
    // window end (recent slices weigh ~1).
    const TimestampMs mid = slice.start_ms() + slice.DurationMs() / 2;
    const double weight = spec.decay.WeightForAge(to_ms - mid);

    auto add_run = [&](RowSpan group) {
      if (group.empty()) return;
      scratch->runs.push_back({group, weight, slice.end_ms()});
      total_entries += group.size();
    };
    if (spec.type.has_value()) {
      add_run(slice.GroupRows(spec.slot, *spec.type));
    } else {
      ForEachRun(slot_rows, GroupKey, add_run);
    }
  }

  // Step 2: merge and aggregate feature counts across the runs into the
  // dense accumulator array, reusing elements (and their heap blocks) from
  // previous queries.
  scratch->acc_count = 0;
  auto& accs = scratch->accs;
  auto new_acc = [&](const FeatureRow& stat, double weight,
                     TimestampMs end_ms) -> uint32_t {
    const size_t idx = scratch->acc_count++;
    if (idx == accs.size()) accs.emplace_back();
    InitAccumulator(accs[idx], stat, weight, end_ms);
    return static_cast<uint32_t>(idx);
  };

  if (scratch->runs.size() == 1) {
    // Single overlapping run: fids are unique and already sorted, so the
    // accumulators are just the run in order — no index needed at all.
    const QueryScratch::Run& run = scratch->runs[0];
    for (const FeatureRow& stat : run.rows) {
      new_acc(stat, run.weight, run.end_ms);
    }
  } else if (!scratch->runs.empty()) {
    // Flat open-addressing index over the dense accumulators (slot value =
    // index + 1, 0 = empty; linear probing). Sized once from the known run
    // lengths to a load factor <= 0.5, cleared with one fill — no rehashing
    // and no per-node allocations, unlike the unordered_map it replaced.
    size_t needed = 16;
    while (needed < 2 * total_entries) needed <<= 1;
    if (scratch->table.size() < needed) scratch->table.resize(needed);
    scratch->table_size = needed;
    std::fill_n(scratch->table.begin(), needed, 0u);
    const size_t mask = needed - 1;

    for (const QueryScratch::Run& run : scratch->runs) {
      for (const FeatureRow& stat : run.rows) {
        size_t idx = static_cast<size_t>(Mix64(stat.fid)) & mask;
        for (;;) {
          const uint32_t slot = scratch->table[idx];
          if (slot == 0) {
            scratch->table[idx] = new_acc(stat, run.weight, run.end_ms) + 1;
            break;
          }
          Accumulator& acc = accs[slot - 1];
          if (acc.fid == stat.fid) {
            AccumulateInto(acc, stat, run.weight, run.end_ms, spec.reduce);
            break;
          }
          idx = (idx + 1) & mask;
        }
      }
    }
  }

  out->features_merged = scratch->acc_count;

  // Step 3: filter + top-K over accumulator INDICES. Sorting 4-byte indices
  // instead of FeatureResult objects avoids moving whole features, and only
  // the K winners ever get materialized — so the result vector's size is the
  // result size, not the merged-feature count.
  auto& order = scratch->emit_order;
  order.clear();
  for (size_t i = 0; i < scratch->acc_count; ++i) {
    const Accumulator& acc = accs[i];
    if (PassesFilter(filter, scratch->filter_fids, acc.fid, acc.counts)) {
      order.push_back(static_cast<uint32_t>(i));
    }
  }
  auto less = [&](uint32_t a, uint32_t b) {
    return ResultLess(accs[a], accs[b], spec.sort_by, spec.sort_action);
  };
  size_t count = order.size();
  if (spec.k > 0 && spec.k < count) {
    // partial_sort keeps the serving cost at O(n log k) for the common
    // small-k case.
    std::partial_sort(order.begin(), order.begin() + spec.k, order.end(),
                      less);
    count = spec.k;
  } else {
    std::sort(order.begin(), order.end(), less);
  }

  // Step 4: emit the winners, overwriting `out`'s existing feature elements
  // in place. The vector is sized to the result count once up front, so a
  // fresh result pays one allocation and a reused one none; counts and
  // weights live inline.
  auto& features = out->features;
  features.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const Accumulator& acc = accs[order[i]];
    FeatureResult& f = features[i];
    f.fid = acc.fid;
    f.counts = acc.counts;
    f.weighted = acc.weighted;
    f.newest_ms = acc.newest_ms;
  }
  return Status::OK();
}

Result<QueryResult> ExecuteQuery(const ProfileData& profile,
                                 const QuerySpec& spec, TimestampMs now_ms) {
  QueryResult result;
  IPS_RETURN_IF_ERROR(ExecuteQueryInto(profile, spec, now_ms,
                                       &QueryScratch::ThreadLocal(), &result));
  return result;
}

Result<QueryResult> GetProfileTopK(const ProfileData& profile, SlotId slot,
                                   std::optional<TypeId> type,
                                   const TimeRange& range, SortBy sort_by,
                                   ActionIndex sort_action, size_t k,
                                   TimestampMs now_ms, ReduceFn reduce) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.sort_by = sort_by;
  spec.sort_action = sort_action;
  spec.k = k;
  spec.reduce = reduce;
  return ExecuteQuery(profile, spec, now_ms);
}

Result<QueryResult> GetProfileFilter(const ProfileData& profile, SlotId slot,
                                     std::optional<TypeId> type,
                                     const TimeRange& range,
                                     const FilterSpec& filter,
                                     TimestampMs now_ms, ReduceFn reduce) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.filter = filter;
  spec.sort_by = SortBy::kFeatureId;
  spec.reduce = reduce;
  return ExecuteQuery(profile, spec, now_ms);
}

Result<QueryResult> GetProfileDecay(const ProfileData& profile, SlotId slot,
                                    std::optional<TypeId> type,
                                    const TimeRange& range,
                                    const DecaySpec& decay,
                                    TimestampMs now_ms, ReduceFn reduce) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.decay = decay;
  spec.sort_by = SortBy::kActionCount;
  spec.reduce = reduce;
  return ExecuteQuery(profile, spec, now_ms);
}

}  // namespace ips
