#include "query/query.h"

#include <algorithm>

#include "common/hash.h"

namespace ips {

namespace {

using Accumulator = QueryScratch::Accumulator;
using RankKey = QueryScratch::RankKey;

// Sets `weighted` to `counts` scaled by `weight`.
void ScaleInto(WeightVector& weighted, const CountVector& counts,
               double weight) {
  weighted.Resize(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    weighted[i] = static_cast<double>(counts[i]) * weight;
  }
}

// Accumulator (re)initialization overwrites a possibly-reused element. Counts
// and weights of <= 4 actions live inline, so a warmed scratch initializes
// without touching the heap. Only decayed queries keep weights; an
// undecayed one derives its winners' weights from their counts at emission.
void InitAccumulator(Accumulator& acc, const FeatureRow& row, double weight,
                     TimestampMs slice_end_ms, bool decayed) {
  acc.fid = row.fid;
  acc.counts = row.counts;
  acc.newest_ms = slice_end_ms;
  if (decayed) ScaleInto(acc.weighted, row.counts, weight);
}

void AccumulateInto(Accumulator& acc, const FeatureRow& row, double weight,
                    TimestampMs slice_end_ms, ReduceFn reduce, bool decayed) {
  ReduceInto(acc.counts, row.counts, reduce);
  acc.newest_ms = std::max(acc.newest_ms, slice_end_ms);
  if (!decayed) return;
  acc.weighted.Resize(acc.counts.size());  // reduce grew counts to the row
  for (size_t i = 0; i < row.counts.size(); ++i) {
    const double contribution = static_cast<double>(row.counts[i]) * weight;
    if (reduce == ReduceFn::kSum) {
      acc.weighted[i] += contribution;
    } else {
      acc.weighted[i] = std::max(acc.weighted[i], contribution);
    }
  }
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

// Descending score, then ascending fid: a strict total order, so any
// selection algorithm yields the same winners in the same order.
// (A lambda, so the selection and sort calls inline it.)
constexpr auto kRankLess = [](const RankKey& a, const RankKey& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.fid < b.fid;
};

}  // namespace

Status ExecuteQueryInto(const ProfileData& profile, const QuerySpec& spec,
                        TimestampMs now_ms, QueryScratch* scratch,
                        QueryResult* out) {
  IPS_RETURN_IF_ERROR(spec.decay.Validate());
  IPS_ASSIGN_OR_RETURN(auto window, spec.time_range.Resolve(profile, now_ms));
  const auto [from_ms, to_ms] = window;

  ++scratch->uses;
  out->slices_scanned = 0;

  const FilterSpec& filter = spec.filter;
  if (filter.op == FilterOp::kFidIn || filter.op == FilterOp::kFidNotIn) {
    scratch->filter_fids.assign(filter.fids.begin(), filter.fids.end());
    std::sort(scratch->filter_fids.begin(), scratch->filter_fids.end());
  }

  // Step 1 (paper II-B): per slice overlapping the window, find the span of
  // the queried (slot, type) group or of the whole slot by binary search.
  // The slice list is newest-first, so the first slice ending at or before
  // `from` ends the scan. The spans' total length sizes step 2's table.
  scratch->runs.clear();
  size_t total_rows = 0;
  for (const auto& slice : profile.slices()) {
    if (slice.start_ms() >= to_ms) continue;  // newer than the window
    if (slice.end_ms() <= from_ms) break;     // older; list is sorted
    const RowSpan slot_rows = slice.SlotRows(spec.slot);
    if (slot_rows.empty()) continue;
    ++out->slices_scanned;
    const RowSpan rows = spec.type.has_value()
                             ? slice.GroupRows(spec.slot, *spec.type)
                             : slot_rows;
    if (rows.empty()) continue;
    // Decay weight depends on the age of the slice midpoint relative to the
    // window end (recent slices weigh ~1).
    const TimestampMs mid = slice.start_ms() + slice.DurationMs() / 2;
    scratch->runs.push_back(
        {rows, spec.decay.WeightForAge(to_ms - mid), slice.end_ms()});
    total_rows += rows.size();
  }

  // Step 2: merge the runs into the dense accumulators, reusing elements
  // (and their heap blocks) from previous queries. An undecayed query (the
  // serving shape) accumulates counts only.
  const bool decayed = spec.decay.function != DecayFunction::kNone;
  scratch->acc_count = 0;
  auto& accs = scratch->accs;
  auto new_acc = [&](const FeatureRow& row, const QueryScratch::Run& run) {
    const size_t idx = scratch->acc_count++;
    if (idx == accs.size()) accs.emplace_back();
    InitAccumulator(accs[idx], row, run.weight, run.end_ms, decayed);
    return static_cast<uint32_t>(idx);
  };

  const auto& runs = scratch->runs;
  if (runs.size() == 1 &&
      runs[0].rows.front().type == runs[0].rows.back().type) {
    // One (slot, type) group of one slice: its fids are unique and already
    // sorted, so the accumulators are just the rows in order — no index.
    for (const FeatureRow& row : runs[0].rows) new_acc(row, runs[0]);
  } else if (!runs.empty()) {
    // Open-addressing (fid, accumulator index) table, linear probing, at a
    // load factor <= 0.5 of the known row count, so it never rehashes and a
    // probe reads an accumulator only to fold a row into it. Bumping the
    // stamp empties the table; only a wrap of the stamp clears it.
    size_t size = 16;
    while (size < 2 * total_rows) size <<= 1;
    auto& probes = scratch->probes;
    if (probes.size() < size) probes.resize(size);
    if (++scratch->stamp == 0) {
      for (QueryScratch::Probe& probe : probes) probe.stamp = 0;
      scratch->stamp = 1;
    }
    const uint32_t stamp = scratch->stamp;
    const size_t mask = size - 1;
    for (const QueryScratch::Run& run : runs) {
      for (const FeatureRow& row : run.rows) {
        size_t i = static_cast<size_t>(Mix64(row.fid)) & mask;
        while (probes[i].stamp == stamp && probes[i].fid != row.fid) {
          i = (i + 1) & mask;
        }
        if (probes[i].stamp == stamp) {
          AccumulateInto(accs[probes[i].acc], row, run.weight, run.end_ms,
                         spec.reduce, decayed);
        } else {
          probes[i] = {row.fid, new_acc(row, run), stamp};
        }
      }
    }
  }
  out->features_merged = scratch->acc_count;

  // Step 3: filter, then top-K over one contiguous array of small rank
  // keys, so no comparison reads an accumulator: nth_element finds the K
  // winners, and only they are sorted.
  auto& ranked = scratch->ranked;
  ranked.clear();
  for (size_t i = 0; i < scratch->acc_count; ++i) {
    const Accumulator& acc = accs[i];
    if (!PassesFilter(filter, scratch->filter_fids, acc.fid, acc.counts)) {
      continue;
    }
    // Count order ranks by weighted value, so decay queries rank by decayed
    // score (an undecayed weight is its count); time order by the newest
    // slice end (exact below 2^53 ms); fid order by the fid alone.
    double score = 0;
    if (spec.sort_by == SortBy::kActionCount) {
      score = decayed ? acc.weighted.At(spec.sort_action)
                      : static_cast<double>(acc.counts.At(spec.sort_action));
    } else if (spec.sort_by == SortBy::kTimestamp) {
      score = static_cast<double>(acc.newest_ms);
    }
    ranked.push_back({score, acc.fid, static_cast<uint32_t>(i)});
  }
  size_t count = ranked.size();
  if (spec.k > 0 && spec.k < count) {
    std::nth_element(ranked.begin(), ranked.begin() + spec.k, ranked.end(),
                     kRankLess);
    count = spec.k;
  }
  std::sort(ranked.begin(), ranked.begin() + count, kRankLess);

  // Step 4: emit the winners. Elements `out` already holds are overwritten
  // in place and the rest constructed once at the back; the vector reserves
  // the result count up front, so a fresh result pays one allocation and a
  // reused one none (counts and weights live inline).
  auto& features = out->features;
  if (features.size() > count) features.resize(count);
  features.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Accumulator& acc = accs[ranked[i].acc];
    if (i == features.size()) {
      features.emplace_back(acc.fid, acc.counts, WeightVector(), acc.newest_ms);
    } else {
      features[i].fid = acc.fid;
      features[i].counts = acc.counts;
      features[i].newest_ms = acc.newest_ms;
    }
    if (decayed) {
      features[i].weighted = acc.weighted;
    } else {
      ScaleInto(features[i].weighted, acc.counts, 1.0);
    }
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
