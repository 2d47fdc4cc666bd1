#include "compaction/compactor.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ips {

namespace {

constexpr TimestampMs kNever = std::numeric_limits<TimestampMs>::max();

// Granularity the ladder prescribes for data of the given age; falls back to
// the write granularity for ages before the ladder and to the coarsest rung
// for ages past its end.
int64_t GranularityForAge(const TableSchema& schema, int64_t age_ms) {
  if (schema.time_dimensions.empty()) return schema.write_granularity_ms;
  for (const auto& rule : schema.time_dimensions) {
    if (age_ms >= rule.from_age_ms && age_ms < rule.to_age_ms) {
      return rule.granularity_ms;
    }
  }
  if (age_ms >= schema.time_dimensions.back().to_age_ms) {
    return schema.time_dimensions.back().granularity_ms;
  }
  return schema.write_granularity_ms;
}

// The smallest ladder boundary (a rung's from or to age) above `age_ms`:
// where GranularityForAge may next change. Never past the last rung.
int64_t NextBoundaryAfter(const TableSchema& schema, int64_t age_ms) {
  int64_t next = kNever;
  for (const auto& rule : schema.time_dimensions) {
    if (rule.from_age_ms > age_ms) next = std::min(next, rule.from_age_ms);
    if (rule.to_age_ms > age_ms) next = std::min(next, rule.to_age_ms);
  }
  return next;
}

int64_t BucketOf(TimestampMs ts, int64_t granularity) {
  int64_t b = ts / granularity;
  if (ts < 0 && b * granularity > ts) --b;
  return b;
}

// Compact's merge test: `older` folds into `newer` when both lie in one
// granularity-`g` bucket and the merged window is no wider than `g`.
bool Mergeable(const Slice& newer, const Slice& older, int64_t g) {
  return BucketOf(older.start_ms(), g) == BucketOf(newer.end_ms() - 1, g) &&
         newer.end_ms() - older.start_ms() <= g;
}

// The slot's shrink budget; zero or less disables shrinking it.
int64_t SlotBudget(const ShrinkPolicy& policy, SlotId slot) {
  auto it = policy.retain_per_slot.find(slot);
  return it != policy.retain_per_slot.end() ? it->second
                                            : policy.default_retain;
}

// After slices were merged away or dropped: gives the slice vector's spare
// capacity back (a pass runs rarely; a resident profile is charged for its
// block until evicted) and re-measures the profile.
void ReleaseDroppedSlices(ProfileData& profile) {
  profile.mutable_slices().shrink_to_fit();
  profile.RecomputeBytes();
}

}  // namespace

double Compactor::ImportanceScore(const CountVector& counts) const {
  const auto& weights = schema_->shrink.action_weights;
  double score = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double w = i < weights.size() ? weights[i] : 1.0;
    score += w * static_cast<double>(counts[i]);
  }
  return score;
}

size_t Compactor::Compact(ProfileData& profile, TimestampMs now_ms,
                          size_t max_merges) const {
  if (schema_->time_dimensions.empty()) return 0;
  auto& slices = profile.mutable_slices();
  size_t merged = 0;
  auto it = slices.begin();  // newest first
  while (it != slices.end()) {
    auto older = std::next(it);
    if (older == slices.end()) break;
    // The rung is chosen by the newer slice's age: as data ages it migrates
    // down the ladder, and using the finer (newer) granularity guarantees we
    // never produce a window wider than either member's prescription.
    const int64_t g = GranularityForAge(*schema_, now_ms - it->end_ms());
    if (Mergeable(*it, *older, g)) {
      it->MergeFrom(*older, schema_->reduce);
      slices.erase(older);
      ++merged;
      if (max_merges > 0 && merged >= max_merges) break;
      // Stay on `it`: it may absorb further older neighbours in this bucket.
    } else {
      ++it;
    }
  }
  if (merged > 0) ReleaseDroppedSlices(profile);
  return merged;
}

size_t Compactor::Truncate(ProfileData& profile, TimestampMs now_ms) const {
  const TruncatePolicy& policy = schema_->truncate;
  auto& slices = profile.mutable_slices();
  size_t dropped = 0;

  if (policy.max_age_ms > 0) {
    const TimestampMs horizon = now_ms - policy.max_age_ms;
    while (!slices.empty() && slices.back().end_ms() <= horizon) {
      slices.pop_back();
      ++dropped;
    }
  }

  if (policy.max_slices > 0 &&
      slices.size() > static_cast<size_t>(policy.max_slices)) {
    const size_t excess = slices.size() - policy.max_slices;
    for (size_t i = 0; i < excess; ++i) {
      slices.pop_back();
      ++dropped;
    }
  }
  if (dropped > 0) ReleaseDroppedSlices(profile);
  return dropped;
}

size_t Compactor::Shrink(ProfileData& profile, TimestampMs now_ms) const {
  const ShrinkPolicy& policy = schema_->shrink;
  if (policy.default_retain == 0 && policy.retain_per_slot.empty()) return 0;

  const TimestampMs fresh_after = now_ms - policy.freshness_horizon_ms;
  size_t removed = 0;

  std::vector<double> scores;
  std::vector<uint32_t> order;
  std::vector<bool> keep;
  for (auto& slice : profile.mutable_slices()) {
    // Freshness principle: recent slices are exempt — a low count on recent
    // data may still grow, so eliminating it would destroy signal.
    if (slice.end_ms() > fresh_after) continue;

    std::vector<FeatureRow>& rows = slice.mutable_rows();
    keep.assign(rows.size(), true);
    bool over_budget = false;
    ForEachRun(rows, SlotKey, [&](RowSpan slot_rows) {
      const int64_t budget = SlotBudget(policy, slot_rows.front().slot);
      if (budget <= 0) return;  // shrink disabled for this slot
      if (slot_rows.size() <= static_cast<size_t>(budget)) return;
      over_budget = true;

      // Multi-dimensional importance: weighted sum across action counts.
      // The budget applies per slot per slice, across all types; ties keep
      // the lower (type, fid), which is row order within a slot.
      const size_t first = static_cast<size_t>(slot_rows.data() - rows.data());
      scores.clear();
      order.clear();
      for (uint32_t i = 0; i < slot_rows.size(); ++i) {
        scores.push_back(ImportanceScore(slot_rows[i].counts));
        order.push_back(i);
      }
      auto better = [&](uint32_t a, uint32_t b) {
        if (scores[a] != scores[b]) return scores[a] > scores[b];
        return a < b;
      };
      std::nth_element(order.begin(), order.begin() + budget, order.end(),
                       better);
      for (size_t i = static_cast<size_t>(budget); i < order.size(); ++i) {
        keep[first + order[i]] = false;
      }
    });
    if (!over_budget) continue;

    size_t out = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!keep[i]) continue;
      if (out != i) rows[out] = std::move(rows[i]);
      ++out;
    }
    removed += rows.size() - out;
    rows.resize(out);
  }
  if (removed > 0) profile.RecomputeBytes();
  return removed;
}

TimestampMs Compactor::NextDueMs(const ProfileData& profile,
                                 TimestampMs now_ms) const {
  const auto& slices = profile.slices();
  if (slices.empty()) return kNever;
  const TruncatePolicy& truncate = schema_->truncate;
  if (truncate.max_slices > 0 &&
      slices.size() > static_cast<size_t>(truncate.max_slices)) {
    return now_ms;
  }
  TimestampMs due = kNever;
  if (truncate.max_age_ms > 0) {
    due = slices.back().end_ms() + truncate.max_age_ms;
  }

  // Merges: walk each adjacent pair's ladder intervals from the newer
  // slice's current age on, and stop at the first whose granularity passes
  // Compact's test.
  for (auto newer = slices.begin();
       !schema_->time_dimensions.empty() && due > now_ms; ++newer) {
    auto older = std::next(newer);
    if (older == slices.end()) break;
    for (int64_t age = now_ms - newer->end_ms();
         age != kNever && newer->end_ms() + age < due;
         age = NextBoundaryAfter(*schema_, age)) {
      if (Mergeable(*newer, *older, GranularityForAge(*schema_, age))) {
        due = newer->end_ms() + age;
        break;
      }
    }
  }

  // Shrink: a slice leaves the freshness horizon at end + horizon, and from
  // then on any slot of it over budget loses features.
  const ShrinkPolicy& shrink = schema_->shrink;
  for (const Slice& slice : slices) {
    const TimestampMs at = slice.end_ms() + shrink.freshness_horizon_ms;
    if (at >= due) continue;
    ForEachRun(slice.rows(), SlotKey, [&](RowSpan slot_rows) {
      const int64_t budget = SlotBudget(shrink, slot_rows.front().slot);
      if (budget > 0 && slot_rows.size() > static_cast<size_t>(budget)) {
        due = at;
      }
    });
  }
  return std::max(due, now_ms);
}

CompactionStats Compactor::FullCompact(ProfileData& profile,
                                       TimestampMs now_ms) const {
  // Each step re-measures the profile's bytes when it changes the slices.
  CompactionStats stats;
  stats.slices_merged = Compact(profile, now_ms);
  stats.slices_truncated = Truncate(profile, now_ms);
  stats.features_shrunk = Shrink(profile, now_ms);
  return stats;
}

CompactionStats Compactor::PartialCompact(ProfileData& profile,
                                          TimestampMs now_ms) const {
  // Cheap steps only: bounded merging plus truncation. Shrink's scoring pass
  // is the expensive part, deferred to full compactions.
  constexpr size_t kPartialMergeBudget = 4;
  CompactionStats stats;
  stats.slices_merged = Compact(profile, now_ms, kPartialMergeBudget);
  stats.slices_truncated = Truncate(profile, now_ms);
  return stats;
}

}  // namespace ips
