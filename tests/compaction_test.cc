#include "compaction/compactor.h"
#include "compaction/manager.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "query/query.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kHour = kMillisPerHour;
constexpr int64_t kDay = kMillisPerDay;

CountVector One() { return CountVector{1}; }

TableSchema MinuteLadderSchema() {
  TableSchema schema;
  schema.name = "t";
  schema.actions = {"click"};
  schema.write_granularity_ms = kMinute;
  // Fig 10 / Listing 2 shape: raw minutes for the last 10 minutes, then
  // 10-minute windows out to an hour, then hourly.
  schema.time_dimensions = {
      {kMinute, 0, 10 * kMinute},
      {10 * kMinute, 10 * kMinute, kHour},
      {kHour, kHour, kDay},
  };
  return schema;
}

TEST(CompactorTest, Figure10StyleMerge) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  // Six consecutive minute-slices, all 20..25 minutes old: they fall into
  // the 10-minute rung and should consolidate into wider windows.
  const TimestampMs base = 100 * kHour;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(profile
                    .Add(base + i * kMinute, 1, 1,
                         static_cast<FeatureId>(i + 1), One())
                    .ok());
  }
  ASSERT_EQ(profile.SliceCount(), 6u);
  const TimestampMs now = base + 25 * kMinute;
  const size_t merged = compactor.Compact(profile, now);
  EXPECT_GT(merged, 0u);
  EXPECT_LT(profile.SliceCount(), 6u);
  EXPECT_TRUE(profile.CheckInvariants());
  // No data lost: all six features still present.
  EXPECT_EQ(profile.TotalFeatures(), 6u);
}

TEST(CompactorTest, CompactAggregatesSameFeature) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  // Same feature in adjacent minute slices.
  ASSERT_TRUE(profile.Add(base, 1, 1, 7, CountVector{2}).ok());
  ASSERT_TRUE(profile.Add(base + kMinute, 1, 1, 7, CountVector{3}).ok());
  compactor.Compact(profile, base + 30 * kMinute);
  ASSERT_EQ(profile.SliceCount(), 1u);
  EXPECT_EQ(profile.slices().front().Find(1, 1, 7)->counts[0],
            5);
}

TEST(CompactorTest, FreshSlicesNotMerged) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs now = 100 * kHour;
  // Two slices 2 and 3 minutes old: still in the raw-minute rung.
  ASSERT_TRUE(profile.Add(now - 2 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(now - 3 * kMinute, 1, 1, 2, One()).ok());
  EXPECT_EQ(compactor.Compact(profile, now), 0u);
  EXPECT_EQ(profile.SliceCount(), 2u);
}

TEST(CompactorTest, MergedWindowNeverExceedsRungGranularity) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 200 * kHour;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(profile
                    .Add(base + i * kMinute, 1, 1,
                         static_cast<FeatureId>(i + 1), One())
                    .ok());
  }
  const TimestampMs now = base + 121 * kMinute + kDay;
  compactor.Compact(profile, now);
  EXPECT_TRUE(profile.CheckInvariants());
  for (const auto& slice : profile.slices()) {
    // Everything is >1h old here, so the widest allowed window is 1h.
    EXPECT_LE(slice.DurationMs(), kHour);
  }
}

TEST(CompactorTest, TruncateByAge) {
  TableSchema schema = MinuteLadderSchema();
  schema.truncate.max_age_ms = kHour;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs now = 100 * kHour;
  ASSERT_TRUE(profile.Add(now - 2 * kHour, 1, 1, 1, One()).ok());   // old
  ASSERT_TRUE(profile.Add(now - 90 * kMinute, 1, 1, 2, One()).ok());  // old
  ASSERT_TRUE(profile.Add(now - 10 * kMinute, 1, 1, 3, One()).ok());  // keep
  EXPECT_EQ(compactor.Truncate(profile, now), 2u);
  EXPECT_EQ(profile.SliceCount(), 1u);
  EXPECT_NE(profile.slices().front().Find(1, 1, 3), nullptr);
}

TEST(CompactorTest, TruncateByCountKeepsNewest) {
  // The Fig 11 "truncate by count" example: keep the first five slices.
  TableSchema schema = MinuteLadderSchema();
  schema.truncate.max_slices = 5;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(profile
                    .Add(base + i * kMinute, 1, 1,
                         static_cast<FeatureId>(i + 1), One())
                    .ok());
  }
  EXPECT_EQ(compactor.Truncate(profile, base + 10 * kMinute), 4u);
  EXPECT_EQ(profile.SliceCount(), 5u);
  // The newest five features (5..9) survive.
  EXPECT_EQ(profile.TotalFeatures(), 5u);
  EXPECT_TRUE(profile.slices().front().Contains(base + 8 * kMinute));
}

TEST(CompactorTest, TruncateNoPolicyNoOp) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(1000, 1, 1, 1, One()).ok());
  EXPECT_EQ(compactor.Truncate(profile, 100 * kDay), 0u);
}

TEST(CompactorTest, ShrinkKeepsTopFeaturesByWeightedScore) {
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.default_retain = 3;
  schema.shrink.action_weights = {1.0, 10.0};  // second action dominates
  schema.shrink.freshness_horizon_ms = kMinute;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  // Feature 1 has many clicks; features 2-4 have one heavily-weighted like.
  ASSERT_TRUE(profile.Add(base, 1, 1, 1, CountVector{5, 0}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 1, 2, CountVector{0, 1}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 1, 3, CountVector{0, 1}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 1, 4, CountVector{0, 1}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 1, 5, CountVector{1, 0}).ok());
  const TimestampMs now = base + kHour;
  EXPECT_EQ(compactor.Shrink(profile, now), 2u);
  const Slice& slice = profile.slices().front();
  EXPECT_EQ(slice.GroupRows(1, 1).size(), 3u);
  // Weighted scores: f2-4 = 10, f1 = 5, f5 = 1 -> f5 and one of f1 gone;
  // exact survivors: 2, 3, 4.
  EXPECT_EQ(slice.Find(1, 1, 5), nullptr);
  EXPECT_EQ(slice.Find(1, 1, 1), nullptr);
  EXPECT_NE(slice.Find(1, 1, 2), nullptr);
}

TEST(CompactorTest, ShrinkSparesFreshSlices) {
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.default_retain = 1;
  schema.shrink.freshness_horizon_ms = kHour;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs now = 100 * kHour;
  // Recent slice with many features: inside the freshness horizon.
  for (FeatureId fid = 1; fid <= 5; ++fid) {
    ASSERT_TRUE(profile.Add(now - 2 * kMinute, 1, 1, fid, One()).ok());
  }
  EXPECT_EQ(compactor.Shrink(profile, now), 0u);
  EXPECT_EQ(profile.TotalFeatures(), 5u);
}

TEST(CompactorTest, ShrinkPerSlotBudgets) {
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.default_retain = 1;
  schema.shrink.retain_per_slot[2] = 10;  // slot 2 keeps everything
  schema.shrink.freshness_horizon_ms = 0;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  for (FeatureId fid = 1; fid <= 4; ++fid) {
    ASSERT_TRUE(profile.Add(base, 1, 1, fid, One()).ok());
    ASSERT_TRUE(profile.Add(base, 2, 1, fid, One()).ok());
  }
  compactor.Shrink(profile, base + kDay);
  const auto& slice = profile.slices().front();
  EXPECT_EQ(slice.SlotRows(1).size(), 1u);
  EXPECT_EQ(slice.SlotRows(2).size(), 4u);
}

TEST(CompactorTest, ShrinkBudgetAcrossTypesInSlot) {
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.default_retain = 2;
  schema.shrink.freshness_horizon_ms = 0;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  // Two types in slot 1: budget applies to the slot as a whole.
  ASSERT_TRUE(profile.Add(base, 1, 1, 1, CountVector{9}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 2, 2, CountVector{8}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 1, 3, CountVector{1}).ok());
  ASSERT_TRUE(profile.Add(base, 1, 2, 4, CountVector{1}).ok());
  compactor.Shrink(profile, base + kDay);
  EXPECT_EQ(profile.slices().front().SlotRows(1).size(), 2u);
  EXPECT_NE(profile.slices().front().Find(1, 1, 1), nullptr);
  EXPECT_NE(profile.slices().front().Find(1, 2, 2), nullptr);
}

TEST(CompactorTest, FullCompactReducesBytes) {
  TableSchema schema = MinuteLadderSchema();
  schema.truncate.max_age_ms = kDay;
  schema.shrink.default_retain = 10;
  schema.shrink.freshness_horizon_ms = kHour;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  Rng rng(4);
  const TimestampMs now = 100 * kDay;
  for (int i = 0; i < 2000; ++i) {
    const TimestampMs ts = now - static_cast<TimestampMs>(
                                     rng.Uniform(2 * kDay));
    ASSERT_TRUE(profile
                    .Add(ts, static_cast<SlotId>(rng.Uniform(4)), 1,
                         rng.Uniform(500) + 1, One())
                    .ok());
  }
  const size_t bytes_before = profile.ApproximateBytes();
  const CompactionStats stats = compactor.FullCompact(profile, now);
  EXPECT_TRUE(stats.AnyWork());
  EXPECT_LT(profile.ApproximateBytes(), bytes_before);
  // The incremental byte counter is exact after the pass.
  const size_t counted = profile.ApproximateBytes();
  EXPECT_EQ(profile.RecomputeBytes(), counted);
  EXPECT_TRUE(profile.CheckInvariants());
}

TEST(CompactorTest, PartialCompactBoundsMerges) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kHour;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(profile
                    .Add(base + i * kMinute, 1, 1,
                         static_cast<FeatureId>(i + 1), One())
                    .ok());
  }
  const TimestampMs now = base + 41 * kMinute + kDay;
  const CompactionStats stats = compactor.PartialCompact(profile, now);
  EXPECT_LE(stats.slices_merged, 4u);  // the partial merge budget
  EXPECT_TRUE(profile.CheckInvariants());
}

TEST(CompactorTest, ImportanceScoreUsesWeights) {
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.action_weights = {1.0, 2.0, 3.0};
  Compactor compactor(&schema);
  EXPECT_DOUBLE_EQ(compactor.ImportanceScore(CountVector{1, 1, 1}), 6.0);
  EXPECT_DOUBLE_EQ(compactor.ImportanceScore(CountVector{2, 0, 0}), 2.0);
  // Missing weights default to 1.
  EXPECT_DOUBLE_EQ(compactor.ImportanceScore(CountVector{0, 0, 0, 4}), 4.0);
}

// Property: compaction at any moment preserves total counts (Compact is
// lossless in counts) when no truncate/shrink configured.
class CompactionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactionPropertyTest, CompactPreservesTotals) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  Rng rng(GetParam());
  ProfileData profile(kMinute);
  const TimestampMs now = 100 * kDay;
  int64_t total_written = 0;
  for (int i = 0; i < 500; ++i) {
    const TimestampMs ts = now - static_cast<TimestampMs>(
                                     rng.Uniform(3 * kDay));
    const int64_t count = static_cast<int64_t>(rng.Uniform(4)) + 1;
    total_written += count;
    ASSERT_TRUE(profile
                    .Add(ts, static_cast<SlotId>(rng.Uniform(3)),
                         static_cast<TypeId>(rng.Uniform(3)),
                         rng.Uniform(50) + 1, CountVector{count})
                    .ok());
    if (i % 50 == 49) compactor.Compact(profile, now);
  }
  compactor.Compact(profile, now);
  ASSERT_TRUE(profile.CheckInvariants());
  int64_t total_stored = 0;
  for (const auto& slice : profile.slices()) {
    for (const FeatureRow& row : slice.rows()) {
      total_stored += row.counts.Total();
    }
  }
  EXPECT_EQ(total_stored, total_written);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPropertyTest,
                         ::testing::Values(2, 8, 21, 55));

// Property: over a whole-history window, query results are identical before
// and after Compact — the paper's claim that compaction "does not drop any
// data" and only reduces time precision (which a full-history window cannot
// observe).
class CompactQueryEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactQueryEquivalenceTest, FullWindowResultsUnchanged) {
  TableSchema schema = MinuteLadderSchema();
  Compactor compactor(&schema);
  Rng rng(GetParam());
  ProfileData profile(kMinute);
  const TimestampMs now = 50 * kDay;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(profile
                    .Add(now - static_cast<TimestampMs>(
                                   rng.Uniform(10 * kDay)),
                         static_cast<SlotId>(rng.Uniform(3)),
                         static_cast<TypeId>(rng.Uniform(3)),
                         rng.Uniform(80) + 1,
                         CountVector{static_cast<int64_t>(rng.Uniform(3)) +
                                     1})
                    .ok());
  }
  const TimeRange window = TimeRange::Absolute(0, now + kDay);
  auto before = GetProfileTopK(profile, 1, std::nullopt, window,
                               SortBy::kFeatureId, 0, 0, now);
  ASSERT_TRUE(before.ok());

  compactor.Compact(profile, now);
  ASSERT_TRUE(profile.CheckInvariants());

  auto after = GetProfileTopK(profile, 1, std::nullopt, window,
                              SortBy::kFeatureId, 0, 0, now);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->features.size(), before->features.size());
  for (size_t i = 0; i < after->features.size(); ++i) {
    EXPECT_EQ(after->features[i].fid, before->features[i].fid);
    EXPECT_EQ(after->features[i].counts, before->features[i].counts);
  }
  // And the scan got cheaper: fewer slices cover the same history.
  EXPECT_LT(after->slices_scanned, before->slices_scanned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactQueryEquivalenceTest,
                         ::testing::Values(3, 14, 41));

TEST(CompactorTest, ShrinkKeysKeptSetOnTypeAndFid) {
  // Regression: the kept set was keyed on (type << 48) ^ fid, so distinct
  // features aliased and a slot kept more than its budget. Slot 1: type 1
  // fid (3 << 48) | 5 against type 2 fid 5. Slot 2: types 1 and 65537, whose
  // shifted keys wrap to the same value, with one fid.
  TableSchema schema = MinuteLadderSchema();
  schema.shrink.default_retain = 1;
  Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs now = 100 * kDay;
  const TimestampMs ts = now - kDay;
  ASSERT_TRUE(profile.Add(ts, 1, 2, 5, CountVector{10}).ok());
  ASSERT_TRUE(
      profile.Add(ts, 1, 1, (FeatureId{3} << 48) | 5, CountVector{1}).ok());
  ASSERT_TRUE(profile.Add(ts, 2, 65537, 9, CountVector{10}).ok());
  ASSERT_TRUE(profile.Add(ts, 2, 1, 9, CountVector{1}).ok());
  EXPECT_EQ(compactor.Shrink(profile, now), 2u);
  const Slice& slice = profile.slices().front();
  EXPECT_EQ(slice.SlotRows(1).size(), 1u);
  EXPECT_EQ(slice.SlotRows(2).size(), 1u);
  // The top-scored feature of each slot is the one kept.
  EXPECT_NE(slice.Find(1, 2, 5), nullptr);
  EXPECT_NE(slice.Find(2, 65537, 9), nullptr);
}

// --------------------------------------------------------------- NextDueMs ---

constexpr TimestampMs kNever = std::numeric_limits<TimestampMs>::max();

// True when a full pass at `at` would change a copy of `profile`.
bool FullCompactFindsWork(const Compactor& compactor,
                          const ProfileData& profile, TimestampMs at) {
  ProfileData copy = profile;
  return compactor.FullCompact(copy, at).AnyWork();
}

TEST(NextDueTest, EmptyProfileIsNeverDue) {
  const TableSchema schema = DefaultTableSchema("t");
  EXPECT_EQ(Compactor(&schema).NextDueMs(ProfileData(kMinute), 100 * kDay),
            kNever);
}

TEST(NextDueTest, PairIsDueWhenItsNewerSliceReachesTheMergingRung) {
  // Two adjacent minute slices in one 10-minute bucket: the minute rung
  // never merges them, the 10-minute rung does from the moment the newer
  // one is 10 minutes old.
  const TableSchema schema = MinuteLadderSchema();
  const Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kDay;
  ASSERT_TRUE(profile.Add(base + 21 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(base + 22 * kMinute, 1, 1, 1, One()).ok());
  const TimestampMs now = base + 25 * kMinute;
  EXPECT_EQ(compactor.NextDueMs(profile, now), base + 33 * kMinute);
  EXPECT_FALSE(
      FullCompactFindsWork(compactor, profile, base + 33 * kMinute - 1));
  EXPECT_TRUE(FullCompactFindsWork(compactor, profile, base + 33 * kMinute));
  // Past due, a profile is due now.
  EXPECT_EQ(compactor.NextDueMs(profile, base + kDay), base + kDay);
}

TEST(NextDueTest, TruncateAndShrinkDueTimes) {
  TableSchema schema = MinuteLadderSchema();
  schema.time_dimensions.clear();
  schema.truncate.max_age_ms = 30 * kDay;
  schema.shrink.default_retain = 1;
  schema.shrink.freshness_horizon_ms = kHour;
  const Compactor compactor(&schema);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kDay;
  ASSERT_TRUE(profile.Add(base, 1, 1, 1, One()).ok());
  // One feature per slot: only truncation is ever due.
  EXPECT_EQ(compactor.NextDueMs(profile, base), base + kMinute + 30 * kDay);
  // A second feature puts the slot over budget once the slice leaves the
  // freshness horizon.
  ASSERT_TRUE(profile.Add(base, 1, 1, 2, One()).ok());
  EXPECT_EQ(compactor.NextDueMs(profile, base), base + kMinute + kHour);
  // Over max_slices: due at once.
  schema.truncate.max_slices = 1;
  ASSERT_TRUE(profile.Add(base + kMinute, 1, 1, 1, One()).ok());
  EXPECT_EQ(compactor.NextDueMs(profile, base), base);
}

// A ladder whose widths are not multiples of each other — a pair can pass
// the bucket test on one rung, fail it on the next and pass again later —
// with a slice cap and per-slot shrink budgets.
TableSchema OddLadderSchema() {
  TableSchema schema;
  schema.name = "odd";
  schema.actions = {"click", "like"};
  schema.write_granularity_ms = kMinute;
  schema.time_dimensions = {
      {7 * kMinute, 0, 30 * kMinute},
      {25 * kMinute, 30 * kMinute, 4 * kHour},
      {90 * kMinute, 4 * kHour, 2 * kDay},
  };
  schema.truncate.max_age_ms = 3 * kDay;
  schema.truncate.max_slices = 40;
  schema.shrink.retain_per_slot = {{1, 3}, {2, 5}};
  schema.shrink.action_weights = {1.0, 2.0};
  schema.shrink.freshness_horizon_ms = 45 * kMinute;
  return schema;
}

// Every instant at which FullCompact's answer can change for `profile`: a
// pair's merge test changes only where its newer slice crosses a ladder
// boundary, truncation and shrink only at a slice end plus the max age or
// the freshness horizon.
std::vector<TimestampMs> EventTimes(const TableSchema& schema,
                                    const ProfileData& profile) {
  std::vector<TimestampMs> times;
  for (const Slice& slice : profile.slices()) {
    for (const auto& rule : schema.time_dimensions) {
      times.push_back(slice.end_ms() + rule.from_age_ms);
      times.push_back(slice.end_ms() + rule.to_age_ms);
    }
    times.push_back(slice.end_ms() + schema.truncate.max_age_ms);
    times.push_back(slice.end_ms() + schema.shrink.freshness_horizon_ms);
  }
  return times;
}

// Reference model: FullCompact on a copy finds no work at any instant from
// now up to NextDueMs, and finds work at NextDueMs when that is finite.
// Work can only start at an event time, so probing now, every event time and
// a few random instants in [now, due) covers the whole interval.
class NextDuePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NextDuePropertyTest, NoWorkBeforeDueAndWorkAtDue) {
  for (const TableSchema& schema :
       {DefaultTableSchema("default"), MinuteLadderSchema(),
        OddLadderSchema()}) {
    SCOPED_TRACE(schema.name);
    const Compactor compactor(&schema);
    Rng rng(GetParam());
    ProfileData profile(kMinute);
    TimestampMs now = 400 * kDay;
    int finite = 0;
    int not_due = 0;
    for (int round = 0; round < 16; ++round) {
      // Every other round writes: mostly recent records, some late ones
      // into days-old history; the rest probe a freshly compacted profile.
      const int writes = round % 2 == 0 ? static_cast<int>(rng.Uniform(40))
                                        : 0;
      for (int w = 0; w < writes; ++w) {
        const bool late = rng.Uniform(4) == 0;
        const TimestampMs ts = now - static_cast<TimestampMs>(rng.Uniform(
                                         late ? 5 * kDay : 3 * kHour));
        ASSERT_TRUE(profile
                        .Add(ts, static_cast<SlotId>(rng.Uniform(3) + 1),
                             static_cast<TypeId>(rng.Uniform(2) + 1),
                             rng.Uniform(8) + 1,
                             CountVector{static_cast<int64_t>(
                                 rng.Uniform(5) + 1)})
                        .ok());
      }
      const TimestampMs due = compactor.NextDueMs(profile, now);
      ASSERT_GE(due, now);
      const TimestampMs until = due == kNever ? now + 800 * kDay : due;
      std::vector<TimestampMs> probes = EventTimes(schema, profile);
      probes.push_back(now);
      probes.push_back(until - 1);
      for (int p = 0; p < 8 && until > now; ++p) {
        probes.push_back(now + static_cast<TimestampMs>(
                                   rng.Uniform(until - now)));
      }
      for (TimestampMs at : probes) {
        if (at < now || at >= until) continue;
        ASSERT_FALSE(FullCompactFindsWork(compactor, profile, at))
            << "round " << round << ": work at now+" << at - now
            << " ms, due at now+" << due - now << " ms";
      }
      if (due != kNever) {
        ++finite;
        ASSERT_TRUE(FullCompactFindsWork(compactor, profile, due))
            << "round " << round << ": no work at due now+" << due - now;
      }
      if (due > now) ++not_due;
      // A triggered pass runs at or after the due time and compacts there.
      if (due != kNever) now = due;
      now += static_cast<TimestampMs>(rng.Uniform(2 * kHour));
      compactor.FullCompact(profile, now);
    }
    EXPECT_GT(finite, 0);
    EXPECT_GT(not_due, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NextDuePropertyTest,
                         ::testing::Values(4, 17, 90));

// ------------------------------------------------------ CompactionManager ---

TEST(CompactionManagerTest, SynchronousModeRunsInline) {
  CompactionManagerOptions options;
  options.synchronous = true;
  std::atomic<int> runs{0};
  CompactionManager manager(options, [&](ProfileId, bool full) {
    EXPECT_TRUE(full);
    runs.fetch_add(1);
  });
  EXPECT_TRUE(manager.Submit(1));
  EXPECT_EQ(runs.load(), 1);
  // No per-profile state: the cache decides when a pid is due again.
  EXPECT_TRUE(manager.Submit(1));
  EXPECT_EQ(runs.load(), 2);
}

TEST(CompactionManagerTest, AsyncExecutesAllSubmits) {
  CompactionManagerOptions options;
  options.num_threads = 2;
  std::atomic<int> runs{0};
  CompactionManager manager(options,
                            [&](ProfileId, bool) { runs.fetch_add(1); });
  for (ProfileId pid = 1; pid <= 50; ++pid) {
    EXPECT_TRUE(manager.Submit(pid));
  }
  manager.Drain();
  EXPECT_EQ(runs.load(), 50);
}

TEST(CompactionManagerTest, FullBelowPartialThresholdPartialBeyondNeverSkips) {
  // The one rule: a full pass while the drain queue is shallower than
  // partial_threshold, a partial pass at or beyond it, never a skip. The
  // pool's exact queue bound is the only drop point. A blocked single worker
  // makes the depth each submit sees deterministic: pid p (p >= 2) sees
  // p - 2 queued jobs.
  MetricsRegistry metrics;
  CompactionManagerOptions options;
  options.num_threads = 1;
  options.partial_threshold = 4;
  options.max_queue = 8;
  std::atomic<bool> started{false};
  std::atomic<bool> block{true};
  std::mutex mu;
  std::map<ProfileId, bool> full_by_pid;
  CompactionManager manager(
      options,
      [&](ProfileId pid, bool full) {
        started.store(true);
        while (block.load()) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        full_by_pid[pid] = full;
      },
      &metrics);
  ASSERT_TRUE(manager.Submit(1));
  while (!started.load()) std::this_thread::yield();
  for (ProfileId pid = 2; pid <= 9; ++pid) {
    EXPECT_TRUE(manager.Submit(pid)) << "pid " << pid;
  }
  EXPECT_EQ(manager.QueueDepth(), 8u);
  EXPECT_FALSE(manager.Submit(10));  // queue full: dropped
  block.store(false);
  manager.Drain();

  std::map<ProfileId, bool> expected;
  for (ProfileId pid = 1; pid <= 9; ++pid) {
    const size_t depth = pid == 1 ? 0 : pid - 2;
    expected[pid] = depth < options.partial_threshold;
  }
  EXPECT_EQ(full_by_pid, expected);
  EXPECT_EQ(metrics.GetCounter("compaction.full")->Value(), 5);
  EXPECT_EQ(metrics.GetCounter("compaction.partial")->Value(), 4);
  EXPECT_EQ(metrics.GetCounter("compaction.dropped")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("compaction.triggered")->Value(), 10);
  // A dropped pid can be submitted again once the queue has room.
  EXPECT_TRUE(manager.Submit(10));
  manager.Drain();
}

TEST(CompactionManagerTest, QueuePressureDegradesToPartial) {
  CompactionManagerOptions options;
  options.num_threads = 1;
  options.partial_threshold = 1;
  std::atomic<bool> block{true};
  std::atomic<int> full_runs{0};
  std::atomic<int> partial_runs{0};
  CompactionManager manager(options, [&](ProfileId, bool full) {
    while (block.load()) std::this_thread::yield();
    (full ? full_runs : partial_runs).fetch_add(1);
  });
  // First submit occupies the single worker; the second queues while the
  // probe still reads depth 0 (full); the third sees depth >= 1 -> partial.
  EXPECT_TRUE(manager.Submit(1));
  EXPECT_TRUE(manager.Submit(2));
  while (manager.QueueDepth() < 1) std::this_thread::yield();
  EXPECT_TRUE(manager.Submit(3));
  block.store(false);
  manager.Drain();
  EXPECT_EQ(full_runs.load() + partial_runs.load(), 3);
  EXPECT_GE(partial_runs.load(), 1);
}

TEST(CompactionManagerTest, SubmitDrainStormIsThreadSafe) {
  // TSan target: concurrent Submit floods from many threads, racing Drain
  // calls and SetEnabled flips over the drain pool. Asserts only liveness
  // and that nothing runs while disabled-and-drained; the sanitizer asserts
  // the absence of races.
  MetricsRegistry metrics;
  CompactionManagerOptions options;
  options.num_threads = 3;
  options.max_queue = 256;
  std::atomic<int> runs{0};
  CompactionManager manager(
      options, [&](ProfileId, bool) { runs.fetch_add(1); }, &metrics);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&manager, &stop, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load()) {
        manager.Submit(rng.Uniform(512) + 1);
      }
    });
  }
  threads.emplace_back([&manager, &stop] {
    while (!stop.load()) {
      manager.SetEnabled(false);
      std::this_thread::yield();
      manager.SetEnabled(true);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&manager, &stop] {
    while (!stop.load()) {
      manager.Drain();
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  manager.SetEnabled(true);
  manager.Drain();
  EXPECT_GT(runs.load(), 0);
  const int settled = runs.load();
  manager.SetEnabled(false);
  EXPECT_FALSE(manager.Submit(9999));
  manager.Drain();
  EXPECT_EQ(runs.load(), settled);
}

}  // namespace
}  // namespace ips
