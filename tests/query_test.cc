#include "query/query.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "core/profile_data.h"

namespace ips {
namespace {

constexpr int64_t kDay = kMillisPerDay;
constexpr SlotId kSports = 1;
constexpr SlotId kNews = 2;
constexpr TypeId kBasketball = 10;
constexpr TypeId kSoccer = 11;
constexpr FeatureId kLakers = 1001;
constexpr FeatureId kWarriors = 1002;

// Count vector layout in these tests: [like, comment, share].
enum Action : ActionIndex { kLike = 0, kComment = 1, kShare = 2 };

// The motivating example of Section II-A (Table I): Alice liked, commented
// and shared one Lakers video ten days ago, and liked two Warriors videos
// two days ago.
ProfileData AliceProfile(TimestampMs now) {
  ProfileData profile(kMillisPerMinute);
  EXPECT_TRUE(profile
                  .Add(now - 10 * kDay, kSports, kBasketball, kLakers,
                       CountVector{1, 1, 1})
                  .ok());
  EXPECT_TRUE(profile
                  .Add(now - 2 * kDay, kSports, kBasketball, kWarriors,
                       CountVector{2, 0, 0})
                  .ok());
  return profile;
}

TEST(QueryTest, MotivatingExampleTopLikedBasketballTeam) {
  const TimestampMs now = 100 * kDay;
  ProfileData alice = AliceProfile(now);
  // "Alice's most liked basketball team over the last 10 days" — the
  // Listing 1 SQL. The 10-day window includes both actions (the Lakers
  // action sits exactly at the boundary; use 11d to include it fully).
  auto result = GetProfileTopK(alice, kSports, kBasketball,
                               TimeRange::Current(11 * kDay),
                               SortBy::kActionCount, kLike, 1, now);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, kWarriors);  // 2 likes > 1 like
  EXPECT_EQ(result->features[0].counts[kLike], 2);
}

TEST(QueryTest, NarrowWindowExcludesOldAction) {
  const TimestampMs now = 100 * kDay;
  ProfileData alice = AliceProfile(now);
  // Only the last 3 days: the Lakers action is out of range.
  auto result = GetProfileTopK(alice, kSports, kBasketball,
                               TimeRange::Current(3 * kDay),
                               SortBy::kActionCount, kLike, 10, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, kWarriors);
}

TEST(QueryTest, CommentSortFindsLakers) {
  const TimestampMs now = 100 * kDay;
  ProfileData alice = AliceProfile(now);
  auto result = GetProfileTopK(alice, kSports, kBasketball,
                               TimeRange::Current(11 * kDay),
                               SortBy::kActionCount, kComment, 1, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, kLakers);
}

TEST(QueryTest, SlotScopedQueryIgnoresOtherSlots) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile = AliceProfile(now);
  ASSERT_TRUE(
      profile.Add(now - kDay, kNews, 1, 5000, CountVector{100, 0, 0}).ok());
  auto result = GetProfileTopK(profile, kSports, std::nullopt,
                               TimeRange::Current(30 * kDay),
                               SortBy::kActionCount, kLike, 10, now);
  ASSERT_TRUE(result.ok());
  for (const auto& f : result->features) EXPECT_NE(f.fid, 5000u);
  EXPECT_EQ(result->features.size(), 2u);
}

TEST(QueryTest, TypeWildcardMergesAcrossTypes) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  ASSERT_TRUE(profile
                  .Add(now - kDay, kSports, kBasketball, 1, CountVector{5})
                  .ok());
  ASSERT_TRUE(
      profile.Add(now - kDay, kSports, kSoccer, 2, CountVector{9}).ok());
  auto result =
      GetProfileTopK(profile, kSports, std::nullopt,
                     TimeRange::Current(2 * kDay), SortBy::kActionCount,
                     kLike, 10, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 2u);
  EXPECT_EQ(result->features[0].fid, 2u);  // 9 likes first
}

TEST(QueryTest, AggregatesSameFeatureAcrossSlices) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (int d = 1; d <= 5; ++d) {
    ASSERT_TRUE(profile
                    .Add(now - d * kDay, kSports, kBasketball, kLakers,
                         CountVector{1, 0, 0})
                    .ok());
  }
  auto result = GetProfileTopK(profile, kSports, kBasketball,
                               TimeRange::Current(10 * kDay),
                               SortBy::kActionCount, kLike, 1, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].counts[kLike], 5);
  EXPECT_EQ(result->slices_scanned, 5u);
}

TEST(QueryTest, TopKTruncatesAndOrders) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (FeatureId fid = 1; fid <= 20; ++fid) {
    ASSERT_TRUE(profile
                    .Add(now - kDay, kSports, kBasketball, fid,
                         CountVector{static_cast<int64_t>(fid)})
                    .ok());
  }
  auto result = GetProfileTopK(profile, kSports, kBasketball,
                               TimeRange::Current(2 * kDay),
                               SortBy::kActionCount, kLike, 5, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->features[i].fid, 20 - i);
  }
  EXPECT_EQ(result->features_merged, 20u);
}

TEST(QueryTest, SortByFeatureId) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (FeatureId fid : {30, 10, 20}) {
    ASSERT_TRUE(
        profile.Add(now - kDay, kSports, kBasketball, fid, CountVector{1})
            .ok());
  }
  auto result = GetProfileTopK(profile, kSports, kBasketball,
                               TimeRange::Current(2 * kDay),
                               SortBy::kFeatureId, 0, 0, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 3u);
  EXPECT_EQ(result->features[0].fid, 10u);
  EXPECT_EQ(result->features[2].fid, 30u);
}

TEST(QueryTest, SortByTimestampPrefersRecent) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  ASSERT_TRUE(
      profile.Add(now - 5 * kDay, kSports, kBasketball, 1, CountVector{100})
          .ok());
  ASSERT_TRUE(
      profile.Add(now - 1 * kDay, kSports, kBasketball, 2, CountVector{1})
          .ok());
  auto result = GetProfileTopK(profile, kSports, kBasketball,
                               TimeRange::Current(10 * kDay),
                               SortBy::kTimestamp, 0, 0, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 2u);
  EXPECT_EQ(result->features[0].fid, 2u);  // most recent first
}

TEST(QueryTest, RelativeWindowAnchorsOnLastAction) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  // User inactive for 50 days; last action at now-50d.
  ASSERT_TRUE(profile
                  .Add(now - 51 * kDay, kSports, kBasketball, 1,
                       CountVector{1})
                  .ok());
  ASSERT_TRUE(profile
                  .Add(now - 50 * kDay, kSports, kBasketball, 2,
                       CountVector{1})
                  .ok());
  // CURRENT 2d finds nothing; RELATIVE 2d finds both.
  auto current = GetProfileTopK(profile, kSports, kBasketball,
                                TimeRange::Current(2 * kDay),
                                SortBy::kActionCount, 0, 10, now);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(current->features.empty());

  auto relative = GetProfileTopK(profile, kSports, kBasketball,
                                 TimeRange::Relative(2 * kDay),
                                 SortBy::kActionCount, 0, 10, now);
  ASSERT_TRUE(relative.ok());
  EXPECT_EQ(relative->features.size(), 2u);
}

TEST(QueryTest, AbsoluteWindowSelectsExactRange) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (int d = 1; d <= 10; ++d) {
    ASSERT_TRUE(profile
                    .Add(now - d * kDay, kSports, kBasketball,
                         static_cast<FeatureId>(d), CountVector{1})
                    .ok());
  }
  auto result = GetProfileTopK(
      profile, kSports, kBasketball,
      TimeRange::Absolute(now - 7 * kDay, now - 3 * kDay),
      SortBy::kFeatureId, 0, 0, now);
  ASSERT_TRUE(result.ok());
  // Days 4..7 land inside [now-7d, now-3d); day 3's write is at exactly
  // now-3d which is excluded (closed-open).
  ASSERT_EQ(result->features.size(), 4u);
  EXPECT_EQ(result->features.front().fid, 4u);
  EXPECT_EQ(result->features.back().fid, 7u);
}

TEST(QueryTest, InvalidRangesRejected) {
  ProfileData profile(kMillisPerMinute);
  auto bad_current = GetProfileTopK(profile, 1, std::nullopt,
                                    TimeRange::Current(0), SortBy::kFeatureId,
                                    0, 1, 1000);
  EXPECT_TRUE(bad_current.status().IsInvalidArgument());
  auto bad_abs = GetProfileTopK(profile, 1, std::nullopt,
                                TimeRange::Absolute(100, 100),
                                SortBy::kFeatureId, 0, 1, 1000);
  EXPECT_TRUE(bad_abs.status().IsInvalidArgument());
}

TEST(QueryTest, FilterCountAtLeast) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (FeatureId fid = 1; fid <= 10; ++fid) {
    ASSERT_TRUE(profile
                    .Add(now - kDay, kSports, kBasketball, fid,
                         CountVector{static_cast<int64_t>(fid)})
                    .ok());
  }
  FilterSpec filter;
  filter.op = FilterOp::kCountAtLeast;
  filter.action = kLike;
  filter.operand = 8;
  auto result = GetProfileFilter(profile, kSports, kBasketball,
                                 TimeRange::Current(2 * kDay), filter, now);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 3u);  // fids 8, 9, 10
}

TEST(QueryTest, FilterFidIn) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (FeatureId fid = 1; fid <= 10; ++fid) {
    ASSERT_TRUE(
        profile.Add(now - kDay, kSports, kBasketball, fid, CountVector{1})
            .ok());
  }
  FilterSpec filter;
  filter.op = FilterOp::kFidIn;
  filter.fids = {9, 3, 5};  // deliberately unsorted
  auto result = GetProfileFilter(profile, kSports, kBasketball,
                                 TimeRange::Current(2 * kDay), filter, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 3u);
  EXPECT_EQ(result->features[0].fid, 3u);
  EXPECT_EQ(result->features[1].fid, 5u);
  EXPECT_EQ(result->features[2].fid, 9u);
}

TEST(QueryTest, FilterFidNotIn) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  for (FeatureId fid = 1; fid <= 5; ++fid) {
    ASSERT_TRUE(
        profile.Add(now - kDay, kSports, kBasketball, fid, CountVector{1})
            .ok());
  }
  FilterSpec filter;
  filter.op = FilterOp::kFidNotIn;
  filter.fids = {2, 4};
  auto result = GetProfileFilter(profile, kSports, kBasketball,
                                 TimeRange::Current(2 * kDay), filter, now);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 3u);
}

TEST(QueryTest, ExponentialDecayRanksRecentHigher) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  // Old feature has more raw likes; recent one should win after decay.
  ASSERT_TRUE(
      profile.Add(now - 20 * kDay, kSports, kBasketball, 1, CountVector{10})
          .ok());
  ASSERT_TRUE(
      profile.Add(now - 1 * kDay, kSports, kBasketball, 2, CountVector{4})
          .ok());
  DecaySpec decay;
  decay.function = DecayFunction::kExponential;
  decay.factor = 0.8;  // 0.8^20 * 10 ≈ 0.12 << 0.8^1 * 4 = 3.2
  decay.unit_ms = kDay;
  auto result = GetProfileDecay(profile, kSports, kBasketball,
                                TimeRange::Current(30 * kDay), decay, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 2u);
  EXPECT_EQ(result->features[0].fid, 2u);
  // Raw counts stay unweighted.
  EXPECT_EQ(result->features[1].counts[0], 10);
  EXPECT_LT(result->features[1].WeightedAt(0), 1.0);
}

TEST(QueryTest, NoDecayKeepsWeightsEqualToCounts) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  ASSERT_TRUE(
      profile.Add(now - kDay, kSports, kBasketball, 1, CountVector{7}).ok());
  auto result = GetProfileTopK(profile, kSports, kBasketball,
                               TimeRange::Current(2 * kDay),
                               SortBy::kActionCount, 0, 1, now);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_DOUBLE_EQ(result->features[0].WeightedAt(0), 7.0);
}

TEST(QueryTest, InvalidDecayRejected) {
  ProfileData profile(kMillisPerMinute);
  DecaySpec decay;
  decay.function = DecayFunction::kExponential;
  decay.factor = 1.5;  // out of (0, 1]
  auto result = GetProfileDecay(profile, 1, std::nullopt,
                                TimeRange::Current(kDay), decay, 10 * kDay);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(DecaySpecTest, WeightCurves) {
  DecaySpec exp{DecayFunction::kExponential, 0.5, kDay};
  EXPECT_DOUBLE_EQ(exp.WeightForAge(0), 1.0);
  EXPECT_DOUBLE_EQ(exp.WeightForAge(kDay), 0.5);
  EXPECT_DOUBLE_EQ(exp.WeightForAge(2 * kDay), 0.25);

  DecaySpec linear{DecayFunction::kLinear, 0.25, kDay};
  EXPECT_DOUBLE_EQ(linear.WeightForAge(2 * kDay), 0.5);
  EXPECT_DOUBLE_EQ(linear.WeightForAge(10 * kDay), 0.0);  // floored

  DecaySpec step{DecayFunction::kStep, 0.1, kDay};
  EXPECT_DOUBLE_EQ(step.WeightForAge(kDay / 2), 1.0);
  EXPECT_DOUBLE_EQ(step.WeightForAge(3 * kDay), 0.1);
}

TEST(DecaySpecTest, ParseNames) {
  EXPECT_TRUE(ParseDecayFunction("EXP").ok());
  EXPECT_TRUE(ParseDecayFunction("LINEAR").ok());
  EXPECT_TRUE(ParseDecayFunction("STEP").ok());
  EXPECT_TRUE(ParseDecayFunction("NONE").ok());
  EXPECT_FALSE(ParseDecayFunction("QUADRATIC").ok());
}

TEST(QueryTest, EmptyProfileYieldsEmptyResult) {
  ProfileData profile(kMillisPerMinute);
  auto result =
      GetProfileTopK(profile, 1, std::nullopt, TimeRange::Current(kDay),
                     SortBy::kActionCount, 0, 10, 50 * kDay);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->features.empty());
  EXPECT_EQ(result->slices_scanned, 0u);
}

TEST(QueryTest, MaxReduceTakesMaxAcrossSlices) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  ASSERT_TRUE(
      profile.Add(now - 3 * kDay, 1, 1, 7, CountVector{50}).ok());
  ASSERT_TRUE(
      profile.Add(now - 1 * kDay, 1, 1, 7, CountVector{30}).ok());
  auto result = GetProfileTopK(profile, 1, 1, TimeRange::Current(5 * kDay),
                               SortBy::kActionCount, 0, 1, now,
                               ReduceFn::kMax);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].counts[0], 50);  // max, not 80
}

// Property: ExecuteQuery's aggregation equals a brute-force reference over
// random profiles and windows.
class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryPropertyTest, MatchesBruteForceReference) {
  Rng rng(GetParam());
  const TimestampMs now = 200 * kDay;
  ProfileData profile(kMillisPerMinute);
  struct Write {
    TimestampMs ts;
    SlotId slot;
    TypeId type;
    FeatureId fid;
    int64_t count;
  };
  std::vector<Write> writes;
  for (int i = 0; i < 300; ++i) {
    Write w;
    w.ts = now - static_cast<TimestampMs>(rng.Uniform(30 * kDay));
    w.slot = static_cast<SlotId>(rng.Uniform(3));
    w.type = static_cast<TypeId>(rng.Uniform(3));
    w.fid = rng.Uniform(40) + 1;
    w.count = static_cast<int64_t>(rng.Uniform(5)) + 1;
    writes.push_back(w);
    ASSERT_TRUE(
        profile.Add(w.ts, w.slot, w.type, w.fid, CountVector{w.count}).ok());
  }

  for (int trial = 0; trial < 20; ++trial) {
    const SlotId slot = static_cast<SlotId>(rng.Uniform(3));
    const TimestampMs from =
        now - static_cast<TimestampMs>(rng.Uniform(30 * kDay)) - kDay;
    const TimestampMs to = from + static_cast<TimestampMs>(
                                      rng.Uniform(20 * kDay)) + kDay;

    // Reference: sum counts of writes whose *slice* overlaps the window —
    // IPS aggregates at slice granularity, so find each write's slice.
    std::map<FeatureId, int64_t> expected;
    for (const auto& w : writes) {
      if (w.slot != slot) continue;
      for (const auto& slice : profile.slices()) {
        if (slice.Contains(w.ts)) {
          if (slice.Overlaps(from, to)) expected[w.fid] += w.count;
          break;
        }
      }
    }

    auto result = GetProfileTopK(profile, slot, std::nullopt,
                                 TimeRange::Absolute(from, to),
                                 SortBy::kFeatureId, 0, 0, now);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->features.size(), expected.size()) << "trial " << trial;
    for (const auto& f : result->features) {
      auto it = expected.find(f.fid);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(f.counts[0], it->second) << "fid " << f.fid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(3, 17, 23, 57, 101));

// Count vectors wider than the 4 inline slots: 6-action writes, mixed with
// narrower ones on the same fids, grow counts and weights onto the heap in
// accumulate and emit. Counts and decay weights must match a brute-force
// reference.
TEST(QueryTest, SixActionDecayQueryMatchesReference) {
  constexpr size_t kActions = 6;
  const TimestampMs now = 100 * kDay;
  Rng rng(6);
  ProfileData profile(kMillisPerMinute);
  struct Write {
    TimestampMs ts;
    FeatureId fid;
    CountVector counts;
  };
  std::vector<Write> writes;
  for (int i = 0; i < 120; ++i) {
    Write w;
    w.ts = now - static_cast<TimestampMs>(rng.Uniform(8 * kDay)) - 1;
    w.fid = rng.Uniform(12) + 1;
    // Every third write is narrow: inline accumulators must widen too.
    w.counts = CountVector(i % 3 == 0 ? 2 : kActions);
    for (size_t a = 0; a < w.counts.size(); ++a) {
      w.counts[a] = static_cast<int64_t>(rng.Uniform(5)) + 1;
    }
    ASSERT_TRUE(
        profile.Add(w.ts, kSports, kBasketball, w.fid, w.counts).ok());
    writes.push_back(std::move(w));
  }

  const TimestampMs from = now - 6 * kDay;
  const TimestampMs to = now;
  DecaySpec decay;
  decay.function = DecayFunction::kExponential;
  decay.factor = 0.7;
  decay.unit_ms = kDay;

  // Reference: per fid, sum counts and count * weight(slice midpoint age)
  // over the writes whose slice overlaps the window.
  std::map<FeatureId, std::pair<CountVector, std::vector<double>>> expected;
  for (const auto& w : writes) {
    for (const auto& slice : profile.slices()) {
      if (!slice.Contains(w.ts)) continue;
      if (slice.Overlaps(from, to)) {
        const double weight = decay.WeightForAge(
            to - (slice.start_ms() + slice.DurationMs() / 2));
        auto& [counts, weighted] = expected[w.fid];
        counts.AccumulateSum(w.counts);
        weighted.resize(std::max(weighted.size(), w.counts.size()), 0.0);
        for (size_t a = 0; a < w.counts.size(); ++a) {
          weighted[a] += static_cast<double>(w.counts[a]) * weight;
        }
      }
      break;
    }
  }
  ASSERT_FALSE(expected.empty());

  QuerySpec spec;
  spec.slot = kSports;
  spec.type = kBasketball;
  spec.time_range = TimeRange::Absolute(from, to);
  spec.decay = decay;
  spec.sort_by = SortBy::kActionCount;
  spec.sort_action = kActions - 1;  // ranks by a heap-held weight
  QueryScratch scratch;
  QueryResult result;
  for (int round = 0; round < 2; ++round) {  // fresh, then reused
    ASSERT_TRUE(
        ExecuteQueryInto(profile, spec, now, &scratch, &result).ok());
    ASSERT_EQ(result.features.size(), expected.size());
    for (size_t i = 0; i < result.features.size(); ++i) {
      const FeatureResult& f = result.features[i];
      auto it = expected.find(f.fid);
      ASSERT_NE(it, expected.end()) << "fid " << f.fid;
      const auto& [counts, weighted] = it->second;
      EXPECT_EQ(f.counts, counts) << "fid " << f.fid;
      ASSERT_EQ(f.weighted.size(), weighted.size()) << "fid " << f.fid;
      for (size_t a = 0; a < weighted.size(); ++a) {
        EXPECT_NEAR(f.weighted[a], weighted[a], 1e-9 * weighted[a])
            << "fid " << f.fid << " action " << a;
      }
      if (i > 0) {
        EXPECT_GE(result.features[i - 1].WeightedAt(kActions - 1),
                  f.WeightedAt(kActions - 1));
      }
    }
  }
}

// Result fields of two executions, compared bit for bit.
void ExpectSameResult(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.slices_scanned, want.slices_scanned);
  EXPECT_EQ(got.features_merged, want.features_merged);
  ASSERT_EQ(got.features.size(), want.features.size());
  for (size_t i = 0; i < want.features.size(); ++i) {
    EXPECT_EQ(got.features[i].fid, want.features[i].fid) << "rank " << i;
    EXPECT_EQ(got.features[i].counts, want.features[i].counts) << "rank " << i;
    EXPECT_EQ(got.features[i].weighted, want.features[i].weighted)
        << "rank " << i;
    EXPECT_EQ(got.features[i].newest_ms, want.features[i].newest_ms)
        << "rank " << i;
  }
}

// Buffer reuse must never leak state: one scratch + one result object,
// reused across queries of different shapes (bigger results, smaller
// results, different filters/sorts/profiles), must produce exactly what a
// fresh execution produces.
TEST(QueryTest, ReusedScratchMatchesFreshExecution) {
  const TimestampMs now = 100 * kDay;
  Rng rng(77);
  ProfileData big(kMillisPerMinute);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(big.Add(now - static_cast<TimestampMs>(
                                  rng.Uniform(9 * kDay)),
                        static_cast<SlotId>(1 + rng.Uniform(2)),
                        static_cast<TypeId>(rng.Uniform(3)),
                        rng.Uniform(200) + 1,
                        CountVector{static_cast<int64_t>(rng.Uniform(5)) + 1,
                                    static_cast<int64_t>(rng.Uniform(3))})
                    .ok());
  }
  ProfileData alice = AliceProfile(now);

  std::vector<std::pair<const ProfileData*, QuerySpec>> cases;
  {
    QuerySpec spec;  // wide unlimited scan (largest result)
    spec.slot = 1;
    spec.time_range = TimeRange::Current(10 * kDay);
    spec.sort_by = SortBy::kFeatureId;
    cases.emplace_back(&big, spec);

    spec.k = 5;  // shrink the result
    spec.sort_by = SortBy::kActionCount;
    cases.emplace_back(&big, spec);

    spec.filter.op = FilterOp::kCountAtLeast;  // filtered
    spec.filter.action = 0;
    spec.filter.operand = 4;
    cases.emplace_back(&big, spec);

    QuerySpec decayed;  // different profile, decay weights
    decayed.slot = kSports;
    decayed.type = kBasketball;
    decayed.time_range = TimeRange::Current(11 * kDay);
    decayed.decay.function = DecayFunction::kExponential;
    decayed.decay.factor = 0.5;
    decayed.decay.unit_ms = kDay;
    cases.emplace_back(&alice, decayed);
  }

  QueryScratch shared_scratch;
  QueryResult reused;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [profile, spec] : cases) {
      ASSERT_TRUE(
          ExecuteQueryInto(*profile, spec, now, &shared_scratch, &reused)
              .ok());
      QueryScratch fresh_scratch;
      QueryResult fresh;
      ASSERT_TRUE(
          ExecuteQueryInto(*profile, spec, now, &fresh_scratch, &fresh).ok());
      ExpectSameResult(reused, fresh);
    }
  }
}


// An undecayed query's weights are its counts converted to double, bit for
// bit, whatever the reduce, the count width (inline or heap-held) and the
// sign of the counts.
TEST(QueryTest, UndecayedWeightsAreCountsBitForBit) {
  const TimestampMs now = 100 * kDay;
  Rng rng(31);
  ProfileData profile(kMillisPerMinute);
  std::vector<std::pair<TimestampMs, CountVector>> writes[9];
  for (int i = 0; i < 90; ++i) {
    const TimestampMs ts =
        now - static_cast<TimestampMs>(rng.Uniform(5 * kDay)) - 1;
    const FeatureId fid = 1 + rng.Uniform(8);
    // Alternate 2-action and 6-action (heap-held) rows on the same fids.
    CountVector counts(i % 2 == 0 ? 2 : 6);
    for (size_t a = 0; a < counts.size(); ++a) {
      counts[a] = static_cast<int64_t>(rng.Uniform(11)) - 5;  // -5 .. 5
    }
    ASSERT_TRUE(profile.Add(ts, kSports, kBasketball, fid, counts).ok());
    writes[fid].emplace_back(ts, counts);
  }

  for (ReduceFn reduce : {ReduceFn::kSum, ReduceFn::kMax}) {
    // Reference counts: each slice's row for a fid (the writes summed,
    // as Add does), reduced across slices.
    std::map<FeatureId, CountVector> expected;
    for (FeatureId fid = 1; fid <= 8; ++fid) {
      for (const auto& slice : profile.slices()) {
        const FeatureRow* row = slice.Find(kSports, kBasketball, fid);
        if (row == nullptr) continue;
        auto [it, fresh] = expected.try_emplace(fid, row->counts);
        if (!fresh) ReduceInto(it->second, row->counts, reduce);
      }
    }
    for (SortBy sort_by : {SortBy::kFeatureId, SortBy::kActionCount}) {
      QuerySpec spec;
      spec.slot = kSports;
      spec.time_range = TimeRange::Current(6 * kDay);
      spec.sort_by = sort_by;
      spec.sort_action = 5;  // a heap-held action for the 6-wide rows
      spec.reduce = reduce;
      QueryScratch scratch;
      QueryResult result;
      ASSERT_TRUE(
          ExecuteQueryInto(profile, spec, now, &scratch, &result).ok());
      ASSERT_EQ(result.features.size(), expected.size());
      for (const FeatureResult& f : result.features) {
        EXPECT_EQ(f.counts, expected[f.fid]) << "fid " << f.fid;
        ASSERT_EQ(f.weighted.size(), f.counts.size()) << "fid " << f.fid;
        for (size_t a = 0; a < f.counts.size(); ++a) {
          EXPECT_EQ(std::bit_cast<uint64_t>(f.weighted[a]),
                    std::bit_cast<uint64_t>(static_cast<double>(f.counts[a])))
              << "fid " << f.fid << " action " << a;
        }
      }
    }
  }
}

// Scores tied across the K cut rank by ascending fid, for both score
// orders. The fids sit in several slices, newest holding the largest, so
// the merge meets them out of fid order.
TEST(QueryTest, TiesAcrossTheKCutRankByAscendingFid) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  // Slice d (d = 0..3) holds fids 10d + 1 .. 10d + 10 and ends 3 - d
  // minutes before the others; every third fid has 7 likes, the rest 4.
  for (int d = 0; d < 4; ++d) {
    const TimestampMs ts = now - kDay + (3 - d) * kMillisPerMinute;
    const FeatureId base = 10 * static_cast<FeatureId>(d);
    for (FeatureId fid = base + 1; fid <= base + 10; ++fid) {
      const int64_t likes = fid % 3 == 0 ? 7 : 4;
      ASSERT_TRUE(
          profile.Add(ts, kSports, kBasketball, fid, CountVector{likes}).ok());
    }
  }
  struct Case {
    SortBy sort_by;
    size_t k;
  };
  // 13 fids have 7 likes, so k = 20 cuts through the 4-like tie; each
  // slice holds 10 fids of one end time, so k = 15 cuts through the
  // second-newest slice's tie.
  for (const Case& c : {Case{SortBy::kActionCount, 20},
                        Case{SortBy::kTimestamp, 15}}) {
    std::vector<std::pair<int64_t, FeatureId>> all;  // (score, fid)
    for (const auto& slice : profile.slices()) {
      for (const FeatureRow& row : slice.rows()) {
        const int64_t score = c.sort_by == SortBy::kActionCount
                                  ? row.counts[0]
                                  : slice.end_ms();
        all.emplace_back(score, row.fid);
      }
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    ASSERT_NE(all[c.k - 1].first, all[0].first);
    ASSERT_EQ(all[c.k - 1].first, all[c.k].first) << "k must cut a tie";

    QuerySpec spec;
    spec.slot = kSports;
    spec.time_range = TimeRange::Current(2 * kDay);
    spec.sort_by = c.sort_by;
    spec.k = c.k;
    QueryScratch scratch;
    QueryResult result;
    ASSERT_TRUE(ExecuteQueryInto(profile, spec, now, &scratch, &result).ok());
    ASSERT_EQ(result.features.size(), c.k);
    for (size_t i = 0; i < c.k; ++i) {
      EXPECT_EQ(result.features[i].fid, all[i].second)
          << "sort " << static_cast<int>(c.sort_by) << " rank " << i;
    }
  }
}

// Rows of one fid under two types of one slice, and one fid in several
// slices of a type-scoped query, fold into one feature each; rows of
// another slot in the same slice stay out.
TEST(QueryTest, SharedFidsMergeWithinAndAcrossSlices) {
  const TimestampMs now = 100 * kDay;
  ProfileData profile(kMillisPerMinute);
  const TimestampMs ts = now - kDay;
  ASSERT_TRUE(
      profile.Add(ts, kSports, kBasketball, 7, CountVector{2, 1}).ok());
  ASSERT_TRUE(profile.Add(ts, kSports, kSoccer, 7, CountVector{3}).ok());
  ASSERT_TRUE(profile.Add(ts, kSports, kSoccer, 8, CountVector{1}).ok());
  ASSERT_TRUE(profile.Add(ts, kNews, 1, 9, CountVector{50}).ok());
  ASSERT_EQ(profile.SliceCount(), 1u);

  auto slot_wide = GetProfileTopK(profile, kSports, std::nullopt,
                                  TimeRange::Current(2 * kDay),
                                  SortBy::kFeatureId, 0, 0, now);
  ASSERT_TRUE(slot_wide.ok());
  ASSERT_EQ(slot_wide->features.size(), 2u);
  EXPECT_EQ(slot_wide->features_merged, 2u);
  EXPECT_EQ(slot_wide->features[0].fid, 7u);
  EXPECT_EQ(slot_wide->features[0].counts, (CountVector{5, 1}));
  EXPECT_EQ(slot_wide->features[1].fid, 8u);

  for (int d = 2; d <= 4; ++d) {
    ASSERT_TRUE(profile
                    .Add(now - d * kDay, kSports, kSoccer, 7, CountVector{1})
                    .ok());
  }
  auto typed = GetProfileTopK(profile, kSports, kSoccer,
                              TimeRange::Current(5 * kDay),
                              SortBy::kActionCount, 0, 0, now);
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->slices_scanned, 4u);
  ASSERT_EQ(typed->features.size(), 2u);
  EXPECT_EQ(typed->features[0].fid, 7u);
  EXPECT_EQ(typed->features[0].counts, CountVector{6});
  EXPECT_EQ(typed->features[1].fid, 8u);
}

// Profiles and specs for the reuse tests: slot-wide and type-scoped,
// undecayed and decayed, cut and uncut, over two overlapping fid sets.
std::vector<std::pair<ProfileData, QuerySpec>> ReuseCases(TimestampMs now) {
  std::vector<std::pair<ProfileData, QuerySpec>> cases;
  for (uint64_t seed : {5, 6}) {
    Rng rng(seed);
    ProfileData profile(kMillisPerMinute);
    for (int i = 0; i < 200; ++i) {
      profile
          .Add(now - static_cast<TimestampMs>(rng.Uniform(6 * kDay)) - 1,
               kSports, static_cast<TypeId>(rng.Uniform(3)),
               rng.Uniform(30 + 20 * seed) + 1,
               CountVector{static_cast<int64_t>(rng.Uniform(9)),
                           static_cast<int64_t>(rng.Uniform(3))})
          .ok();
    }
    QuerySpec spec;
    spec.slot = kSports;
    spec.time_range = TimeRange::Current(7 * kDay);
    spec.sort_by = SortBy::kActionCount;
    spec.k = 10;
    cases.emplace_back(profile, spec);
    spec.type = 1;
    spec.k = 0;
    spec.decay = DecaySpec{DecayFunction::kExponential, 0.8, kDay};
    cases.emplace_back(profile, spec);
    spec.type.reset();
    spec.time_range = TimeRange::Current(2 * kDay);
    spec.sort_by = SortBy::kTimestamp;
    spec.reduce = ReduceFn::kMax;
    cases.emplace_back(std::move(profile), spec);
  }
  return cases;
}

// The probe table empties between queries without being cleared: 10,000
// queries through one scratch each equal a fresh scratch's result.
TEST(QueryTest, ProbeTableStaysEmptyAcrossTenThousandQueries) {
  const TimestampMs now = 100 * kDay;
  const auto cases = ReuseCases(now);
  std::vector<QueryResult> fresh(cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    QueryScratch scratch;
    ASSERT_TRUE(ExecuteQueryInto(cases[c].first, cases[c].second, now,
                                 &scratch, &fresh[c])
                    .ok());
  }
  QueryScratch shared;
  QueryResult reused;
  for (int q = 0; q < 10'000; ++q) {
    const size_t c = (q * 7 + q / 5) % cases.size();
    ASSERT_TRUE(ExecuteQueryInto(cases[c].first, cases[c].second, now,
                                 &shared, &reused)
                    .ok());
    ExpectSameResult(reused, fresh[c]);
    if (::testing::Test::HasFailure()) FAIL() << "query " << q;
  }
}

// When the stamp wraps, slots written under the old stamps must not read
// as occupied.
TEST(QueryTest, ProbeTableResetsWhenItsStampWraps) {
  const TimestampMs now = 100 * kDay;
  const auto cases = ReuseCases(now);
  QueryScratch shared;
  QueryResult reused;
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t prior = 0; prior < cases.size(); ++prior) {
      // Fill the table under the stamp the wrap restarts from, then query
      // across the wrap.
      shared.stamp = 0;
      ASSERT_TRUE(ExecuteQueryInto(cases[prior].first, cases[prior].second,
                                   now, &shared, &reused)
                      .ok());
      shared.stamp = std::numeric_limits<uint32_t>::max();
      ASSERT_TRUE(ExecuteQueryInto(cases[c].first, cases[c].second, now,
                                   &shared, &reused)
                      .ok());
      QueryScratch scratch;
      QueryResult fresh;
      ASSERT_TRUE(ExecuteQueryInto(cases[c].first, cases[c].second, now,
                                   &scratch, &fresh)
                      .ok());
      ExpectSameResult(reused, fresh);
    }
  }
}

}  // namespace
}  // namespace ips
