#include "core/profile_data.h"

#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/profile_codec.h"
#include "common/clock.h"
#include "common/random.h"
#include "perfbench_profile.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;

CountVector One() { return CountVector{1}; }

TEST(ProfileDataTest, FirstAddCreatesAlignedSlice) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(90'500, 1, 2, 3, One()).ok());
  ASSERT_EQ(profile.SliceCount(), 1u);
  const Slice& slice = profile.slices().front();
  EXPECT_EQ(slice.start_ms(), 60'000);
  EXPECT_EQ(slice.end_ms(), 120'000);
  EXPECT_TRUE(slice.Contains(90'500));
}

TEST(ProfileDataTest, NewerTimestampOpensNewHeadSlice) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(1 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(5 * kMinute, 1, 1, 2, One()).ok());
  ASSERT_EQ(profile.SliceCount(), 2u);
  EXPECT_EQ(profile.slices().front().start_ms(), 5 * kMinute);
  EXPECT_TRUE(profile.CheckInvariants());
}

TEST(ProfileDataTest, SameWindowAggregatesInPlace) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(60'000, 1, 1, 7, CountVector{1, 2}).ok());
  ASSERT_TRUE(profile.Add(119'999, 1, 1, 7, CountVector{3, 4}).ok());
  ASSERT_EQ(profile.SliceCount(), 1u);
  const FeatureRow* row = profile.slices().front().Find(1, 1, 7);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->counts[0], 4);
  EXPECT_EQ(row->counts[1], 6);
}

TEST(ProfileDataTest, OutOfOrderWriteFillsGap) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(10 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(1 * kMinute, 1, 1, 2, One()).ok());
  // Late event between the two.
  ASSERT_TRUE(profile.Add(5 * kMinute, 1, 1, 3, One()).ok());
  EXPECT_EQ(profile.SliceCount(), 3u);
  EXPECT_TRUE(profile.CheckInvariants());
  // Newest first: 10m, 5m, 1m.
  auto it = profile.slices().begin();
  EXPECT_TRUE(it->Contains(10 * kMinute));
  ++it;
  EXPECT_TRUE(it->Contains(5 * kMinute));
  ++it;
  EXPECT_TRUE(it->Contains(1 * kMinute));
}

TEST(ProfileDataTest, OlderThanTailAppends) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(10 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(2 * kMinute, 1, 1, 2, One()).ok());
  EXPECT_EQ(profile.SliceCount(), 2u);
  EXPECT_TRUE(profile.slices().back().Contains(2 * kMinute));
  EXPECT_TRUE(profile.CheckInvariants());
}

TEST(ProfileDataTest, RejectsEmptyCounts) {
  ProfileData profile(kMinute);
  EXPECT_TRUE(profile.Add(1000, 1, 1, 1, CountVector()).IsInvalidArgument());
}

TEST(ProfileDataTest, TracksLastActionAndBounds) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(90'000, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(250'000, 1, 1, 1, One()).ok());
  EXPECT_EQ(profile.LastActionMs(), 250'000);
  EXPECT_EQ(profile.NewestMs(), 300'000);  // end of the 240k-300k slice
  EXPECT_EQ(profile.OldestMs(), 60'000);
}

TEST(ProfileDataTest, TotalFeaturesCountsAcrossSlices) {
  ProfileData profile(kMinute);
  ASSERT_TRUE(profile.Add(1 * kMinute, 1, 1, 1, One()).ok());
  ASSERT_TRUE(profile.Add(1 * kMinute, 1, 1, 2, One()).ok());
  ASSERT_TRUE(profile.Add(5 * kMinute, 2, 1, 3, One()).ok());
  EXPECT_EQ(profile.TotalFeatures(), 3u);
}

TEST(ProfileDataTest, MergeProfileAggregates) {
  ProfileData a(kMinute), b(kMinute);
  ASSERT_TRUE(a.Add(60'000, 1, 1, 7, CountVector{1}).ok());
  ASSERT_TRUE(b.Add(60'000, 1, 1, 7, CountVector{2}).ok());
  ASSERT_TRUE(b.Add(120'000, 1, 1, 8, CountVector{5}).ok());
  a.MergeProfile(b, ReduceFn::kSum);
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_EQ(a.TotalFeatures(), 2u);
  const FeatureRow* row = a.slices().back().Find(1, 1, 7);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->counts[0], 3);
}

TEST(ProfileDataTest, MergeProfilePreservesLastAction) {
  ProfileData a(kMinute), b(kMinute);
  ASSERT_TRUE(a.Add(100'000, 1, 1, 1, One()).ok());
  ASSERT_TRUE(b.Add(500'000, 1, 1, 2, One()).ok());
  a.MergeProfile(b, ReduceFn::kSum);
  EXPECT_EQ(a.LastActionMs(), 500'000);
}

// Property test: arbitrary timestamp sequences never violate the slice-list
// invariants, and every write remains queryable via Contains.
class ProfileDataPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfileDataPropertyTest, RandomWritesKeepInvariants) {
  Rng rng(GetParam());
  ProfileData profile(kMinute);
  std::vector<TimestampMs> stamps;
  for (int i = 0; i < 400; ++i) {
    // Mix forward progress with out-of-order and duplicate timestamps.
    const TimestampMs ts =
        static_cast<TimestampMs>(rng.Uniform(3 * kMillisPerDay)) + kMinute;
    stamps.push_back(ts);
    ASSERT_TRUE(profile.Add(ts, static_cast<SlotId>(rng.Uniform(4)),
                            static_cast<TypeId>(rng.Uniform(4)),
                            rng.Uniform(100) + 1, One())
                    .ok());
    ASSERT_TRUE(profile.CheckInvariants()) << "after write " << i;
  }
  // Every written timestamp is covered by exactly one slice.
  for (TimestampMs ts : stamps) {
    int covering = 0;
    for (const auto& slice : profile.slices()) {
      if (slice.Contains(ts)) ++covering;
    }
    EXPECT_EQ(covering, 1) << ts;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileDataPropertyTest,
                         ::testing::Values(1, 7, 13, 42, 99, 12345));

TEST(ProfileDataTest, SliceOverlapsSemantics) {
  Slice slice(100, 200);
  EXPECT_TRUE(slice.Overlaps(150, 250));
  EXPECT_TRUE(slice.Overlaps(0, 101));
  EXPECT_TRUE(slice.Overlaps(199, 300));
  EXPECT_FALSE(slice.Overlaps(200, 300));  // closed-open
  EXPECT_FALSE(slice.Overlaps(0, 100));
  EXPECT_TRUE(slice.Overlaps(100, 200));
}

TEST(ProfileDataTest, SliceMergeFromWidensAndAggregates) {
  Slice newer(200, 300);
  newer.Add(1, 1, 7, CountVector{1});
  Slice older(100, 200);
  older.Add(1, 1, 7, CountVector{2});
  older.Add(2, 1, 9, CountVector{5});
  newer.MergeFrom(older, ReduceFn::kSum);
  EXPECT_EQ(newer.start_ms(), 100);
  EXPECT_EQ(newer.end_ms(), 300);
  EXPECT_EQ(newer.Find(1, 1, 7)->counts[0], 3);
  EXPECT_EQ(newer.Find(2, 1, 9)->counts[0], 5);
}

// Property: the O(1) incremental byte counter maintained by Add stays equal
// to a full re-measurement (no drift), for arbitrary write sequences.
class AccountingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingPropertyTest, IncrementalBytesMatchRecompute) {
  Rng rng(GetParam());
  ProfileData profile(kMinute);
  for (int i = 0; i < 300; ++i) {
    CountVector counts(1 + rng.Uniform(6));  // crosses the inline boundary
    counts[0] = 1;
    ASSERT_TRUE(profile
                    .Add(static_cast<TimestampMs>(
                             rng.Uniform(2 * kMillisPerDay)) +
                             kMinute,
                         static_cast<SlotId>(rng.Uniform(4)),
                         static_cast<TypeId>(rng.Uniform(4)),
                         rng.Uniform(64) + 1, counts)
                    .ok());
    if (i % 37 == 36) {
      const size_t incremental = profile.ApproximateBytes();
      const size_t exact = profile.RecomputeBytes();
      EXPECT_EQ(incremental, exact) << "after write " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingPropertyTest,
                         ::testing::Values(4, 19, 33, 71));

TEST(ProfileDataTest, ApproximateBytesGrowsWithData) {
  ProfileData profile(kMinute);
  const size_t empty_bytes = profile.ApproximateBytes();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        profile.Add(i * kMinute, 1, 1, static_cast<FeatureId>(i + 1), One())
            .ok());
  }
  EXPECT_GT(profile.ApproximateBytes(), empty_bytes + 1000);
}

// The cache charges ApproximateBytes against its memory budget, so it must
// track what the heap really holds: for 1,000 perfbench-shaped profiles,
// decoded (exact blocks) and built by writes then compacted (grown
// blocks), the accounted bytes are within [0.8, 1.5]x of the growth of
// malloc's in-use bytes. Sanitizer runtimes replace malloc, so mallinfo2
// says nothing there.
TEST(ProfileDataTest, ApproximateBytesTracksHeapUse) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "malloc is replaced by the sanitizer runtime";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "malloc is replaced by the sanitizer runtime";
#endif
#endif
  constexpr int kProfiles = 1000;
  std::vector<std::string> encoded(kProfiles);
  for (int i = 0; i < kProfiles; ++i) {
    EncodeProfile(PerfbenchProfile(1, static_cast<ProfileId>(i)), &encoded[i]);
  }
  auto check = [&](const char* what, auto make) {
    std::vector<ProfileData> profiles;
    profiles.reserve(kProfiles);
    make(0, profiles);  // warms any per-thread buffer the path keeps
    profiles.clear();
    const size_t before = mallinfo2().uordblks;
    for (int i = 0; i < kProfiles; ++i) make(i, profiles);
    const double heap = static_cast<double>(mallinfo2().uordblks - before);
    double accounted = 0;
    for (const ProfileData& p : profiles) {
      accounted += static_cast<double>(p.ApproximateBytes() - sizeof(p));
    }
    EXPECT_GE(accounted, 0.8 * heap) << what;
    EXPECT_LE(accounted, 1.5 * heap) << what;
    std::printf("%s: %.0f accounted vs %.0f heap bytes per profile\n", what,
                accounted / kProfiles, heap / kProfiles);
  };
  check("decoded", [&](int i, std::vector<ProfileData>& out) {
    ASSERT_TRUE(DecodeProfile(encoded[i], &out.emplace_back()).ok());
  });
  check("compacted", [&](int i, std::vector<ProfileData>& out) {
    out.push_back(PerfbenchProfile(1, static_cast<ProfileId>(i)));
  });
}

}  // namespace
}  // namespace ips
