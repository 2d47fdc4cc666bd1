#include "codec/profile_codec.h"

#include "codec/compress.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;

ProfileData RandomProfile(uint64_t seed, int writes) {
  Rng rng(seed);
  ProfileData profile(kMinute);
  for (int i = 0; i < writes; ++i) {
    CountVector counts(1 + rng.Uniform(6));
    for (size_t j = 0; j < counts.size(); ++j) {
      counts[j] = static_cast<int64_t>(rng.Uniform(100));
    }
    if (counts.Total() == 0) counts[0] = 1;
    EXPECT_TRUE(profile
                    .Add(static_cast<TimestampMs>(
                             rng.Uniform(10 * kMillisPerDay)) +
                             kMinute,
                         static_cast<SlotId>(rng.Uniform(5)),
                         static_cast<TypeId>(rng.Uniform(5)),
                         rng.Next() | 1, counts)
                    .ok());
  }
  return profile;
}

bool ProfilesEqual(const ProfileData& a, const ProfileData& b) {
  if (a.SliceCount() != b.SliceCount()) return false;
  if (a.LastActionMs() != b.LastActionMs()) return false;
  if (a.write_granularity_ms() != b.write_granularity_ms()) return false;
  auto ia = a.slices().begin();
  auto ib = b.slices().begin();
  for (; ia != a.slices().end(); ++ia, ++ib) {
    if (ia->start_ms() != ib->start_ms() || ia->end_ms() != ib->end_ms()) {
      return false;
    }
    if (ia->rows().size() != ib->rows().size()) return false;
    for (size_t i = 0; i < ia->rows().size(); ++i) {
      const FeatureRow& ra = ia->rows()[i];
      const FeatureRow& rb = ib->rows()[i];
      if (ra.Key() != rb.Key() || !(ra.counts == rb.counts)) return false;
    }
  }
  return true;
}

TEST(ProfileCodecTest, EmptyProfileRoundTrips) {
  ProfileData profile(kMinute);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  ProfileData decoded;
  ASSERT_TRUE(DecodeProfile(encoded, &decoded).ok());
  EXPECT_TRUE(ProfilesEqual(profile, decoded));
}

class ProfileCodecRoundTripTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ProfileCodecRoundTripTest, RandomProfilesRoundTrip) {
  ProfileData profile = RandomProfile(GetParam(), 300);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  ProfileData decoded;
  Status status = DecodeProfile(encoded, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(ProfilesEqual(profile, decoded));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileCodecRoundTripTest,
                         ::testing::Values(1, 2, 3, 10, 77, 1234));

TEST(ProfileCodecTest, SliceRoundTrips) {
  Slice slice(1000, 2000);
  slice.Add(1, 2, 3, CountVector{1, 2, 3});
  slice.Add(1, 2, 99, CountVector{-4, 5});
  slice.Add(4, 5, 6, CountVector{7});
  std::string encoded;
  EncodeSlice(slice, &encoded);
  Slice decoded;
  ASSERT_TRUE(DecodeSlice(encoded, &decoded).ok());
  EXPECT_EQ(decoded.start_ms(), 1000);
  EXPECT_EQ(decoded.end_ms(), 2000);
  EXPECT_EQ(decoded.Find(1, 2, 3)->counts,
            (CountVector{1, 2, 3}));
  EXPECT_EQ(decoded.Find(1, 2, 99)->counts,
            (CountVector{-4, 5}));
  EXPECT_EQ(decoded.Find(4, 5, 6)->counts[0], 7);
}

TEST(ProfileCodecTest, CompressionShrinksTypicalProfiles) {
  // The compressor either wins by a real margin (at least 1/8 of the raw
  // size) or falls back to a raw-stored frame — a few framing bytes over the
  // raw image — which the serving path decodes zero-copy. Marginal wins are
  // deliberately NOT kept: they'd force a copying decode for a few percent
  // of storage.
  ProfileData random_profile = RandomProfile(5, 1000);
  std::string encoded;
  EncodeProfile(random_profile, &encoded);
  const size_t raw = EncodedProfileSizeUncompressed(random_profile);
  EXPECT_LE(encoded.size(), raw + 16);  // raw-store framing bound
  if (encoded.size() < raw) {
    EXPECT_LE(encoded.size() + raw / 8, raw);  // kept wins are real wins
  }

  // A repetitive profile (constant counts, clustered fids) must strictly
  // shrink — the fallback only engages when the win is marginal.
  ProfileData repetitive(kMinute);
  for (int s = 0; s < 5; ++s) {
    for (int f = 0; f < 1000; ++f) {
      ASSERT_TRUE(repetitive
                      .Add(kMinute + s * kMinute, 1, 1,
                           static_cast<FeatureId>(f % 50 + 1), CountVector{1})
                      .ok());
    }
  }
  std::string repetitive_encoded;
  EncodeProfile(repetitive, &repetitive_encoded);
  EXPECT_LT(repetitive_encoded.size(),
            EncodedProfileSizeUncompressed(repetitive));
}

TEST(ProfileCodecTest, RawStoredFrameDecodesZeroCopy) {
  // Incompressible payloads take the raw-store fallback; the view decode
  // must alias them instead of copying, and report it did.
  Rng rng(17);
  std::string payload(1024, '\0');
  for (auto& c : payload) c = static_cast<char>(rng.Next());
  std::string compressed;
  BlockCompress(payload, &compressed);

  const uint64_t zero_copy_before = ZeroCopyDecodeCount();
  std::string scratch;
  std::string_view view;
  bool aliased = false;
  ASSERT_TRUE(
      BlockUncompressView(compressed, &scratch, &view, &aliased).ok());
  EXPECT_EQ(view, payload);
  EXPECT_TRUE(aliased);
  // Aliased means exactly that: the view points into the compressed buffer.
  EXPECT_GE(view.data(), compressed.data());
  EXPECT_LE(view.data() + view.size(), compressed.data() + compressed.size());
  EXPECT_EQ(ZeroCopyDecodeCount(), zero_copy_before + 1);

  // A compressible payload decompresses into the scratch (owned, however
  // the caller's view is still valid) and does not count as zero-copy.
  std::string repetitive(4096, 'a');
  BlockCompress(repetitive, &compressed);
  ASSERT_TRUE(
      BlockUncompressView(compressed, &scratch, &view, &aliased).ok());
  EXPECT_EQ(view, repetitive);
  EXPECT_FALSE(aliased);
  EXPECT_EQ(ZeroCopyDecodeCount(), zero_copy_before + 1);
}

TEST(ProfileCodecTest, DecodeRejectsGarbage) {
  ProfileData decoded;
  EXPECT_TRUE(DecodeProfile("not a profile", &decoded).IsCorruption());
  EXPECT_TRUE(DecodeProfile("", &decoded).IsCorruption());
}

TEST(ProfileCodecTest, DecodeRejectsTruncation) {
  ProfileData profile = RandomProfile(6, 100);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  ProfileData decoded;
  EXPECT_FALSE(
      DecodeProfile(std::string_view(encoded).substr(0, encoded.size() / 2),
                    &decoded)
          .ok());
}

TEST(ProfileCodecTest, DecodeRejectsWrongMagic) {
  // Compress a valid-looking but wrong-magic payload.
  std::string raw = "XXXXjunk";
  std::string compressed;
  BlockCompress(raw, &compressed);
  ProfileData decoded;
  EXPECT_TRUE(DecodeProfile(compressed, &decoded).IsCorruption());
}

TEST(ProfileCodecTest, SliceMetaRoundTrips) {
  SliceMeta meta;
  meta.write_granularity_ms = 5000;
  meta.last_action_ms = 123'456'789;
  for (uint64_t i = 0; i < 10; ++i) {
    meta.entries.push_back(SliceMetaEntry{
        i * 1000, static_cast<TimestampMs>(i * 1000),
        static_cast<TimestampMs>((i + 1) * 1000)});
  }
  std::string encoded;
  EncodeSliceMeta(meta, &encoded);
  SliceMeta decoded;
  ASSERT_TRUE(DecodeSliceMeta(encoded, &decoded).ok());
  EXPECT_EQ(decoded.write_granularity_ms, 5000);
  EXPECT_EQ(decoded.last_action_ms, 123'456'789);
  ASSERT_EQ(decoded.entries.size(), 10u);
  EXPECT_EQ(decoded.entries[3].slice_key, 3000u);
  EXPECT_EQ(decoded.entries[3].end_ms, 4000);
}

TEST(ProfileCodecTest, SliceMetaRejectsGarbage) {
  SliceMeta meta;
  EXPECT_TRUE(DecodeSliceMeta("zzz", &meta).IsCorruption());
}

TEST(ProfileCodecTest, PaperScaleProfileSize) {
  // Sanity-check the paper's claim territory: a profile with ~62 slices of
  // ~small contents serializes to tens of KB uncompressed and less
  // compressed.
  Rng rng(9);
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kMillisPerDay;
  for (int s = 0; s < 62; ++s) {
    for (int f = 0; f < 20; ++f) {
      ASSERT_TRUE(profile
                      .Add(base + s * kMinute,
                           static_cast<SlotId>(f % 4), 1,
                           rng.Next() | 1, CountVector{1, 0, 1, 0})
                      .ok());
    }
  }
  EXPECT_EQ(profile.SliceCount(), 62u);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  EXPECT_LT(encoded.size(), 60'000u);
  EXPECT_GT(encoded.size(), 1'000u);
}

}  // namespace
}  // namespace ips
