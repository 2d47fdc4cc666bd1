#include "codec/compress.h"

#include <string>

#include <gtest/gtest.h>

#include "codec/coding.h"
#include "codec/profile_codec.h"
#include "common/hash.h"
#include "common/random.h"
#include "perfbench_profile.h"

namespace ips {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed, output;
  BlockCompress(input, &compressed);
  Status status = BlockUncompress(compressed, &output);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return output;
}

TEST(CompressTest, EmptyInput) {
  EXPECT_EQ(RoundTrip(""), "");
}

TEST(CompressTest, ShortInput) {
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abc"), "abc");
}

TEST(CompressTest, RepetitiveInputCompressesWell) {
  const std::string input(100'000, 'z');
  std::string compressed;
  BlockCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 50);
  std::string output;
  ASSERT_TRUE(BlockUncompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressTest, StructuredInputCompresses) {
  // Serialized-profile-like data: repeated small records.
  std::string input;
  for (int i = 0; i < 2000; ++i) {
    input += "slot=";
    input += std::to_string(i % 8);
    input += ";type=";
    input += std::to_string(i % 16);
    input += ";count=1;";
  }
  std::string compressed;
  BlockCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 2);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(CompressTest, RandomInputRoundTripsWithBoundedExpansion) {
  Rng rng(123);
  std::string input;
  input.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  std::string compressed;
  BlockCompress(input, &compressed);
  // Incompressible data must not blow up.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 64 + 32);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(CompressTest, OverlappingCopiesRoundTrip) {
  // "abcabcabc..." triggers overlapping (RLE-like) copies.
  std::string input;
  for (int i = 0; i < 10'000; ++i) input += "abc";
  EXPECT_EQ(RoundTrip(input), input);
}

class CompressSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompressSizeTest, RoundTripsAtSize) {
  Rng rng(GetParam() + 1);
  std::string input;
  for (size_t i = 0; i < GetParam(); ++i) {
    // Mix of compressible (ASCII digits) and random bytes.
    input.push_back(rng.Bernoulli(0.7)
                        ? static_cast<char>('0' + (i % 10))
                        : static_cast<char>(rng.Next() & 0xFF));
  }
  EXPECT_EQ(RoundTrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                           63, 64, 65, 255, 256, 1000, 4096,
                                           65535, 65536, 65537, 200'000));

TEST(CompressTest, GetUncompressedLengthMatches) {
  const std::string input(12'345, 'q');
  std::string compressed;
  BlockCompress(input, &compressed);
  auto len = GetUncompressedLength(compressed);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, input.size());
}

TEST(CompressTest, DetectsTruncation) {
  std::string compressed;
  BlockCompress(std::string(1000, 'x') + "unique suffix", &compressed);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{4},
                     compressed.size() / 2, compressed.size() - 1}) {
    std::string output;
    Status status =
        BlockUncompress(std::string_view(compressed).substr(0, cut), &output);
    EXPECT_TRUE(status.IsCorruption()) << "cut=" << cut;
  }
}

TEST(CompressTest, DetectsBitFlips) {
  std::string input = "The profile service stores aggregated user behavior ";
  for (int i = 0; i < 6; ++i) input += input;  // grow with self-similarity
  std::string compressed;
  BlockCompress(input, &compressed);

  Rng rng(7);
  int detected = 0;
  const int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    std::string corrupted = compressed;
    const size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << rng.Uniform(8)));
    std::string output;
    Status status = BlockUncompress(corrupted, &output);
    // Either the frame fails to parse, or the checksum catches it, or the
    // flip undid itself (same bit) — output must equal input in that case.
    if (!status.ok()) {
      ++detected;
    } else {
      EXPECT_EQ(output, input) << "undetected corruption at byte " << pos;
      ++detected;  // bit flip happened to produce a valid identical frame
    }
  }
  EXPECT_EQ(detected, kTrials);
}

TEST(CompressTest, RejectsCopyBeyondOutput) {
  // Hand-craft a frame: claims 4 bytes, immediately issues a copy with a
  // too-large offset.
  std::string frame;
  frame.push_back(4);                       // varint decompressed length
  frame.append(4, '\0');                    // checksum placeholder
  frame.push_back((2 << 1) | 1);            // copy, len 2
  frame.push_back(9);                       // offset 9 > produced 0
  std::string output;
  EXPECT_TRUE(BlockUncompress(frame, &output).IsCorruption());
}

TEST(CompressTest, RejectsLengthMismatch) {
  std::string compressed;
  BlockCompress("hello world", &compressed);
  // Corrupt the declared length (first varint byte).
  compressed[0] = static_cast<char>(compressed[0] ^ 0x01);
  std::string output;
  EXPECT_FALSE(BlockUncompress(compressed, &output).ok());
}

TEST(CompressTest, OversizedLiteralIsCorruptionBeforeAnyAllocation) {
  // The header is outside the checksum, so a corrupt frame can declare 2^40
  // bytes and open with a 2^39-byte literal it does not carry. The decoder
  // must refuse the literal before sizing its output for it.
  std::string frame;
  PutVarint64(&frame, uint64_t{1} << 40);
  PutFixed32(&frame, 0);
  PutVarint64(&frame, (uint64_t{1} << 39) << 1);  // literal, len 2^39
  frame.append(32, 'x');
  std::string output;
  EXPECT_TRUE(BlockUncompress(frame, &output).IsCorruption());
  EXPECT_LT(output.capacity(), size_t{1} << 20);
  std::string scratch;
  std::string_view out;
  EXPECT_TRUE(BlockUncompressView(frame, &scratch, &out).IsCorruption());
  EXPECT_LT(scratch.capacity(), size_t{1} << 20);
}

// The checksum's strength on the frame every cache miss decodes: the
// perfbench-shaped profile (tests/perfbench_profile.h), LZ-compressed as
// BlockCompress stores it and raw-stored as one literal. Every single-bit
// flip and every truncation must be rejected by both the view decoder and
// the profile decoder.
void ExpectEveryFlipAndTruncationRejected(const std::string& frame) {
  std::string scratch;
  std::string_view out;
  ProfileData profile;
  ASSERT_TRUE(BlockUncompressView(frame, &scratch, &out).ok());
  ASSERT_TRUE(DecodeProfile(frame, &profile).ok());
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string flipped = frame;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(BlockUncompressView(flipped, &scratch, &out).ok())
        << "bit " << bit;
    EXPECT_FALSE(DecodeProfile(flipped, &profile).ok()) << "bit " << bit;
  }
  for (size_t len = 0; len < frame.size(); ++len) {
    const std::string_view prefix(frame.data(), len);
    EXPECT_FALSE(BlockUncompressView(prefix, &scratch, &out).ok())
        << "length " << len;
    EXPECT_FALSE(DecodeProfile(prefix, &profile).ok()) << "length " << len;
  }
}

TEST(CompressTest, ChecksumRejectsEveryFlipOfACompressedProfileFrame) {
  std::string frame;
  EncodeProfile(PerfbenchProfile(1, 7), &frame);
  std::string raw;
  EncodeProfileRaw(PerfbenchProfile(1, 7), &raw);
  ASSERT_LT(frame.size(), raw.size());  // the LZ path, not raw-stored
  ExpectEveryFlipAndTruncationRejected(frame);
}

TEST(CompressTest, ChecksumRejectsEveryFlipOfARawStoredProfileFrame) {
  std::string raw;
  EncodeProfileRaw(PerfbenchProfile(1, 7), &raw);
  // The raw-store form: header, then the whole payload as one literal.
  std::string frame;
  PutVarint64(&frame, raw.size());
  PutFixed32(&frame, Checksum32(raw.data(), raw.size()));
  PutVarint64(&frame, raw.size() << 1);
  frame += raw;
  std::string scratch;
  std::string_view out;
  bool aliased = false;
  ASSERT_TRUE(BlockUncompressView(frame, &scratch, &out, &aliased).ok());
  ASSERT_TRUE(aliased);
  ExpectEveryFlipAndTruncationRejected(frame);
}

}  // namespace
}  // namespace ips
