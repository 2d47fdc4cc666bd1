// Seeded mutation loop over every decoder that reads bytes back from storage:
// DecodeProfile, DecodeSlice and DecodeSliceMeta. Inputs are valid encodings
// with bits flipped, the tail cut off, or a varint overwritten by a length that claims more bytes
// than exist. Profile images are re-compressed after the mutation, so they
// pass the frame checksum and reach the profile decoder itself; the stored
// frames are also mutated directly. Every call must return OK or Corruption,
// finish quickly and allocate at most a small multiple of its input. The
// sanitizer builds of `scripts/tier1.sh --all` run the same loop.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "codec/coding.h"
#include "codec/compress.h"
#include "codec/profile_codec.h"
#include "common/clock.h"
#include "common/random.h"

namespace {

// The largest single operator-new request on this thread while tracking.
// Requests beyond kRefuseBytes throw instead of reaching malloc, so a
// runaway length claim fails the test rather than exhausting memory.
constexpr std::size_t kRefuseBytes = 64u << 20;
thread_local bool g_tracking = false;
thread_local std::size_t g_largest = 0;

}  // namespace

// noinline, on the new and on every delete: inlined into one caller, GCC 12
// pairs an operator new with the std::free of an operator delete and warns of
// a mismatch (-Wmismatched-new-delete), though they are a matched
// replacement pair. The sanitizer builds inline the deletes as well.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_tracking) {
    g_largest = std::max(g_largest, size);
    if (size > kRefuseBytes) throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int kMutationsPerDecoder = 3000;

ProfileData SmallProfile(Rng& rng) {
  ProfileData profile(kMinute);
  const int writes = 1 + static_cast<int>(rng.Uniform(40));
  for (int i = 0; i < writes; ++i) {
    CountVector counts(1 + rng.Uniform(6));
    for (size_t j = 0; j < counts.size(); ++j) {
      counts[j] = static_cast<int64_t>(rng.Uniform(1000)) - 10;
    }
    EXPECT_TRUE(profile
                    .Add(kMinute * static_cast<TimestampMs>(
                                       1 + rng.Uniform(2 * 24 * 60)),
                         static_cast<SlotId>(rng.Uniform(4)),
                         static_cast<TypeId>(rng.Uniform(4)),
                         rng.Uniform(1000) + 1, counts)
                    .ok());
  }
  return profile;
}

// One mutation of `bytes`: bit flips, a truncation, or a varint at a random
// offset overwritten by a length larger than what follows it.
std::string Mutate(std::string bytes, Rng& rng) {
  switch (bytes.empty() ? 2 : rng.Uniform(3)) {
    case 0: {
      const uint64_t flips = 1 + rng.Uniform(4);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.Uniform(bytes.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
      }
      return bytes;
    }
    case 1:
      bytes.resize(rng.Uniform(bytes.size()));
      return bytes;
    default: {
      const size_t pos = rng.Uniform(bytes.size() + 1);
      const uint64_t rest = bytes.size() - pos;
      const uint64_t lies[] = {rest + 1 + rng.Uniform(64), 1u << 20, 1u << 26,
                               uint64_t{1} << 40,
                               std::numeric_limits<uint64_t>::max()};
      std::string lie;
      PutVarint64(&lie, lies[rng.Uniform(std::size(lies))]);
      const size_t replaced = std::min<size_t>(rest, 1 + rng.Uniform(3));
      bytes.replace(pos, replaced, lie);
      return bytes;
    }
  }
}

// Runs `decode` on `input` and checks the outcome. `raw_size` is the size of
// the uncompressed image behind `input`, which bounds a decode's allocations
// as much as `input` itself does.
void CheckDecode(const char* decoder, uint64_t seed, std::string_view input,
                 size_t raw_size,
                 const std::function<Status(std::string_view)>& decode) {
  const size_t bound = 64 * std::max(input.size(), raw_size) + (64u << 10);
  g_largest = 0;
  Status status;
  const auto start = std::chrono::steady_clock::now();
  g_tracking = true;
  try {
    status = decode(input);
  } catch (const std::exception& e) {
    status = Status::Internal(e.what());
  }
  g_tracking = false;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(status.ok() || status.IsCorruption())
      << decoder << " seed " << seed << ": " << status.ToString();
  EXPECT_LE(g_largest, bound)
      << decoder << " seed " << seed << ": allocated " << g_largest
      << " bytes for " << input.size() << " input bytes";
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << decoder << " seed " << seed;
}

TEST(DecodeMutationTest, MutatedProfilesDecodeOrFailCleanly) {
  std::string raw;
  std::string frame;
  for (uint64_t seed = 1; seed <= kMutationsPerDecoder; ++seed) {
    Rng rng(seed);
    EncodeProfileRaw(SmallProfile(rng), &raw);
    const std::string mutated = Mutate(raw, rng);
    BlockCompress(mutated, &frame);
    CheckDecode("DecodeProfile", seed, frame, mutated.size(),
                [](std::string_view bytes) {
                  ProfileData profile;
                  return DecodeProfile(bytes, &profile);
                });
    // The stored frame itself, header and ops included.
    BlockCompress(raw, &frame);
    CheckDecode("DecodeProfile(frame)", seed, Mutate(frame, rng), raw.size(),
                [](std::string_view bytes) {
                  ProfileData profile;
                  return DecodeProfile(bytes, &profile);
                });
  }
}

TEST(DecodeMutationTest, MutatedSlicesAndSliceMetaDecodeOrFailCleanly) {
  std::string encoded;
  for (uint64_t seed = 1; seed <= kMutationsPerDecoder; ++seed) {
    Rng rng(seed);
    const ProfileData profile = SmallProfile(rng);
    EncodeSlice(profile.slices().front(), &encoded);
    const std::string slice = Mutate(encoded, rng);
    CheckDecode("DecodeSlice", seed, slice, slice.size(),
                [](std::string_view bytes) {
                  Slice out;
                  const Status status = DecodeSlice(bytes, &out);
                  if (status.ok() && !RowsSorted(out.rows())) {
                    return Status::Internal("decoded an unsorted slice");
                  }
                  return status;
                });

    SliceMeta meta;
    meta.write_granularity_ms = kMinute;
    meta.last_action_ms = profile.LastActionMs();
    uint64_t key = 0;
    for (const Slice& s : profile.slices()) {
      meta.entries.push_back(SliceMetaEntry{key++, s.start_ms(), s.end_ms()});
    }
    EncodeSliceMeta(meta, &encoded);
    const std::string meta_bytes = Mutate(encoded, rng);
    CheckDecode("DecodeSliceMeta", seed, meta_bytes, meta_bytes.size(),
                [](std::string_view bytes) {
                  SliceMeta out;
                  return DecodeSliceMeta(bytes, &out);
                });
  }
}

TEST(DecodeMutationTest, ImplausibleWriteGranularityIsCorruption) {
  // No schema allows a granularity of zero or one negative as int64, and a
  // profile holding one breaks its slice invariants on its next write.
  for (const uint64_t granularity : {uint64_t{0}, (uint64_t{1} << 63) + 5}) {
    std::string raw;
    PutFixed32(&raw, 0x49505346);  // profile magic
    PutVarint64(&raw, granularity);
    PutVarintSigned64(&raw, 0);  // last action
    PutVarint64(&raw, 0);        // no slices
    std::string frame;
    BlockCompress(raw, &frame);
    ProfileData profile;
    EXPECT_TRUE(DecodeProfile(frame, &profile).IsCorruption()) << granularity;

    SliceMeta meta;
    meta.write_granularity_ms = static_cast<int64_t>(granularity);
    std::string encoded;
    EncodeSliceMeta(meta, &encoded);
    EXPECT_TRUE(DecodeSliceMeta(encoded, &meta).IsCorruption())
        << granularity;
  }
}

// Slice bodies written field by field: {slot, {type, {fid deltas}}}, each
// feature with one count.
struct RawType {
  uint64_t type;
  std::vector<uint64_t> fid_deltas;
};
struct RawSlot {
  uint64_t slot;
  std::vector<RawType> types;
};

std::string RawSliceBody(const std::vector<RawSlot>& slots) {
  std::string out;
  PutVarintSigned64(&out, 0);      // start
  PutVarintSigned64(&out, kMinute);  // end
  PutVarint64(&out, slots.size());
  for (const RawSlot& slot : slots) {
    PutVarint64(&out, slot.slot);
    PutVarint64(&out, slot.types.size());
    for (const RawType& type : slot.types) {
      PutVarint64(&out, type.type);
      PutVarint64(&out, type.fid_deltas.size());
      for (uint64_t delta : type.fid_deltas) {
        PutVarint64(&out, delta);
        PutVarint64(&out, 1);        // one count
        PutVarintSigned64(&out, 1);
      }
    }
  }
  return out;
}

// Decodes `slots` as a split-mode slice and as the one slice of a bulk
// profile; both must give `want` (OK or Corruption), and an OK decode
// sorted rows.
void ExpectDecodes(const std::vector<RawSlot>& slots, bool want_ok,
                   const char* what) {
  const std::string body = RawSliceBody(slots);
  Slice slice;
  const Status split = DecodeSlice(body, &slice);
  EXPECT_EQ(split.ok(), want_ok) << what << ": " << split.ToString();
  if (want_ok) {
    EXPECT_TRUE(RowsSorted(slice.rows())) << what;
  } else {
    EXPECT_TRUE(split.IsCorruption()) << what;
  }

  std::string raw;
  PutFixed32(&raw, 0x49505346);  // profile magic
  PutVarint64(&raw, kMinute);
  PutVarintSigned64(&raw, 0);
  PutVarint64(&raw, 1);
  raw += body;
  std::string frame;
  BlockCompress(raw, &frame);
  ProfileData profile;
  const Status bulk = DecodeProfile(frame, &profile);
  EXPECT_EQ(bulk.ok(), want_ok) << what << ": " << bulk.ToString();
  if (want_ok) {
    EXPECT_TRUE(profile.CheckInvariants()) << what;
  } else {
    EXPECT_TRUE(bulk.IsCorruption()) << what;
  }
}

TEST(DecodeMutationTest, UnsortedKeysAreCorruption) {
  const uint64_t kWrap = std::numeric_limits<uint64_t>::max() - 2;
  // Controls: ascending headers and fids decode, and an empty type group
  // (older encoders wrote one for a type that compaction emptied) is
  // skipped.
  ExpectDecodes({{1, {{1, {5, 4}}, {2, {1}}}}, {2, {{0, {9}}}}}, true,
                "ascending");
  ExpectDecodes({{1, {{1, {}}, {2, {3}}}}}, true, "empty type group");

  ExpectDecodes({{1, {{1, {5}}}}, {1, {{2, {1}}}}}, false, "repeated slot");
  ExpectDecodes({{2, {{1, {5}}}}, {1, {{1, {5}}}}}, false, "descending slot");
  ExpectDecodes({{1, {{1, {5}}, {1, {9}}}}}, false, "repeated type");
  ExpectDecodes({{1, {{3, {5}}, {2, {9}}}}}, false, "descending type");
  ExpectDecodes({{1, {{1, {5, 0}}}}}, false, "repeated fid");
  ExpectDecodes({{1, {{1, {5, kWrap}}}}}, false, "descending (wrapped) fid");
  ExpectDecodes({{uint64_t{1} << 32, {{1, {5}}}}}, false, "slot past 32 bits");
  ExpectDecodes({{1, {{uint64_t{1} << 32, {5}}}}}, false, "type past 32 bits");
}

}  // namespace
}  // namespace ips
