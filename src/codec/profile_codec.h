// Profile (de)serialization for persistence (Section III-E).
//
// Two granularities are supported, matching the paper:
//  * Bulk mode (Fig 12): the whole ProfileData is encoded hierarchically,
//    compressed, and stored under the profile id.
//  * Fine-grained mode (Fig 13): each slice is encoded and stored as its own
//    value; a compact SliceMeta record lists the slice keys, ranges and a
//    generation number for the version-controlled consistency protocol of
//    Fig 14.
#ifndef IPS_CODEC_PROFILE_CODEC_H_
#define IPS_CODEC_PROFILE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/profile_data.h"
#include "core/slice.h"

namespace ips {

/// Encodes one slice (interval + all slot/type/feature stats).
void EncodeSlice(const Slice& slice, std::string* out);
/// Decodes a slice; Corruption on malformed input.
Status DecodeSlice(std::string_view data, Slice* slice);

/// Encodes the whole profile (bulk mode) and compresses it.
void EncodeProfile(const ProfileData& profile, std::string* out);

/// Encodes the whole profile WITHOUT the compression stage, into `*raw`
/// (replacing its contents, retaining its capacity). Callers that need both
/// the uncompressed size and the stored bytes (the persister's split-mode
/// threshold test) encode once with this and BlockCompress the result,
/// instead of paying the encode walk twice.
void EncodeProfileRaw(const ProfileData& profile, std::string* raw);

/// Decodes a compressed bulk-mode profile.
Status DecodeProfile(std::string_view data, ProfileData* profile);

/// DecodeProfile, reporting whether the uncompressed bytes were aliased
/// straight out of `data` (raw-stored frame, zero copy) rather than
/// decompressed into a scratch buffer. Either way `*profile` owns all of its
/// storage — only the intermediate uncompressed image may alias.
Status DecodeProfile(std::string_view data, ProfileData* profile,
                     bool* out_zero_copy);

/// Metadata describing one persisted slice in fine-grained mode.
struct SliceMetaEntry {
  /// Key suffix of the slice value in the KV store.
  uint64_t slice_key = 0;
  TimestampMs start_ms = 0;
  TimestampMs end_ms = 0;
};

/// The slice-meta value (Fig 13): an ordered list of slice entries plus the
/// profile-level attributes needed to reconstruct ProfileData.
struct SliceMeta {
  int64_t write_granularity_ms = 60'000;
  TimestampMs last_action_ms = 0;
  std::vector<SliceMetaEntry> entries;  // newest first
};

void EncodeSliceMeta(const SliceMeta& meta, std::string* out);
Status DecodeSliceMeta(std::string_view data, SliceMeta* meta);

/// One profile's stored bytes as a load fetched them, before any decode: a
/// bulk frame, or (slice-split mode) the slice meta and one frame per meta
/// entry. Decoding is a pure function of these bytes: Persister::LoadBatch
/// fetches a batch (FetchBatch), then decodes it (DecodeBatch).
struct FetchedProfile {
  /// The fetch outcome; the bytes below mean something only when OK.
  Status status;
  bool split = false;
  /// Bulk frame (split == false).
  std::string bulk;
  /// Slice meta and frames, aligned with meta.entries (split == true).
  SliceMeta meta;
  std::vector<std::string> slices;
  /// Served by a fallback replica while the primary store was unavailable.
  /// `primary_status` keeps the primary's error: a decode that fails on the
  /// replica's bytes reports it, since a bad replica proves nothing about
  /// the profile.
  bool degraded = false;
  Status primary_status;
};

/// Decodes a fetch whose status is OK into `*profile`. Corruption on any
/// malformed frame or a profile that breaks the slice invariants.
/// `zero_copy`, when non-null, counts the frames decoded without a copy of
/// their uncompressed image.
Status DecodeFetchedProfile(const FetchedProfile& fetched,
                            ProfileData* profile, uint64_t* zero_copy);

/// Uncompressed encoded size of a profile, handy for the paper's ~40 KB
/// serialized-profile observations in benches. Encodes into a thread-local
/// scratch buffer; prefer EncodeProfileRaw when the bytes are needed too.
size_t EncodedProfileSizeUncompressed(const ProfileData& profile);

}  // namespace ips

#endif  // IPS_CODEC_PROFILE_CODEC_H_
