#include "codec/profile_codec.h"

#include <limits>
#include <map>

#include "codec/coding.h"
#include "codec/compress.h"

namespace ips {

namespace {

constexpr uint32_t kProfileMagic = 0x49505346;  // "IPSF"
constexpr uint32_t kSliceMetaMagic = 0x49505349;

// Table schemas require a positive write granularity: zero, or a value that
// turns negative as int64, can only come from corrupt bytes, and a profile
// holding it builds empty or inverted slices on its next write.
bool PlausibleGranularity(uint64_t granularity) {
  return granularity > 0 &&
         granularity <=
             static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
}

void EncodeCounts(const CountVector& counts, std::string* out) {
  PutVarint64(out, counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    PutVarintSigned64(out, counts[i]);
  }
}

bool DecodeCounts(Decoder* dec, CountVector* counts) {
  uint64_t n;
  if (!dec->GetVarint64(&n)) return false;
  // Each count takes a byte at least, so a corrupt length cannot force an
  // allocation larger than the input.
  if (n > dec->Remaining()) return false;
  counts->Resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t v;
    if (!dec->GetVarintSigned64(&v)) return false;
    (*counts)[i] = v;
  }
  return true;
}

void EncodeStats(const IndexedFeatureStats& stats, std::string* out) {
  PutVarint64(out, stats.size());
  // Delta-encode the sorted fids: adjacency compresses hashed ids poorly but
  // costs nothing, and production fids are often dense per type.
  FeatureId prev = 0;
  for (const auto& stat : stats.stats()) {
    PutVarint64(out, stat.fid - prev);
    prev = stat.fid;
    EncodeCounts(stat.counts, out);
  }
}

bool DecodeStats(Decoder* dec, IndexedFeatureStats* stats) {
  uint64_t n;
  if (!dec->GetVarint64(&n)) return false;
  // Each entry takes two bytes at least (fid delta, count length), so the
  // reservation stays proportional to the input whatever the header claims.
  if (n > dec->Remaining() / 2) return false;
  stats->Reserve(static_cast<size_t>(n));
  FeatureId prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta;
    if (!dec->GetVarint64(&delta)) return false;
    FeatureStat stat;
    stat.fid = prev + delta;
    // Deltas of zero would break strict ordering except for the first entry.
    if (i > 0 && delta == 0) return false;
    prev = stat.fid;
    if (!DecodeCounts(dec, &stat.counts)) return false;
    stats->AppendSortedUnchecked(std::move(stat));
  }
  return true;
}

void EncodeSliceBody(const Slice& slice, std::string* out) {
  PutVarintSigned64(out, slice.start_ms());
  PutVarintSigned64(out, slice.end_ms());
  // Deterministic order: sort slot and type ids.
  std::map<SlotId, const InstanceSet*> slots;
  for (const auto& [slot, set] : slice.slots()) slots[slot] = &set;
  PutVarint64(out, slots.size());
  for (const auto& [slot, set] : slots) {
    PutVarint64(out, slot);
    std::map<TypeId, const IndexedFeatureStats*> types;
    for (const auto& [type, stats] : set->types()) types[type] = &stats;
    PutVarint64(out, types.size());
    for (const auto& [type, stats] : types) {
      PutVarint64(out, type);
      EncodeStats(*stats, out);
    }
  }
}

bool DecodeSliceBody(Decoder* dec, Slice* slice) {
  int64_t start, end;
  if (!dec->GetVarintSigned64(&start) || !dec->GetVarintSigned64(&end)) {
    return false;
  }
  slice->set_range(start, end);
  uint64_t num_slots;
  if (!dec->GetVarint64(&num_slots)) return false;
  if (num_slots > 1u << 20) return false;
  for (uint64_t s = 0; s < num_slots; ++s) {
    uint64_t slot, num_types;
    if (!dec->GetVarint64(&slot) || !dec->GetVarint64(&num_types)) {
      return false;
    }
    if (num_types > 1u << 20) return false;
    InstanceSet& set =
        slice->mutable_slots()[static_cast<SlotId>(slot)];
    for (uint64_t t = 0; t < num_types; ++t) {
      uint64_t type;
      if (!dec->GetVarint64(&type)) return false;
      IndexedFeatureStats& stats =
          set.mutable_types()[static_cast<TypeId>(type)];
      if (!DecodeStats(dec, &stats)) return false;
    }
  }
  return true;
}

}  // namespace

void EncodeSlice(const Slice& slice, std::string* out) {
  out->clear();
  EncodeSliceBody(slice, out);
}

Status DecodeSlice(std::string_view data, Slice* slice) {
  *slice = Slice();
  Decoder dec(data);
  if (!DecodeSliceBody(&dec, slice) || !dec.Empty()) {
    return Status::Corruption("malformed slice encoding");
  }
  return Status::OK();
}

void EncodeProfileRaw(const ProfileData& profile, std::string* raw) {
  raw->clear();
  PutFixed32(raw, kProfileMagic);
  PutVarint64(raw, profile.write_granularity_ms());
  PutVarintSigned64(raw, profile.LastActionMs());
  PutVarint64(raw, profile.SliceCount());
  for (const auto& slice : profile.slices()) {
    EncodeSliceBody(slice, raw);
  }
}

void EncodeProfile(const ProfileData& profile, std::string* out) {
  // Thread-local staging buffer: steady-state encodes reuse one heap block
  // at its high-water capacity instead of rebuilding `raw` per call.
  thread_local std::string raw;
  EncodeProfileRaw(profile, &raw);
  BlockCompress(raw, out);
}

Status DecodeProfile(std::string_view data, ProfileData* profile) {
  return DecodeProfile(data, profile, nullptr);
}

Status DecodeProfile(std::string_view data, ProfileData* profile,
                     bool* out_zero_copy) {
  thread_local std::string scratch;
  std::string_view raw;
  IPS_RETURN_IF_ERROR(BlockUncompressView(data, &scratch, &raw, out_zero_copy));
  Decoder dec(raw);
  uint32_t magic;
  if (!dec.GetFixed32(&magic) || magic != kProfileMagic) {
    return Status::Corruption("bad profile magic");
  }
  uint64_t granularity;
  int64_t last_action;
  uint64_t num_slices;
  if (!dec.GetVarint64(&granularity) ||
      !dec.GetVarintSigned64(&last_action) ||
      !dec.GetVarint64(&num_slices)) {
    return Status::Corruption("truncated profile header");
  }
  if (num_slices > 1u << 24) {
    return Status::Corruption("implausible slice count");
  }
  if (!PlausibleGranularity(granularity)) {
    return Status::Corruption("implausible write granularity");
  }
  *profile = ProfileData(static_cast<int64_t>(granularity));
  profile->set_last_action_ms(last_action);
  for (uint64_t i = 0; i < num_slices; ++i) {
    Slice slice;
    if (!DecodeSliceBody(&dec, &slice)) {
      return Status::Corruption("malformed slice in profile");
    }
    profile->mutable_slices().push_back(std::move(slice));
  }
  if (!dec.Empty()) {
    return Status::Corruption("trailing bytes after profile");
  }
  if (!profile->CheckInvariants()) {
    return Status::Corruption("decoded profile violates slice invariants");
  }
  profile->RecomputeBytes();  // slices were attached directly
  return Status::OK();
}

void EncodeSliceMeta(const SliceMeta& meta, std::string* out) {
  out->clear();
  PutFixed32(out, kSliceMetaMagic);
  PutVarint64(out, meta.write_granularity_ms);
  PutVarintSigned64(out, meta.last_action_ms);
  PutVarint64(out, meta.entries.size());
  for (const auto& e : meta.entries) {
    PutVarint64(out, e.slice_key);
    PutVarintSigned64(out, e.start_ms);
    PutVarintSigned64(out, e.end_ms);
  }
}

Status DecodeSliceMeta(std::string_view data, SliceMeta* meta) {
  Decoder dec(data);
  uint32_t magic;
  if (!dec.GetFixed32(&magic) || magic != kSliceMetaMagic) {
    return Status::Corruption("bad slice-meta magic");
  }
  uint64_t granularity, num;
  int64_t last_action;
  if (!dec.GetVarint64(&granularity) ||
      !dec.GetVarintSigned64(&last_action) || !dec.GetVarint64(&num)) {
    return Status::Corruption("truncated slice-meta header");
  }
  // Each entry takes three bytes at least.
  if (num > dec.Remaining() / 3) {
    return Status::Corruption("implausible entry count");
  }
  if (!PlausibleGranularity(granularity)) {
    return Status::Corruption("implausible write granularity");
  }
  meta->write_granularity_ms = static_cast<int64_t>(granularity);
  meta->last_action_ms = last_action;
  meta->entries.clear();
  meta->entries.reserve(num);
  for (uint64_t i = 0; i < num; ++i) {
    SliceMetaEntry e;
    if (!dec.GetVarint64(&e.slice_key) ||
        !dec.GetVarintSigned64(&e.start_ms) ||
        !dec.GetVarintSigned64(&e.end_ms)) {
      return Status::Corruption("truncated slice-meta entry");
    }
    meta->entries.push_back(e);
  }
  if (!dec.Empty()) return Status::Corruption("trailing bytes in slice-meta");
  return Status::OK();
}

size_t EncodedProfileSizeUncompressed(const ProfileData& profile) {
  thread_local std::string raw;
  EncodeProfileRaw(profile, &raw);
  return raw.size();
}

}  // namespace ips
