#include "codec/profile_codec.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

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

// The number of slots (key SlotKey) or groups (GroupKey) in `rows`.
template <typename Key>
size_t CountRuns(RowSpan rows, Key key) {
  size_t runs = 0;
  ForEachRun(rows, key, [&](RowSpan) { ++runs; });
  return runs;
}

// Walks the sorted rows once per level: slot headers, type headers, then
// each type's delta-encoded fids with their counts. The rows' order is the
// byte order the format always had (ascending slots, types and fids).
void EncodeSliceBody(const Slice& slice, std::string* out) {
  PutVarintSigned64(out, slice.start_ms());
  PutVarintSigned64(out, slice.end_ms());
  PutVarint64(out, CountRuns(slice.rows(), SlotKey));
  ForEachRun(slice.rows(), SlotKey, [&](RowSpan slot_rows) {
    PutVarint64(out, slot_rows.front().slot);
    PutVarint64(out, CountRuns(slot_rows, GroupKey));
    ForEachRun(slot_rows, GroupKey, [&](RowSpan group) {
      PutVarint64(out, group.front().type);
      PutVarint64(out, group.size());
      // Delta-encode the sorted fids: adjacency compresses hashed ids poorly
      // but costs nothing, and production fids are often dense per type.
      FeatureId prev = 0;
      for (const FeatureRow& row : group) {
        PutVarint64(out, row.fid - prev);
        prev = row.fid;
        EncodeCounts(row.counts, out);
      }
    });
  });
}

// Reads one id of a slot or type header: it must fit 32 bits and, after
// the first header of its level, exceed the previous one.
bool GetAscendingId(Decoder* dec, bool first, uint32_t* id) {
  uint64_t value;
  if (!dec->GetVarint64(&value) ||
      value > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  if (!first && value <= *id) return false;
  *id = static_cast<uint32_t>(value);
  return true;
}

// The rows of one slice as DecodeSliceBody reads them: keys, and each row's
// counts as a range of one flat array. Plain values, so staging a row costs
// no count-vector bookkeeping; each FeatureRow is then built once, in place.
struct StagedRows {
  struct Row {
    SlotId slot;
    TypeId type;
    FeatureId fid;
    size_t first_count;
    size_t num_counts;
  };
  std::vector<Row> rows;
  std::vector<int64_t> counts;
};

StagedRows& Staging() {
  thread_local StagedRows staging;
  return staging;
}

// Decodes the rows into `staging`, rejecting any key that is not strictly
// ascending (repeated or descending slot, type or fid), then builds them in
// the slice (which must hold no rows) with one exactly sized allocation.
// Works on a local copy of the decoder, so its cursor stays in registers.
bool DecodeSliceBody(Decoder* in, StagedRows& staging, Slice* slice) {
  Decoder local = *in;
  Decoder* dec = &local;
  int64_t start, end;
  if (!dec->GetVarintSigned64(&start) || !dec->GetVarintSigned64(&end)) {
    return false;
  }
  slice->set_range(start, end);
  staging.rows.clear();
  staging.counts.clear();
  uint64_t num_slots;
  if (!dec->GetVarint64(&num_slots)) return false;
  SlotId slot = 0;
  for (uint64_t s = 0; s < num_slots; ++s) {
    uint64_t num_types;
    if (!GetAscendingId(dec, s == 0, &slot) ||
        !dec->GetVarint64(&num_types)) {
      return false;
    }
    TypeId type = 0;
    for (uint64_t t = 0; t < num_types; ++t) {
      uint64_t n;
      if (!GetAscendingId(dec, t == 0, &type) || !dec->GetVarint64(&n)) {
        return false;
      }
      // Each entry takes two bytes at least (fid delta, count length), so
      // the staging buffer stays proportional to the input whatever the
      // header claims.
      if (n > dec->Remaining() / 2) return false;
      FeatureId fid = 0;
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t delta, num_counts;
        if (!dec->GetVarint64(&delta)) return false;
        // A zero delta after the first fid repeats it; a wrap descends.
        if ((i > 0 && delta == 0) || fid + delta < fid) return false;
        fid += delta;
        // Each count takes a byte at least, so a corrupt length cannot
        // force an allocation larger than the input.
        if (!dec->GetVarint64(&num_counts) ||
            num_counts > dec->Remaining()) {
          return false;
        }
        staging.rows.push_back(
            {slot, type, fid, staging.counts.size(), num_counts});
        for (uint64_t c = 0; c < num_counts; ++c) {
          int64_t value;
          if (!dec->GetVarintSigned64(&value)) return false;
          staging.counts.push_back(value);
        }
      }
    }
  }
  std::vector<FeatureRow>& rows = slice->mutable_rows();
  rows.reserve(staging.rows.size());
  for (const StagedRows::Row& staged : staging.rows) {
    FeatureRow& row = rows.emplace_back();
    row.slot = staged.slot;
    row.type = staged.type;
    row.fid = staged.fid;
    row.counts.Resize(staged.num_counts);
    std::copy_n(staging.counts.data() + staged.first_count,
                staged.num_counts, row.counts.data());
  }
  *in = local;
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
  if (!DecodeSliceBody(&dec, Staging(), slice) || !dec.Empty()) {
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
  // Each slice takes three bytes at least (start, end, slot count).
  if (num_slices > dec.Remaining() / 3) {
    return Status::Corruption("implausible slice count");
  }
  if (!PlausibleGranularity(granularity)) {
    return Status::Corruption("implausible write granularity");
  }
  *profile = ProfileData(static_cast<int64_t>(granularity));
  profile->set_last_action_ms(last_action);
  std::vector<Slice>& slices = profile->mutable_slices();
  slices.reserve(num_slices);
  StagedRows& staging = Staging();
  for (uint64_t i = 0; i < num_slices; ++i) {
    if (!DecodeSliceBody(&dec, staging, &slices.emplace_back())) {
      return Status::Corruption("malformed slice in profile");
    }
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

Status DecodeFetchedProfile(const FetchedProfile& fetched,
                            ProfileData* profile, uint64_t* zero_copy) {
  bool aliased = false;
  if (!fetched.split) {
    IPS_RETURN_IF_ERROR(DecodeProfile(fetched.bulk, profile, &aliased));
    if (aliased && zero_copy != nullptr) ++*zero_copy;
    return Status::OK();
  }
  const SliceMeta& meta = fetched.meta;
  if (fetched.slices.size() != meta.entries.size()) {
    return Status::Corruption("slice frames do not match the slice meta");
  }
  *profile = ProfileData(meta.write_granularity_ms);
  profile->set_last_action_ms(meta.last_action_ms);
  // Raw-stored frames decode straight off the fetched value (no copy of the
  // uncompressed image); compressed ones land in the reused scratch.
  thread_local std::string scratch;
  std::vector<Slice>& slices = profile->mutable_slices();
  slices.reserve(meta.entries.size());
  for (const std::string& frame : fetched.slices) {
    std::string_view raw;
    IPS_RETURN_IF_ERROR(BlockUncompressView(frame, &scratch, &raw, &aliased));
    if (aliased && zero_copy != nullptr) ++*zero_copy;
    IPS_RETURN_IF_ERROR(DecodeSlice(raw, &slices.emplace_back()));
  }
  if (!profile->CheckInvariants()) {
    return Status::Corruption("loaded profile violates slice invariants");
  }
  profile->RecomputeBytes();  // slices were attached directly
  return Status::OK();
}

size_t EncodedProfileSizeUncompressed(const ProfileData& profile) {
  thread_local std::string raw;
  EncodeProfileRaw(profile, &raw);
  return raw.size();
}

}  // namespace ips
