#include "server/persistence.h"

#include <algorithm>
#include <charconv>
#include <optional>

#include "common/hash.h"
#include "common/trace.h"

#include "codec/compress.h"

namespace ips {

namespace {

// Encode working buffers reused across flushes on the same thread. The
// store path re-encodes every flushed profile, so the buffers keep their
// high-water capacity between calls.
struct PersistScratch {
  std::string raw;         // uncompressed profile/slice encoding
  std::string compressed;  // compressed image before it is kept or skipped
};

PersistScratch& Scratch() {
  thread_local PersistScratch scratch;
  return scratch;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

}  // namespace

Persister::Persister(std::string table_name, KvStore* kv,
                     PersisterOptions options)
    : table_name_(std::move(table_name)), kv_(kv), options_(options) {
  if (options_.metrics != nullptr) {
    zero_copy_decodes_ = options_.metrics->GetCounter("codec.zero_copy_decodes");
  }
}

std::string Persister::BulkKey(ProfileId pid) const {
  std::string key;
  key.reserve(table_name_.size() + 23);
  key += table_name_;
  key += "/p/";
  AppendU64(&key, pid);
  return key;
}

std::string Persister::MetaKey(ProfileId pid) const {
  std::string key;
  key.reserve(table_name_.size() + 23);
  key += table_name_;
  key += "/m/";
  AppendU64(&key, pid);
  return key;
}

std::string Persister::SliceKey(ProfileId pid, uint64_t slice_key) const {
  std::string key;
  key.reserve(table_name_.size() + 44);
  key += table_name_;
  key += "/s/";
  AppendU64(&key, pid);
  key += '/';
  AppendU64(&key, slice_key);
  return key;
}

KvVersion Persister::HeldVersion(ProfileId pid) {
  std::lock_guard<std::mutex> lock(version_mu_);
  auto it = held_versions_.find(pid);
  return it == held_versions_.end() ? 0 : it->second;
}

void Persister::RememberVersion(ProfileId pid, KvVersion version) {
  std::lock_guard<std::mutex> lock(version_mu_);
  held_versions_[pid] = version;
}

void Persister::ForgetVersion(ProfileId pid) {
  std::lock_guard<std::mutex> lock(version_mu_);
  held_versions_.erase(pid);
}

void Persister::ForgetFlushState(ProfileId pid) {
  std::lock_guard<std::mutex> lock(version_mu_);
  held_versions_.erase(pid);
  last_slices_.erase(pid);
}

Status Persister::Flush(ProfileId pid, const ProfileData& profile) {
  return StoreBatch({pid}, {&profile})[0];
}

std::vector<Status> Persister::StoreBatch(
    const std::vector<ProfileId>& pids,
    const std::vector<const ProfileData*>& profiles) {
  std::vector<Status> out(pids.size(), Status::OK());
  if (profiles.size() != pids.size()) {
    out.assign(pids.size(),
               Status::InvalidArgument("StoreBatch pids/profiles mismatch"));
    return out;
  }

  struct Pending {
    size_t index = 0;
    bool split = false;
    bool retire_meta = false;  // threshold-bulk: split leftovers to retire
    size_t first_key = 0;      // offset of this profile's values in `keys`
    size_t num_keys = 0;
    std::string meta_value;
    std::unordered_map<uint64_t, uint32_t> prior;
    std::unordered_map<uint64_t, uint32_t> new_sums;
  };

  // Prepare: encode every profile's changed values into one key/value batch.
  // Fig 14 ordering survives batching because no meta is written until the
  // whole value batch has been applied.
  std::vector<Pending> pending;
  pending.reserve(pids.size());
  std::vector<std::string> keys;
  std::vector<std::string> vals;
  PersistScratch& scratch = Scratch();
  for (size_t i = 0; i < pids.size(); ++i) {
    const ProfileData& profile = *profiles[i];
    Pending p;
    p.index = i;
    // One encode serves both the split-threshold test and the stored bytes
    // (the raw image used to be produced twice: once by the size probe, once
    // by EncodeProfile).
    const bool threshold_mode =
        options_.mode == PersistenceMode::kSliceSplit &&
        options_.split_threshold_bytes > 0;
    const bool need_raw = options_.mode == PersistenceMode::kBulk ||
                          threshold_mode;
    if (need_raw) EncodeProfileRaw(profile, &scratch.raw);
    const bool bulk =
        options_.mode == PersistenceMode::kBulk ||
        (threshold_mode &&
         scratch.raw.size() < options_.split_threshold_bytes);
    if (bulk) {
      // Small profiles in split mode keep the bulk representation; any split
      // leftovers must be retired so a later load cannot observe a stale
      // meta shadowing the fresh bulk value.
      p.retire_meta = options_.mode == PersistenceMode::kSliceSplit;
      p.first_key = keys.size();
      p.num_keys = 1;
      keys.push_back(BulkKey(pids[i]));
      vals.emplace_back();
      BlockCompress(scratch.raw, &vals.back());
      pending.push_back(std::move(p));
      continue;
    }

    p.split = true;
    SliceMeta meta;
    meta.write_granularity_ms = profile.write_granularity_ms();
    meta.last_action_ms = profile.LastActionMs();
    {
      std::lock_guard<std::mutex> lock(version_mu_);
      auto it = last_slices_.find(pids[i]);
      if (it != last_slices_.end()) p.prior = it->second;
    }
    // Only changed slices are rewritten — the granularity benefit the slice
    // split exists for: steady-state traffic touches the newest slice, so a
    // flush ships one slice value plus the meta instead of the whole
    // profile.
    p.first_key = keys.size();
    for (const auto& slice : profile.slices()) {
      SliceMetaEntry entry;
      entry.slice_key = static_cast<uint64_t>(slice.start_ms());
      entry.start_ms = slice.start_ms();
      entry.end_ms = slice.end_ms();
      meta.entries.push_back(entry);

      // Encode + compress in the reused scratch buffers; only slices that
      // actually changed pay for an owned copy into the value batch. In
      // steady state most slices are unchanged, so most iterations are
      // allocation-free.
      EncodeSlice(slice, &scratch.raw);
      BlockCompress(scratch.raw, &scratch.compressed);
      const uint32_t sum =
          Checksum32(scratch.compressed.data(), scratch.compressed.size());
      p.new_sums[entry.slice_key] = sum;
      auto prior_it = p.prior.find(entry.slice_key);
      if (prior_it != p.prior.end() && prior_it->second == sum) {
        continue;  // unchanged since the last successful flush
      }
      keys.push_back(SliceKey(pids[i], entry.slice_key));
      vals.push_back(scratch.compressed);
    }
    p.num_keys = keys.size() - p.first_key;
    EncodeSliceMeta(meta, &p.meta_value);
    pending.push_back(std::move(p));
  }

  // One round trip for every changed value in the batch.
  std::vector<Status> statuses;
  if (!keys.empty()) kv_->MultiSet(keys, vals, &statuses);

  // Commit: per-profile meta updates and cleanup, only where values landed.
  for (auto& p : pending) {
    Status failed = Status::OK();
    for (size_t k = p.first_key; k < p.first_key + p.num_keys; ++k) {
      if (!statuses[k].ok()) {
        failed = statuses[k];
        break;
      }
    }
    if (!failed.ok()) {
      // Old meta / old bookkeeping stay in place: the slices that did land
      // get rewritten by the next flush (their checksum no longer matches
      // the remembered one).
      out[p.index] = failed;
      continue;
    }
    if (!p.split) {
      if (p.retire_meta) {
        std::string ignored;
        if (kv_->Get(MetaKey(pids[p.index]), &ignored).ok()) {
          Status del = kv_->Delete(MetaKey(pids[p.index]));
          if (!del.ok()) {
            out[p.index] = del;
            continue;
          }
          ForgetVersion(pids[p.index]);
        }
      }
      continue;
    }
    out[p.index] = CommitSplitMeta(pids[p.index], p.meta_value, p.prior,
                                   std::move(p.new_sums));
  }
  return out;
}

Status Persister::CommitSplitMeta(
    ProfileId pid, const std::string& meta_value,
    const std::unordered_map<uint64_t, uint32_t>& prior,
    std::unordered_map<uint64_t, uint32_t> new_sums) {
  // Version-checked meta update; a mismatch means another node wrote this
  // profile since we last loaded, so refresh the version and retry once.
  KvVersion held = HeldVersion(pid);
  KvVersion new_version = 0;
  Status status = kv_->XSet(MetaKey(pid), meta_value, held, &new_version);
  if (status.IsAborted()) {
    KvEntry current;
    Status get_status = kv_->XGet(MetaKey(pid), &current);
    KvVersion refreshed = 0;
    if (get_status.ok()) {
      refreshed = current.version;
    } else if (!get_status.IsNotFound()) {
      return get_status;
    }
    status = kv_->XSet(MetaKey(pid), meta_value, refreshed, &new_version);
  }
  IPS_RETURN_IF_ERROR(status);
  RememberVersion(pid, new_version);

  // Garbage-collect slice values no longer referenced (compacted/truncated
  // away). Done after the meta switch so readers never dangle.
  std::vector<uint64_t> stale;
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    for (const auto& [key, sum] : prior) {
      if (new_sums.find(key) == new_sums.end()) stale.push_back(key);
    }
    last_slices_[pid] = std::move(new_sums);
  }
  for (uint64_t key : stale) {
    kv_->Delete(SliceKey(pid, key)).ok();  // best effort
  }

  // The bulk representation, if any, is now stale.
  std::string ignored;
  if (kv_->Get(BulkKey(pid), &ignored).ok()) {
    kv_->Delete(BulkKey(pid)).ok();
  }
  return Status::OK();
}

Result<ProfileData> Persister::Load(ProfileId pid, bool* out_degraded) {
  std::vector<bool> degraded;
  std::vector<Result<ProfileData>> out = LoadBatch({pid}, &degraded);
  if (out_degraded != nullptr) *out_degraded = degraded[0];
  return std::move(out[0]);
}

std::vector<Result<ProfileData>> Persister::LoadBatch(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded) {
  return DecodeBatch(FetchBatch(pids), out_degraded);
}

std::vector<FetchedProfile> Persister::FetchBatch(
    const std::vector<ProfileId>& pids) {
  std::vector<FetchedProfile> out =
      FetchFrom(kv_, pids, /*record_bookkeeping=*/true);
  if (options_.fallback_kv == nullptr) return out;

  // Primary-store outages are retried as one batch against the fallback
  // replica (keeping the coalesced round-trip shape even while degraded).
  // The scan is storage read-path work; it reports as kv.load.
  std::optional<ScopedSpan> glue_span;
  glue_span.emplace("kv.load");
  std::vector<size_t> retry_index;
  std::vector<ProfileId> retry_pids;
  for (size_t i = 0; i < pids.size(); ++i) {
    if (out[i].status.IsUnavailable()) {
      retry_index.push_back(i);
      retry_pids.push_back(pids[i]);
    }
  }
  if (retry_pids.empty()) return out;

  glue_span.reset();
  std::vector<FetchedProfile> fallback =
      FetchFrom(options_.fallback_kv, retry_pids,
                /*record_bookkeeping=*/false);
  glue_span.emplace("kv.load");
  for (size_t j = 0; j < retry_pids.size(); ++j) {
    // Only a successful fallback read replaces the primary error: NotFound
    // on a lagging replica proves nothing, so the caller gets the primary's
    // outage rather than a false "no such profile". Replica state must not
    // gate future master flushes, so the next flush rewrites everything.
    if (!fallback[j].status.ok()) continue;
    FetchedProfile& slot = out[retry_index[j]];
    fallback[j].degraded = true;
    fallback[j].primary_status = std::move(slot.status);
    slot = std::move(fallback[j]);
    ForgetFlushState(retry_pids[j]);
  }
  return out;
}

std::vector<Result<ProfileData>> Persister::DecodeBatch(
    const std::vector<FetchedProfile>& fetched,
    std::vector<bool>* out_degraded) {
  // Checksum + uncompress + decode of every frame is codec work.
  ScopedSpan decode_span("codec.decode");
  if (out_degraded != nullptr) out_degraded->assign(fetched.size(), false);
  std::vector<Result<ProfileData>> out;
  out.reserve(fetched.size());
  uint64_t zero_copy = 0;
  for (size_t i = 0; i < fetched.size(); ++i) {
    const FetchedProfile& f = fetched[i];
    if (!f.status.ok()) {
      out.emplace_back(f.status);
      continue;
    }
    ProfileData profile;
    Status decoded = DecodeFetchedProfile(f, &profile, &zero_copy);
    if (!decoded.ok()) {
      out.emplace_back(f.degraded ? f.primary_status : decoded);
      continue;
    }
    out.emplace_back(std::move(profile));
    if (out_degraded != nullptr) (*out_degraded)[i] = f.degraded;
  }
  if (zero_copy_decodes_ != nullptr && zero_copy > 0) {
    zero_copy_decodes_->Increment(static_cast<int64_t>(zero_copy));
  }
  return out;
}

std::vector<FetchedProfile> Persister::FetchFrom(
    KvStore* kv, const std::vector<ProfileId>& pids,
    bool record_bookkeeping) {
  std::vector<FetchedProfile> out(pids.size());

  if (options_.mode == PersistenceMode::kBulk) {
    std::vector<std::string> keys;
    {
      // Key marshaling is part of the KV read path; spanned separately so
      // the work never nests inside the store's own kv.load span.
      ScopedSpan prep_span("kv.load");
      keys.reserve(pids.size());
      for (ProfileId pid : pids) keys.push_back(BulkKey(pid));
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    kv->MultiGet(keys, &values, &statuses);
    for (size_t i = 0; i < pids.size(); ++i) {
      out[i].status = std::move(statuses[i]);
      out[i].bulk = std::move(values[i]);
    }
    return out;
  }

  // Slice-split mode: metas go through XGet (the version bookkeeping of the
  // Fig 14 protocol needs them individually), then every referenced slice
  // value across ALL profiles — plus bulk fallbacks for profiles without a
  // meta — is fetched with a single MultiGet.
  std::vector<size_t> first_key(pids.size(), 0);
  std::vector<std::string> keys;
  for (size_t i = 0; i < pids.size(); ++i) {
    FetchedProfile& f = out[i];
    first_key[i] = keys.size();
    KvEntry meta_entry;
    Status status = kv->XGet(MetaKey(pids[i]), &meta_entry);
    if (status.ok()) {
      if (record_bookkeeping) RememberVersion(pids[i], meta_entry.version);
      f.split = true;
      f.status = DecodeSliceMeta(meta_entry.value, &f.meta);
      if (!f.status.ok()) continue;
      for (const auto& entry : f.meta.entries) {
        keys.push_back(SliceKey(pids[i], entry.slice_key));
      }
    } else if (status.IsNotFound()) {
      keys.push_back(BulkKey(pids[i]));
    } else {
      f.status = std::move(status);
    }
  }

  std::vector<std::string> values;
  std::vector<Status> statuses;
  if (!keys.empty()) kv->MultiGet(keys, &values, &statuses);

  for (size_t i = 0; i < pids.size(); ++i) {
    FetchedProfile& f = out[i];
    if (!f.status.ok()) continue;
    const size_t k = first_key[i];
    if (!f.split) {
      f.status = std::move(statuses[k]);
      f.bulk = std::move(values[k]);
      continue;
    }
    // A profile whose slice values did not all arrive fails with the first
    // missing one. Otherwise the checksums of the values read become the
    // slice bookkeeping: the next flush rewrites only slices that differ.
    std::unordered_map<uint64_t, uint32_t> loaded_sums;
    loaded_sums.reserve(f.meta.entries.size());
    f.slices.reserve(f.meta.entries.size());
    for (size_t e = 0; e < f.meta.entries.size(); ++e) {
      if (!statuses[k + e].ok()) {
        f.status = std::move(statuses[k + e]);
        break;
      }
      std::string& value = f.slices.emplace_back(std::move(values[k + e]));
      loaded_sums[f.meta.entries[e].slice_key] =
          Checksum32(value.data(), value.size());
    }
    if (f.status.ok() && record_bookkeeping) {
      std::lock_guard<std::mutex> lock(version_mu_);
      last_slices_[pids[i]] = std::move(loaded_sums);
    }
  }
  return out;
}

Status Persister::Erase(ProfileId pid) {
  IPS_RETURN_IF_ERROR(kv_->Delete(BulkKey(pid)));
  KvEntry meta_entry;
  Status status = kv_->XGet(MetaKey(pid), &meta_entry);
  if (status.IsNotFound()) return Status::OK();
  IPS_RETURN_IF_ERROR(status);
  SliceMeta meta;
  IPS_RETURN_IF_ERROR(DecodeSliceMeta(meta_entry.value, &meta));
  for (const auto& entry : meta.entries) {
    IPS_RETURN_IF_ERROR(kv_->Delete(SliceKey(pid, entry.slice_key)));
  }
  IPS_RETURN_IF_ERROR(kv_->Delete(MetaKey(pid)));
  ForgetVersion(pid);
  std::lock_guard<std::mutex> lock(version_mu_);
  last_slices_.erase(pid);
  return Status::OK();
}

}  // namespace ips
