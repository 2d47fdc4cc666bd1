// Profile persistence strategies (Section III-E).
//
// Bulk mode (Fig 12): the whole profile is serialized, compressed and stored
// under one key. Simple, but very large profiles make every flush/load pay
// serialization and network cost proportional to the full profile.
//
// Slice-split mode (Fig 13/14): the profile is stored as a slice-meta record
// plus one value per slice, so flushes only rewrite changed slices and loads
// can be partial. Meta and slice values are not updated atomically, so a
// version (generation) protocol orders the operations: slice values are
// written before the meta that references them, and every meta update is a
// version-checked xset — a stale writer gets Aborted and must reload.
#ifndef IPS_SERVER_PERSISTENCE_H_
#define IPS_SERVER_PERSISTENCE_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/profile_codec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"
#include "kvstore/kv_store.h"

namespace ips {

enum class PersistenceMode : int {
  kBulk = 0,
  kSliceSplit = 1,
};

struct PersisterOptions {
  PersistenceMode mode = PersistenceMode::kBulk;
  /// In slice-split mode, profiles whose encoded size is under this bound
  /// still use bulk storage (split only pays off for large values).
  size_t split_threshold_bytes = 0;
  /// Degraded-read fallback store (non-owning, may be null): when the
  /// primary store answers Unavailable, loads retry against this replica —
  /// the other side of the master/slave pair — and the result is flagged
  /// degraded (it may lag replication). Flushes never use the fallback.
  KvStore* fallback_kv = nullptr;
  /// Optional registry (non-owning, may be null) for the persister's codec
  /// observability: `codec.zero_copy_decodes` counts decoded frames whose
  /// uncompressed image was aliased straight out of the stored bytes.
  MetricsRegistry* metrics = nullptr;
};

/// Persists/loads profiles for one table against a KvStore. Thread-safe; the
/// version cache (slice-split mode) is internally synchronized.
class Persister {
 public:
  Persister(std::string table_name, KvStore* kv, PersisterOptions options);

  /// Writes the profile using the configured mode. Batch-of-one wrapper
  /// over StoreBatch.
  Status Flush(ProfileId pid, const ProfileData& profile);

  /// Batched write: statuses align with `pids`. Every changed value across
  /// the batch (bulk blobs, changed slice values) ships to the store in ONE
  /// KvStore::MultiSet round trip; split metas then commit individually via
  /// the version-checked XSet of Fig 14, preserving its ordering — a meta is
  /// only written after every slice value it references landed, so a profile
  /// whose values bounced keeps its old meta and readers never see dangling
  /// references. The write-side mirror of LoadBatch.
  std::vector<Status> StoreBatch(
      const std::vector<ProfileId>& pids,
      const std::vector<const ProfileData*>& profiles);

  /// Reads the profile back. NotFound when the profile was never persisted.
  /// `out_degraded`, when non-null, is set when the profile was served by
  /// the fallback replica because the primary store was unavailable; such a
  /// result may be stale by up to the replication lag. Batch-of-one wrapper
  /// over LoadBatch.
  Result<ProfileData> Load(ProfileId pid, bool* out_degraded = nullptr);

  /// Batched load: FetchBatch, then DecodeBatch on the calling thread.
  /// Results and `out_degraded` align with `pids`.
  std::vector<Result<ProfileData>> LoadBatch(
      const std::vector<ProfileId>& pids,
      std::vector<bool>* out_degraded = nullptr);

  /// The storage half of a load: reads every stored value `pids` need and
  /// decodes nothing but slice metas. Bulk mode fetches every profile's
  /// value with one KvStore::MultiGet; slice-split mode reads the metas,
  /// then fetches ALL referenced slice values (plus bulk fallbacks for
  /// meta-less profiles) in one MultiGet — the batch-miss-coalescing step
  /// of the MultiQuery read path. Pids the primary store failed with
  /// Unavailable are re-fetched as one batch from the fallback replica and
  /// marked degraded. Keeps the Fig 14 bookkeeping of what it read from the
  /// primary (the meta version, the checksums of the slice values) and drops
  /// it for a pid the replica served. Results align with `pids`.
  std::vector<FetchedProfile> FetchBatch(const std::vector<ProfileId>& pids);

  /// The codec half of a load: decodes each fetch on the calling thread.
  /// Results and `out_degraded` align with `fetched`. A fetch error passes through; a
  /// replica-served profile that fails to decode reports the primary's
  /// error, not degraded.
  std::vector<Result<ProfileData>> DecodeBatch(
      const std::vector<FetchedProfile>& fetched,
      std::vector<bool>* out_degraded = nullptr);

  /// Removes all stored values for the profile.
  Status Erase(ProfileId pid);

  const std::string& table_name() const { return table_name_; }
  PersistenceMode mode() const { return options_.mode; }

  /// Key helpers exposed for tests.
  std::string BulkKey(ProfileId pid) const;
  std::string MetaKey(ProfileId pid) const;
  std::string SliceKey(ProfileId pid, uint64_t slice_key) const;

 private:
  /// Fig 14 meta commit for one split profile whose slice values already
  /// landed: version-checked XSet (with one refresh-retry on Aborted),
  /// version + slice-checksum bookkeeping, GC of dropped slices, and
  /// retirement of any stale bulk value.
  Status CommitSplitMeta(
      ProfileId pid, const std::string& meta_value,
      const std::unordered_map<uint64_t, uint32_t>& prior,
      std::unordered_map<uint64_t, uint32_t> new_sums);

  /// FetchBatch against `kv`, so the degraded path can rerun it against the
  /// fallback replica. `record_bookkeeping` gates the version and
  /// slice-checksum caches: true on the primary path, false on the fallback
  /// path (replica state must not gate future master flushes).
  std::vector<FetchedProfile> FetchFrom(KvStore* kv,
                                        const std::vector<ProfileId>& pids,
                                        bool record_bookkeeping);

  /// Drops the version + slice-checksum state for `pid` so the next flush
  /// rewrites everything (called after a degraded fallback load).
  void ForgetFlushState(ProfileId pid);

  /// Remembered meta version per profile (Fig 14 "holds a valid version").
  KvVersion HeldVersion(ProfileId pid);
  void RememberVersion(ProfileId pid, KvVersion version);
  void ForgetVersion(ProfileId pid);

  std::string table_name_;
  KvStore* kv_;
  PersisterOptions options_;
  /// Cached from options_.metrics (null when metrics are not wired).
  Counter* zero_copy_decodes_ = nullptr;

  std::mutex version_mu_;
  std::unordered_map<ProfileId, KvVersion> held_versions_;
  /// Checksums of the slice values referenced by the last flushed/loaded
  /// meta, keyed by slice key. Serves two purposes: GC of slice values
  /// dropped by compaction, and — the point of the slice split — skipping
  /// the rewrite of unchanged slices so a steady-state flush only ships the
  /// slices that actually changed. Guarded by version_mu_.
  std::unordered_map<ProfileId, std::unordered_map<uint64_t, uint32_t>>
      last_slices_;
};

}  // namespace ips

#endif  // IPS_SERVER_PERSISTENCE_H_
