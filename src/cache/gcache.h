// GCache (Section III-C, Figs 6-9): the write-back compute cache at the heart
// of the IPS compute-cache layer. Profiles live in memory wrapped in cache
// entries tracked by two structures:
//
//   * a sharded LRU list (Fig 7) — SwapOnce evicts cold entries when memory
//     exceeds the configured threshold, starting from the largest shard,
//     probing entries with try_lock and skipping contended ones instead of
//     blocking (Fig 8);
//   * a sharded dirty list (Fig 9) — FlushOnce persists updated profiles to
//     the key-value store, draining the shards in order.
//
// The cache starts no threads. The owning IpsInstance's maintenance loop
// drives SwapOnce and FlushOnce (tests call them directly); the destructor
// runs a final FlushAll.
//
// Storage sits behind ONE seam of two batch functions handed to the
// constructor, so this layer stays independent of the codec/kvstore choices
// and of any coalescing stage composed in front of them:
//
//   * LoadFn — every miss (single-pid or batch) funnels through LoadMisses
//     into one call;
//   * StoreFn — every write-back (flush pass, eviction, Invalidate) is one
//     write-back step: snapshot (entry, profile, epoch) under the entry lock,
//     call StoreFn with no cache lock held, then commit per entry under its
//     lock, clearing dirty/degraded only if the mutation epoch is unchanged.
//     A write landing mid-step therefore keeps the entry dirty (or resident)
//     and is never lost. WithProfileOffLockMutate shares the snapshot and
//     epoch-recheck halves of that step.
#ifndef IPS_CACHE_GCACHE_H_
#define IPS_CACHE_GCACHE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct GCacheOptions {
  /// LRU partitions (Fig 7). Power of two.
  size_t lru_shards = 8;
  /// Dirty-list partitions (Fig 9). Power of two. Striping keeps MarkDirty
  /// callers on different shards off one mutex; a flush pass drains them
  /// in order.
  size_t dirty_shards = 4;
  /// Hard memory budget for cached profiles, in bytes.
  size_t memory_limit_bytes = 256 << 20;
  /// Swapping starts when usage exceeds limit * high watermark and stops
  /// below limit * low watermark (the paper's clusters hold ~85% usage).
  double high_watermark = 0.85;
  double low_watermark = 0.80;
  /// Failed flushes tolerated per flush pass over one dirty shard: after
  /// this many the pass stops and requeues the untried remainder, so an
  /// injected storage outage cannot turn a flush pass into a tight retry
  /// loop over the whole dirty list.
  size_t max_flush_failures_per_pass = 8;
  /// Backoff between failing flush passes, doubling up to the max; reset by
  /// the first clean pass (see FlushBackoffMs).
  int64_t flush_backoff_ms = 50;
  int64_t flush_backoff_max_ms = 2000;
  /// Largest group of dirty entries a flush pass hands to the store function
  /// in one call (one storage round trip per group).
  size_t flush_batch_max = 64;
  /// Write slice granularity for profiles created on first touch.
  int64_t write_granularity_ms = 60'000;
};

class VictimCache;

/// Loads a batch of profiles in one storage round trip: the only way a miss
/// reaches storage. Results align with `pids`; NotFound marks profiles that
/// were never persisted. `out_degraded` (never null) arrives sized to `pids`
/// and all false; an entry is set when that profile came from a fallback
/// replica and may be stale (the cache carries the flag through to readers).
/// `deadline_ms` (absolute, in the cache clock's domain) bounds how long the
/// call may wait on a load shared with other requests; pids unresolved by
/// then get DeadlineExceeded. A function that cannot abandon a load ignores
/// it.
using LoadFn = std::function<std::vector<Result<ProfileData>>(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms)>;
/// Persists a batch of snapshots in one storage round trip: the only way the
/// cache writes to storage (flush passes, eviction and Invalidate
/// write-backs). Always called with NO cache lock held. `snapshots[i]` was
/// taken at mutation epoch `epochs[i]` and is borrowed for the call.
/// Statuses align with `pids` — a batch can partially land.
using StoreFn = std::function<std::vector<Status>(
    const std::vector<ProfileId>& pids, const std::vector<uint64_t>& epochs,
    const std::vector<const ProfileData*>& snapshots)>;
/// Encodes a profile into the victim tier's byte format (the persister's
/// compressed block format). Called on eviction snapshots with no lock held.
using VictimEncodeFn = std::function<void(const ProfileData&, std::string*)>;
/// Decodes victim-tier bytes back into a profile (promotion). Corruption on
/// malformed input: the promotion is abandoned and the miss falls through to
/// the load function.
using VictimDecodeFn = std::function<Status(std::string_view, ProfileData*)>;

class GCache {
 public:
  GCache(GCacheOptions options, Clock* clock, LoadFn load, StoreFn store,
         MetricsRegistry* metrics = nullptr);
  ~GCache();

  GCache(const GCache&) = delete;
  GCache& operator=(const GCache&) = delete;

  /// Read path: runs `fn` with shared (entry-locked) access to the profile.
  /// On miss the load function is consulted; NotFound from it is returned
  /// to the caller (queries on unknown profiles are empty, handled above).
  /// `out_was_hit`, when non-null, reports whether this was a cache hit —
  /// the Table II latency split keys on it. `out_degraded`, when non-null,
  /// reports whether the served profile may be stale: it was loaded from a
  /// fallback replica, or the backing store is currently unhealthy (the
  /// resident copy cannot be revalidated or flushed).
  Status WithProfile(ProfileId pid,
                     const std::function<void(const ProfileData&)>& fn,
                     bool* out_was_hit = nullptr,
                     bool* out_degraded = nullptr);

  /// Batch read path (the spine of MultiQuery): partitions `pids` into
  /// cache hits and misses, satisfies ALL misses with one load-function
  /// call, then runs `fn(index, profile)` under the entry lock for every
  /// present profile. `statuses` aligns with `pids`; unknown profiles get
  /// NotFound and no callback. Duplicate pids are coalesced for loading but
  /// each occurrence gets its own callback and status; occurrences of the same
  /// pid are served back-to-back under ONE entry lock hold (callbacks are
  /// grouped by entry, not issued in strict input order). Returns the
  /// number of cache hits.
  /// `out_degraded`, when non-null, is filled aligned with `pids`; same
  /// staleness contract as WithProfile. `deadline_ms` is handed to the
  /// load function (see LoadFn).
  size_t WithProfiles(const std::vector<ProfileId>& pids,
                      const std::function<void(size_t, const ProfileData&)>& fn,
                      std::vector<Status>* statuses,
                      std::vector<bool>* out_degraded = nullptr,
                      TimestampMs deadline_ms =
                          std::numeric_limits<TimestampMs>::max());

  /// Installs the compressed L2 victim tier (non-owning; must outlive the
  /// cache) together with the codec callbacks that translate between
  /// ProfileData and the tier's encoded-bytes format. With a tier installed:
  ///   * every lookup feeds the tier's admission sketch;
  ///   * every miss probes the tier (the cache.l2_lookup trace stage) and a
  ///     hit promotes the bytes back into L1 — decode instead of KV trip;
  ///   * eviction demotes written-back victims into the tier instead of
  ///     dropping them;
  ///   * Invalidate erases the pid from BOTH tiers.
  /// Not thread-safe w.r.t. concurrent traffic; call during setup, right
  /// after construction.
  void set_victim_cache(VictimCache* victim, VictimEncodeFn encode,
                        VictimDecodeFn decode) {
    victim_cache_ = victim;
    victim_encode_ = std::move(encode);
    victim_decode_ = std::move(decode);
  }

  /// Write path: runs `fn` with exclusive access, creating the profile when
  /// absent (after a load attempt), then marks the entry dirty.
  Status WithProfileMutable(ProfileId pid,
                            const std::function<void(ProfileData&)>& fn,
                            bool* out_was_hit = nullptr);

  /// Maintenance write path (compaction): snapshots the profile under the
  /// entry lock, runs `work` on the snapshot with NO lock held, then commits
  /// the result back under the lock — but only if the entry's mutation
  /// epoch is unchanged (the snapshot and recheck halves of the write-back
  /// step). A long pass therefore never pins the entry lock: serving
  /// writes and FlushShard proceed concurrently, and a pass
  /// that lost the race retries from a fresh snapshot (each lost race is
  /// counted as compaction.overlap_stalls), up to `max_retries` extra
  /// attempts before giving up with Aborted — harmless, later traffic
  /// re-triggers. `work` returns false to abandon the pass (nothing to
  /// change); the entry is left untouched and OK is returned.
  ///
  /// Unlike WithProfileMutable this never faults the profile in from
  /// storage: NotFound for non-resident pids. Compacting an uncached
  /// profile would drag cold data into memory just to shrink it; persisted
  /// slices get compacted when real traffic next loads them.
  Status WithProfileOffLockMutate(ProfileId pid,
                                  const std::function<bool(ProfileData&)>& work,
                                  int max_retries = 2);

  /// Runs one eviction pass if usage exceeds the high watermark. Returns the
  /// number of entries evicted.
  size_t SwapOnce();

  /// One flush pass: drains every dirty shard in order, in groups of up to
  /// flush_batch_max; returns entries flushed. Then steps the backoff: a
  /// pass with failures (or stopped at max_flush_failures_per_pass) doubles
  /// FlushBackoffMs from flush_backoff_ms up to flush_backoff_max_ms, and a
  /// clean pass resets it to 0.
  size_t FlushOnce();

  /// Extra delay a caller should wait before the next flush pass.
  int64_t FlushBackoffMs() const {
    return flush_backoff_ms_.load(std::memory_order_relaxed);
  }

  /// Flush + wait until the dirty lists are empty (shutdown, tests).
  void FlushAll();

  /// Drops the pid from L1 and the victim tier (failover handover). A dirty
  /// entry is written back first through the write-back step; a write that
  /// lands meanwhile re-dirties it and the write-back repeats (bounded:
  /// Aborted after 16 attempts). The store's error is returned when a
  /// write-back fails, and the entry stays resident and dirty.
  Status Invalidate(ProfileId pid);

  /// Profile ids currently cached (ops sweeps, e.g. forced compaction).
  std::vector<ProfileId> CachedIds() const;

  size_t EntryCount() const;
  size_t MemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  double MemoryUsageRatio() const {
    // A zero limit means "unbounded" (degenerate test configs); report 0
    // rather than dividing by zero.
    if (options_.memory_limit_bytes == 0) return 0.0;
    return static_cast<double>(MemoryBytes()) /
           static_cast<double>(options_.memory_limit_bytes);
  }
  size_t DirtyCount() const;

  /// Lifetime hit ratio in [0,1]; 0 when no lookups yet.
  double HitRatio() const;

  /// Whether the backing store is currently considered unhealthy (last
  /// flush/load against it failed with Unavailable). While set, every hit
  /// is reported degraded — the resident copy cannot be revalidated.
  bool StoreUnhealthy() const {
    return store_unhealthy_.load(std::memory_order_relaxed);
  }

  const GCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    ProfileId pid = 0;
    ProfileData profile;
    std::mutex mu;
    /// Approximate bytes, maintained under mu, mirrored into shard/global
    /// accounting.
    size_t bytes = 0;
    bool dirty = false;
    /// Loaded from a fallback replica (may be stale). Guarded by mu; cleared
    /// by the first successful flush (the entry's state then reached the
    /// primary store and is authoritative again).
    bool degraded = false;
    /// Bumped (under mu) on every mutation. The write-back step snapshots
    /// the profile plus this epoch, stores WITHOUT the entry lock, then
    /// rechecks: an entry re-dirtied mid-flight keeps its dirty bit instead
    /// of silently losing the newer write.
    uint64_t mutation_epoch = 0;
    /// Guarded by the owning DirtyShard's mutex.
    bool in_dirty_list = false;
    /// Set (under mu) when the entry is removed from its shard map by
    /// eviction or Invalidate. A mutator holding a stale EntryPtr from
    /// before the removal must NOT write into it — the entry is unmapped,
    /// nothing would ever flush the write — so WithProfileMutable rechecks
    /// this after locking and retries its lookup instead.
    bool evicted = false;

    Entry(ProfileId id, ProfileData data)
        : pid(id), profile(std::move(data)) {}
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct LruShard {
    /// Map payload: the entry plus its position in the LRU list, so a hit
    /// resolves entry AND recency bookkeeping with ONE hash probe (the old
    /// layout kept a separate pid -> iterator map and paid a second probe
    /// per touch).
    struct Slot {
      EntryPtr entry;
      std::list<ProfileId>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::unordered_map<ProfileId, Slot> map;
    /// Most-recent at front. Kept strictly in sync with `map` under `mu`.
    std::list<ProfileId> lru;
    std::atomic<size_t> bytes{0};
  };

  struct DirtyShard {
    mutable std::mutex mu;
    std::list<ProfileId> dirty;
  };

  size_t LruIndex(ProfileId pid) const;
  size_t DirtyIndex(ProfileId pid) const;

  /// Finds or creates the entry; returns (entry, was_hit). A miss goes
  /// through LoadMisses, outside all shard locks.
  Result<std::pair<EntryPtr, bool>> GetOrLoad(ProfileId pid,
                                              bool create_if_missing);

  /// Serves `pids` (unique, sorted) from the victim tier where it can, loads
  /// the rest with one LoadFn call and notes store health from that call.
  /// Results and `out_degraded` align with `pids` (a short list from the
  /// load function becomes Internal errors). The single funnel for every
  /// miss in the cache.
  std::vector<Result<ProfileData>> LoadMisses(
      const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
      TimestampMs deadline_ms);

  /// Probes the victim tier for `pid` (caller wraps in the cache.l2_lookup
  /// span); on a hit the bytes are taken out of the tier and decoded into
  /// `*out` (promotion), `*out_degraded` carries the demoted staleness mark.
  /// False on tier miss — and on decode failure, where the corrupt bytes are
  /// simply dropped and the miss falls through to the load function.
  bool TryPromoteFromL2(ProfileId pid, ProfileData* out, bool* out_degraded);

  /// Moves the slot's pid to the LRU front (shard lock held). Splicing via
  /// the stored iterator: no second hash probe.
  void TouchLru(LruShard& shard, LruShard::Slot& slot);

  /// Reusable per-thread buffers for WithProfiles, so the warm batch read
  /// path does no steady-state allocation of its own.
  struct BatchScratch;
  static BatchScratch& ThreadBatchScratch();

  /// Re-measures entry bytes (entry lock held) and fixes accounting.
  void UpdateAccounting(LruShard& shard, Entry& entry);

  void MarkDirty(Entry& entry);

  /// Where a store-health observation came from. Batch observations are the
  /// flush/load passes that sweep many pids — representative of the store's
  /// real state, so one success clears the unhealthy flag. Point
  /// observations are eviction/Invalidate write-backs; one lucky point
  /// success mid-outage used to clear the flag while batch loads were still
  /// failing (flapping), so the point path needs kPointHealthClearStreak
  /// consecutive successes to clear it.
  enum class StoreHealthSource { kBatch, kPoint };
  static constexpr int kPointHealthClearStreak = 3;

  /// One entry's state as the write-back step (and the off-lock mutate)
  /// captured it: the profile copy and the mutation epoch it was taken at.
  struct Snapshot {
    EntryPtr entry;
    ProfileData profile;
    uint64_t epoch = 0;
  };

  /// Snapshot half: copies the profile (when `with_profile`) and epoch.
  /// The entry lock must be held.
  static Snapshot TakeSnapshot(EntryPtr entry, bool with_profile = true);

  /// Recheck half (entry lock held): true when neither a mutation nor an
  /// eviction/Invalidate touched the entry since `epoch` was snapshotted.
  static bool SnapshotCurrent(const Entry& entry, uint64_t epoch) {
    return !entry.evicted && entry.mutation_epoch == epoch;
  }

  /// Store half: hands the snapshots to the StoreFn in one call (no cache
  /// lock may be held), notes store health as `source`, and counts
  /// cache.flushed / cache.flush_failures. Statuses align with `snapshots`.
  std::vector<Status> StoreSnapshots(std::span<const Snapshot> snapshots,
                                     StoreHealthSource source);

  /// Commit half (entry lock held), after the snapshot at `epoch` was
  /// stored: if it is still current the entry is clean and authoritative
  /// again (dirty and degraded cleared). Returns whether it was.
  static bool CommitWriteBack(Entry& entry, uint64_t epoch);

  /// Evicts from `shard` until `target_bytes` freed or shard exhausted.
  /// Victims are collected (and snapshotted) under shard.mu, written back
  /// and encoded for demotion with NO lock held, then committed one at a
  /// time under shard.mu + entry lock with the epoch recheck — an entry
  /// re-dirtied during the unlocked round trip stays resident and keeps its
  /// newer state.
  size_t EvictFromShard(LruShard& shard, size_t target_bytes);

  /// Flushes all entries queued in one dirty shard, in groups of up to
  /// flush_batch_max entries per write-back step. Stops early after
  /// max_flush_failures_per_pass failed flushes (requeueing the untried
  /// remainder). Clears `*clean` when a flush failed or the pass stopped
  /// early.
  size_t FlushShard(DirtyShard& shard, bool* clean);

  /// Marks the backing store healthy/unhealthy from a flush/load outcome.
  void NoteStoreHealth(const Status& status,
                       StoreHealthSource source = StoreHealthSource::kBatch);

  /// Inserts a freshly loaded entry into its shard, or adopts the entry a
  /// concurrent loader already established. Returns the entry to use.
  EntryPtr InsertLoaded(ProfileId pid, ProfileData loaded, bool degraded);

  GCacheOptions options_;
  Clock* clock_;
  LoadFn load_;
  StoreFn store_;
  /// Non-owning; installed at setup (see set_victim_cache).
  VictimCache* victim_cache_ = nullptr;
  VictimEncodeFn victim_encode_;
  VictimDecodeFn victim_decode_;
  /// Used when no registry is injected.
  MetricsRegistry owned_metrics_;
  /// Counters, resolved once at construction (a registry lookup takes a
  /// deployment-wide mutex).
  Counter* hit_counter_ = nullptr;
  Counter* miss_counter_ = nullptr;
  Counter* batch_loads_counter_ = nullptr;
  Counter* flushed_counter_ = nullptr;
  Counter* flush_failures_counter_ = nullptr;
  Counter* batch_flushes_counter_ = nullptr;
  Counter* evicted_counter_ = nullptr;
  Counter* demoted_counter_ = nullptr;
  Counter* l2_decode_failures_counter_ = nullptr;
  Counter* overlap_stalls_counter_ = nullptr;

  std::vector<std::unique_ptr<LruShard>> lru_shards_;
  std::vector<std::unique_ptr<DirtyShard>> dirty_shards_;
  std::atomic<size_t> memory_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<bool> store_unhealthy_{false};
  /// Consecutive successful point write-backs observed while unhealthy; see
  /// StoreHealthSource.
  std::atomic<int> point_success_streak_{0};
  /// See FlushBackoffMs.
  std::atomic<int64_t> flush_backoff_ms_{0};
};

}  // namespace ips

#endif  // IPS_CACHE_GCACHE_H_
