// GCache (Section III-C, Figs 6-9): the write-back compute cache at the heart
// of the IPS compute-cache layer. Profiles live in memory wrapped in cache
// entries tracked by two structures:
//
//   * a sharded LRU list (Fig 7) — swap threads evict cold entries when
//     memory exceeds the configured threshold, starting from the largest
//     shard, probing entries with try_lock and skipping contended ones
//     instead of blocking (Fig 8);
//   * a sharded dirty list (Fig 9) — flush threads persist updated profiles
//     to the key-value store; the flush-thread count is a multiple of the
//     dirty-shard count so every shard has dedicated threads.
//
// Persistence and load are injected as callbacks so this layer stays
// independent of the codec/kvstore choices (bulk vs slice-split modes both
// plug in here).
#ifndef IPS_CACHE_GCACHE_H_
#define IPS_CACHE_GCACHE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/coalescer.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct GCacheOptions {
  /// LRU partitions (Fig 7). Power of two.
  size_t lru_shards = 8;
  /// Dirty-list partitions (Fig 9). Power of two.
  size_t dirty_shards = 4;
  /// Flush threads; must be a positive multiple of dirty_shards.
  size_t flush_threads = 4;
  /// Swap (eviction) threads.
  size_t swap_threads = 1;
  /// Hard memory budget for cached profiles, in bytes.
  size_t memory_limit_bytes = 256 << 20;
  /// Swapping starts when usage exceeds limit * high watermark and stops
  /// below limit * low watermark (the paper's clusters hold ~85% usage).
  double high_watermark = 0.85;
  double low_watermark = 0.80;
  /// Background thread cadence.
  int64_t swap_interval_ms = 50;
  int64_t flush_interval_ms = 100;
  /// Failed flushes tolerated per flush pass over one dirty shard: after
  /// this many the pass stops and requeues the untried remainder, so an
  /// injected storage outage cannot turn the flush thread into a tight
  /// retry loop over the whole dirty list.
  size_t max_flush_failures_per_pass = 8;
  /// Backoff between failing flush passes, doubling up to the max; reset by
  /// the first clean pass.
  int64_t flush_backoff_ms = 50;
  int64_t flush_backoff_max_ms = 2000;
  /// Largest group of dirty entries a flush pass hands to the batch flusher
  /// in one call (one storage round trip per group). Only used when a batch
  /// flusher is installed.
  size_t flush_batch_max = 64;
  /// When false no background threads start; tests drive SwapOnce/FlushOnce
  /// manually for determinism.
  bool start_background_threads = true;
  /// Write slice granularity for profiles created on first touch.
  int64_t write_granularity_ms = 60'000;
};

class VictimCache;

/// Persists one profile. Invalidate calls it with the entry lock held (the
/// entry is about to leave the cache); flush passes AND eviction write-backs
/// call it on unlocked snapshots, see BatchFlushFn.
using FlushFn = std::function<Status(ProfileId, const ProfileData&)>;
/// Loads one profile on cache miss. NotFound means "no such profile yet".
/// `out_degraded` (never null) is set when the profile came from a fallback
/// replica and may be stale; the cache carries the flag through to readers.
using LoadFn = std::function<Result<ProfileData>(ProfileId, bool* out_degraded)>;
/// Loads many profiles in one storage round trip (the batch-miss-coalescing
/// step of the MultiQuery read path). Results align with the pid list;
/// NotFound marks profiles that were never persisted. `out_degraded` (never
/// null) aligns with the pid list, same contract as LoadFn.
using BatchLoadFn =
    std::function<std::vector<Result<ProfileData>>(
        const std::vector<ProfileId>&, std::vector<bool>* out_degraded)>;
/// Persists many profiles in one storage round trip (the write-side mirror
/// of BatchLoadFn); invoked on snapshots with NO entry lock held, so the
/// storage round trip never blocks readers or writers of the entries being
/// flushed (a concurrent write during the flush is caught by an epoch
/// recheck and simply requeues the entry). Returned statuses align with the
/// pid list — a batch can partially land.
using BatchFlushFn = std::function<std::vector<Status>(
    const std::vector<ProfileId>&, const std::vector<const ProfileData*>&)>;
/// Encodes a profile into the victim tier's byte format (the persister's
/// compressed block format). Called on eviction snapshots with no lock held.
using VictimEncodeFn = std::function<void(const ProfileData&, std::string*)>;
/// Decodes victim-tier bytes back into a profile (promotion). Corruption on
/// malformed input: the promotion is abandoned and the miss falls through to
/// the loader.
using VictimDecodeFn = std::function<Status(std::string_view, ProfileData*)>;

class GCache {
 public:
  GCache(GCacheOptions options, Clock* clock, FlushFn flush, LoadFn load,
         MetricsRegistry* metrics = nullptr);
  ~GCache();

  GCache(const GCache&) = delete;
  GCache& operator=(const GCache&) = delete;

  /// Read path: runs `fn` with shared (entry-locked) access to the profile.
  /// On miss the loader is consulted; NotFound from the loader is returned
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
  /// cache hits and misses, satisfies ALL misses with one batch-loader call
  /// (falling back to per-pid loads when no batch loader is installed),
  /// then runs `fn(index, profile)` under the entry lock for every present
  /// profile. `statuses` aligns with `pids`; unknown profiles get NotFound
  /// and no callback. Duplicate pids are coalesced for loading but each
  /// occurrence gets its own callback and status; occurrences of the same
  /// pid are served back-to-back under ONE entry lock hold (callbacks are
  /// grouped by entry, not issued in strict input order). Returns the
  /// number of cache hits.
  /// `out_degraded`, when non-null, is filled aligned with `pids`; same
  /// staleness contract as WithProfile. `deadline_ms` (absolute, in the
  /// cache clock's domain) bounds how long misses may wait on loads shared
  /// through the load coalescer; pids unresolved at the deadline get
  /// DeadlineExceeded while the shared load itself keeps running. It is
  /// ignored when no coalescer is installed (inline loads cannot be
  /// abandoned).
  size_t WithProfiles(const std::vector<ProfileId>& pids,
                      const std::function<void(size_t, const ProfileData&)>& fn,
                      std::vector<Status>* statuses,
                      std::vector<bool>* out_degraded = nullptr,
                      TimestampMs deadline_ms =
                          std::numeric_limits<TimestampMs>::max());

  /// Installs the batch loader. Not thread-safe w.r.t. concurrent reads;
  /// call during setup, right after construction.
  void set_batch_loader(BatchLoadFn batch_load) {
    batch_load_ = std::move(batch_load);
  }

  /// Installs the load coalescer (non-owning; must outlive the cache):
  /// misses then route through it instead of invoking the loader callbacks
  /// inline, so concurrent misses for one pid share a round trip and misses
  /// from concurrent requests group-commit into one. Same setup-time
  /// contract as set_batch_loader. Without one, misses load inline through
  /// batch_load_/load_.
  void set_load_coalescer(LoadCoalescer* coalescer) {
    load_coalescer_ = coalescer;
  }

  /// Installs the batch flusher: flush passes then drain each dirty shard
  /// in groups of up to flush_batch_max entries, one flusher call (one
  /// storage round trip) per group, instead of one store per entry. Same
  /// setup-time contract as set_batch_loader.
  void set_batch_flusher(BatchFlushFn batch_flush) {
    batch_flush_ = std::move(batch_flush);
  }

  /// Installs the store coalescer (non-owning; must outlive the cache):
  /// flush groups then route through it instead of the batch flusher, so
  /// concurrent flush passes' groups share one storage round trip and a hot
  /// dirty pid re-flushed while its store is on the wire piggybacks on it
  /// (same snapshot epoch) or requeues behind it (newer epoch). The epoch
  /// recheck after the store returns is unchanged. Same setup-time contract
  /// as set_batch_loader. Eviction write-backs route through it too:
  /// EvictFromShard stores unlocked snapshots (victims are collected under
  /// the shard lock, written back outside it), so an eviction storm
  /// coalesces with a concurrent flush storm. Only Invalidate keeps the
  /// inline point path — it holds the entry lock and must not park behind
  /// another thread's round trip.
  void set_store_coalescer(StoreCoalescer* coalescer) {
    store_coalescer_ = coalescer;
  }

  /// Installs the compressed L2 victim tier (non-owning; must outlive the
  /// cache) together with the codec callbacks that translate between
  /// ProfileData and the tier's encoded-bytes format. With a tier installed:
  ///   * every lookup feeds the tier's admission sketch;
  ///   * every miss probes the tier (the cache.l2_lookup trace stage) and a
  ///     hit promotes the bytes back into L1 — decode instead of KV trip;
  ///   * eviction demotes written-back victims into the tier instead of
  ///     dropping them;
  ///   * Invalidate erases the pid from BOTH tiers.
  /// Same setup-time contract as set_batch_loader.
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
  /// epoch is unchanged (the same collect→work→commit discipline the flush
  /// and eviction paths use). A long pass therefore never pins the entry
  /// lock: serving writes and FlushShard proceed concurrently, and a pass
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

  /// Flushes every dirty entry in every shard; returns entries flushed.
  size_t FlushOnce();

  /// Upper bound on the entry locks one flush group may hold at once. Flush
  /// passes now snapshot entries one lock at a time and run the storage
  /// round trip with no entry lock held, so this is unbounded everywhere
  /// (the effective group size is just `flush_batch_max`). Kept because
  /// tests and benches derive expected group counts from it; it used to be
  /// clamped under ThreadSanitizer when a group pinned every entry lock
  /// across the round trip.
  static size_t FlushGroupLockCap();

  /// Flush + wait until the dirty lists are empty (shutdown, tests).
  void FlushAll();

  /// Drops a clean entry from the cache (failover handover). Dirty entries
  /// are flushed first.
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
    /// Bumped (under mu) on every mutation. Flush passes snapshot the
    /// profile plus this epoch, store WITHOUT the entry lock, then recheck:
    /// an entry re-dirtied mid-flight keeps its dirty bit and requeues
    /// instead of silently losing the newer write.
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

  /// Finds or creates the entry; returns (entry, was_hit). May invoke the
  /// loader (through the load coalescer when installed) outside all shard
  /// locks.
  Result<std::pair<EntryPtr, bool>> GetOrLoad(ProfileId pid,
                                              bool create_if_missing);

  /// Loads `pids` (unique, sorted) through the coalescer when installed, else
  /// the batch loader, else per-pid loads. Results and `out_degraded` align
  /// with `pids`. The single funnel for every miss in the cache.
  std::vector<Result<ProfileData>> LoadMisses(
      const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
      TimestampMs deadline_ms);

  /// Probes the victim tier for `pid` (caller wraps in the cache.l2_lookup
  /// span); on a hit the bytes are taken out of the tier and decoded into
  /// `*out` (promotion), `*out_degraded` carries the demoted staleness mark.
  /// False on tier miss — and on decode failure, where the corrupt bytes are
  /// simply dropped and the miss falls through to the loader.
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

  /// Evicts from `shard` until `target_bytes` freed or shard exhausted.
  /// Victims are collected (and snapshotted) under shard.mu, written back
  /// and encoded for demotion with NO lock held, then committed one at a
  /// time under shard.mu + entry lock with the flush path's mutation-epoch
  /// recheck — an entry re-dirtied during the unlocked round trip stays
  /// resident and keeps its newer state.
  size_t EvictFromShard(LruShard& shard, size_t target_bytes);

  /// Flushes the given entry if dirty (entry lock must be held). Point path:
  /// only Invalidate uses it — eviction write-back goes through
  /// EvictFromShard's unlocked batch.
  Status FlushEntryLocked(Entry& entry);

  /// Flushes all entries queued in one dirty shard. Stops early after
  /// max_flush_failures_per_pass failed flushes (requeueing the untried
  /// remainder); `out_failures`, when non-null, reports the failure count.
  size_t FlushShard(DirtyShard& shard, size_t* out_failures = nullptr);

  /// Where a store-health observation came from. Batch observations are the
  /// flush/load passes that sweep many pids — representative of the store's
  /// real state, so one success clears the unhealthy flag. Point
  /// observations are single-pid eviction/Invalidate write-backs; one lucky
  /// point success mid-outage used to clear the flag while batch loads were
  /// still failing (flapping), so the point path needs
  /// kPointHealthClearStreak consecutive successes to clear it.
  enum class StoreHealthSource { kBatch, kPoint };
  static constexpr int kPointHealthClearStreak = 3;

  /// Marks the backing store healthy/unhealthy from a flush/load outcome.
  void NoteStoreHealth(const Status& status,
                       StoreHealthSource source = StoreHealthSource::kBatch);

  void SwapLoop();
  void FlushLoop(size_t thread_index);

  /// Inserts a freshly loaded entry into its shard, or adopts the entry a
  /// concurrent loader already established. Returns the entry to use.
  EntryPtr InsertLoaded(ProfileId pid, ProfileData loaded, bool degraded);

  /// Reads the entry's degraded flag combined with store health (entry lock
  /// must NOT be held).
  bool EntryDegraded(const EntryPtr& entry) const;

  GCacheOptions options_;
  Clock* clock_;
  FlushFn flush_;
  LoadFn load_;
  BatchLoadFn batch_load_;
  BatchFlushFn batch_flush_;
  /// Non-owning; installed at setup. When present, every miss routes
  /// through it (see set_load_coalescer).
  LoadCoalescer* load_coalescer_ = nullptr;
  /// Non-owning; installed at setup. When present, every flush group routes
  /// through it (see set_store_coalescer).
  StoreCoalescer* store_coalescer_ = nullptr;
  /// Non-owning; installed at setup (see set_victim_cache).
  VictimCache* victim_cache_ = nullptr;
  VictimEncodeFn victim_encode_;
  VictimDecodeFn victim_decode_;
  MetricsRegistry* metrics_;

  std::vector<std::unique_ptr<LruShard>> lru_shards_;
  std::vector<std::unique_ptr<DirtyShard>> dirty_shards_;
  std::atomic<size_t> memory_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<bool> store_unhealthy_{false};
  /// Consecutive successful point write-backs observed while unhealthy; see
  /// StoreHealthSource.
  std::atomic<int> point_success_streak_{0};

  std::atomic<bool> shutdown_{false};
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  std::vector<std::thread> background_threads_;
};

}  // namespace ips

#endif  // IPS_CACHE_GCACHE_H_
