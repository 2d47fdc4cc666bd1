// GCache (Section III-C, Figs 6-9): the write-back compute cache at the heart
// of the IPS compute-cache layer. Profiles live in memory wrapped in cache
// entries tracked by two structures:
//
//   * a sharded LRU list (Fig 7) — SwapOnce evicts cold entries when memory
//     exceeds the high watermark, starting from the largest shard,
//     probing entries with try_lock and skipping contended ones instead of
//     blocking (Fig 8);
//   * one dirty list (Fig 9) under one mutex — FlushOnce persists updated
//     profiles to the key-value store, taking the whole list in one pass. A
//     writer takes the mutex only when an entry turns dirty, and one thread
//     drains the list, so striping it buys nothing.
//
// The cache starts no threads. The owning IpsInstance's maintenance loop
// drives SwapOnce and FlushOnce (tests call them directly); the destructor
// runs a final FlushAll.
//
// Storage sits behind ONE seam of two batch functions handed to the
// constructor, so this layer stays independent of the codec/kvstore choices:
//
//   * LoadFn — every lookup, read or write, goes through one batch funnel
//     (ResolveBatch): a hit/miss partition, one LoadMisses call for all the
//     misses, then insertion of what was loaded. Each shard tracks the loads
//     in flight per pid, so a load that read storage before its pid was
//     unmapped is dropped and loaded again instead of installed: its bytes
//     may predate the write that unmap stored;
//   * StoreFn — every write-back (flush pass, eviction, Invalidate) is one
//     write-back step: snapshot (entry, profile, epoch) under the entry lock,
//     then WriteBack calls StoreFn with no cache lock held and commits per
//     entry under its lock, clearing dirty/degraded only if the mutation
//     epoch is unchanged; eviction and Invalidate then drop entries through
//     one Unmap. A write landing mid-step therefore keeps the entry dirty
//     (or resident) and is never lost. WithProfileOffLockMutate shares the
//     snapshot and epoch-recheck halves of that step.
//
// One write-back runs at a time. Every write-back step holds the cache's
// write-back lock from its snapshot to its last commit. That lock is the
// outermost cache lock and no serving path takes it, so reads and writes
// never wait on storage. Two things follow: one pid's stores reach the
// StoreFn in snapshot (epoch) order, and FlushAll returns only after every
// write-back that started before it has landed.
//
// Compaction (Section III-D) is triggered from the same funnel: each entry
// keeps the time its next pass would find work, and a touch at or past it
// hands the pid to the owner once, until the pass ends (see set_compaction).
#ifndef IPS_CACHE_GCACHE_H_
#define IPS_CACHE_GCACHE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/function_ref.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

struct GCacheOptions {
  /// LRU partitions (Fig 7). Power of two.
  size_t lru_shards = 8;
  /// Hard memory budget for cached profiles, in bytes (see
  /// GCache::kHighWatermark for when swapping starts).
  size_t memory_limit_bytes = 256 << 20;
  /// Largest group of dirty entries a flush pass hands to the store function
  /// in one call (one storage round trip per group).
  size_t flush_batch_max = 64;
  /// Write slice granularity for profiles created on first touch.
  /// IpsInstance sets it from each table schema, so only direct GCache users
  /// set it here.
  int64_t write_granularity_ms = 60'000;
};

/// Loads a batch of profiles in one storage round trip: the only way a miss
/// reaches storage. Results align with `pids`; NotFound marks profiles that
/// were never persisted. `out_degraded` (never null) arrives sized to `pids`
/// and all false; an entry is set when that profile came from a fallback
/// replica and may be stale (the cache carries the flag through to readers).
using LoadFn = std::function<std::vector<Result<ProfileData>>(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded)>;
/// Persists a batch of snapshots in one storage round trip: the only way the
/// cache writes to storage (flush passes, eviction and Invalidate
/// write-backs). Always called with no cache lock held but the write-back
/// lock, so calls never overlap. `snapshots[i]` was taken at mutation epoch
/// `epochs[i]` and is borrowed for the call. Statuses align with `pids` — a
/// batch can partially land. The function must not call back into the
/// cache's write-back paths (FlushOnce, FlushAll, SwapOnce, Invalidate).
using StoreFn = std::function<std::vector<Status>(
    const std::vector<ProfileId>& pids, const std::vector<uint64_t>& epochs,
    const std::vector<const ProfileData*>& snapshots)>;
/// When a compaction pass would next find work in `profile`. Called under
/// the entry lock, so it must not call into the cache.
using CompactDueFn =
    std::function<TimestampMs(const ProfileData& profile, TimestampMs now_ms)>;
/// Hands a due pid to the compactor; false when it refused or dropped it.
/// An accepted pass ends in WithProfileOffLockMutate.
using CompactSubmitFn = std::function<bool(ProfileId pid)>;

class GCache {
 public:
  /// Swapping starts when usage exceeds memory_limit_bytes * kHighWatermark
  /// and stops below memory_limit_bytes * kLowWatermark (the paper's
  /// clusters hold ~85% usage).
  static constexpr double kHighWatermark = 0.85;
  static constexpr double kLowWatermark = 0.80;
  /// Failed flushes tolerated per flush pass: after this many the pass stops
  /// and requeues the untried remainder, so a storage outage cannot turn a
  /// flush pass into a tight retry loop over the whole dirty list.
  static constexpr size_t kMaxFlushFailuresPerPass = 8;
  /// Backoff between failing flush passes, doubling from kFlushBackoffMs up
  /// to kFlushBackoffMaxMs; reset by the first clean pass.
  static constexpr int64_t kFlushBackoffMs = 50;
  static constexpr int64_t kFlushBackoffMaxMs = 2000;

  GCache(GCacheOptions options, Clock* clock, LoadFn load, StoreFn store,
         MetricsRegistry* metrics = nullptr);
  ~GCache();

  GCache(const GCache&) = delete;
  GCache& operator=(const GCache&) = delete;

  /// Read path for one pid: a batch of one over WithProfiles. NotFound from
  /// the load function is returned to the caller (queries on unknown
  /// profiles are empty, handled above). `out_was_hit`, when non-null,
  /// reports whether this was a cache hit. `out_degraded`, when non-null,
  /// reports whether the served profile may be stale: it was loaded from a
  /// fallback replica, or the backing store is currently unhealthy (the
  /// resident copy cannot be revalidated or flushed).
  Status WithProfile(ProfileId pid, FunctionRef<void(const ProfileData&)> fn,
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
  /// `out_degraded`, when non-null, is filled aligned with `pids`: true
  /// where the served profile may be stale (see WithProfile). `fn` must not
  /// call back into the cache: the batch calls share per-thread scratch
  /// buffers.
  size_t WithProfiles(std::span<const ProfileId> pids,
                      FunctionRef<void(size_t, const ProfileData&)> fn,
                      std::vector<Status>* statuses,
                      std::vector<bool>* out_degraded = nullptr);

  /// Installs the compaction trigger during setup (without one, nothing is
  /// ever due). The due time is recomputed on load, after every mutation in
  /// WithProfilesMutable and when a pass ends. Both batch calls flag a due
  /// entry queued and hand it to `submit` once no lock is held.
  void set_compaction(CompactDueFn next_due, CompactSubmitFn submit) {
    next_due_ = std::move(next_due);
    submit_compaction_ = std::move(submit);
  }

  /// Makes every resident entry due on its next touch (the due function
  /// changed, e.g. a table's schema was reloaded).
  void MarkAllCompactionDue();

  /// Batch write path (MultiAdd, the isolation merge): the lookup and one
  /// load call of WithProfiles, but a pid the load reports NotFound is
  /// created empty. Runs `fn(index, profile)` under the entry lock, then
  /// updates accounting and marks the entry dirty. Occurrences of one pid
  /// apply in input order under ONE lock hold. An entry unmapped before it
  /// was locked is looked up again, so no write is lost. A failed load
  /// leaves its pids untouched with its status. Returns the hit count.
  size_t WithProfilesMutable(std::span<const ProfileId> pids,
                             FunctionRef<void(size_t, ProfileData&)> fn,
                             std::vector<Status>* statuses);

  /// Write path for one pid: a batch of one over WithProfilesMutable.
  Status WithProfileMutable(ProfileId pid, FunctionRef<void(ProfileData&)> fn,
                            bool* out_was_hit = nullptr);

  /// Maintenance write path (compaction): snapshots the profile under the
  /// entry lock, runs `work` on the snapshot with NO lock held, then commits
  /// the result back under the lock — but only if the entry's mutation
  /// epoch is unchanged (the snapshot and recheck halves of the write-back
  /// step). A long pass therefore never pins the entry lock: serving
  /// writes and flush passes proceed concurrently, and a pass
  /// that lost the race retries from a fresh snapshot (each lost race is
  /// counted as compaction.overlap_stalls), up to `max_retries` extra
  /// attempts. Then it runs the pass once more with the entry lock held
  /// throughout (writers to this one pid wait for it), so a pass always
  /// ends and its profile is not left due for a second pass. `work` must
  /// therefore not call back into the cache for this pid on that last
  /// attempt. `work` returns false to abandon the pass (nothing to change);
  /// the entry is left untouched. Returns OK, or NotFound (below).
  ///
  /// Unlike WithProfilesMutable this never faults the profile in from
  /// storage: NotFound for non-resident pids. Compacting an uncached
  /// profile would drag cold data into memory just to shrink it; persisted
  /// slices get compacted when real traffic next loads them.
  /// Every exit but NotFound ends the entry's compaction claim: the queued
  /// flag clears and the due time is recomputed.
  Status WithProfileOffLockMutate(ProfileId pid,
                                  const std::function<bool(ProfileData&)>& work,
                                  int max_retries = 2);

  /// Runs one eviction pass if usage exceeds the high watermark. Returns the
  /// number of entries evicted.
  size_t SwapOnce();

  /// One flush pass, under the write-back lock: takes the dirty list and
  /// stores it in groups of up to flush_batch_max pids, requeueing each pid
  /// still dirty. Stops early after kMaxFlushFailuresPerPass failed
  /// flushes, requeueing the untried remainder. Returns entries flushed.
  /// Then steps the backoff: a pass with failures doubles FlushBackoffMs
  /// from kFlushBackoffMs up to kFlushBackoffMaxMs, and a clean pass resets
  /// it to 0.
  size_t FlushOnce();

  /// Extra delay a caller should wait before the next flush pass.
  int64_t FlushBackoffMs() const {
    return flush_backoff_ms_.load(std::memory_order_relaxed);
  }

  /// Runs flush passes until one is clean (shutdown, tests). A barrier:
  /// every write acknowledged before the call has been stored when it
  /// returns, including one a write-back already storing at the call missed.
  /// Failing passes back off; after a few of them without progress FlushAll
  /// gives up, logs a warning and leaves the rest dirty.
  void FlushAll();

  /// Drops the pid from the cache (failover handover). A dirty entry is
  /// written back first through the write-back step (each attempt queues
  /// behind any flush pass or eviction in progress); a write that lands
  /// meanwhile re-dirties it and the write-back repeats (bounded: Aborted
  /// after 16 attempts). The store's error is returned when a write-back
  /// fails, and the entry stays resident and dirty.
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
  /// Entries currently on the dirty list and dirty. A pid a write-back
  /// stored clean (eviction, Invalidate) stops counting at once, though its
  /// stale list slot waits for the next flush pass to skip it.
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
    /// Whether the pid is on the dirty list for this entry; implies dirty.
    /// Guarded by mu; changed only through ListDirty and Unlist.
    bool in_dirty_list = false;
    /// See set_compaction. Both guarded by mu.
    TimestampMs compact_due_ms = std::numeric_limits<TimestampMs>::max();
    bool compaction_queued = false;
    /// Set (under mu) when the entry is removed from its shard map by
    /// eviction or Invalidate. A mutator holding a stale EntryPtr from
    /// before the removal must NOT write into it — the entry is unmapped,
    /// nothing would ever flush the write — so WithProfilesMutable rechecks
    /// this after locking and retries its lookup instead.
    bool evicted = false;

    Entry(ProfileId id, ProfileData data)
        : pid(id), profile(std::move(data)) {}
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct LruShard {
    /// Map payload: the entry plus its position in the LRU list, so a hit
    /// resolves entry AND recency bookkeeping with ONE hash probe.
    struct Slot {
      EntryPtr entry;
      std::list<ProfileId>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::unordered_map<ProfileId, Slot> map;
    /// Most-recent at front. Kept strictly in sync with `map` under `mu`.
    std::list<ProfileId> lru;
    std::atomic<size_t> bytes{0};
    /// Loads in flight per pid, registered before the load reads storage
    /// (see BeginLoad). Unmap bumps `unmaps` of a pid listed here, which
    /// tells each of its loads that registered earlier that it may have read
    /// bytes older than the write-back the unmap followed.
    struct Loads {
      uint32_t in_flight = 0;
      uint32_t unmaps = 0;
    };
    std::unordered_map<ProfileId, Loads> loads;
  };

  size_t LruIndex(ProfileId pid) const;

  /// The resident entry for `pid`, or null. No LRU touch: a maintenance
  /// pass reading an entry is not evidence of user interest.
  EntryPtr FindResident(ProfileId pid) const;

  /// Loads `pids` (unique, sorted) with one LoadFn call and notes store
  /// health from it. Results and `out_degraded` align with `pids` (a short
  /// list from the load function becomes Internal errors). Called only by
  /// ResolveBatch.
  std::vector<Result<ProfileData>> LoadMisses(
      const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded);

  /// Registers one load of `pid` in its shard's in-flight loads, before the
  /// load reads storage. Returns the unmap count to hand to EndLoad.
  uint32_t BeginLoad(ProfileId pid);
  /// Ends a load begun at unmap count `unmaps` (shard lock held): false when
  /// the pid was unmapped since, so the load's bytes must not be installed.
  static bool EndLoad(LruShard& shard, ProfileId pid, uint32_t unmaps);

  /// Moves the slot's pid to the LRU front (shard lock held). Splicing via
  /// the stored iterator: no second hash probe.
  void TouchLru(LruShard& shard, LruShard::Slot& slot);

  /// Reusable per-thread buffers for the batch calls, so the warm batch read
  /// path does no steady-state allocation of its own.
  struct BatchScratch;
  static BatchScratch& ThreadBatchScratch();

  /// The lookup-and-load funnel of both batch calls: hit/miss partition,
  /// ONE LoadMisses call for every miss, then insertion (with
  /// `create_if_missing`, NotFound inserts an empty profile). A pid unmapped
  /// while its load was in flight is loaded once more. Leaves
  /// `scratch.entries[i]` set for `pids[i]`, or null with its status, and
  /// `scratch.order` grouped by entry, input order within an entry.
  /// Returns the number of hits.
  size_t ResolveBatch(std::span<const ProfileId> pids,
                      std::vector<Status>* statuses, bool create_if_missing,
                      BatchScratch& scratch);

  /// Submits the entries the funnel flagged queued (no lock held); clears
  /// the flag of each one refused.
  void SubmitCompactions(const std::vector<EntryPtr>& due);

  /// Re-measures entry bytes (entry lock held) and fixes accounting.
  void UpdateAccounting(LruShard& shard, Entry& entry);

  void MarkDirty(Entry& entry);

  /// Appends the pid to the dirty list unless listed (entry lock held).
  void ListDirty(Entry& entry);
  /// Takes the entry off the dirty count (entry lock held); a stale pid left
  /// in `dirty_` is skipped by the next flush pass. False if not listed.
  bool Unlist(Entry& entry);

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

  /// Store and commit, the write-back lock held and no other cache lock: ONE
  /// StoreFn call (health noted as `source`), then per snapshot under its
  /// entry lock: stored and still current leaves the entry clean and
  /// authoritative (dirty and degraded cleared); still dirty is requeued.
  /// Statuses align with `snapshots`.
  std::vector<Status> WriteBack(std::span<const Snapshot> snapshots,
                                StoreHealthSource source);

  /// Drops `snap.entry` (the write-back lock held) if, under shard.mu plus
  /// the entry's try_lock, it is still mapped, clean and at the snapshot's
  /// epoch.
  bool Unmap(const Snapshot& snap);

  /// Evicts from `shard` until `target_bytes` freed or shard exhausted, under
  /// the write-back lock: victims are snapshotted under shard.mu with
  /// try_lock probing, the dirty ones written back, then each stored victim
  /// unmapped.
  size_t EvictFromShard(LruShard& shard, size_t target_bytes);

  /// Marks the backing store healthy/unhealthy from a flush/load outcome.
  void NoteStoreHealth(const Status& status,
                       StoreHealthSource source = StoreHealthSource::kBatch);

  /// Ends the load begun at unmap count `unmaps` and inserts what it loaded
  /// into its shard, or adopts the entry a concurrent loader already
  /// established. Returns the entry to use, or null when the pid was
  /// unmapped while the load was in flight (the caller loads it again).
  EntryPtr InsertLoaded(ProfileId pid, ProfileData loaded, bool degraded,
                        uint32_t unmaps);

  GCacheOptions options_;
  Clock* clock_;
  LoadFn load_;
  StoreFn store_;
  /// Installed at setup (see set_compaction).
  CompactDueFn next_due_ = [](const ProfileData&, TimestampMs) {
    return std::numeric_limits<TimestampMs>::max();
  };
  CompactSubmitFn submit_compaction_;
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
  Counter* overlap_stalls_counter_ = nullptr;
  Histogram* store_batch_pids_ = nullptr;

  /// The write-back lock (see the file comment): held by every flush pass,
  /// eviction and Invalidate attempt from snapshot to last commit. Always
  /// taken first, never while another cache lock is held.
  std::mutex write_back_mu_;
  std::vector<std::unique_ptr<LruShard>> lru_shards_;
  /// The dirty list (Fig 9); a pass skips a pid no longer resident or no
  /// longer listed.
  mutable std::mutex dirty_mu_;
  std::vector<ProfileId> dirty_;
  /// Entries with in_dirty_list set: what DirtyCount reports. `dirty_` can
  /// be longer, holding pids a write-back unlisted since.
  size_t dirty_listed_ = 0;
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
