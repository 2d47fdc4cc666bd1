#include "cache/gcache.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "cache/victim_cache.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"

namespace ips {

namespace {

size_t RoundUpPow2(size_t n) {
  if (n == 0) return 1;
  while ((n & (n - 1)) != 0) ++n;
  return n;
}

}  // namespace

GCache::GCache(GCacheOptions options, Clock* clock, LoadFn load, StoreFn store,
               MetricsRegistry* metrics)
    : options_(options),
      clock_(clock),
      load_(std::move(load)),
      store_(std::move(store)) {
  if (metrics == nullptr) metrics = &owned_metrics_;
  hit_counter_ = metrics->GetCounter("cache.hit");
  miss_counter_ = metrics->GetCounter("cache.miss");
  batch_loads_counter_ = metrics->GetCounter("cache.batch_loads");
  flushed_counter_ = metrics->GetCounter("cache.flushed");
  flush_failures_counter_ = metrics->GetCounter("cache.flush_failures");
  batch_flushes_counter_ = metrics->GetCounter("cache.batch_flushes");
  evicted_counter_ = metrics->GetCounter("cache.evicted");
  demoted_counter_ = metrics->GetCounter("cache.demoted");
  l2_decode_failures_counter_ =
      metrics->GetCounter("cache_l2.decode_failures");
  overlap_stalls_counter_ = metrics->GetCounter("compaction.overlap_stalls");
  options_.lru_shards = RoundUpPow2(options_.lru_shards);
  options_.dirty_shards = RoundUpPow2(options_.dirty_shards);
  for (size_t i = 0; i < options_.lru_shards; ++i) {
    lru_shards_.push_back(std::make_unique<LruShard>());
  }
  for (size_t i = 0; i < options_.dirty_shards; ++i) {
    dirty_shards_.push_back(std::make_unique<DirtyShard>());
  }
}

GCache::~GCache() {
  // Final write-back so no acknowledged update is lost on clean shutdown.
  FlushAll();
}

size_t GCache::LruIndex(ProfileId pid) const {
  return Mix64(pid) & (options_.lru_shards - 1);
}

size_t GCache::DirtyIndex(ProfileId pid) const {
  // Use a different bit range than the LRU shard index so the two shardings
  // are independent.
  return (Mix64(pid) >> 17) & (options_.dirty_shards - 1);
}

void GCache::TouchLru(LruShard& shard, LruShard::Slot& slot) {
  shard.lru.splice(shard.lru.begin(), shard.lru, slot.lru_it);
}

Result<std::pair<GCache::EntryPtr, bool>> GCache::GetOrLoad(
    ProfileId pid, bool create_if_missing) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  // Every lookup — hit or miss — feeds the victim tier's admission sketch:
  // a profile hot because it is L1-resident must still look hot to the
  // admission check when it is eventually demoted.
  if (victim_cache_ != nullptr) victim_cache_->RecordAccess(pid);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(pid);
    if (it != shard.map.end()) {
      TouchLru(shard, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter_->Increment();
      return std::make_pair(it->second.entry, true);
    }
  }

  // Miss: the same funnel as a batch read (victim tier, then one load), run
  // outside the shard lock — loads can take milliseconds and must not block
  // unrelated traffic on this shard.
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter_->Increment();
  std::vector<bool> degraded;
  std::vector<Result<ProfileData>> loaded = LoadMisses(
      {pid}, &degraded, std::numeric_limits<TimestampMs>::max());
  ProfileData profile(options_.write_granularity_ms);
  if (loaded[0].ok()) {
    profile = std::move(loaded[0]).value();
  } else if (!loaded[0].status().IsNotFound() || !create_if_missing) {
    return loaded[0].status();  // storage unavailable etc.
  }
  return std::make_pair(InsertLoaded(pid, std::move(profile), degraded[0]),
                        false);
}

GCache::EntryPtr GCache::InsertLoaded(ProfileId pid, ProfileData loaded,
                                      bool degraded) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  auto entry = std::make_shared<Entry>(pid, std::move(loaded));
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->bytes = entry->profile.ApproximateBytes();
    entry->degraded = degraded;
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(pid);
  if (!inserted) {
    // Lost a race with a concurrent loader; use the established entry and
    // drop ours. (Its loaded contents are equivalent.)
    TouchLru(shard, it->second);
    return it->second.entry;
  }
  shard.lru.push_front(pid);
  it->second.entry = entry;
  it->second.lru_it = shard.lru.begin();
  shard.bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  memory_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  return entry;
}

bool GCache::TryPromoteFromL2(ProfileId pid, ProfileData* out,
                              bool* out_degraded) {
  std::string encoded;
  bool degraded = false;
  if (!victim_cache_->Take(pid, &encoded, &degraded)) return false;
  const Status decoded = victim_decode_(encoded, out);
  if (!decoded.ok()) {
    // Corrupt demoted bytes: Take already removed them, so the tier cannot
    // serve them again; the miss falls through to the authoritative store.
    l2_decode_failures_counter_->Increment();
    return false;
  }
  *out_degraded = degraded;
  return true;
}

struct GCache::BatchScratch {
  std::vector<EntryPtr> entries;
  /// (pid, occurrence index) per missing occurrence; sorted to group
  /// duplicates without a per-call hash map.
  std::vector<std::pair<ProfileId, uint32_t>> misses;
  std::vector<ProfileId> miss_pids;  // unique, in load order
  /// Phase-3 service order: occurrence indices grouped by entry.
  std::vector<uint32_t> order;
};

GCache::BatchScratch& GCache::ThreadBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

std::vector<Result<ProfileData>> GCache::LoadMisses(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms) {
  // Victim tier first: misses served by promoting demoted bytes never reach
  // the load function at all — a decode instead of a storage round trip.
  const bool tiered = victim_cache_ != nullptr;
  std::vector<Result<ProfileData>> results;
  std::vector<ProfileId> remaining;
  std::vector<size_t> remaining_ix;  // positions in `pids` still to load
  if (tiered) {
    ScopedSpan l2_span("cache.l2_lookup");
    out_degraded->assign(pids.size(), false);
    results.assign(pids.size(),
                   Result<ProfileData>(Status::NotFound("unresolved")));
    for (size_t i = 0; i < pids.size(); ++i) {
      ProfileData promoted(options_.write_granularity_ms);
      bool promoted_degraded = false;
      if (TryPromoteFromL2(pids[i], &promoted, &promoted_degraded)) {
        results[i] = std::move(promoted);
        (*out_degraded)[i] = promoted_degraded;
      } else {
        remaining.push_back(pids[i]);
        remaining_ix.push_back(i);
      }
    }
    if (remaining.empty()) return results;
  }
  const std::vector<ProfileId>& load_pids = tiered ? remaining : pids;

  // One load-function call for what the tier could not serve, with the
  // caller's deadline bounding any wait on a shared load.
  std::vector<bool> loaded_degraded(load_pids.size(), false);
  std::vector<Result<ProfileData>> loaded =
      load_(load_pids, &loaded_degraded, deadline_ms);
  if (loaded.size() != load_pids.size()) {
    loaded.assign(load_pids.size(),
                  Result<ProfileData>(Status::Internal(
                      "load function returned a short result list")));
  }
  if (loaded_degraded.size() != load_pids.size()) {
    loaded_degraded.assign(load_pids.size(), false);
  }

  // Store health is judged ONLY on outcomes that actually touched the load
  // function: a degraded profile served out of the victim tier carries its
  // historical staleness mark and says nothing about the store's current
  // state.
  bool any_unavailable = false;
  bool any_degraded = false;
  for (size_t m = 0; m < loaded.size(); ++m) {
    if (!loaded[m].ok()) {
      if (loaded[m].status().IsUnavailable()) any_unavailable = true;
    } else if (loaded_degraded[m]) {
      any_degraded = true;
    }
  }
  NoteStoreHealth(any_unavailable || any_degraded
                      ? Status::Unavailable("batch load")
                      : Status::OK());

  if (!tiered) {
    *out_degraded = std::move(loaded_degraded);
    return loaded;
  }
  for (size_t m = 0; m < remaining_ix.size(); ++m) {
    results[remaining_ix[m]] = std::move(loaded[m]);
    (*out_degraded)[remaining_ix[m]] = loaded_degraded[m];
  }
  return results;
}

size_t GCache::WithProfiles(
    const std::vector<ProfileId>& pids,
    const std::function<void(size_t, const ProfileData&)>& fn,
    std::vector<Status>* statuses, std::vector<bool>* out_degraded,
    TimestampMs deadline_ms) {
  // Phase 1: partition into hits and misses against the shard maps — a
  // single hash probe per pid resolves the entry and its LRU position
  // together. Misses are coalesced (via sort, not a per-call hash map) so
  // each unique pid is loaded once even when the incoming batch carries
  // duplicates. The cache.lookup span covers the scratch setup and this
  // in-memory partition; the storage round trip (phase 2) reports itself as
  // kv.load / codec.decode from the layers that do the work.
  size_t hits = 0;
  BatchScratch& scratch = ThreadBatchScratch();
  auto& entries = scratch.entries;
  auto& misses = scratch.misses;
  auto& miss_pids = scratch.miss_pids;
  {
    ScopedSpan lookup_span("cache.lookup");
    statuses->assign(pids.size(), Status::OK());
    if (out_degraded != nullptr) out_degraded->assign(pids.size(), false);
    entries.assign(pids.size(), EntryPtr());
    misses.clear();
    miss_pids.clear();
    for (size_t i = 0; i < pids.size(); ++i) {
      const ProfileId pid = pids[i];
      LruShard& shard = *lru_shards_[LruIndex(pid)];
      // Sketch bump outside the shard lock; every occurrence counts (see
      // GetOrLoad).
      if (victim_cache_ != nullptr) victim_cache_->RecordAccess(pid);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it != shard.map.end()) {
        TouchLru(shard, it->second);
        entries[i] = it->second.entry;
        ++hits;
        continue;
      }
      misses.emplace_back(pid, static_cast<uint32_t>(i));
    }
    std::sort(misses.begin(), misses.end());
    for (const auto& [pid, i] : misses) {
      if (miss_pids.empty() || miss_pids.back() != pid) {
        miss_pids.push_back(pid);
      }
    }
    hits_.fetch_add(static_cast<int64_t>(hits), std::memory_order_relaxed);
    misses_.fetch_add(static_cast<int64_t>(miss_pids.size()),
                      std::memory_order_relaxed);
    if (hits > 0) hit_counter_->Increment(static_cast<int64_t>(hits));
    if (!miss_pids.empty()) {
      miss_counter_->Increment(static_cast<int64_t>(miss_pids.size()));
      batch_loads_counter_->Increment();
    }
  }

  // Phase 2: one LoadMisses call covers every miss, outside all shard locks.
  if (!miss_pids.empty()) {
    std::vector<bool> loaded_degraded;
    std::vector<Result<ProfileData>> loaded =
        LoadMisses(miss_pids, &loaded_degraded, deadline_ms);
    // Integrating loaded profiles back into the shard maps (entry creation,
    // LRU insert, accounting) is cache-index work like the phase-1 probe, so
    // it reports under the same cache.lookup stage.
    ScopedSpan insert_span("cache.lookup");
    size_t cursor = 0;  // walks `misses`, whose pids ascend like miss_pids
    for (size_t m = 0; m < miss_pids.size(); ++m) {
      const ProfileId pid = miss_pids[m];
      const size_t begin = cursor;
      while (cursor < misses.size() && misses[cursor].first == pid) ++cursor;
      if (!loaded[m].ok()) {
        for (size_t x = begin; x < cursor; ++x) {
          (*statuses)[misses[x].second] = loaded[m].status();
        }
        continue;
      }
      EntryPtr entry = InsertLoaded(pid, std::move(loaded[m]).value(),
                                    loaded_degraded[m]);
      for (size_t x = begin; x < cursor; ++x) {
        entries[misses[x].second] = entry;
      }
    }
    // Store health was already noted inside LoadMisses, judged only on the
    // subset of misses that actually reached the load function (a
    // victim-tier promotion says nothing about the store).
  }

  // Phase 3: serve each present profile under its entry lock. Occurrences
  // are grouped by entry so every entry is locked exactly ONCE per batch —
  // duplicate pids share a single lock hold and get a stable reference for
  // the whole group instead of re-locking per occurrence. Entries are still
  // locked one at a time, so no lock-order concerns.
  const bool store_unhealthy = StoreUnhealthy();
  auto& order = scratch.order;
  {
    // Grouping occurrences by entry is cache-index bookkeeping, same stage
    // as the phase-1 probe. The locked serve loop below is not spanned — it
    // nests the caller's feature.compute spans.
    ScopedSpan group_span("cache.lookup");
    order.clear();
    for (size_t i = 0; i < pids.size(); ++i) {
      if (entries[i]) order.push_back(static_cast<uint32_t>(i));
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const Entry* ea = entries[a].get();
      const Entry* eb = entries[b].get();
      if (ea != eb) return ea < eb;
      return a < b;  // per-entry occurrence order stays deterministic
    });
  }
  for (size_t x = 0; x < order.size();) {
    Entry* const entry = entries[order[x]].get();
    std::lock_guard<std::mutex> lock(entry->mu);
    const bool degraded = entry->degraded || store_unhealthy;
    do {
      const uint32_t i = order[x];
      fn(i, entry->profile);
      if (out_degraded != nullptr) (*out_degraded)[i] = degraded;
      ++x;
    } while (x < order.size() && entries[order[x]].get() == entry);
  }
  // Drop the entry references before the next batch reuses the buffer.
  entries.clear();
  return hits;
}

void GCache::UpdateAccounting(LruShard& shard, Entry& entry) {
  const size_t now_bytes = entry.profile.ApproximateBytes();
  const size_t old_bytes = entry.bytes;
  entry.bytes = now_bytes;
  if (now_bytes >= old_bytes) {
    const size_t delta = now_bytes - old_bytes;
    shard.bytes.fetch_add(delta, std::memory_order_relaxed);
    memory_bytes_.fetch_add(delta, std::memory_order_relaxed);
  } else {
    const size_t delta = old_bytes - now_bytes;
    shard.bytes.fetch_sub(delta, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(delta, std::memory_order_relaxed);
  }
}

void GCache::MarkDirty(Entry& entry) {
  // Caller holds entry.mu. The epoch bump is what lets an unlocked
  // snapshot-flush detect writes that landed during its storage round trip.
  ++entry.mutation_epoch;
  if (entry.dirty) return;
  entry.dirty = true;
  DirtyShard& dshard = *dirty_shards_[DirtyIndex(entry.pid)];
  std::lock_guard<std::mutex> lock(dshard.mu);
  if (!entry.in_dirty_list) {
    dshard.dirty.push_back(entry.pid);
    entry.in_dirty_list = true;
  }
}

void GCache::NoteStoreHealth(const Status& status, StoreHealthSource source) {
  if (status.IsUnavailable()) {
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(true, std::memory_order_relaxed);
    return;
  }
  if (source == StoreHealthSource::kBatch) {
    // A batch pass swept many pids against the store — representative, so
    // one success clears the flag outright (and resets the point streak;
    // it is only meaningful as *consecutive* successes).
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(false, std::memory_order_relaxed);
    return;
  }
  // Point observation (single-pid eviction/Invalidate write-back). One lucky
  // success mid-outage must not clear the flag while batch traffic is still
  // failing — that flapped the degraded-read marking on and off. Require a
  // streak before trusting it.
  if (!store_unhealthy_.load(std::memory_order_relaxed)) return;
  const int streak =
      point_success_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kPointHealthClearStreak) {
    point_success_streak_.store(0, std::memory_order_relaxed);
    store_unhealthy_.store(false, std::memory_order_relaxed);
  }
}

Status GCache::WithProfile(ProfileId pid,
                           const std::function<void(const ProfileData&)>& fn,
                           bool* out_was_hit, bool* out_degraded) {
  if (out_was_hit != nullptr) *out_was_hit = false;
  if (out_degraded != nullptr) *out_degraded = false;
  IPS_ASSIGN_OR_RETURN(auto pair, GetOrLoad(pid, /*create_if_missing=*/false));
  auto& [entry, was_hit] = pair;
  if (out_was_hit != nullptr) *out_was_hit = was_hit;
  const bool store_unhealthy = StoreUnhealthy();
  std::lock_guard<std::mutex> lock(entry->mu);
  fn(entry->profile);
  if (out_degraded != nullptr) {
    *out_degraded = entry->degraded || store_unhealthy;
  }
  return Status::OK();
}

Status GCache::WithProfileMutable(
    ProfileId pid, const std::function<void(ProfileData&)>& fn,
    bool* out_was_hit) {
  if (out_was_hit != nullptr) *out_was_hit = false;
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  // Retry loop: between GetOrLoad handing back the entry and this thread
  // acquiring its lock, a concurrent eviction/Invalidate may have unmapped
  // it. Writing into an unmapped entry would be silently lost (no flush pass
  // can reach it), so re-resolve instead. Terminates in practice: each retry
  // re-inserts the entry at the LRU front, where an eviction pass cannot
  // reach it without first draining the whole shard.
  while (true) {
    IPS_ASSIGN_OR_RETURN(auto pair,
                         GetOrLoad(pid, /*create_if_missing=*/true));
    auto& [entry, was_hit] = pair;
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->evicted) continue;
    if (out_was_hit != nullptr) *out_was_hit = was_hit;
    fn(entry->profile);
    UpdateAccounting(shard, *entry);
    MarkDirty(*entry);
    return Status::OK();
  }
}

Status GCache::WithProfileOffLockMutate(
    ProfileId pid, const std::function<bool(ProfileData&)>& work,
    int max_retries) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    // Resolve the resident entry without touching LRU recency: a
    // maintenance pass reading a profile is not evidence of user interest,
    // and promoting victims-to-be would fight the eviction policy.
    EntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it == shard.map.end()) {
        return Status::NotFound("profile not resident");
      }
      entry = it->second.entry;
    }
    Snapshot snap;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->evicted) {
        // Unmapped between the shard lookup and the entry lock; re-resolve.
        continue;
      }
      snap = TakeSnapshot(std::move(entry));
    }

    // The expensive part — merge/truncate/shrink — runs here with no lock
    // held, overlapping serving writes and dirty-shard flushes of the same
    // entry.
    if (!work(snap.profile)) return Status::OK();

    {
      Entry& current = *snap.entry;
      std::lock_guard<std::mutex> lock(current.mu);
      if (!SnapshotCurrent(current, snap.epoch)) {
        // A write (or an eviction) landed during the unlocked pass.
        // Committing the stale snapshot would silently drop that write, so
        // throw this pass away and redo it from the current state.
        overlap_stalls_counter_->Increment();
        continue;
      }
      current.profile = std::move(snap.profile);
      UpdateAccounting(shard, current);
      MarkDirty(current);
    }
    return Status::OK();
  }
  return Status::Aborted("off-lock mutate kept losing the epoch race");
}

GCache::Snapshot GCache::TakeSnapshot(EntryPtr entry, bool with_profile) {
  Snapshot snap;
  snap.epoch = entry->mutation_epoch;
  if (with_profile) snap.profile = entry->profile;
  snap.entry = std::move(entry);
  return snap;
}

bool GCache::CommitWriteBack(Entry& entry, uint64_t epoch) {
  if (!SnapshotCurrent(entry, epoch)) return false;
  // The snapshot (== current state, by the recheck) reached the store:
  // whatever stale base the entry was loaded from, the persisted copy is
  // now the authoritative merge.
  entry.dirty = false;
  entry.degraded = false;
  return true;
}

std::vector<Status> GCache::StoreSnapshots(std::span<const Snapshot> snapshots,
                                           StoreHealthSource source) {
  std::vector<ProfileId> pids;
  std::vector<uint64_t> epochs;
  std::vector<const ProfileData*> profiles;
  pids.reserve(snapshots.size());
  epochs.reserve(snapshots.size());
  profiles.reserve(snapshots.size());
  for (const Snapshot& snap : snapshots) {
    pids.push_back(snap.entry->pid);
    epochs.push_back(snap.epoch);
    profiles.push_back(&snap.profile);
  }
  std::vector<Status> statuses = store_(pids, epochs, profiles);
  if (statuses.size() != pids.size()) {
    statuses.assign(pids.size(),
                    Status::Internal("store function returned a short "
                                     "result list"));
  }
  size_t stored = 0;
  bool any_unavailable = false;
  for (const Status& status : statuses) {
    if (status.ok()) {
      ++stored;
    } else if (status.IsUnavailable()) {
      any_unavailable = true;
    }
  }
  NoteStoreHealth(any_unavailable ? Status::Unavailable("write-back")
                                  : Status::OK(),
                  source);
  if (stored > 0) flushed_counter_->Increment(static_cast<int64_t>(stored));
  if (stored < statuses.size()) {
    flush_failures_counter_->Increment(
        static_cast<int64_t>(statuses.size() - stored));
  }
  return statuses;
}

size_t GCache::EvictFromShard(LruShard& shard, size_t target_bytes) {
  // The write-back step applied to eviction victims, so a KV millisecond of
  // a dirty victim's write-back never blocks traffic on the shard. Phases:
  //   1. collect victims under shard.mu (try_lock probing, Fig 8),
  //      snapshotting one entry lock at a time;
  //   2. store the dirty victims with NO lock held (point-source health: a
  //      lone eviction success must not clear an outage flag batch traffic
  //      still sees);
  //   3. encode surviving victims for L2 demotion, still unlocked;
  //   4. commit per victim under shard.mu + entry try_lock with the epoch
  //      recheck — an entry re-dirtied during the round trip stays resident
  //      with its newer state. The demotion Put happens under shard.mu
  //      BEFORE the map erase, so no concurrent reload can slip a fresh entry
  //      in while stale bytes land in L2, and Invalidate (which erases L2
  //      under shard.mu once the pid is unmapped) cannot be overtaken.
  // Dirty victims first, then clean ones: the store takes the dirty prefix.
  std::vector<Snapshot> victims;
  size_t num_dirty = 0;
  {
    std::vector<Snapshot> clean;
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t planned = 0;
    auto it = shard.lru.end();
    while (planned < target_bytes && it != shard.lru.begin()) {
      --it;
      const ProfileId pid = *it;
      auto map_it = shard.map.find(pid);
      if (map_it == shard.map.end()) {
        // Stale pid in the list; drop it. (Unreachable now that the map slot
        // owns the list position, kept as a cheap guard.)
        it = shard.lru.erase(it);
        continue;
      }
      EntryPtr entry = map_it->second.entry;
      // Fig 8: probe with try_lock; a contended entry is being served right
      // now — skip it and move up the list instead of blocking.
      std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
      if (!entry_lock.owns_lock()) continue;
      planned += entry->bytes;
      // Clean victims only need the profile when a tier exists to demote
      // them into; dirty ones always need it for the write-back.
      if (entry->dirty) {
        victims.push_back(TakeSnapshot(std::move(entry)));
      } else {
        clean.push_back(
            TakeSnapshot(std::move(entry), victim_cache_ != nullptr));
      }
    }
    num_dirty = victims.size();
    std::move(clean.begin(), clean.end(), std::back_inserter(victims));
  }
  if (victims.empty()) return 0;

  std::vector<Status> statuses(victims.size(), Status::OK());
  if (num_dirty > 0) {
    std::vector<Status> stored =
        StoreSnapshots(std::span<const Snapshot>(victims.data(), num_dirty),
                       StoreHealthSource::kPoint);
    std::move(stored.begin(), stored.end(), statuses.begin());
  }

  // Phase 3: encode demotions from the snapshots, still unlocked (the codec
  // walk can be hundreds of microseconds for large profiles). WouldAdmit
  // pre-check skips the encode for scan traffic the tier would reject.
  std::vector<std::string> encoded(victims.size());
  std::vector<bool> demote(victims.size(), false);
  if (victim_cache_ != nullptr) {
    for (size_t i = 0; i < victims.size(); ++i) {
      if (!statuses[i].ok()) continue;  // stays resident; nothing to demote
      if (!victim_cache_->WouldAdmit(victims[i].entry->pid)) continue;
      victim_encode_(victims[i].profile, &encoded[i]);
      demote[i] = true;
    }
  }

  // Phase 4: commit.
  size_t evicted = 0;
  size_t demoted = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    if (!statuses[i].ok()) continue;  // write-back failed: flush later, keep
    const Snapshot& v = victims[i];
    const ProfileId pid = v.entry->pid;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto map_it = shard.map.find(pid);
    if (map_it == shard.map.end() || map_it->second.entry != v.entry) {
      continue;  // already gone / replaced while unlocked
    }
    std::unique_lock<std::mutex> entry_lock(v.entry->mu, std::try_to_lock);
    if (!entry_lock.owns_lock()) continue;  // being served again — keep it
    Entry& entry = *v.entry;
    // A dirty victim commits its write-back; a clean one only rechecks (its
    // degraded mark rides into the tier). Either way a write that landed
    // mid-flight keeps the entry resident.
    if (i < num_dirty ? !CommitWriteBack(entry, v.epoch)
                      : !SnapshotCurrent(entry, v.epoch)) {
      continue;
    }
    if (demote[i]) {
      if (victim_cache_->Put(pid, std::move(encoded[i]), entry.degraded)) {
        ++demoted;
      }
    }
    entry.evicted = true;
    const size_t bytes = entry.bytes;
    shard.lru.erase(map_it->second.lru_it);
    shard.map.erase(map_it);
    shard.bytes.fetch_sub(bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    ++evicted;
  }
  if (evicted > 0) evicted_counter_->Increment(static_cast<int64_t>(evicted));
  if (demoted > 0) demoted_counter_->Increment(static_cast<int64_t>(demoted));
  return evicted;
}

size_t GCache::SwapOnce() {
  const size_t high = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) *
      options_.high_watermark);
  const size_t low = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) *
      options_.low_watermark);
  size_t evicted = 0;
  // Evict starting from the largest shard until usage drops under the low
  // watermark (the paper's largest-shard-first strategy).
  while (MemoryBytes() > high) {
    LruShard* largest = nullptr;
    size_t largest_bytes = 0;
    for (auto& shard : lru_shards_) {
      const size_t b = shard->bytes.load(std::memory_order_relaxed);
      if (b > largest_bytes) {
        largest_bytes = b;
        largest = shard.get();
      }
    }
    if (largest == nullptr || largest_bytes == 0) break;
    const size_t over = MemoryBytes() - low;
    const size_t pass = EvictFromShard(*largest, std::min(over, largest_bytes));
    if (pass == 0) break;  // everything contended or dirty-unflushable
    evicted += pass;
    if (MemoryBytes() <= low) break;
  }
  return evicted;
}

size_t GCache::FlushShard(DirtyShard& dshard, bool* clean) {
  // Grab the current batch; new dirties accumulate behind it.
  std::list<ProfileId> batch;
  {
    std::lock_guard<std::mutex> lock(dshard.mu);
    batch.swap(dshard.dirty);
  }
  size_t flushed = 0;
  size_t failures = 0;
  std::list<ProfileId> requeue;
  const size_t group_max = std::max<size_t>(1, options_.flush_batch_max);
  auto it = batch.begin();
  while (it != batch.end()) {
    if (failures >= options_.max_flush_failures_per_pass) {
      // The store is misbehaving: stop the pass and requeue the untried
      // remainder rather than grinding through the whole dirty list (the
      // caller backs off between passes).
      requeue.insert(requeue.end(), it, batch.end());
      *clean = false;
      break;
    }

    // Snapshot the next group, entries locked strictly one at a time.
    std::vector<Snapshot> group;
    while (it != batch.end() && group.size() < group_max) {
      const ProfileId pid = *it;
      ++it;
      LruShard& shard = *lru_shards_[LruIndex(pid)];
      EntryPtr entry;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto map_it = shard.map.find(pid);
        if (map_it != shard.map.end()) entry = map_it->second.entry;
      }
      if (!entry) continue;  // evicted (was flushed on eviction)
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      {
        std::lock_guard<std::mutex> dlock(dshard.mu);
        entry->in_dirty_list = false;
      }
      if (!entry->dirty) continue;
      group.push_back(TakeSnapshot(std::move(entry)));
    }
    if (group.empty()) continue;

    // One storage round trip per group, outside every entry lock.
    const std::vector<Status> statuses =
        StoreSnapshots(group, StoreHealthSource::kBatch);
    batch_flushes_counter_->Increment();

    // Commit: an entry still dirty afterwards — its store failed, or a write
    // landed during the round trip — goes back on the list. A stored
    // snapshot counts as progress either way.
    for (size_t g = 0; g < group.size(); ++g) {
      Entry& entry = *group[g].entry;
      std::lock_guard<std::mutex> entry_lock(entry.mu);
      if (statuses[g].ok()) {
        ++flushed;
        CommitWriteBack(entry, group[g].epoch);
      } else {
        ++failures;
      }
      if (!entry.dirty) continue;
      std::lock_guard<std::mutex> dlock(dshard.mu);
      if (!entry.in_dirty_list) {
        requeue.push_back(entry.pid);
        entry.in_dirty_list = true;
      }
    }
  }
  if (!requeue.empty()) {
    std::lock_guard<std::mutex> lock(dshard.mu);
    dshard.dirty.splice(dshard.dirty.end(), requeue);
  }
  if (failures > 0) *clean = false;
  return flushed;
}

size_t GCache::FlushOnce() {
  size_t flushed = 0;
  bool clean = true;
  for (auto& shard : dirty_shards_) flushed += FlushShard(*shard, &clean);
  // The backoff step. Concurrent passes (the maintenance loop and a caller's
  // FlushAll) may race it; either outcome is a valid delay.
  const int64_t backoff_ms = FlushBackoffMs();
  flush_backoff_ms_.store(
      clean ? 0
            : std::min(options_.flush_backoff_max_ms,
                       backoff_ms > 0 ? backoff_ms * 2
                                      : options_.flush_backoff_ms),
      std::memory_order_relaxed);
  return flushed;
}

void GCache::FlushAll() {
  // Loop because flushes may fail transiently (injected storage errors) and
  // new dirties can appear. Failing passes wait out the flush backoff, and
  // the loop gives up after a few rounds of zero progress — a dead store at
  // shutdown must not hold the destructor hostage. A pass can flush nothing
  // while reporting no failures (max_flush_failures_per_pass of 0 requeues
  // everything untried); it is not clean, so it backs off like any other
  // stuck pass.
  int stuck_rounds = 0;
  for (int round = 0; round < 64; ++round) {
    const size_t flushed = FlushOnce();
    const int64_t backoff_ms = FlushBackoffMs();
    if (flushed == 0 && backoff_ms == 0 && DirtyCount() == 0) return;
    if (flushed > 0) {
      stuck_rounds = 0;
    } else if (++stuck_rounds >= 4) {
      break;
    }
    clock_->SleepMs(backoff_ms);
  }
  IPS_LOG(Warn) << "FlushAll: dirty entries remain after bounded retries";
}

Status GCache::Invalidate(ProfileId pid) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  // Called with shard.mu held once the map no longer holds the pid: the
  // profile must leave EVERY tier, and eviction demotes (Puts) under
  // shard.mu before unmapping, so no demotion of this pid can land after
  // this erase and leave stale bytes to serve a miss after the handover.
  auto erase_from_l2 = [&] {
    if (victim_cache_ != nullptr) victim_cache_->Erase(pid);
    return Status::OK();
  };
  // Each attempt runs the write-back step on a dirty entry (no lock held
  // across the store), then erases under both locks only if the entry is
  // still clean; a write that landed meanwhile re-dirties it and sends us
  // around again.
  for (int attempt = 0; attempt < 16; ++attempt) {
    EntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it == shard.map.end()) return erase_from_l2();
      entry = it->second.entry;
    }
    std::vector<Snapshot> snap;
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (entry->evicted) continue;  // raced an eviction; re-probe the map
      if (entry->dirty) snap.push_back(TakeSnapshot(entry));
    }
    if (!snap.empty()) {
      const Status stored =
          StoreSnapshots(snap, StoreHealthSource::kPoint).front();
      if (!stored.ok()) return stored;
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      CommitWriteBack(*entry, snap[0].epoch);
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(pid);
    if (it == shard.map.end()) return erase_from_l2();
    if (it->second.entry != entry) continue;  // reloaded meanwhile: redo
    std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
    // Contended: a writer may hold the lock right now — re-run the check
    // rather than erasing state we have not re-examined. Dirty: a write
    // landed during the write-back; write back again.
    if (!entry_lock.owns_lock() || entry->dirty) continue;
    entry->evicted = true;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
    shard.bytes.fetch_sub(entry->bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
    return erase_from_l2();
  }
  return Status::Aborted("invalidate: entry kept being re-dirtied");
}

std::vector<ProfileId> GCache::CachedIds() const {
  std::vector<ProfileId> ids;
  for (const auto& shard : lru_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, slot] : shard->map) ids.push_back(pid);
  }
  return ids;
}

size_t GCache::EntryCount() const {
  size_t total = 0;
  for (const auto& shard : lru_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

size_t GCache::DirtyCount() const {
  size_t total = 0;
  for (const auto& shard : dirty_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->dirty.size();
  }
  return total;
}

double GCache::HitRatio() const {
  const int64_t h = hits_.load(std::memory_order_relaxed);
  const int64_t m = misses_.load(std::memory_order_relaxed);
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace ips
