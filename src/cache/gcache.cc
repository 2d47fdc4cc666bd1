#include "cache/gcache.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

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
  overlap_stalls_counter_ = metrics->GetCounter("compaction.overlap_stalls");
  store_batch_pids_ = metrics->GetHistogram("store_broker.batch_pids");
  options_.lru_shards = RoundUpPow2(options_.lru_shards);
  for (size_t i = 0; i < options_.lru_shards; ++i) {
    lru_shards_.push_back(std::make_unique<LruShard>());
  }
}

GCache::~GCache() {
  // Final write-back so no acknowledged update is lost on clean shutdown.
  FlushAll();
}

size_t GCache::LruIndex(ProfileId pid) const {
  return Mix64(pid) & (options_.lru_shards - 1);
}

GCache::EntryPtr GCache::FindResident(ProfileId pid) const {
  const LruShard& shard = *lru_shards_[LruIndex(pid)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(pid);
  return it == shard.map.end() ? nullptr : it->second.entry;
}

void GCache::TouchLru(LruShard& shard, LruShard::Slot& slot) {
  shard.lru.splice(shard.lru.begin(), shard.lru, slot.lru_it);
}

uint32_t GCache::BeginLoad(ProfileId pid) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  std::lock_guard<std::mutex> lock(shard.mu);
  LruShard::Loads& loads = shard.loads[pid];
  ++loads.in_flight;
  return loads.unmaps;
}

bool GCache::EndLoad(LruShard& shard, ProfileId pid, uint32_t unmaps) {
  auto it = shard.loads.find(pid);
  const bool current = it->second.unmaps == unmaps;
  if (--it->second.in_flight == 0) shard.loads.erase(it);
  return current;
}

GCache::EntryPtr GCache::InsertLoaded(ProfileId pid, ProfileData loaded,
                                      bool degraded, uint32_t unmaps) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  auto entry = std::make_shared<Entry>(pid, std::move(loaded));
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->bytes = entry->profile.ApproximateBytes();
    entry->degraded = degraded;
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  const bool current = EndLoad(shard, pid, unmaps);
  auto [it, inserted] = shard.map.try_emplace(pid);
  if (!inserted) {
    // Lost a race with a concurrent loader; use the established entry and
    // drop ours. (It holds every write our bytes could have seen.)
    TouchLru(shard, it->second);
    return it->second.entry;
  }
  if (!current) {
    // Unmapped while this load was in flight: a write the unmap's write-back
    // stored may be missing from our bytes.
    shard.map.erase(it);
    return nullptr;
  }
  shard.lru.push_front(pid);
  it->second.entry = entry;
  it->second.lru_it = shard.lru.begin();
  shard.bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  memory_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  // Due time under the shard lock, so a concurrent MarkAllCompactionDue
  // either finds this entry or ran before the due function is read.
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  entry->compact_due_ms = next_due_(entry->profile, clock_->NowMs());
  return entry;
}

struct GCache::BatchScratch {
  std::vector<EntryPtr> entries;
  /// (pid, occurrence index) per missing occurrence; sorted to group
  /// duplicates without a per-call hash map.
  std::vector<std::pair<ProfileId, uint32_t>> misses;
  std::vector<ProfileId> miss_pids;  // unique, in load order
  std::vector<uint32_t> miss_unmaps;  // BeginLoad's result per miss_pids
  /// Service order: occurrence indices grouped by entry (see ResolveBatch).
  std::vector<uint32_t> order;
};

GCache::BatchScratch& GCache::ThreadBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

std::vector<Result<ProfileData>> GCache::LoadMisses(
    const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded) {
  out_degraded->assign(pids.size(), false);
  std::vector<Result<ProfileData>> loaded = load_(pids, out_degraded);
  if (loaded.size() != pids.size()) {
    loaded.assign(pids.size(),
                  Result<ProfileData>(Status::Internal(
                      "load function returned a short result list")));
  }
  if (out_degraded->size() != pids.size()) {
    out_degraded->assign(pids.size(), false);
  }

  bool any_unavailable = false;
  bool any_degraded = false;
  for (size_t m = 0; m < loaded.size(); ++m) {
    if (!loaded[m].ok()) {
      if (loaded[m].status().IsUnavailable()) any_unavailable = true;
    } else if ((*out_degraded)[m]) {
      any_degraded = true;
    }
  }
  NoteStoreHealth(any_unavailable || any_degraded
                      ? Status::Unavailable("batch load")
                      : Status::OK());
  return loaded;
}

size_t GCache::ResolveBatch(std::span<const ProfileId> pids,
                            std::vector<Status>* statuses,
                            bool create_if_missing, BatchScratch& scratch) {
  // Phase 1: partition into hits and misses against the shard maps — a
  // single hash probe per pid resolves the entry and its LRU position
  // together. Misses are coalesced (via sort, not a per-call hash map) so
  // each unique pid is loaded once even when the incoming batch carries
  // duplicates, and each load is registered before it reads storage (see
  // BeginLoad). The cache.lookup span covers the scratch setup and this
  // in-memory partition; the storage round trip (phase 2) reports itself as
  // kv.load / codec.decode from the layers that do the work.
  size_t hits = 0;
  auto& entries = scratch.entries;
  auto& misses = scratch.misses;
  auto& miss_pids = scratch.miss_pids;
  auto& miss_unmaps = scratch.miss_unmaps;
  {
    ScopedSpan lookup_span("cache.lookup");
    statuses->assign(pids.size(), Status::OK());
    entries.assign(pids.size(), EntryPtr());
    misses.clear();
    miss_pids.clear();
    miss_unmaps.clear();
    for (size_t i = 0; i < pids.size(); ++i) {
      const ProfileId pid = pids[i];
      LruShard& shard = *lru_shards_[LruIndex(pid)];
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
        miss_unmaps.push_back(BeginLoad(pid));
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
  // A pid unmapped while its load was in flight goes round once more, with
  // a load registered after that unmap.
  while (!miss_pids.empty()) {
    std::vector<bool> loaded_degraded;
    std::vector<Result<ProfileData>> loaded =
        LoadMisses(miss_pids, &loaded_degraded);
    // Integrating loaded profiles back into the shard maps (entry creation,
    // LRU insert, accounting) is cache-index work like the phase-1 probe, so
    // it reports under the same cache.lookup stage.
    ScopedSpan insert_span("cache.lookup");
    size_t reload = 0;  // stale pids, compacted to the front of miss_pids
    size_t cursor = 0;  // walks `misses`, whose pids ascend like miss_pids
    for (size_t m = 0; m < miss_pids.size(); ++m) {
      const ProfileId pid = miss_pids[m];
      while (misses[cursor].first < pid) ++cursor;
      const size_t begin = cursor;
      while (cursor < misses.size() && misses[cursor].first == pid) ++cursor;
      if (!loaded[m].ok() &&
          (!create_if_missing || !loaded[m].status().IsNotFound())) {
        {
          LruShard& shard = *lru_shards_[LruIndex(pid)];
          std::lock_guard<std::mutex> lock(shard.mu);
          EndLoad(shard, pid, miss_unmaps[m]);
        }
        for (size_t x = begin; x < cursor; ++x) {
          (*statuses)[misses[x].second] = loaded[m].status();
        }
        continue;
      }
      EntryPtr entry = InsertLoaded(
          pid,
          loaded[m].ok() ? std::move(loaded[m]).value()
                         : ProfileData(options_.write_granularity_ms),
          loaded_degraded[m], miss_unmaps[m]);
      if (!entry) {
        miss_pids[reload++] = pid;
        continue;
      }
      for (size_t x = begin; x < cursor; ++x) {
        entries[misses[x].second] = entry;
      }
    }
    miss_pids.resize(reload);
    miss_unmaps.resize(reload);
    for (size_t m = 0; m < reload; ++m) {
      miss_unmaps[m] = BeginLoad(miss_pids[m]);
    }
  }

  // Service order: occurrences grouped by entry so the caller locks every
  // entry exactly ONCE per batch — duplicate pids share a single lock hold.
  // Grouping is cache-index bookkeeping, same stage as the phase-1 probe.
  ScopedSpan group_span("cache.lookup");
  auto& order = scratch.order;
  order.clear();
  for (size_t i = 0; i < pids.size(); ++i) {
    if (entries[i]) order.push_back(static_cast<uint32_t>(i));
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Entry* ea = entries[a].get();
    const Entry* eb = entries[b].get();
    if (ea != eb) return ea < eb;
    return a < b;  // input order within an entry
  });
  return hits;
}

size_t GCache::WithProfiles(
    std::span<const ProfileId> pids,
    FunctionRef<void(size_t, const ProfileData&)> fn,
    std::vector<Status>* statuses, std::vector<bool>* out_degraded) {
  BatchScratch& scratch = ThreadBatchScratch();
  if (out_degraded != nullptr) out_degraded->assign(pids.size(), false);
  const size_t hits =
      ResolveBatch(pids, statuses, /*create_if_missing=*/false, scratch);

  // Serve each present profile under its entry lock, one entry at a time
  // (no lock-order concerns). Not spanned: it nests the caller's
  // feature.compute spans.
  const bool store_unhealthy = StoreUnhealthy();
  const TimestampMs now_ms = clock_->NowMs();
  std::vector<EntryPtr> due;
  const auto& entries = scratch.entries;
  const auto& order = scratch.order;
  for (size_t x = 0; x < order.size();) {
    const EntryPtr& entry = entries[order[x]];
    std::lock_guard<std::mutex> lock(entry->mu);
    const bool degraded = entry->degraded || store_unhealthy;
    do {
      const uint32_t i = order[x];
      fn(i, entry->profile);
      if (out_degraded != nullptr) (*out_degraded)[i] = degraded;
      ++x;
    } while (x < order.size() && entries[order[x]] == entry);
    if (!entry->compaction_queued && now_ms >= entry->compact_due_ms) {
      entry->compaction_queued = true;
      due.push_back(entry);
    }
  }
  // Drop the entry references before the next batch reuses the buffer.
  scratch.entries.clear();
  SubmitCompactions(due);
  return hits;
}

size_t GCache::WithProfilesMutable(std::span<const ProfileId> pids,
                                   FunctionRef<void(size_t, ProfileData&)> fn,
                                   std::vector<Status>* statuses) {
  BatchScratch& scratch = ThreadBatchScratch();
  const size_t hits =
      ResolveBatch(pids, statuses, /*create_if_missing=*/true, scratch);
  // Between the lookup handing back an entry and this thread locking it, an
  // eviction or Invalidate may unmap it. A write into an unmapped entry
  // would be lost (no flush pass can reach it), so those occurrences are
  // looked up again. This ends in practice: the lookup re-inserts the entry
  // at the LRU front, where an eviction pass cannot reach it without first
  // draining the whole shard.
  std::vector<ProfileId> retry_pids;
  std::vector<size_t> retry_ix;  // index into `pids` per retried occurrence
  const TimestampMs now_ms = clock_->NowMs();
  std::vector<EntryPtr> due;
  const auto& entries = scratch.entries;
  const auto& order = scratch.order;
  for (size_t x = 0; x < order.size();) {
    const EntryPtr& entry = entries[order[x]];
    std::lock_guard<std::mutex> lock(entry->mu);
    do {
      if (entry->evicted) {
        retry_pids.push_back(entry->pid);
        retry_ix.push_back(order[x]);
      } else {
        fn(order[x], entry->profile);
      }
      ++x;
    } while (x < order.size() && entries[order[x]] == entry);
    if (!entry->evicted) {
      UpdateAccounting(*lru_shards_[LruIndex(entry->pid)], *entry);
      MarkDirty(*entry);
      entry->compact_due_ms = next_due_(entry->profile, now_ms);
      if (!entry->compaction_queued && now_ms >= entry->compact_due_ms) {
        entry->compaction_queued = true;
        due.push_back(entry);
      }
    }
  }
  scratch.entries.clear();
  SubmitCompactions(due);
  if (!retry_pids.empty()) {
    std::vector<Status> retry_statuses;
    WithProfilesMutable(
        retry_pids,
        [&](size_t j, ProfileData& profile) { fn(retry_ix[j], profile); },
        &retry_statuses);
    for (size_t j = 0; j < retry_ix.size(); ++j) {
      (*statuses)[retry_ix[j]] = retry_statuses[j];
    }
  }
  return hits;
}

void GCache::SubmitCompactions(const std::vector<EntryPtr>& due) {
  for (const EntryPtr& entry : due) {
    if (submit_compaction_(entry->pid)) continue;
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->compaction_queued = false;
  }
}

void GCache::MarkAllCompactionDue() {
  if (!submit_compaction_) return;
  std::vector<EntryPtr> entries;
  for (const auto& shard : lru_shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, slot] : shard->map) entries.push_back(slot.entry);
  }
  for (const EntryPtr& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->compact_due_ms = std::numeric_limits<TimestampMs>::min();
  }
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
  // The epoch bump is what lets an unlocked write-back detect writes that
  // landed during its storage round trip.
  ++entry.mutation_epoch;
  entry.dirty = true;
  ListDirty(entry);
}

void GCache::ListDirty(Entry& entry) {
  if (entry.in_dirty_list) return;
  entry.in_dirty_list = true;
  std::lock_guard<std::mutex> lock(dirty_mu_);
  dirty_.push_back(entry.pid);
  ++dirty_listed_;
}

bool GCache::Unlist(Entry& entry) {
  if (!std::exchange(entry.in_dirty_list, false)) return false;
  std::lock_guard<std::mutex> lock(dirty_mu_);
  --dirty_listed_;
  return true;
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
                           FunctionRef<void(const ProfileData&)> fn,
                           bool* out_was_hit, bool* out_degraded) {
  std::vector<Status> statuses;
  std::vector<bool> degraded;
  const size_t hits = WithProfiles(
      std::span(&pid, 1),
      [&](size_t, const ProfileData& profile) { fn(profile); }, &statuses,
      &degraded);
  if (out_was_hit != nullptr) *out_was_hit = hits > 0;
  if (out_degraded != nullptr) *out_degraded = degraded[0];
  return statuses[0];
}

Status GCache::WithProfileMutable(ProfileId pid,
                                  FunctionRef<void(ProfileData&)> fn,
                                  bool* out_was_hit) {
  std::vector<Status> statuses;
  const size_t hits = WithProfilesMutable(
      std::span(&pid, 1), [&](size_t, ProfileData& profile) { fn(profile); },
      &statuses);
  if (out_was_hit != nullptr) *out_was_hit = hits > 0;
  return statuses[0];
}

Status GCache::WithProfileOffLockMutate(
    ProfileId pid, const std::function<bool(ProfileData&)>& work,
    int max_retries) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  EntryPtr entry;
  for (int attempt = 0;; ++attempt) {
    // No LRU touch: promoting victims-to-be would fight the eviction policy.
    entry = FindResident(pid);
    if (!entry) return Status::NotFound("profile not resident");
    std::unique_lock<std::mutex> lock(entry->mu);
    if (entry->evicted) {
      // Unmapped between the shard lookup and the entry lock; re-resolve.
      continue;
    }
    Snapshot snap = TakeSnapshot(entry);
    // Every off-lock attempt lost the race: run the pass once more with the
    // entry lock held throughout, so no write can land mid-pass.
    const bool locked_pass = attempt > max_retries;
    if (!locked_pass) {
      // The expensive part — merge/truncate/shrink — runs here with no lock
      // held, overlapping serving writes and flush passes over the same
      // entry.
      lock.unlock();
    }
    if (!work(snap.profile)) break;
    if (!locked_pass) {
      lock.lock();
      if (!SnapshotCurrent(*entry, snap.epoch)) {
        // A write (or an eviction) landed during the unlocked pass.
        // Committing the stale snapshot would silently drop that write, so
        // throw this pass away and redo it from the current state.
        overlap_stalls_counter_->Increment();
        continue;
      }
    }
    entry->profile = std::move(snap.profile);
    UpdateAccounting(shard, *entry);
    MarkDirty(*entry);
    break;
  }
  // Every exit but NotFound ends the pass's compaction claim.
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->compaction_queued = false;
  entry->compact_due_ms = next_due_(entry->profile, clock_->NowMs());
  return Status::OK();
}

GCache::Snapshot GCache::TakeSnapshot(EntryPtr entry, bool with_profile) {
  Snapshot snap;
  snap.epoch = entry->mutation_epoch;
  if (with_profile) snap.profile = entry->profile;
  snap.entry = std::move(entry);
  return snap;
}

std::vector<Status> GCache::WriteBack(std::span<const Snapshot> snapshots,
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
  store_batch_pids_->Record(static_cast<int64_t>(pids.size()));
  std::vector<Status> statuses = store_(pids, epochs, profiles);
  if (statuses.size() != pids.size()) {
    statuses.assign(pids.size(),
                    Status::Internal("store function returned a short "
                                     "result list"));
  }
  size_t stored = 0;
  bool any_unavailable = false;
  for (const Status& status : statuses) {
    if (status.ok()) ++stored;
    if (status.IsUnavailable()) any_unavailable = true;
  }
  NoteStoreHealth(any_unavailable ? Status::Unavailable("write-back")
                                  : Status::OK(),
                  source);
  if (stored > 0) flushed_counter_->Increment(static_cast<int64_t>(stored));
  if (stored < statuses.size()) {
    flush_failures_counter_->Increment(
        static_cast<int64_t>(statuses.size() - stored));
  }

  for (size_t i = 0; i < snapshots.size(); ++i) {
    Entry& entry = *snapshots[i].entry;
    std::lock_guard<std::mutex> lock(entry.mu);
    if (statuses[i].ok() && SnapshotCurrent(entry, snapshots[i].epoch)) {
      // The snapshot (== current state, by the recheck) reached the store:
      // whatever stale base the entry was loaded from, the persisted copy is
      // now the authoritative merge.
      entry.dirty = false;
      entry.degraded = false;
      Unlist(entry);
    } else if (entry.dirty) {
      ListDirty(entry);  // the store failed, or a write landed meanwhile
    }
  }
  return statuses;
}

bool GCache::Unmap(const Snapshot& snap) {
  Entry& entry = *snap.entry;
  LruShard& shard = *lru_shards_[LruIndex(entry.pid)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(entry.pid);
  if (it == shard.map.end() || it->second.entry != snap.entry) return false;
  std::unique_lock<std::mutex> entry_lock(entry.mu, std::try_to_lock);
  // Contended: it is being served right now. Dirty or past the snapshot: a
  // write landed since, which the next write-back must store first.
  if (!entry_lock.owns_lock() || entry.dirty ||
      !SnapshotCurrent(entry, snap.epoch)) {
    return false;
  }
  entry.evicted = true;
  // Loads of this pid in flight may have read storage before the write-back
  // this unmap follows: none of them may install its bytes.
  if (auto loads = shard.loads.find(entry.pid); loads != shard.loads.end()) {
    ++loads->second.unmaps;
  }
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
  shard.bytes.fetch_sub(entry.bytes, std::memory_order_relaxed);
  memory_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
  return true;
}

size_t GCache::EvictFromShard(LruShard& shard, size_t target_bytes) {
  // The write-back step applied to eviction victims, under the write-back
  // lock, which serving paths never take: a KV millisecond of a dirty
  // victim's write-back blocks no traffic on the shard.
  std::lock_guard<std::mutex> write_back(write_back_mu_);
  // Dirty victims first, then clean ones: the store takes the dirty prefix.
  std::vector<Snapshot> victims;
  size_t num_dirty = 0;
  {
    std::vector<Snapshot> clean;
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t planned = 0;
    for (auto it = shard.lru.rbegin();
         planned < target_bytes && it != shard.lru.rend(); ++it) {
      EntryPtr entry = shard.map.at(*it).entry;
      // Fig 8: probe with try_lock; a contended entry is being served right
      // now — skip it and move up the list instead of blocking.
      std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
      if (!entry_lock.owns_lock()) continue;
      planned += entry->bytes;
      // Only the write-back of a dirty victim needs its profile.
      const bool dirty = entry->dirty;
      (dirty ? victims : clean)
          .push_back(TakeSnapshot(std::move(entry), dirty));
    }
    num_dirty = victims.size();
    std::move(clean.begin(), clean.end(), std::back_inserter(victims));
  }
  if (victims.empty()) return 0;

  // Point-source health: a lone eviction success must not clear an outage
  // flag batch traffic still sees.
  std::vector<Status> statuses(victims.size(), Status::OK());
  if (num_dirty > 0) {
    std::vector<Status> stored =
        WriteBack(std::span<const Snapshot>(victims.data(), num_dirty),
                  StoreHealthSource::kPoint);
    std::move(stored.begin(), stored.end(), statuses.begin());
  }

  size_t evicted = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    // A failed write-back keeps the victim resident for a later flush.
    if (statuses[i].ok() && Unmap(victims[i])) ++evicted;
  }
  if (evicted > 0) evicted_counter_->Increment(static_cast<int64_t>(evicted));
  return evicted;
}

size_t GCache::SwapOnce() {
  const size_t high = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) * kHighWatermark);
  const size_t low = static_cast<size_t>(
      static_cast<double>(options_.memory_limit_bytes) * kLowWatermark);
  size_t evicted = 0;
  // Evict starting from the largest shard until usage drops under the low
  // watermark (the paper's largest-shard-first strategy). Usage is read once
  // per round: a commit or Invalidate lowering it between two reads must not
  // turn the target into an underflow.
  for (size_t used = MemoryBytes(); used > high; used = MemoryBytes()) {
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
    const size_t over = used - std::min(used, low);
    const size_t pass = EvictFromShard(*largest, std::min(over, largest_bytes));
    if (pass == 0) break;  // everything contended or dirty-unflushable
    evicted += pass;
  }
  return evicted;
}

size_t GCache::FlushOnce() {
  std::lock_guard<std::mutex> write_back(write_back_mu_);
  // Take the whole list; new dirties accumulate behind it.
  std::vector<ProfileId> batch;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    batch.swap(dirty_);
  }
  size_t flushed = 0;
  size_t failures = 0;
  const size_t group_max = std::max<size_t>(1, options_.flush_batch_max);
  size_t next = 0;  // first untried pid of `batch`
  while (next < batch.size() && failures < kMaxFlushFailuresPerPass) {
    // Snapshot the next group, entries locked strictly one at a time. A pid
    // listed twice (its entry was dropped and reloaded) is stored once.
    std::vector<Snapshot> group;
    while (next < batch.size() && group.size() < group_max) {
      EntryPtr entry = FindResident(batch[next++]);
      if (!entry) continue;  // evicted or invalidated (written back then)
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (!Unlist(*entry)) continue;  // a write-back stored it since
      group.push_back(TakeSnapshot(std::move(entry)));
    }
    if (group.empty()) continue;
    // One storage round trip per group; what is still dirty is requeued.
    for (const Status& status : WriteBack(group, StoreHealthSource::kBatch)) {
      ++(status.ok() ? flushed : failures);
    }
    batch_flushes_counter_->Increment();
  }
  // The store is misbehaving: requeue the untried remainder rather than
  // grinding through the whole list (the caller backs off between passes).
  // A pass stops early only after failures, so a clean pass tried them all.
  const bool clean = failures == 0;
  if (next < batch.size()) {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.insert(dirty_.end(), batch.begin() + static_cast<ptrdiff_t>(next),
                  batch.end());
  }
  // The backoff step, under the same lock as the pass it judges.
  const int64_t backoff_ms = FlushBackoffMs();
  flush_backoff_ms_.store(
      clean ? 0
            : std::min(kFlushBackoffMaxMs,
                       backoff_ms > 0 ? backoff_ms * 2 : kFlushBackoffMs),
      std::memory_order_relaxed);
  return flushed;
}

void GCache::FlushAll() {
  // Passes run one at a time, so the first clean pass (no failure) that
  // starts after this call stores every write acknowledged before it —
  // including one a write-back in progress at the call missed, which that
  // write-back requeued. Loop because flushes may fail transiently (injected
  // storage errors). Failing passes wait out the flush backoff, and the loop
  // gives up after a few failing rounds with zero progress — a dead store at
  // shutdown must not hold the destructor hostage.
  int stuck_rounds = 0;
  for (int round = 0; round < 64; ++round) {
    const size_t flushed = FlushOnce();
    const int64_t backoff_ms = FlushBackoffMs();
    if (backoff_ms == 0) return;
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
  // Each attempt runs the write-back step on a dirty entry, then unmaps it
  // only if it is still clean at the snapshot's epoch; a write that landed
  // meanwhile re-dirtied it and sends us around again.
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::lock_guard<std::mutex> write_back(write_back_mu_);
    if (EntryPtr entry = FindResident(pid)) {
      Snapshot snap;
      bool dirty = false;
      {
        std::lock_guard<std::mutex> entry_lock(entry->mu);
        dirty = entry->dirty;
        snap = TakeSnapshot(std::move(entry), dirty);
      }
      if (dirty) {
        const Status stored =
            WriteBack({&snap, 1}, StoreHealthSource::kPoint).front();
        if (!stored.ok()) return stored;
      }
      if (!Unmap(snap)) continue;
    }
    return Status::OK();
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
  std::lock_guard<std::mutex> lock(dirty_mu_);
  return dirty_listed_;
}

double GCache::HitRatio() const {
  const int64_t h = hits_.load(std::memory_order_relaxed);
  const int64_t m = misses_.load(std::memory_order_relaxed);
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace ips
