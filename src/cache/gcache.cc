#include "cache/gcache.h"

#include <algorithm>
#include <cassert>
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

size_t GCache::FlushGroupLockCap() {
  // Flush groups snapshot entries one lock at a time and run the storage
  // round trip with no entry lock held, so no cap applies — including under
  // ThreadSanitizer, whose 64-held-locks hard limit motivated the old clamp
  // back when a group pinned every entry lock across the round trip.
  return std::numeric_limits<size_t>::max();
}

GCache::GCache(GCacheOptions options, Clock* clock, FlushFn flush, LoadFn load,
               MetricsRegistry* metrics)
    : options_(options),
      clock_(clock),
      flush_(std::move(flush)),
      load_(std::move(load)),
      metrics_(metrics) {
  options_.lru_shards = RoundUpPow2(options_.lru_shards);
  options_.dirty_shards = RoundUpPow2(options_.dirty_shards);
  if (options_.flush_threads < options_.dirty_shards) {
    options_.flush_threads = options_.dirty_shards;
  }
  // Round flush threads up to a multiple of the shard count so the shards
  // are covered evenly (the Fig 9 constraint).
  if (options_.flush_threads % options_.dirty_shards != 0) {
    options_.flush_threads +=
        options_.dirty_shards -
        options_.flush_threads % options_.dirty_shards;
  }
  for (size_t i = 0; i < options_.lru_shards; ++i) {
    lru_shards_.push_back(std::make_unique<LruShard>());
  }
  for (size_t i = 0; i < options_.dirty_shards; ++i) {
    dirty_shards_.push_back(std::make_unique<DirtyShard>());
  }
  if (options_.start_background_threads) {
    for (size_t i = 0; i < options_.swap_threads; ++i) {
      background_threads_.emplace_back([this] { SwapLoop(); });
    }
    for (size_t i = 0; i < options_.flush_threads; ++i) {
      background_threads_.emplace_back([this, i] { FlushLoop(i); });
    }
  }
}

GCache::~GCache() {
  shutdown_.store(true, std::memory_order_relaxed);
  bg_cv_.notify_all();
  for (auto& t : background_threads_) t.join();
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
      if (metrics_ != nullptr) metrics_->GetCounter("cache.hit")->Increment();
      return std::make_pair(it->second.entry, true);
    }
  }

  // Miss: consult persistent storage outside the shard lock — loads can take
  // milliseconds and must not block unrelated traffic on this shard.
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->GetCounter("cache.miss")->Increment();

  // The victim tier intercepts the miss before any storage round trip: a
  // demoted profile promotes back for the price of a decode.
  if (victim_cache_ != nullptr) {
    ScopedSpan l2_span("cache.l2_lookup");
    ProfileData promoted(options_.write_granularity_ms);
    bool promoted_degraded = false;
    if (TryPromoteFromL2(pid, &promoted, &promoted_degraded)) {
      return std::make_pair(
          InsertLoaded(pid, std::move(promoted), promoted_degraded), false);
    }
  }

  ProfileData loaded(options_.write_granularity_ms);
  bool degraded = false;
  {
    // Through the load coalescer when installed (sharing the load with every
    // concurrent miss for this pid), else the per-pid loader.
    Result<ProfileData> result = [&]() -> Result<ProfileData> {
      if (load_coalescer_ == nullptr) return load_(pid, &degraded);
      std::vector<bool> one_degraded;
      std::vector<Result<ProfileData>> results =
          load_coalescer_->Submit({pid}, {}, {}, &one_degraded);
      degraded = one_degraded[0];
      return std::move(results[0]);
    }();
    if (result.ok()) {
      // A degraded load means the loader fell back: the primary store is
      // still unhealthy even though the load itself succeeded.
      NoteStoreHealth(degraded ? Status::Unavailable("fallback load")
                               : Status::OK());
      loaded = std::move(result).value();
    } else if (result.status().IsNotFound()) {
      if (!create_if_missing) return result.status();
    } else {
      NoteStoreHealth(result.status());
      return result.status();  // storage unavailable etc.
    }
  }

  return std::make_pair(InsertLoaded(pid, std::move(loaded), degraded),
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
    if (metrics_ != nullptr) {
      metrics_->GetCounter("cache_l2.decode_failures")->Increment();
    }
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
  std::vector<ProfileId> miss_pids;  // unique, in loader order
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
  // the loader at all — a decode instead of a storage round trip.
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

  // Dispatch what the tier could not serve: the load coalescer when
  // installed (shared with concurrent requests' misses, with the caller's
  // deadline bounding the shared wait), else the batch loader, else per-pid
  // loads.
  std::vector<bool> loaded_degraded;
  std::vector<Result<ProfileData>> loaded;
  if (load_coalescer_ != nullptr) {
    // Loads carry no epoch and no snapshot.
    loaded = load_coalescer_->Submit(load_pids, {}, {}, &loaded_degraded,
                                     deadline_ms);
  } else if (batch_load_) {
    loaded_degraded.assign(load_pids.size(), false);
    loaded = batch_load_(load_pids, &loaded_degraded);
  } else {
    loaded_degraded.assign(load_pids.size(), false);
    loaded.reserve(load_pids.size());
    for (size_t m = 0; m < load_pids.size(); ++m) {
      bool degraded = false;
      loaded.push_back(load_(load_pids[m], &degraded));
      loaded_degraded[m] = degraded;
    }
  }
  if (loaded.size() != load_pids.size()) {
    loaded.assign(load_pids.size(),
                  Result<ProfileData>(Status::Internal(
                      "batch loader returned a short result list")));
  }
  if (loaded_degraded.size() != load_pids.size()) {
    loaded_degraded.assign(load_pids.size(), false);
  }

  // Store health is judged ONLY on outcomes that actually touched the
  // loader: a degraded profile served out of the victim tier carries its
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
    if (metrics_ != nullptr) {
      if (hits > 0) {
        metrics_->GetCounter("cache.hit")->Increment(
            static_cast<int64_t>(hits));
      }
      if (!miss_pids.empty()) {
        metrics_->GetCounter("cache.miss")->Increment(
            static_cast<int64_t>(miss_pids.size()));
        metrics_->GetCounter("cache.batch_loads")->Increment();
      }
    }
  }

  // Phase 2: one LoadMisses call covers every miss, outside all shard locks.
  // With a load coalescer installed this submits the miss set to the shared
  // coalescing stage — concurrent requests' misses merge into one storage
  // round trip and hot pids already on the wire are joined, not refetched.
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
      if (m >= loaded.size() || !loaded[m].ok()) {
        const Status status = m >= loaded.size()
                                  ? Status::Internal("batch loader returned "
                                                     "a short result list")
                                  : loaded[m].status();
        for (size_t x = begin; x < cursor; ++x) {
          (*statuses)[misses[x].second] = status;
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
    // subset of misses that actually reached the loader (a victim-tier
    // promotion says nothing about the store).
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

bool GCache::EntryDegraded(const EntryPtr& entry) const {
  if (StoreUnhealthy()) return true;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->degraded;
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
    ProfileData snapshot;
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->evicted) {
        // Unmapped between the shard lookup and the entry lock; re-resolve.
        continue;
      }
      snapshot = entry->profile;
      epoch = entry->mutation_epoch;
    }

    // The expensive part — merge/truncate/shrink — runs here with no lock
    // held, overlapping serving writes and dirty-shard flushes of the same
    // entry.
    if (!work(snapshot)) return Status::OK();

    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->evicted || entry->mutation_epoch != epoch) {
        // A write (or an eviction) landed during the unlocked pass.
        // Committing the stale snapshot would silently drop that write, so
        // throw this pass away and redo it from the current state.
        if (metrics_ != nullptr) {
          metrics_->GetCounter("compaction.overlap_stalls")->Increment();
        }
        continue;
      }
      entry->profile = std::move(snapshot);
      UpdateAccounting(shard, *entry);
      MarkDirty(*entry);
    }
    return Status::OK();
  }
  return Status::Aborted("off-lock mutate kept losing the epoch race");
}

size_t GCache::EvictFromShard(LruShard& shard, size_t target_bytes) {
  // The eviction mirror of FlushShard's snapshot-then-store-unlocked design.
  // The old shape held shard.mu across FlushEntryLocked — every KV
  // millisecond of a dirty victim's write-back blocked ALL traffic on the
  // shard, and the store landed without any epoch protection against a
  // concurrent writer. Four phases now:
  //   1. collect victims under shard.mu (try_lock probing, Fig 8),
  //      snapshotting profile + epoch one entry lock at a time;
  //   2. write dirty victims back with NO lock held — through the store
  //      coalescer when installed (an eviction storm coalesces with a flush
  //      storm), else the batch flusher, else per-pid flushes;
  //   3. encode surviving victims for L2 demotion, still unlocked;
  //   4. commit per victim under shard.mu + entry try_lock with the flush
  //      path's mutation-epoch recheck — an entry re-dirtied during the
  //      round trip stays resident with its newer state. The demotion Put
  //      happens under shard.mu BEFORE the map erase, so no concurrent
  //      reload can slip a fresh entry in while stale bytes land in L2.
  struct Victim {
    EntryPtr entry;
    ProfileData snapshot;
    uint64_t epoch = 0;
    bool dirty = false;
    bool degraded = false;
  };
  std::vector<Victim> victims;
  {
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
      Victim v;
      v.epoch = entry->mutation_epoch;
      v.dirty = entry->dirty;
      v.degraded = entry->degraded;
      // Clean victims only need the snapshot when a tier exists to demote
      // them into; dirty ones always need it for the write-back.
      if (entry->dirty || victim_cache_ != nullptr) {
        v.snapshot = entry->profile;
      }
      planned += entry->bytes;
      v.entry = std::move(entry);
      victims.push_back(std::move(v));
    }
  }
  if (victims.empty()) return 0;

  // Phase 2: dirty write-backs, no lock held. Point-source health: a lone
  // eviction success must not clear an outage flag batch traffic still sees.
  std::vector<Status> statuses(victims.size(), Status::OK());
  std::vector<size_t> dirty_ix;
  for (size_t i = 0; i < victims.size(); ++i) {
    if (victims[i].dirty) dirty_ix.push_back(i);
  }
  if (!dirty_ix.empty()) {
    if (store_coalescer_ != nullptr || batch_flush_) {
      std::vector<ProfileId> pids;
      std::vector<const ProfileData*> profiles;
      pids.reserve(dirty_ix.size());
      profiles.reserve(dirty_ix.size());
      for (size_t ix : dirty_ix) {
        pids.push_back(victims[ix].entry->pid);
        profiles.push_back(&victims[ix].snapshot);
      }
      std::vector<Status> flushed;
      if (store_coalescer_ != nullptr) {
        // Snapshot epochs ride along, as in FlushShard: the coalescer
        // dedups an eviction write-back against an identical in-flight flush
        // of the same pid and orders it behind an older one.
        std::vector<uint64_t> epochs;
        epochs.reserve(dirty_ix.size());
        for (size_t ix : dirty_ix) epochs.push_back(victims[ix].epoch);
        flushed = store_coalescer_->Submit(pids, epochs, profiles);
      } else {
        flushed = batch_flush_(pids, profiles);
      }
      if (flushed.size() != pids.size()) {
        flushed.assign(pids.size(),
                       Status::Internal("batch flusher returned a short "
                                        "result list"));
      }
      for (size_t k = 0; k < dirty_ix.size(); ++k) {
        statuses[dirty_ix[k]] = flushed[k];
      }
    } else {
      for (size_t ix : dirty_ix) {
        statuses[ix] =
            flush_(victims[ix].entry->pid, victims[ix].snapshot);
      }
    }
    bool any_unavailable = false;
    size_t flush_ok = 0;
    for (size_t ix : dirty_ix) {
      if (statuses[ix].ok()) {
        ++flush_ok;
      } else if (statuses[ix].IsUnavailable()) {
        any_unavailable = true;
      }
    }
    NoteStoreHealth(any_unavailable ? Status::Unavailable("eviction flush")
                                    : Status::OK(),
                    StoreHealthSource::kPoint);
    if (metrics_ != nullptr) {
      if (flush_ok > 0) {
        metrics_->GetCounter("cache.flushed")
            ->Increment(static_cast<int64_t>(flush_ok));
      }
      if (flush_ok < dirty_ix.size()) {
        metrics_->GetCounter("cache.flush_failures")
            ->Increment(static_cast<int64_t>(dirty_ix.size() - flush_ok));
      }
    }
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
      victim_encode_(victims[i].snapshot, &encoded[i]);
      demote[i] = true;
    }
  }

  // Phase 4: commit.
  size_t evicted = 0;
  size_t demoted = 0;
  for (size_t i = 0; i < victims.size(); ++i) {
    if (!statuses[i].ok()) continue;  // write-back failed: flush later, keep
    Victim& v = victims[i];
    const ProfileId pid = v.entry->pid;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto map_it = shard.map.find(pid);
    if (map_it == shard.map.end() || map_it->second.entry != v.entry) {
      continue;  // already gone / replaced while unlocked
    }
    std::unique_lock<std::mutex> entry_lock(v.entry->mu, std::try_to_lock);
    if (!entry_lock.owns_lock()) continue;  // being served again — keep it
    Entry& entry = *v.entry;
    if (entry.mutation_epoch != v.epoch) continue;  // re-dirtied mid-flight
    if (v.dirty) {
      // The snapshot (== current state, by the epoch check) reached the
      // store: the entry is clean and authoritative again.
      entry.dirty = false;
      entry.degraded = false;
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
  if (metrics_ != nullptr) {
    if (evicted > 0) {
      metrics_->GetCounter("cache.evicted")->Increment(evicted);
    }
    if (demoted > 0) {
      metrics_->GetCounter("cache.demoted")
          ->Increment(static_cast<int64_t>(demoted));
    }
  }
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

Status GCache::FlushEntryLocked(Entry& entry) {
  Status status = flush_(entry.pid, entry.profile);
  NoteStoreHealth(status, StoreHealthSource::kPoint);
  if (status.ok()) {
    entry.dirty = false;
    // The entry's state reached the primary store: whatever stale base it
    // was loaded from, the persisted copy is now the authoritative merge.
    entry.degraded = false;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("cache.flushed")->Increment();
    }
  } else if (metrics_ != nullptr) {
    metrics_->GetCounter("cache.flush_failures")->Increment();
  }
  return status;
}

size_t GCache::FlushShard(DirtyShard& dshard, size_t* out_failures) {
  // Grab the current batch; new dirties accumulate behind it.
  std::list<ProfileId> batch;
  {
    std::lock_guard<std::mutex> lock(dshard.mu);
    batch.swap(dshard.dirty);
  }
  size_t flushed = 0;
  size_t failures = 0;
  std::list<ProfileId> requeue;
  auto it = batch.begin();
  while (it != batch.end()) {
    if (failures >= options_.max_flush_failures_per_pass) {
      // The store is misbehaving: stop the pass and requeue the untried
      // remainder rather than grinding through the whole dirty list (the
      // caller backs off between passes).
      requeue.insert(requeue.end(), it, batch.end());
      break;
    }

    // Gather the next group as unlocked SNAPSHOTS: each entry's profile is
    // copied under its own lock — entries locked strictly one at a time —
    // together with its mutation epoch, then the lock drops. The storage
    // round trip below runs with NO entry lock held, so a multi-millisecond
    // store never blocks readers or writers of the entries being flushed
    // (the old design pinned every entry lock in the group across the round
    // trip: a latency cliff and a lock-ordering hazard).
    const size_t group_max =
        (batch_flush_ || store_coalescer_ != nullptr)
            ? std::max<size_t>(1, options_.flush_batch_max)
            : 1;
    struct Snapshot {
      EntryPtr entry;
      ProfileData profile;
      uint64_t epoch = 0;
    };
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
      ProfileData copy = entry->profile;
      const uint64_t epoch = entry->mutation_epoch;
      group.push_back(Snapshot{std::move(entry), std::move(copy), epoch});
    }
    if (group.empty()) continue;

    // One storage round trip per group, outside every entry lock: the store
    // coalescer (which may merge this group with other shards' concurrent
    // groups into one MultiSet, and share in-flight store-backs of hot
    // pids) when installed, else the batch flusher (one MultiSet below),
    // else the per-entry flusher on the group of one.
    std::vector<Status> statuses;
    if (store_coalescer_ != nullptr || batch_flush_) {
      std::vector<ProfileId> pids;
      std::vector<const ProfileData*> profiles;
      pids.reserve(group.size());
      profiles.reserve(group.size());
      for (const Snapshot& snap : group) {
        pids.push_back(snap.entry->pid);
        profiles.push_back(&snap.profile);
      }
      if (store_coalescer_ != nullptr) {
        // The snapshot epochs ride along so the coalescer can tell an
        // identical re-flush (piggyback on the in-flight write) from a
        // newer one (requeue behind it). The commit below still rechecks
        // each entry's live epoch — the coalescer never changes that
        // contract.
        std::vector<uint64_t> epochs;
        epochs.reserve(group.size());
        for (const Snapshot& snap : group) epochs.push_back(snap.epoch);
        statuses = store_coalescer_->Submit(pids, epochs, profiles);
      } else {
        statuses = batch_flush_(pids, profiles);
      }
      if (statuses.size() != pids.size()) {
        statuses.assign(pids.size(),
                        Status::Internal("batch flusher returned a short "
                                         "result list"));
      }
      if (metrics_ != nullptr) {
        metrics_->GetCounter("cache.batch_flushes")->Increment();
      }
    } else {
      statuses.push_back(flush_(group[0].entry->pid, group[0].profile));
    }

    // Commit: relock each entry and recheck its epoch. A write that landed
    // during the unlocked round trip means the store holds the snapshot but
    // the entry carries newer state — keep it dirty and requeue. The
    // snapshot itself persisted, so it still counts as progress.
    bool any_unavailable = false;
    for (size_t g = 0; g < group.size(); ++g) {
      Entry& entry = *group[g].entry;
      std::lock_guard<std::mutex> entry_lock(entry.mu);
      if (statuses[g].ok()) {
        ++flushed;
        // The snapshot reached the primary store: whatever stale base the
        // entry was loaded from, the persisted copy is now the
        // authoritative merge.
        entry.degraded = false;
        if (entry.mutation_epoch == group[g].epoch) {
          entry.dirty = false;
        } else {
          std::lock_guard<std::mutex> dlock(dshard.mu);
          if (!entry.in_dirty_list) {
            requeue.push_back(entry.pid);
            entry.in_dirty_list = true;
          }
        }
        if (metrics_ != nullptr) {
          metrics_->GetCounter("cache.flushed")->Increment();
        }
      } else {
        if (statuses[g].IsUnavailable()) any_unavailable = true;
        ++failures;
        {
          std::lock_guard<std::mutex> dlock(dshard.mu);
          if (!entry.in_dirty_list) {
            requeue.push_back(entry.pid);
            entry.in_dirty_list = true;
          }
        }
        if (metrics_ != nullptr) {
          metrics_->GetCounter("cache.flush_failures")->Increment();
        }
      }
    }
    NoteStoreHealth(any_unavailable ? Status::Unavailable("batch flush")
                                    : Status::OK());
  }
  if (!requeue.empty()) {
    std::lock_guard<std::mutex> lock(dshard.mu);
    dshard.dirty.splice(dshard.dirty.end(), requeue);
  }
  if (out_failures != nullptr) *out_failures = failures;
  return flushed;
}

size_t GCache::FlushOnce() {
  size_t total = 0;
  for (auto& shard : dirty_shards_) total += FlushShard(*shard);
  return total;
}

void GCache::FlushAll() {
  // Loop because flushes may fail transiently (injected storage errors) and
  // new dirties can appear. Failing rounds back off (doubling, capped) and
  // the loop gives up after a few rounds of zero progress — a dead store at
  // shutdown must not hold the destructor hostage.
  int64_t backoff_ms = 0;
  int stuck_rounds = 0;
  for (int round = 0; round < 64; ++round) {
    size_t failures = 0;
    size_t flushed = 0;
    for (auto& shard : dirty_shards_) {
      size_t shard_failures = 0;
      flushed += FlushShard(*shard, &shard_failures);
      failures += shard_failures;
    }
    if (flushed == 0 && failures == 0 && DirtyCount() == 0) return;
    if (flushed > 0) {
      backoff_ms = 0;
      stuck_rounds = 0;
      if (failures == 0) continue;
    } else if (++stuck_rounds >= 4) {
      // Zero progress — regardless of the failure count: a pass can flush
      // nothing while reporting no failures (e.g. max_flush_failures_per_pass
      // of 0 requeues everything untried), and that must back off and bail
      // like any other stuck pass instead of busy-spinning 64 rounds.
      break;
    }
    backoff_ms = std::min(options_.flush_backoff_max_ms,
                          backoff_ms > 0 ? backoff_ms * 2
                                         : options_.flush_backoff_ms);
    clock_->SleepMs(backoff_ms);
  }
  IPS_LOG(Warn) << "FlushAll: dirty entries remain after bounded retries";
}

Status GCache::Invalidate(ProfileId pid) {
  LruShard& shard = *lru_shards_[LruIndex(pid)];
  // The profile must leave EVERY tier: stale demoted bytes left in L2 would
  // serve a later miss after the handover.
  if (victim_cache_ != nullptr) victim_cache_->Erase(pid);
  // Retry loop: the old shape flushed under the entry lock, dropped it, then
  // erased under the shard lock — a write landing in that window re-dirtied
  // the entry and the erase silently discarded it. Now the erase only
  // happens after re-acquiring both locks and re-checking `dirty`; a write
  // that slipped in sends us back around to flush again.
  for (int attempt = 0; attempt < 16; ++attempt) {
    EntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(pid);
      if (it == shard.map.end()) return Status::OK();
      entry = it->second.entry;
    }
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (entry->evicted) continue;  // raced an eviction; re-probe the map
      if (entry->dirty) IPS_RETURN_IF_ERROR(FlushEntryLocked(*entry));
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(pid);
    if (it == shard.map.end() || it->second.entry != entry) {
      return Status::OK();
    }
    std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
    // Contended: a writer may hold the lock right now — re-run the flush
    // check rather than erasing state we have not re-examined.
    if (!entry_lock.owns_lock()) continue;
    if (entry->dirty) continue;  // re-dirtied in the window: flush again
    entry->evicted = true;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
    shard.bytes.fetch_sub(entry->bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
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

void GCache::SwapLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    bg_cv_.wait_for(lock,
                    std::chrono::milliseconds(options_.swap_interval_ms));
    if (shutdown_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    SwapOnce();
    lock.lock();
  }
}

void GCache::FlushLoop(size_t thread_index) {
  DirtyShard& my_shard =
      *dirty_shards_[thread_index % options_.dirty_shards];
  int64_t backoff_ms = 0;  // extra wait after failing passes, doubling
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    bg_cv_.wait_for(lock, std::chrono::milliseconds(
                              options_.flush_interval_ms + backoff_ms));
    if (shutdown_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    size_t failures = 0;
    FlushShard(my_shard, &failures);
    if (failures == 0) {
      backoff_ms = 0;
    } else {
      backoff_ms = std::min(options_.flush_backoff_max_ms,
                            backoff_ms > 0 ? backoff_ms * 2
                                           : options_.flush_backoff_ms);
    }
    lock.lock();
  }
}

}  // namespace ips
