#include "cache/gcache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/coalescer.h"
#include "common/clock.h"
#include "common/metrics.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;

// A deterministic in-memory "persistent store" behind the cache's two
// storage functions.
class FakeStore {
 public:
  /// Batch load function: one call per miss set, recorded in load_batches().
  LoadFn Loader() {
    return [this](const std::vector<ProfileId>& pids,
                  std::vector<bool>* out_degraded, TimestampMs) {
      bool degrade = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        load_batches_.push_back(pids);
        degrade = degrade_loads_;
      }
      std::vector<Result<ProfileData>> out;
      out.reserve(pids.size());
      for (ProfileId pid : pids) out.push_back(LoadOne(pid));
      out_degraded->assign(pids.size(), degrade);
      return out;
    };
  }

  /// Batch store function. The store hook, when set, runs first with no
  /// store lock held: tests gate or race the cache's write-back step there.
  StoreFn Storer() {
    return [this](const std::vector<ProfileId>& pids,
                  const std::vector<uint64_t>&,
                  const std::vector<const ProfileData*>& snapshots) {
      if (store_hook_) store_hook_(pids);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++store_calls_;
      }
      std::vector<Status> statuses;
      statuses.reserve(pids.size());
      for (size_t i = 0; i < pids.size(); ++i) {
        statuses.push_back(StoreOne(pids[i], *snapshots[i]));
      }
      return statuses;
    };
  }

  Result<ProfileData> LoadOne(ProfileId pid) {
    std::lock_guard<std::mutex> lock(mu_);
    ++load_count_;
    if (fail_loads_ > 0) {
      --fail_loads_;
      return Status::Unavailable("storage flaking");
    }
    auto it = stored_.find(pid);
    if (it == stored_.end()) {
      return Status::NotFound("no profile " + std::to_string(pid));
    }
    return it->second;
  }

  Status StoreOne(ProfileId pid, const ProfileData& profile) {
    std::lock_guard<std::mutex> lock(mu_);
    ++flush_attempts_;
    if (fail_flushes_) return Status::Unavailable("injected flush failure");
    stored_[pid] = profile;  // deep copy
    ++flush_count_;
    return Status::OK();
  }

  /// Set during setup only (read unlocked by the store function).
  void SetStoreHook(std::function<void(const std::vector<ProfileId>&)> hook) {
    store_hook_ = std::move(hook);
  }
  void SetFailFlushes(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_flushes_ = fail;
  }
  /// The next `n` per-pid loads fail with Unavailable.
  void SetFailLoads(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_loads_ = n;
  }
  /// Loads report degraded (served by a fallback replica) while set.
  void SetDegradeLoads(bool degrade) {
    std::lock_guard<std::mutex> lock(mu_);
    degrade_loads_ = degrade;
  }
  int flush_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flush_count_;
  }
  int flush_attempts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flush_attempts_;
  }
  int store_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return store_calls_;
  }
  int load_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return load_count_;
  }
  std::vector<std::vector<ProfileId>> load_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return load_batches_;
  }
  bool Has(ProfileId pid) const {
    std::lock_guard<std::mutex> lock(mu_);
    return stored_.find(pid) != stored_.end();
  }
  ProfileData Get(ProfileId pid) const {
    std::lock_guard<std::mutex> lock(mu_);
    return stored_.at(pid);
  }

 private:
  mutable std::mutex mu_;
  std::map<ProfileId, ProfileData> stored_;
  std::function<void(const std::vector<ProfileId>&)> store_hook_;
  std::vector<std::vector<ProfileId>> load_batches_;
  bool fail_flushes_ = false;
  bool degrade_loads_ = false;
  int fail_loads_ = 0;
  int flush_count_ = 0;
  int flush_attempts_ = 0;
  int store_calls_ = 0;
  int load_count_ = 0;
};

bool HasFeature(const ProfileData& profile, FeatureId fid) {
  for (const auto& slice : profile.slices()) {
    const InstanceSet* slot = slice.FindSlot(1);
    if (slot == nullptr) continue;
    const IndexedFeatureStats* type = slot->Find(1);
    if (type != nullptr && type->Find(fid) != nullptr) return true;
  }
  return false;
}

GCacheOptions ManualOptions() {
  GCacheOptions options;
  options.lru_shards = 4;
  options.dirty_shards = 2;
  options.memory_limit_bytes = 1 << 20;
  options.write_granularity_ms = kMinute;
  return options;
}

TEST(GCacheTest, MissOnUnknownProfileReturnsNotFound) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  bool hit = true;
  Status status =
      cache.WithProfile(1, [](const ProfileData&) {}, &hit);
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(GCacheTest, WriteCreatesEntryAndMarksDirty) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(1,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 7,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  EXPECT_EQ(cache.EntryCount(), 1u);
  EXPECT_EQ(cache.DirtyCount(), 1u);
  EXPECT_FALSE(store.Has(1));  // write-back: not persisted yet
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_TRUE(store.Has(1));
  EXPECT_EQ(cache.DirtyCount(), 0u);
}

TEST(GCacheTest, SecondReadIsHit) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  cache.WithProfileMutable(1, [](ProfileData&) {}).ok();
  bool hit = false;
  ASSERT_TRUE(cache.WithProfile(1, [](const ProfileData&) {}, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_GT(cache.HitRatio(), 0.0);
}

TEST(GCacheTest, MissLoadsFromStore) {
  FakeStore store;
  {
    // Populate the store through a first cache.
    GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
                 store.Storer());
    cache
        .WithProfileMutable(42,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 9, CountVector{5})
                                  .ok();
                            })
        .ok();
    cache.FlushAll();
  }
  // Fresh cache: the read must load from the store.
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  bool hit = true;
  int64_t count = 0;
  ASSERT_TRUE(cache
                  .WithProfile(42,
                               [&](const ProfileData& profile) {
                                 count = profile.slices()
                                             .front()
                                             .FindSlot(1)
                                             ->Find(1)
                                             ->Find(9)
                                             ->counts[0];
                               },
                               &hit)
                  .ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(count, 5);
}

TEST(GCacheTest, WithProfilesCoalescesMissesIntoOneBatchLoad) {
  FakeStore store;
  {
    GCache seeding(ManualOptions(), SystemClock::Instance(), store.Loader(),
                   store.Storer());
    for (ProfileId pid = 1; pid <= 4; ++pid) {
      seeding
          .WithProfileMutable(pid,
                              [pid](ProfileData& profile) {
                                profile
                                    .Add(kMinute, 1, 1, pid * 100,
                                         CountVector{1})
                                    .ok();
                              })
          .ok();
    }
    seeding.FlushAll();
  }

  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());

  // Warm pid 1 so the batch sees one hit, three misses, one unknown.
  ASSERT_TRUE(cache.WithProfile(1, [](const ProfileData&) {}).ok());
  const size_t batches_before = store.load_batches().size();

  const std::vector<ProfileId> pids = {1, 2, 3, 99, 4};
  std::vector<ProfileId> seen;
  std::vector<Status> statuses;
  const size_t hits = cache.WithProfiles(
      pids,
      [&](size_t i, const ProfileData& profile) {
        ASSERT_LT(i, pids.size());
        EXPECT_EQ(profile.TotalFeatures(), 1u);
        seen.push_back(pids[i]);
      },
      &statuses);

  EXPECT_EQ(hits, 1u);
  // Every miss in one load-function call.
  const std::vector<std::vector<ProfileId>> batches = store.load_batches();
  ASSERT_EQ(batches.size(), batches_before + 1);
  // The load function receives the deduped miss set in sorted pid order
  // (the batch path sorts misses so duplicates coalesce without a hash map).
  EXPECT_EQ(batches.back(), (std::vector<ProfileId>{2, 3, 4, 99}));
  ASSERT_EQ(statuses.size(), pids.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(statuses[3].IsNotFound());  // unknown pid, no callback
  EXPECT_TRUE(statuses[4].ok());
  // Callbacks are grouped per cache entry (each entry locked exactly once),
  // so cross-profile order is unspecified; every available pid is served.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<ProfileId>{1, 2, 3, 4}));
  EXPECT_EQ(cache.EntryCount(), 4u);  // loaded misses are now cached
}

TEST(GCacheTest, WithProfilesCoalescesDuplicatePids) {
  FakeStore store;
  {
    GCache seeding(ManualOptions(), SystemClock::Instance(), store.Loader(),
                   store.Storer());
    seeding
        .WithProfileMutable(
            7,
            [](ProfileData& profile) {
              profile.Add(kMinute, 1, 1, 700, CountVector{1}).ok();
            })
        .ok();
    seeding.FlushAll();
  }
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  const size_t batches_before = store.load_batches().size();

  std::vector<Status> statuses;
  int callbacks = 0;
  const size_t hits = cache.WithProfiles(
      {7, 7, 7}, [&](size_t, const ProfileData&) { ++callbacks; }, &statuses);
  EXPECT_EQ(hits, 0u);
  // One load for the coalesced pid, but every occurrence gets its callback.
  const std::vector<std::vector<ProfileId>> batches = store.load_batches();
  ASSERT_EQ(batches.size(), batches_before + 1);
  EXPECT_EQ(batches.back(), (std::vector<ProfileId>{7}));
  EXPECT_EQ(callbacks, 3);
  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
}

TEST(GCacheTest, MemoryUsageRatioZeroLimitIsZeroNotNan) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 0;  // degenerate "unbounded" config
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  EXPECT_EQ(cache.MemoryUsageRatio(), 0.0);
  cache.WithProfileMutable(1, [](ProfileData&) {}).ok();
  EXPECT_EQ(cache.MemoryUsageRatio(), 0.0);  // still well-defined
}

TEST(GCacheTest, EvictionKeepsMemoryUnderWatermark) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 64 << 10;
  options.high_watermark = 0.85;
  options.low_watermark = 0.7;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  // Write until well past the limit.
  for (ProfileId pid = 1; pid <= 200; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [&](ProfileData& profile) {
                              for (int i = 0; i < 20; ++i) {
                                profile
                                    .Add(kMinute * (i + 1), 1, 1,
                                         static_cast<FeatureId>(i + 1),
                                         CountVector{1, 2, 3})
                                    .ok();
                              }
                            })
        .ok();
  }
  ASSERT_GT(cache.MemoryBytes(), options.memory_limit_bytes);
  const size_t evicted = cache.SwapOnce();
  EXPECT_GT(evicted, 0u);
  EXPECT_LE(cache.MemoryUsageRatio(), options.high_watermark + 0.01);
  // Write-back: every evicted dirty profile must have been persisted.
  for (ProfileId pid = 1; pid <= 200; ++pid) {
    bool cached = cache.WithProfile(pid, [](const ProfileData&) {}).ok();
    EXPECT_TRUE(cached || store.Has(pid)) << pid;
  }
}

TEST(GCacheTest, EvictedDataReloadsIntact) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 32 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  for (ProfileId pid = 1; pid <= 100; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [&](ProfileData& profile) {
                              profile
                                  .Add(kMinute, 1, 1, pid * 10,
                                       CountVector{static_cast<int64_t>(pid)})
                                  .ok();
                            })
        .ok();
    cache.SwapOnce();
  }
  cache.FlushAll();
  // All data readable with correct contents regardless of cache state.
  for (ProfileId pid = 1; pid <= 100; ++pid) {
    int64_t count = 0;
    ASSERT_TRUE(cache
                    .WithProfile(pid,
                                 [&](const ProfileData& profile) {
                                   count = profile.slices()
                                               .front()
                                               .FindSlot(1)
                                               ->Find(1)
                                               ->Find(pid * 10)
                                               ->counts[0];
                                 })
                    .ok())
        << pid;
    EXPECT_EQ(count, static_cast<int64_t>(pid));
  }
}

TEST(GCacheTest, FlushFailureKeepsEntryDirty) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  cache.WithProfileMutable(1, [](ProfileData&) {}).ok();
  store.SetFailFlushes(true);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  EXPECT_EQ(cache.DirtyCount(), 1u);  // requeued
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  EXPECT_TRUE(store.Has(1));
}

TEST(GCacheTest, InvalidateFlushesDirtyEntry) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  cache
      .WithProfileMutable(7,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                .ok();
                          })
      .ok();
  ASSERT_TRUE(cache.Invalidate(7).ok());
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_TRUE(store.Has(7));  // flushed before drop
}

TEST(GCacheTest, RepeatedMutationsOnlyOneDirtyEntry) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  for (int i = 0; i < 10; ++i) {
    cache
        .WithProfileMutable(1,
                            [&](ProfileData& profile) {
                              profile
                                  .Add(kMinute * (i + 1), 1, 1, 1,
                                       CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  EXPECT_EQ(cache.DirtyCount(), 1u);
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_EQ(store.flush_count(), 1);
}

TEST(GCacheTest, HitRatioTracksAccessPattern) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  cache.WithProfileMutable(1, [](ProfileData&) {}).ok();  // miss (create)
  for (int i = 0; i < 9; ++i) {
    cache.WithProfile(1, [](const ProfileData&) {}).ok();  // 9 hits
  }
  EXPECT_NEAR(cache.HitRatio(), 0.9, 0.01);
}

TEST(GCacheTest, FlushBackoffDoublesOnFailingPassesAndResetsOnCleanPass) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.flush_backoff_ms = 50;
  options.flush_backoff_max_ms = 300;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  EXPECT_EQ(cache.FlushBackoffMs(), 0);
  cache
      .WithProfileMutable(1,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  store.SetFailFlushes(true);
  for (const int64_t expected : {50, 100, 200, 300, 300}) {
    EXPECT_EQ(cache.FlushOnce(), 0u);
    EXPECT_EQ(cache.FlushBackoffMs(), expected);
  }
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_EQ(cache.FlushBackoffMs(), 0);
  EXPECT_TRUE(store.Has(1));
}

TEST(GCacheTest, ConcurrentMixedTrafficIsSafe) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 256 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const ProfileId pid = (t * 131 + i * 7) % 50 + 1;
        if (i % 3 == 0) {
          cache
              .WithProfileMutable(pid,
                                  [&](ProfileData& profile) {
                                    profile
                                        .Add(kMinute * (i % 100 + 1), 1, 1,
                                             pid, CountVector{1})
                                        .ok();
                                  })
              .ok();
          writes.fetch_add(1);
        } else {
          cache.WithProfile(pid, [](const ProfileData&) {}).ok();
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      cache.SwapOnce();
      cache.FlushOnce();
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();
  cache.FlushAll();
  EXPECT_GT(writes.load(), 0);
  // Every touched profile is either cached or persisted.
  for (ProfileId pid = 1; pid <= 50; ++pid) {
    bool cached = cache.WithProfile(pid, [](const ProfileData&) {}).ok();
    EXPECT_TRUE(cached || store.Has(pid)) << pid;
  }
}

TEST(GCacheTest, SwapCannotEvictWhenStoreDown) {
  // All entries dirty + flush failing: eviction must refuse to drop data
  // (write-back means dropping an unflushed entry loses acknowledged
  // writes), so memory stays over the watermark until the store recovers.
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 16 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  store.SetFailFlushes(true);
  for (ProfileId pid = 1; pid <= 60; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [&](ProfileData& profile) {
                              for (int i = 0; i < 10; ++i) {
                                profile
                                    .Add(kMinute * (i + 1), 1, 1,
                                         static_cast<FeatureId>(i + 1),
                                         CountVector{1, 2, 3})
                                    .ok();
                              }
                            })
        .ok();
  }
  ASSERT_GT(cache.MemoryBytes(), options.memory_limit_bytes);
  EXPECT_EQ(cache.SwapOnce(), 0u);
  EXPECT_EQ(cache.EntryCount(), 60u);  // nothing lost
  // Store recovers: the same pass now flushes and evicts.
  store.SetFailFlushes(false);
  EXPECT_GT(cache.SwapOnce(), 0u);
  for (ProfileId pid = 1; pid <= 60; ++pid) {
    bool cached = cache.WithProfile(pid, [](const ProfileData&) {}).ok();
    EXPECT_TRUE(cached || store.Has(pid)) << pid;
  }
}

TEST(GCacheTest, LoaderFailurePropagatesWithoutCachingGarbage) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  // Populate the store via a throwaway cache write + flush, then start
  // injecting load failures.
  cache.WithProfileMutable(5, [](ProfileData& p) {
    p.Add(kMinute, 1, 1, 1, CountVector{4}).ok();
  }).ok();
  cache.FlushAll();
  cache.Invalidate(5).ok();
  store.SetFailLoads(2);

  // Two failed loads surface the storage error; the third succeeds.
  EXPECT_TRUE(
      cache.WithProfile(5, [](const ProfileData&) {}).IsUnavailable());
  EXPECT_TRUE(
      cache.WithProfile(5, [](const ProfileData&) {}).IsUnavailable());
  int64_t count = 0;
  ASSERT_TRUE(cache
                  .WithProfile(5,
                               [&](const ProfileData& p) {
                                 count = p.slices()
                                             .front()
                                             .FindSlot(1)
                                             ->Find(1)
                                             ->Find(1)
                                             ->counts[0];
                               })
                  .ok());
  EXPECT_EQ(count, 4);
}

TEST(GCacheTest, FlushPassStopsAtFailureCapAndRequeuesRemainder) {
  FakeStore store;
  MetricsRegistry metrics;
  GCacheOptions options = ManualOptions();
  options.dirty_shards = 1;
  options.max_flush_failures_per_pass = 3;
  // One entry per write-back step, so the cap is counted per flush attempt
  // (BatchedFlushOutageBoundsFailuresAndRequeues covers larger groups).
  options.flush_batch_max = 1;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  ASSERT_EQ(cache.DirtyCount(), 10u);
  store.SetFailFlushes(true);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  // The pass stopped at the cap: only 3 flush attempts hit the failing
  // store, not one per dirty entry, and everything stayed queued.
  EXPECT_EQ(store.flush_attempts(), 3);
  EXPECT_EQ(cache.DirtyCount(), 10u);
  EXPECT_EQ(metrics.GetCounter("cache.flush_failures")->Value(), 3);
  // Store recovers: the next pass drains the whole list.
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), 10u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
}

TEST(GCacheTest, DegradedLoadFlagsReadsUntilCleanFlush) {
  FakeStore store;
  {
    GCache seeding(ManualOptions(), SystemClock::Instance(), store.Loader(),
                   store.Storer());
    seeding
        .WithProfileMutable(
            42,
            [](ProfileData& profile) {
              profile.Add(kMinute, 1, 1, 9, CountVector{5}).ok();
            })
        .ok();
    seeding.FlushAll();
  }
  // Loads simulate a fallback-replica read while degrade is set.
  store.SetDegradeLoads(true);
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  bool hit = true;
  bool degraded = false;
  ASSERT_TRUE(
      cache.WithProfile(42, [](const ProfileData&) {}, &hit, &degraded).ok());
  EXPECT_FALSE(hit);
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(cache.StoreUnhealthy());
  // A hit on the resident copy still reports degraded: the entry came from
  // a fallback and the store has not been seen healthy since.
  degraded = false;
  ASSERT_TRUE(
      cache.WithProfile(42, [](const ProfileData&) {}, &hit, &degraded).ok());
  EXPECT_TRUE(hit);
  EXPECT_TRUE(degraded);
  // Dirty the entry and flush cleanly: the flush reaches the primary store,
  // so the entry is authoritative again and the health flag clears.
  store.SetDegradeLoads(false);
  cache
      .WithProfileMutable(42,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 9, CountVector{1}).ok();
                          })
      .ok();
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_FALSE(cache.StoreUnhealthy());
  degraded = true;
  ASSERT_TRUE(
      cache.WithProfile(42, [](const ProfileData&) {}, &hit, &degraded).ok());
  EXPECT_FALSE(degraded);
}

TEST(GCacheTest, BatchedFlushDrainsShardInGroups) {
  FakeStore store;
  MetricsRegistry metrics;
  GCacheOptions options = ManualOptions();
  options.dirty_shards = 1;
  options.flush_batch_max = 4;
  std::vector<size_t> group_sizes;
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    group_sizes.push_back(pids.size());
  });
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  ASSERT_EQ(cache.DirtyCount(), 10u);
  EXPECT_EQ(cache.FlushOnce(), 10u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  // 10 dirty entries in groups of <= 4: three store calls, never one per
  // entry.
  EXPECT_EQ(store.store_calls(), 3);
  for (size_t size : group_sizes) EXPECT_LE(size, 4u);
  EXPECT_EQ(metrics.GetCounter("cache.batch_flushes")->Value(), 3);
  EXPECT_EQ(metrics.GetCounter("cache.flushed")->Value(), 10);
  for (ProfileId pid = 1; pid <= 10; ++pid) EXPECT_TRUE(store.Has(pid));
}

TEST(GCacheTest, BatchedFlushOutageBoundsFailuresAndRequeues) {
  // A KV outage during a batched flush pass: failures stay bounded by the
  // per-pass cap (plus at most one group), every entry is requeued, and the
  // pass drains cleanly after recovery.
  FakeStore store;
  MetricsRegistry metrics;
  GCacheOptions options = ManualOptions();
  options.dirty_shards = 1;
  options.flush_batch_max = 4;
  options.max_flush_failures_per_pass = 3;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  store.SetFailFlushes(true);  // KV outage
  for (ProfileId pid = 1; pid <= 12; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  EXPECT_EQ(cache.FlushOnce(), 0u);
  // One failing group trips the cap; the other 8 entries were requeued
  // untried (no store call for them).
  EXPECT_EQ(store.store_calls(), 1);
  EXPECT_EQ(cache.DirtyCount(), 12u);
  EXPECT_EQ(metrics.GetCounter("cache.flush_failures")->Value(), 4);
  EXPECT_TRUE(cache.StoreUnhealthy());
  // Outage over: everything drains, and the health flag clears.
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), 12u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  EXPECT_FALSE(cache.StoreUnhealthy());
  for (ProfileId pid = 1; pid <= 12; ++pid) EXPECT_TRUE(store.Has(pid));
}

TEST(GCacheTest, FlushAllZeroProgressBailsInsteadOfBusySpin) {
  // Regression: a pass can flush nothing while reporting zero failures
  // (max_flush_failures_per_pass of 0 requeues the whole list untried).
  // FlushAll used to treat "no failures" as success and busy-spin its full
  // 64 rounds with no backoff; it must instead back off and give up after a
  // few stuck rounds.
  FakeStore store;
  ManualClock clock(0);
  GCacheOptions options = ManualOptions();
  options.dirty_shards = 1;
  options.max_flush_failures_per_pass = 0;
  GCache cache(options, &clock, store.Loader(), store.Storer());
  cache
      .WithProfileMutable(1,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  cache.FlushAll();  // must return (bounded rounds), not spin 64 rounds
  EXPECT_EQ(cache.DirtyCount(), 1u);  // nothing could flush
  EXPECT_EQ(store.flush_attempts(), 0);
  // The stuck rounds backed off through the manual clock (not a busy spin)
  // and stopped well short of 64 rounds' worth of max backoff.
  EXPECT_GT(clock.NowMs(), 0);
  EXPECT_LE(clock.NowMs(), 4 * options.flush_backoff_max_ms);
}

TEST(GCacheTest, LoadCoalescerSharesMissAndFansDegradedToEveryReader) {
  // Two concurrent readers miss on the same pid with a coalescer installed:
  // the store sees ONE load, and a replica-fallback (degraded) load flags
  // BOTH readers, not just the one that initiated the fetch.
  FakeStore store;
  {
    GCache seeding(ManualOptions(), SystemClock::Instance(), store.Loader(),
                   store.Storer());
    seeding
        .WithProfileMutable(
            42,
            [](ProfileData& profile) {
              profile.Add(kMinute, 1, 1, 9, CountVector{5}).ok();
            })
        .ok();
    seeding.FlushAll();
  }
  MetricsRegistry metrics;
  std::atomic<int> fetch_calls{0};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool fetch_entered = false;
  bool gate_open = false;
  LoadCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&,
          std::vector<bool>* out_degraded) -> std::vector<Result<ProfileData>> {
        ++fetch_calls;
        {
          std::unique_lock<std::mutex> lock(gate_mu);
          fetch_entered = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return gate_open; });
        }
        out_degraded->assign(pids.size(), true);  // replica fallback
        std::vector<Result<ProfileData>> out;
        for (ProfileId pid : pids) out.push_back(store.LoadOne(pid));
        return out;
      },
      SystemClock::Instance(), &metrics);
  // The cache's load function is the coalescer's Submit, as IpsInstance
  // composes it with the load broker on.
  GCache cache(
      ManualOptions(), SystemClock::Instance(),
      [&](const std::vector<ProfileId>& pids, std::vector<bool>* out_degraded,
          TimestampMs deadline_ms) {
        return coalescer.Submit(pids, {}, {}, out_degraded, deadline_ms);
      },
      store.Storer(), &metrics);

  const int loads_before = store.load_count();
  Status status_a, status_b;
  bool degraded_a = false, degraded_b = false;
  std::thread a([&] {
    status_a =
        cache.WithProfile(42, [](const ProfileData&) {}, nullptr, &degraded_a);
  });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return fetch_entered; });
  }
  std::thread b([&] {
    status_b =
        cache.WithProfile(42, [](const ProfileData&) {}, nullptr, &degraded_b);
  });
  // The second reader must be attached to the in-flight load before the
  // fetch is released.
  Counter* hits = metrics.GetCounter("broker.single_flight_hits");
  for (int i = 0; i < 5000 && hits->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(hits->Value(), 1);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  a.join();
  b.join();

  EXPECT_TRUE(status_a.ok()) << status_a.ToString();
  EXPECT_TRUE(status_b.ok()) << status_b.ToString();
  EXPECT_EQ(fetch_calls.load(), 1);
  EXPECT_EQ(store.load_count() - loads_before, 1);
  EXPECT_TRUE(degraded_a);
  EXPECT_TRUE(degraded_b);
  EXPECT_TRUE(cache.StoreUnhealthy());
}

TEST(GCacheTest, FlushStoreRoundTripRunsOutsideEntryLocks) {
  // The flusher callback reads every entry it is flushing through the public
  // API. Under the old design FlushShard held every entry lock in the group
  // across the storage round trip, so this deadlocked; with snapshot-based
  // flushing the entries stay readable (and writable) during the trip.
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.dirty_shards = 1;
  options.flush_batch_max = 8;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    for (ProfileId pid : pids) {
      bool hit = false;
      EXPECT_TRUE(cache.WithProfile(pid, [](const ProfileData&) {}, &hit).ok());
      EXPECT_TRUE(hit);
    }
  });
  for (ProfileId pid = 1; pid <= 4; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  EXPECT_EQ(cache.FlushOnce(), 4u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  for (ProfileId pid = 1; pid <= 4; ++pid) EXPECT_TRUE(store.Has(pid));
  store.SetStoreHook(nullptr);  // the hook must not outlive `cache`
}

TEST(GCacheTest, EvictionWriteBackDoesNotBlockConcurrentReaders) {
  // Regression for the eviction lock-hold bug: EvictFromShard used to run
  // the KV write-back while still holding shard.mu, so a slow store stalled
  // every reader and writer hashing into that shard. Victims are now
  // collected under the lock and written back outside it: with the flusher
  // parked mid-round-trip, reads and writes on the same shard must complete.
  FakeStore store;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool eviction_flush_started = false;
  bool release_flush = false;
  constexpr ProfileId kCold = 1;
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    if (std::find(pids.begin(), pids.end(), kCold) == pids.end()) return;
    std::unique_lock<std::mutex> lock(gate_mu);
    eviction_flush_started = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release_flush; });
  });
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;  // one shard: any held lock would block everyone
  options.memory_limit_bytes = 4 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  // Cold dirty giant at the LRU tail...
  cache
      .WithProfileMutable(kCold,
                          [](ProfileData& profile) {
                            for (int i = 0; i < 120; ++i) {
                              profile
                                  .Add(kMinute * (i + 1), 1, 1,
                                       static_cast<FeatureId>(i + 1),
                                       CountVector{1, 2, 3})
                                  .ok();
                            }
                          })
      .ok();
  // ...and a small recent entry that must survive the pass.
  cache
      .WithProfileMutable(2,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  ASSERT_GT(cache.MemoryBytes(), options.memory_limit_bytes);

  std::thread swapper([&] { cache.SwapOnce(); });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return eviction_flush_started; }));
  }
  // The write-back is parked mid-flight. Same-shard traffic must complete
  // while it is: run it on a side thread and require completion BEFORE the
  // gate opens (if the pass still held shard.mu, `done` could only flip
  // after the release below and the expectation would fail).
  std::atomic<bool> done{false};
  std::thread reader([&] {
    bool hit = false;
    EXPECT_TRUE(cache.WithProfile(2, [](const ProfileData&) {}, &hit).ok());
    EXPECT_TRUE(hit);
    EXPECT_TRUE(cache
                    .WithProfileMutable(3,
                                        [](ProfileData& profile) {
                                          profile
                                              .Add(kMinute, 1, 1, 1,
                                                   CountVector{1})
                                              .ok();
                                        })
                    .ok());
    done.store(true);
  });
  for (int i = 0; i < 200 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load());
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release_flush = true;
    gate_cv.notify_all();
  }
  reader.join();
  swapper.join();
  // The pass finished its job: the cold giant was written back and evicted.
  EXPECT_TRUE(store.Has(kCold));
  bool hit = true;
  EXPECT_TRUE(cache.WithProfile(kCold, [](const ProfileData&) {}, &hit).ok());
  EXPECT_FALSE(hit);  // reloaded from the store, not resident
}

TEST(GCacheTest, InvalidateDoesNotDropWriteRacingItsFlush) {
  // Regression: Invalidate used to flush, then erase under the shard lock —
  // a writer landing in between re-dirtied the entry and the erase silently
  // discarded the write. Invalidate's write-back now holds no lock across
  // the store, so the racing write lands mid-store; the commit's epoch
  // recheck keeps the entry dirty and Invalidate writes back again before
  // it erases, so the racing write must survive to the store.
  FakeStore store;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool flush_started = false;
  bool writer_done = false;
  int flushes_of_7 = 0;
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    if (std::find(pids.begin(), pids.end(), 7) == pids.end()) return;
    std::unique_lock<std::mutex> lock(gate_mu);
    if (flushes_of_7++ > 0) return;
    // First store (Invalidate's): stall until the racing write landed. It
    // can only land here if no cache lock is held across the store.
    flush_started = true;
    gate_cv.notify_all();
    EXPECT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return writer_done; }));
  });
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  cache
      .WithProfileMutable(7,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  std::thread invalidator([&] { EXPECT_TRUE(cache.Invalidate(7).ok()); });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return flush_started; }));
  }
  // The racing write, while Invalidate's store is on the wire.
  ASSERT_TRUE(cache
                  .WithProfileMutable(7,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 2,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    writer_done = true;
    gate_cv.notify_all();
  }
  invalidator.join();
  cache.FlushAll();
  // Both the original feature and the racing writer's made it out.
  EXPECT_EQ(store.Get(7).TotalFeatures(), 2u);
  EXPECT_EQ(store.flush_count(), 2);
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(GCacheTest, SinglePointSuccessDoesNotClearStoreHealth) {
  // Regression for health flapping: one lucky single-pid write-back landing
  // mid-outage used to clear store_unhealthy_ while batch flushes were
  // still failing. Point successes (Invalidate/eviction write-backs) now
  // need kPointHealthClearStreak in a row; batch passes clear immediately.
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  auto dirty = [&](ProfileId pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  };
  for (ProfileId pid = 11; pid <= 14; ++pid) dirty(pid);
  store.SetFailFlushes(true);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  ASSERT_TRUE(cache.StoreUnhealthy());
  store.SetFailFlushes(false);
  // Two successful point write-backs: still below the streak, still
  // unhealthy (this is exactly the flapping the old code exhibited).
  ASSERT_TRUE(cache.Invalidate(11).ok());
  EXPECT_TRUE(cache.StoreUnhealthy());
  ASSERT_TRUE(cache.Invalidate(12).ok());
  EXPECT_TRUE(cache.StoreUnhealthy());
  // A failure in between resets the streak: two more successes after it
  // still do not clear.
  store.SetFailFlushes(true);
  EXPECT_FALSE(cache.Invalidate(13).ok());
  store.SetFailFlushes(false);
  ASSERT_TRUE(cache.Invalidate(13).ok());
  ASSERT_TRUE(cache.Invalidate(14).ok());
  EXPECT_TRUE(cache.StoreUnhealthy());
  // Third consecutive point success finally clears it.
  dirty(15);
  ASSERT_TRUE(cache.Invalidate(15).ok());
  EXPECT_FALSE(cache.StoreUnhealthy());
  // Batch observations stay authoritative: one failing pass re-trips the
  // flag, one successful pass clears it with no streak needed.
  dirty(16);
  store.SetFailFlushes(true);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  EXPECT_TRUE(cache.StoreUnhealthy());
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_FALSE(cache.StoreUnhealthy());
}

// ------------------------------------------- WithProfileOffLockMutate ---

TEST(GCacheTest, OffLockMutateCommitsAndMarksDirty) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(1,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 7,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  cache.FlushAll();
  ASSERT_EQ(cache.DirtyCount(), 0u);
  ASSERT_TRUE(cache
                  .WithProfileOffLockMutate(1,
                                            [](ProfileData& profile) {
                                              profile
                                                  .Add(2 * kMinute, 1, 1, 8,
                                                       CountVector{3})
                                                  .ok();
                                              return true;
                                            })
                  .ok());
  // The committed pass re-dirtied the entry and the change is visible.
  EXPECT_EQ(cache.DirtyCount(), 1u);
  int64_t count = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 count = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(count, 2);
}

TEST(GCacheTest, OffLockMutateNeverFaultsInNonResidentProfiles) {
  FakeStore store;
  {
    GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
                 store.Storer());
    cache
        .WithProfileMutable(5,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
    cache.FlushAll();
  }
  ASSERT_TRUE(store.Has(5));
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  const int loads_before = store.load_count();
  // Persisted but not resident: maintenance must not page it in — the
  // slices get compacted when real traffic loads the profile.
  Status status = cache.WithProfileOffLockMutate(
      5, [](ProfileData&) { return true; });
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(store.load_count(), loads_before);
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(GCacheTest, OffLockMutateRetriesWhenWriteLandsMidPass) {
  FakeStore store;
  MetricsRegistry metrics;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  ASSERT_TRUE(cache
                  .WithProfileMutable(1,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 1,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  int passes = 0;
  ASSERT_TRUE(cache
                  .WithProfileOffLockMutate(
                      1,
                      [&](ProfileData& profile) {
                        ++passes;
                        if (passes == 1) {
                          // A serving write lands while the pass holds no
                          // lock: the stale snapshot must not win.
                          cache
                              .WithProfileMutable(
                                  1,
                                  [](ProfileData& p) {
                                    p.Add(3 * kMinute, 1, 1, 9, CountVector{2})
                                        .ok();
                                  })
                              .ok();
                        }
                        profile.Add(2 * kMinute, 1, 1, 5, CountVector{1}).ok();
                        return true;
                      })
                  .ok());
  EXPECT_EQ(passes, 2);
  EXPECT_EQ(metrics.GetCounter("compaction.overlap_stalls")->Value(), 1);
  // Both the racing write and the retried pass survive.
  size_t features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(features, 3u);  // fids 1, 9, 5
}

TEST(GCacheTest, OffLockMutateAbortsAfterMaxRetries) {
  FakeStore store;
  MetricsRegistry metrics;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  ASSERT_TRUE(cache.WithProfileMutable(1, [](ProfileData&) {}).ok());
  int passes = 0;
  Status status = cache.WithProfileOffLockMutate(
      1,
      [&](ProfileData& profile) {
        ++passes;
        // Every pass races a fresh write: the epoch check must lose each
        // time and give up as Aborted instead of spinning forever.
        cache
            .WithProfileMutable(1,
                                [&](ProfileData& p) {
                                  p.Add(passes * kMinute, 1, 1,
                                        static_cast<FeatureId>(passes),
                                        CountVector{1})
                                      .ok();
                                })
            .ok();
        profile.Add(100 * kMinute, 1, 1, 99, CountVector{1}).ok();
        return true;
      },
      /*max_retries=*/1);
  EXPECT_TRUE(status.IsAborted());
  EXPECT_EQ(passes, 2);  // initial try + one retry
  EXPECT_EQ(metrics.GetCounter("compaction.overlap_stalls")->Value(), 2);
  // The stale snapshots never committed: only the racing writes are there.
  size_t features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(features, 2u);  // fids 1 and 2 from the two racing writes
}

TEST(GCacheTest, OffLockMutateAbandonedPassLeavesEntryClean) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(1,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 1,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  cache.FlushAll();
  ASSERT_EQ(cache.DirtyCount(), 0u);
  // work returns false ("nothing to do"): no commit, no dirty mark — even
  // though the pass scribbled on its private snapshot.
  ASSERT_TRUE(cache
                  .WithProfileOffLockMutate(
                      1,
                      [](ProfileData& profile) {
                        profile.Add(9 * kMinute, 1, 1, 42, CountVector{7})
                            .ok();
                        return false;
                      })
                  .ok());
  EXPECT_EQ(cache.DirtyCount(), 0u);
  size_t features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(features, 1u);
}

TEST(GCacheTest, LongOffLockMutateDoesNotBlockFlush) {
  // The point of the collect/work/commit split: a long compaction pass over
  // a profile holds no lock while it works, so a dirty-shard flush of that
  // same profile proceeds to the store instead of queueing behind it.
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(1,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 1,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  ASSERT_EQ(cache.DirtyCount(), 1u);
  std::atomic<bool> in_pass{false};
  std::atomic<bool> release{false};
  std::thread compactor_thread([&] {
    cache
        .WithProfileOffLockMutate(1,
                                  [&](ProfileData& profile) {
                                    in_pass.store(true);
                                    while (!release.load()) {
                                      std::this_thread::yield();
                                    }
                                    profile
                                        .Add(2 * kMinute, 1, 1, 2,
                                             CountVector{1})
                                        .ok();
                                    return true;
                                  })
        .ok();
  });
  while (!in_pass.load()) std::this_thread::yield();
  // Compaction is mid-pass and parked; the flush must still drain.
  EXPECT_EQ(cache.FlushOnce(), 1u);
  EXPECT_TRUE(store.Has(1));
  EXPECT_EQ(cache.DirtyCount(), 0u);
  release.store(true);
  compactor_thread.join();
  // The pass committed afterwards (flush does not bump the mutation epoch)
  // and re-dirtied the entry with the merged result.
  EXPECT_EQ(cache.DirtyCount(), 1u);
  size_t features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(features, 2u);
}

// ------------------------------------------- write-back contract ---

// Every snapshot-then-commit path in the cache: the three write-back steps
// (flush pass, eviction, Invalidate) and the off-lock mutate that shares
// their snapshot and epoch-recheck halves.
enum class WriteBackPath { kFlushPass, kEviction, kInvalidate, kOffLockMutate };

std::string WriteBackPathName(
    const testing::TestParamInfo<WriteBackPath>& info) {
  switch (info.param) {
    case WriteBackPath::kFlushPass:
      return "FlushPass";
    case WriteBackPath::kEviction:
      return "Eviction";
    case WriteBackPath::kInvalidate:
      return "Invalidate";
    case WriteBackPath::kOffLockMutate:
      return "OffLockMutate";
  }
  return "Unknown";
}

class WriteBackContractTest : public testing::TestWithParam<WriteBackPath> {};

TEST_P(WriteBackContractTest, WriteLandingMidStepIsNeitherLostNorOverwritten) {
  // A write lands while the step is unlocked (parked in its store, or in the
  // off-lock work). It must not be lost or overwritten: right after the
  // step the entry is still dirty and resident, or the store already holds
  // the newer state; and after FlushAll the store holds it in any case.
  constexpr ProfileId kPid = 1;
  constexpr FeatureId kRacingFid = 2;
  const WriteBackPath path = GetParam();
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.dirty_shards = 1;
  options.memory_limit_bytes = 4 << 10;  // the profile alone exceeds it
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());

  // Lands the racing write from another thread and waits for it: a cache
  // lock held across the unlocked part of the step would stall it past the
  // deadline (and fail the expectation) instead of hanging the test.
  std::thread writer;
  auto race_write = [&] {
    std::atomic<bool> done{false};
    writer = std::thread([&cache, &done] {
      EXPECT_TRUE(cache
                      .WithProfileMutable(kPid,
                                          [](ProfileData& profile) {
                                            profile
                                                .Add(kMinute, 1, 1, kRacingFid,
                                                     CountVector{1})
                                                .ok();
                                          })
                      .ok());
      done.store(true);
    });
    for (int i = 0; i < 5000 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done.load()) << "the write was blocked by the step";
  };
  bool raced = false;
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    if (path == WriteBackPath::kOffLockMutate) return;
    if (std::find(pids.begin(), pids.end(), kPid) == pids.end()) return;
    if (std::exchange(raced, true)) return;
    race_write();
  });

  ASSERT_TRUE(cache
                  .WithProfileMutable(kPid,
                                      [](ProfileData& profile) {
                                        for (int i = 0; i < 120; ++i) {
                                          profile
                                              .Add(kMinute * (i + 1), 1, 1,
                                                   static_cast<FeatureId>(
                                                       100 + i),
                                                   CountVector{1, 2, 3})
                                              .ok();
                                        }
                                      })
                  .ok());
  ASSERT_GT(cache.MemoryBytes(), options.memory_limit_bytes);

  switch (path) {
    case WriteBackPath::kFlushPass:
      EXPECT_EQ(cache.FlushOnce(), 1u);  // the snapshot itself persisted
      break;
    case WriteBackPath::kEviction:
      EXPECT_EQ(cache.SwapOnce(), 0u);  // re-dirtied mid-flight: kept
      break;
    case WriteBackPath::kInvalidate:
      EXPECT_TRUE(cache.Invalidate(kPid).ok());
      break;
    case WriteBackPath::kOffLockMutate:
      EXPECT_TRUE(cache
                      .WithProfileOffLockMutate(kPid,
                                                [&](ProfileData& profile) {
                                                  if (!std::exchange(raced,
                                                                     true)) {
                                                    race_write();
                                                  }
                                                  profile.Add(kMinute, 1, 1, 3,
                                                              CountVector{1})
                                                      .ok();
                                                  return true;
                                                })
                      .ok());
      break;
  }
  if (writer.joinable()) writer.join();
  ASSERT_TRUE(raced);

  const bool stored_newer =
      store.Has(kPid) && HasFeature(store.Get(kPid), kRacingFid);
  if (path == WriteBackPath::kInvalidate) {
    // Invalidate wrote the newer state back before it dropped the entry.
    EXPECT_TRUE(stored_newer);
    EXPECT_EQ(cache.EntryCount(), 0u);
  } else {
    // The flush pass and eviction stored the pre-write snapshot; the
    // off-lock mutate stores nothing.
    EXPECT_EQ(store.Has(kPid), path != WriteBackPath::kOffLockMutate);
    EXPECT_FALSE(stored_newer);
    EXPECT_EQ(cache.EntryCount(), 1u);
    EXPECT_EQ(cache.DirtyCount(), 1u);
    bool resident_has_write = false;
    bool hit = false;
    ASSERT_TRUE(cache
                    .WithProfile(kPid,
                                 [&](const ProfileData& profile) {
                                   resident_has_write =
                                       HasFeature(profile, kRacingFid);
                                 },
                                 &hit)
                    .ok());
    EXPECT_TRUE(hit);
    EXPECT_TRUE(resident_has_write);
  }
  cache.FlushAll();
  EXPECT_EQ(cache.DirtyCount(), 0u);
  ASSERT_TRUE(store.Has(kPid));
  EXPECT_TRUE(HasFeature(store.Get(kPid), kRacingFid));
  EXPECT_TRUE(HasFeature(store.Get(kPid), 100));
  store.SetStoreHook(nullptr);  // the hook must not outlive `cache`
}

INSTANTIATE_TEST_SUITE_P(AllPaths, WriteBackContractTest,
                         testing::Values(WriteBackPath::kFlushPass,
                                         WriteBackPath::kEviction,
                                         WriteBackPath::kInvalidate,
                                         WriteBackPath::kOffLockMutate),
                         WriteBackPathName);

}  // namespace
}  // namespace ips
