#include "cache/gcache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "compaction/manager.h"

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
                  std::vector<bool>* out_degraded) {
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
    if (slice.Find(1, 1, fid) != nullptr) return true;
  }
  return false;
}

GCacheOptions ManualOptions() {
  GCacheOptions options;
  options.lru_shards = 4;
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
                                             .Find(1, 1, 9)
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
  const std::vector<ProfileId> pids = {7, 7, 7};
  const size_t hits = cache.WithProfiles(
      pids, [&](size_t, const ProfileData&) { ++callbacks; }, &statuses);
  EXPECT_EQ(hits, 0u);
  // One load for the coalesced pid, but every occurrence gets its callback.
  const std::vector<std::vector<ProfileId>> batches = store.load_batches();
  ASSERT_EQ(batches.size(), batches_before + 1);
  EXPECT_EQ(batches.back(), (std::vector<ProfileId>{7}));
  EXPECT_EQ(callbacks, 3);
  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
}

TEST(GCacheTest, WithProfilesMutableLoadsColdPidsOnceAndKeepsInputOrder) {
  FakeStore store;
  {
    GCache seeding(ManualOptions(), SystemClock::Instance(), store.Loader(),
                   store.Storer());
    seeding
        .WithProfileMutable(
            2,
            [](ProfileData& profile) {
              profile.Add(kMinute, 1, 1, 200, CountVector{1}).ok();
            })
        .ok();
    seeding.FlushAll();
  }
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  const size_t batches_before = store.load_batches().size();

  // Pid 2 is persisted, 5 and 9 were never written; 5 occurs three times.
  const std::vector<ProfileId> pids = {5, 2, 5, 9, 5};
  std::map<ProfileId, std::vector<size_t>> applied;
  std::vector<Status> statuses;
  const size_t hits = cache.WithProfilesMutable(
      pids,
      [&](size_t i, ProfileData& profile) {
        applied[pids[i]].push_back(i);
        profile.Add(kMinute, 1, 1, 500 + i, CountVector{1}).ok();
      },
      &statuses);
  EXPECT_EQ(hits, 0u);
  // Every cold pid, duplicates included, in one load-function call.
  const std::vector<std::vector<ProfileId>> batches = store.load_batches();
  ASSERT_EQ(batches.size(), batches_before + 1);
  EXPECT_EQ(batches.back(), (std::vector<ProfileId>{2, 5, 9}));
  ASSERT_EQ(statuses.size(), pids.size());
  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
  // Occurrences of one pid apply in input order.
  EXPECT_EQ(applied[5], (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(applied[2], (std::vector<size_t>{1}));
  EXPECT_EQ(applied[9], (std::vector<size_t>{3}));
  EXPECT_EQ(cache.EntryCount(), 3u);
  EXPECT_EQ(cache.DirtyCount(), 3u);

  // The loaded profile kept its stored data under the new write.
  bool has_old = false;
  bool has_new = false;
  ASSERT_TRUE(cache
                  .WithProfile(2,
                               [&](const ProfileData& profile) {
                                 has_old = HasFeature(profile, 200);
                                 has_new = HasFeature(profile, 501);
                               })
                  .ok());
  EXPECT_TRUE(has_old);
  EXPECT_TRUE(has_new);
}

TEST(GCacheTest, WithProfilesMutableLoadErrorLeavesPidUnset) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  // The load function resolves pids in ascending order, so the first
  // (failing) load is pid 1's.
  store.SetFailLoads(1);
  const std::vector<ProfileId> pids = {3, 1, 2};
  std::vector<size_t> applied;
  std::vector<Status> statuses;
  cache.WithProfilesMutable(
      pids, [&](size_t i, ProfileData&) { applied.push_back(i); },
      &statuses);
  ASSERT_EQ(statuses.size(), pids.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsUnavailable());
  EXPECT_TRUE(statuses[2].ok());
  std::sort(applied.begin(), applied.end());
  EXPECT_EQ(applied, (std::vector<size_t>{0, 2}));
  // Nothing was created for the failed pid: it is neither resident nor
  // dirty, so a later write retries the load.
  EXPECT_EQ(cache.EntryCount(), 2u);
  EXPECT_EQ(cache.DirtyCount(), 2u);
  const std::vector<ProfileId> cached = cache.CachedIds();
  EXPECT_EQ(std::count(cached.begin(), cached.end(), ProfileId{1}), 0);
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
  EXPECT_LE(cache.MemoryUsageRatio(), GCache::kHighWatermark + 0.01);
  // The pass evicted down to the low watermark, not just under the high.
  EXPECT_LE(cache.MemoryUsageRatio(), GCache::kLowWatermark + 0.01);
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
                                               .Find(1, 1, pid * 10)
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

// DirtyCount reports only entries still listed and dirty: a pid that a
// write-back stored clean and dropped stops counting at once, not at the
// next flush pass.
TEST(GCacheTest, InvalidatedPidLeavesDirtyCountAtOnce) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(7,
                                      [](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, 1,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
  ASSERT_EQ(cache.DirtyCount(), 1u);
  ASSERT_TRUE(cache.Invalidate(7).ok());
  EXPECT_TRUE(store.Has(7));
  EXPECT_EQ(cache.DirtyCount(), 0u);  // no FlushOnce in between
  // The stale list slot is skipped: the next pass stores nothing.
  EXPECT_EQ(cache.FlushOnce(), 0u);
  EXPECT_EQ(store.flush_count(), 1);
}

TEST(GCacheTest, EvictedDirtyVictimsLeaveDirtyCountAtOnce) {
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 64 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  constexpr ProfileId kPids = 200;
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    ASSERT_TRUE(cache
                    .WithProfileMutable(pid,
                                        [](ProfileData& profile) {
                                          for (int i = 0; i < 20; ++i) {
                                            profile
                                                .Add(kMinute * (i + 1), 1, 1,
                                                     static_cast<FeatureId>(
                                                         i + 1),
                                                     CountVector{1, 2, 3})
                                                .ok();
                                          }
                                        })
                    .ok());
  }
  ASSERT_EQ(cache.DirtyCount(), kPids);
  ASSERT_GT(cache.SwapOnce(), 0u);
  const size_t resident = cache.EntryCount();
  ASSERT_LT(resident, kPids);
  // Every victim was stored clean and dropped; every resident pid is still
  // dirty, and the count says exactly that before any flush pass.
  EXPECT_EQ(cache.DirtyCount(), resident);
  EXPECT_EQ(cache.FlushOnce(), resident);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  EXPECT_EQ(store.flush_count(), static_cast<int>(kPids));
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
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  EXPECT_EQ(cache.FlushBackoffMs(), 0);
  cache
      .WithProfileMutable(1,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  store.SetFailFlushes(true);
  static_assert(GCache::kFlushBackoffMs == 50);
  static_assert(GCache::kFlushBackoffMaxMs == 2000);
  for (const int64_t expected : {50, 100, 200, 400, 800, 1600, 2000, 2000}) {
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
                                             .Find(1, 1, 1)
                                             ->counts[0];
                               })
                  .ok());
  EXPECT_EQ(count, 4);
}

TEST(GCacheTest, FlushPassStopsAtFailureCapAndRequeuesRemainder) {
  FakeStore store;
  MetricsRegistry metrics;
  GCacheOptions options = ManualOptions();
  // One entry per write-back step, so the cap is counted per flush attempt
  // (BatchedFlushOutageBoundsFailuresAndRequeues covers larger groups).
  options.flush_batch_max = 1;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  constexpr int kCap = static_cast<int>(GCache::kMaxFlushFailuresPerPass);
  constexpr size_t kPids = 2 * kCap + 4;  // well past the cap
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  ASSERT_EQ(cache.DirtyCount(), kPids);
  store.SetFailFlushes(true);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  // The pass stopped at the cap: only kCap flush attempts hit the failing
  // store, not one per dirty entry, and everything stayed queued.
  EXPECT_EQ(store.flush_attempts(), kCap);
  EXPECT_EQ(cache.DirtyCount(), kPids);
  EXPECT_EQ(metrics.GetCounter("cache.flush_failures")->Value(), kCap);
  // Store recovers: the next pass drains the whole list.
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), kPids);
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
  constexpr size_t kGroup = 4;
  options.flush_batch_max = kGroup;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer(), &metrics);
  // Groups that fail until the cap trips, and the entries that follow them.
  constexpr size_t kFailingGroups =
      (GCache::kMaxFlushFailuresPerPass + kGroup - 1) / kGroup;
  constexpr size_t kPids = kFailingGroups * kGroup + 2 * kGroup;
  store.SetFailFlushes(true);  // KV outage
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    cache
        .WithProfileMutable(pid,
                            [](ProfileData& profile) {
                              profile.Add(kMinute, 1, 1, 1, CountVector{1})
                                  .ok();
                            })
        .ok();
  }
  EXPECT_EQ(cache.FlushOnce(), 0u);
  // The failing groups trip the cap; the other 2 groups' entries were
  // requeued untried (no store call for them).
  EXPECT_EQ(store.store_calls(), static_cast<int>(kFailingGroups));
  EXPECT_EQ(cache.DirtyCount(), kPids);
  const int64_t failures =
      metrics.GetCounter("cache.flush_failures")->Value();
  EXPECT_EQ(failures, static_cast<int64_t>(kFailingGroups * kGroup));
  EXPECT_LT(failures,
            static_cast<int64_t>(GCache::kMaxFlushFailuresPerPass + kGroup));
  EXPECT_TRUE(cache.StoreUnhealthy());
  // Outage over: everything drains, and the health flag clears.
  store.SetFailFlushes(false);
  EXPECT_EQ(cache.FlushOnce(), kPids);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  EXPECT_FALSE(cache.StoreUnhealthy());
  for (ProfileId pid = 1; pid <= kPids; ++pid) EXPECT_TRUE(store.Has(pid));
}

TEST(GCacheTest, FlushAllZeroProgressBailsInsteadOfBusySpin) {
  // A store whose every flush fails: FlushAll must neither busy-spin its
  // full 64 rounds nor wait out 64 rounds of backoff. It backs off and gives
  // up after a few stuck rounds, leaving the entry dirty.
  FakeStore store;
  ManualClock clock(0);
  GCache cache(ManualOptions(), &clock, store.Loader(), store.Storer());
  cache
      .WithProfileMutable(1,
                          [](ProfileData& profile) {
                            profile.Add(kMinute, 1, 1, 1, CountVector{1}).ok();
                          })
      .ok();
  store.SetFailFlushes(true);
  cache.FlushAll();  // must return (bounded rounds), not spin 64 rounds
  EXPECT_EQ(cache.DirtyCount(), 1u);  // nothing could flush
  EXPECT_FALSE(store.Has(1));
  EXPECT_GT(store.flush_attempts(), 0);
  EXPECT_LT(store.flush_attempts(), 64);
  // The stuck rounds backed off through the manual clock (not a busy spin)
  // and stopped well short of 64 rounds' worth of max backoff.
  EXPECT_GT(clock.NowMs(), 0);
  EXPECT_LE(clock.NowMs(), 4 * GCache::kFlushBackoffMaxMs);
}

// ------------------------------------------- one write-back at a time ---

// Adds one count of `fid` to `pid` at the first minute.
void AddCount(GCache& cache, ProfileId pid, FeatureId fid) {
  ASSERT_TRUE(cache
                  .WithProfileMutable(pid,
                                      [fid](ProfileData& profile) {
                                        profile
                                            .Add(kMinute, 1, 1, fid,
                                                 CountVector{1})
                                            .ok();
                                      })
                  .ok());
}

// Waits up to `ms` for `done`. Used only to give a caller that does NOT
// queue behind a parked write-back the chance to run ahead of it; the
// outcome of every test below is the same whether the wait times out or not.
void GraceWait(const std::atomic<bool>& done, int ms) {
  for (int i = 0; i < ms && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(GCacheTest, FlushPassGroupsDirtyPidsAcrossShards) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  const std::vector<ProfileId> pids = {1, 2, 3};
  for (ProfileId pid : pids) AddCount(cache, pid, 1);
  EXPECT_EQ(cache.FlushOnce(), 3u);
  EXPECT_EQ(store.store_calls(), 1);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  for (ProfileId pid : pids) EXPECT_TRUE(store.Has(pid));
}

TEST(GCacheTest, ShortStoreResultListFailsTheWriteBack) {
  FakeStore store;
  MetricsRegistry metrics;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               [](const std::vector<ProfileId>&, const std::vector<uint64_t>&,
                  const std::vector<const ProfileData*>&) {
                 return std::vector<Status>{};  // misbehaving store
               },
               &metrics);
  AddCount(cache, 3, 1);
  EXPECT_EQ(cache.FlushOnce(), 0u);
  EXPECT_EQ(cache.DirtyCount(), 1u);  // kept for the next pass
  EXPECT_EQ(metrics.GetCounter("cache.flush_failures")->Value(), 1);
  EXPECT_EQ(metrics.GetHistogram("store_broker.batch_pids")->count(), 1u);
  EXPECT_GT(cache.FlushBackoffMs(), 0);
}

TEST(GCacheTest, ShortLoadResultListFailsTheMisses) {
  // A load function that returns fewer results than pids fails every miss
  // of the batch with Internal instead of crashing, installs nothing, and
  // leaves the pids loadable by the next batch.
  FakeStore store;
  ASSERT_TRUE(store.StoreOne(1, ProfileData(kMinute)).ok());
  LoadFn inner = store.Loader();
  bool misbehave = true;
  GCache cache(ManualOptions(), SystemClock::Instance(),
               [&](const std::vector<ProfileId>& pids,
                   std::vector<bool>* out_degraded) {
                 if (misbehave) return std::vector<Result<ProfileData>>{};
                 return inner(pids, out_degraded);
               },
               store.Storer());
  const std::vector<ProfileId> pids = {1, 2};
  std::vector<Status> statuses;
  cache.WithProfiles(pids, [](size_t, const ProfileData&) {}, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);
  EXPECT_EQ(cache.EntryCount(), 0u);

  misbehave = false;
  cache.WithProfiles(pids, [](size_t, const ProfileData&) {}, &statuses);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].IsNotFound()) << statuses[1].ToString();
  EXPECT_EQ(cache.EntryCount(), 1u);
}

TEST(GCacheTest, FlushAllQueuedBehindParkedEvictionStoresNewerEpochLast) {
  // An eviction pass parks in the store with the pid's snapshot at epoch e.
  // A write lands (epoch e+1), then FlushAll runs on another thread. The
  // epochs that land in the store for the pid never decrease, and once both
  // return the store holds the resident profile and the entry is clean.
  constexpr ProfileId kPid = 1;
  FakeStore store;
  test_util::Gate gate;
  std::mutex mu;
  int calls = 0;
  std::vector<uint64_t> landed;  // kPid's stored epochs, in landing order
  StoreFn inner = store.Storer();
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.memory_limit_bytes = 4 << 10;  // the profile alone exceeds it
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               [&](const std::vector<ProfileId>& pids,
                   const std::vector<uint64_t>& epochs,
                   const std::vector<const ProfileData*>& snapshots) {
                 bool first = false;
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   first = calls++ == 0;
                 }
                 if (first) gate.Enter();
                 std::vector<Status> statuses = inner(pids, epochs, snapshots);
                 std::lock_guard<std::mutex> lock(mu);
                 for (size_t i = 0; i < pids.size(); ++i) {
                   if (pids[i] == kPid && statuses[i].ok()) {
                     landed.push_back(epochs[i]);
                   }
                 }
                 return statuses;
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

  std::thread swapper([&] { cache.SwapOnce(); });
  gate.AwaitEntered();  // the eviction's write-back (epoch e) is parked
  AddCount(cache, kPid, 2);  // epoch e+1
  std::atomic<bool> flushed{false};
  std::thread flusher([&] {
    cache.FlushAll();
    flushed.store(true);
  });
  GraceWait(flushed, 500);
  gate.Open();
  swapper.join();
  flusher.join();

  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(landed.size(), 2u);
    EXPECT_LT(landed[0], landed[1]) << "an older epoch landed last";
  }
  EXPECT_EQ(cache.DirtyCount(), 0u);
  size_t resident_features = 0;
  bool hit = false;
  ASSERT_TRUE(cache
                  .WithProfile(kPid,
                               [&](const ProfileData& profile) {
                                 resident_features = profile.TotalFeatures();
                               },
                               &hit)
                  .ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(store.Has(kPid));
  EXPECT_TRUE(HasFeature(store.Get(kPid), 2));
  EXPECT_EQ(store.Get(kPid).TotalFeatures(), resident_features);
}

TEST(GCacheTest, FlushAllWaitsForAParkedBackgroundPass) {
  // A FlushAll started while another thread's flush pass is parked in the
  // store returns only after that store has landed.
  FakeStore store;
  test_util::Gate gate;
  std::atomic<bool> landed{false};
  StoreFn inner = store.Storer();
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               [&](const std::vector<ProfileId>& pids,
                   const std::vector<uint64_t>& epochs,
                   const std::vector<const ProfileData*>& snapshots) {
                 gate.Enter();
                 std::vector<Status> statuses = inner(pids, epochs, snapshots);
                 landed.store(true);
                 return statuses;
               });
  AddCount(cache, 1, 1);

  std::thread pass([&] { EXPECT_EQ(cache.FlushOnce(), 1u); });
  gate.AwaitEntered();
  std::atomic<bool> returned{false};
  bool landed_at_return = false;
  std::thread flusher([&] {
    cache.FlushAll();
    landed_at_return = landed.load();
    returned.store(true);
  });
  GraceWait(returned, 500);
  gate.Open();
  pass.join();
  flusher.join();

  EXPECT_TRUE(landed_at_return);
  EXPECT_TRUE(store.Has(1));
  EXPECT_EQ(cache.DirtyCount(), 0u);
}

TEST(GCacheTest, WriteBacksNeverOverlapAndNeverStoreOlderStateUnderStorm) {
  // Writers add one count per write while flush passes, FlushAll, eviction
  // and Invalidate run concurrently. Store calls never overlap, a pid's
  // stored count never goes down, and after a final FlushAll the store
  // holds every write.
  constexpr ProfileId kPids = 24;
  constexpr int kWriters = 3;
  constexpr int kWritesPerWriter = 200;
  FakeStore store;
  std::atomic<int> in_store{0};
  std::atomic<int> overlaps{0};
  std::mutex mu;
  std::map<ProfileId, int64_t> stored_count;
  int backwards = 0;
  auto count_of = [](const ProfileData& profile) {
    return profile.slices().front().Find(1, 1, 1)->counts[0];
  };
  StoreFn inner = store.Storer();
  GCacheOptions options = ManualOptions();
  options.flush_batch_max = 4;
  options.memory_limit_bytes = 4 << 10;
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               [&](const std::vector<ProfileId>& pids,
                   const std::vector<uint64_t>& epochs,
                   const std::vector<const ProfileData*>& snapshots) {
                 if (in_store.fetch_add(1) != 0) overlaps.fetch_add(1);
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   for (size_t i = 0; i < pids.size(); ++i) {
                     const int64_t count = count_of(*snapshots[i]);
                     int64_t& last = stored_count[pids[i]];
                     if (count < last) ++backwards;
                     last = count;
                   }
                 }
                 for (int i = 0; i < 50; ++i) std::this_thread::yield();
                 std::vector<Status> statuses = inner(pids, epochs, snapshots);
                 in_store.fetch_sub(1);
                 return statuses;
               });

  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  std::vector<std::vector<int>> writes(kWriters, std::vector<int>(kPids, 0));
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(17 + w);
      for (int i = 0; i < kWritesPerWriter; ++i) {
        const ProfileId pid = rng() % kPids;
        AddCount(cache, pid, 1);
        ++writes[w][pid];
      }
      writers_left.fetch_sub(1);
    });
  }
  auto maintenance = [&](std::function<void(std::mt19937&)> step) {
    return std::thread([&, step, seed = threads.size()] {
      std::mt19937 rng(static_cast<uint32_t>(seed));
      while (writers_left.load() > 0) step(rng);
    });
  };
  threads.push_back(maintenance([&](std::mt19937&) { cache.FlushOnce(); }));
  threads.push_back(maintenance([&](std::mt19937&) { cache.FlushAll(); }));
  threads.push_back(maintenance([&](std::mt19937&) { cache.SwapOnce(); }));
  threads.push_back(maintenance([&](std::mt19937& rng) {
    // Aborted (kept being re-dirtied) is a legal outcome under this load.
    const Status status = cache.Invalidate(rng() % kPids);
    EXPECT_TRUE(status.ok() || status.IsAborted()) << status.ToString();
  }));
  for (auto& t : threads) t.join();
  cache.FlushAll();

  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(backwards, 0);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  for (ProfileId pid = 0; pid < kPids; ++pid) {
    int64_t want = 0;
    for (const auto& per_writer : writes) want += per_writer[pid];
    if (want == 0) continue;
    ASSERT_TRUE(store.Has(pid)) << pid;
    EXPECT_EQ(count_of(store.Get(pid)), want) << pid;
  }
}

TEST(GCacheTest, FlushStoreRoundTripRunsOutsideEntryLocks) {
  // The flusher callback reads every entry it is flushing through the public
  // API. Under the old design FlushShard held every entry lock in the group
  // across the storage round trip, so this deadlocked; with snapshot-based
  // flushing the entries stay readable (and writable) during the trip.
  FakeStore store;
  GCacheOptions options = ManualOptions();
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

TEST(GCacheTest, EvictionVictimReadDuringItsStoreIsNotStoredAgain) {
  // A reader takes a dirty victim's entry lock while the eviction's store is
  // on the wire and holds it past the store. The stored snapshot is still
  // current, so the eviction commits the victim clean even if its unmap
  // loses the try_lock: the next flush pass makes no store call for it.
  constexpr ProfileId kCold = 1;
  FakeStore store;
  test_util::Gate gate;
  std::atomic<int> cold_stores{0};
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    if (std::find(pids.begin(), pids.end(), kCold) == pids.end()) return;
    if (cold_stores.fetch_add(1) == 0) gate.Enter();
  });
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.memory_limit_bytes = 4 << 10;  // the profile alone exceeds it
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  ASSERT_TRUE(cache
                  .WithProfileMutable(kCold,
                                      [](ProfileData& profile) {
                                        for (int i = 0; i < 120; ++i) {
                                          profile
                                              .Add(kMinute * (i + 1), 1, 1,
                                                   static_cast<FeatureId>(
                                                       i + 1),
                                                   CountVector{1, 2, 3})
                                              .ok();
                                        }
                                      })
                  .ok());
  ASSERT_GT(cache.MemoryBytes(), options.memory_limit_bytes);

  std::atomic<bool> swapped{false};
  std::thread swapper([&] {
    cache.SwapOnce();
    swapped.store(true);
  });
  gate.AwaitEntered();  // the victim's write-back is on the wire
  std::atomic<bool> reading{false};
  std::atomic<bool> release_reader{false};
  std::thread reader([&] {
    EXPECT_TRUE(cache
                    .WithProfile(kCold,
                                 [&](const ProfileData&) {
                                   reading.store(true);
                                   while (!release_reader.load()) {
                                     std::this_thread::yield();
                                   }
                                 })
                    .ok());
  });
  ASSERT_TRUE(test_util::SpinUntil([&] { return reading.load(); }));
  gate.Open();
  // Lets an eviction that does not wait for the entry lock finish first.
  GraceWait(swapped, 500);
  release_reader.store(true);
  reader.join();
  swapper.join();
  ASSERT_EQ(cold_stores.load(), 1);
  ASSERT_TRUE(store.Has(kCold));

  cache.FlushOnce();
  EXPECT_EQ(cold_stores.load(), 1) << "the stored victim was stored again";
  EXPECT_EQ(cache.DirtyCount(), 0u);
  store.SetStoreHook(nullptr);  // the hook must not outlive `cache`
}

// Fills `pid` past a 4 KB cache's whole budget, so one eviction pass takes
// it.
void WriteLargeProfile(GCache& cache, ProfileId pid) {
  ASSERT_TRUE(cache
                  .WithProfileMutable(pid,
                                      [](ProfileData& profile) {
                                        for (int i = 0; i < 120; ++i) {
                                          profile
                                              .Add(kMinute * (i + 1), 1, 1,
                                                   static_cast<FeatureId>(
                                                       i + 1),
                                                   CountVector{1, 2, 3})
                                              .ok();
                                        }
                                      })
                  .ok());
}

GCacheOptions OneShardTinyOptions() {
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.memory_limit_bytes = 4 << 10;
  return options;
}

TEST(GCacheTest, InvalidateQueuedBehindEvictionFindsThePidGone) {
  // An eviction of `kPid` is parked in its write-back when Invalidate of the
  // pid starts, so Invalidate queues behind it on the write-back lock. The
  // eviction then commits and unmaps the pid; Invalidate must find it gone
  // and store nothing more.
  constexpr ProfileId kPid = 5;
  FakeStore store;
  test_util::Gate gate;
  store.SetStoreHook([&](const std::vector<ProfileId>&) { gate.Enter(); });
  GCache cache(OneShardTinyOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  WriteLargeProfile(cache, kPid);  // dirty victim

  std::thread swapper([&] { cache.SwapOnce(); });
  gate.AwaitEntered();
  std::atomic<bool> invalidated{false};
  std::thread invalidator([&] {
    EXPECT_TRUE(cache.Invalidate(kPid).ok());
    invalidated.store(true);
  });
  GraceWait(invalidated, 100);  // an Invalidate that does not queue runs now
  gate.Open();
  swapper.join();
  invalidator.join();

  EXPECT_EQ(store.store_calls(), 1);  // the eviction's write-back only
  EXPECT_EQ(store.flush_count(), 1);
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  store.SetStoreHook(nullptr);  // the hook must not outlive `cache`
}

TEST(GCacheTest, InvalidateRacingEvictionStoresEachDirtyWriteOnce) {
  // Seeded evict-vs-invalidate race over fresh pids: each round writes one
  // large profile (left dirty, or flushed clean first), then runs an
  // eviction pass and an Invalidate of that pid concurrently, the Invalidate
  // started after a seeded spin so the two sweep across each other's
  // phases. Whichever wins, the pid ends unmapped and its one write reached
  // the store exactly once.
  constexpr int kRounds = 2000;
  constexpr ProfileId kFirstPid = 1000;
  FakeStore store;
  // Store calls are serialized by the write-back lock and read after the
  // joins, so the counts need no lock of their own.
  std::vector<int> stores(kRounds, 0);
  store.SetStoreHook([&](const std::vector<ProfileId>& pids) {
    for (ProfileId pid : pids) ++stores[pid - kFirstPid];
  });
  GCache cache(OneShardTinyOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  Rng rng(20261017);
  for (int round = 0; round < kRounds; ++round) {
    const ProfileId pid = kFirstPid + static_cast<ProfileId>(round);
    WriteLargeProfile(cache, pid);
    if (rng.Uniform(2) == 0) cache.FlushOnce();  // clean victim
    const uint64_t spins = rng.Uniform(60000);
    std::atomic<bool> go{false};
    std::thread swapper([&] {
      while (!go.load()) {
      }
      cache.SwapOnce();
    });
    std::thread invalidator([&] {
      while (!go.load()) {
      }
      // A relaxed atomic counter: a spin the compiler may not delete.
      std::atomic<uint64_t> spun{0};
      while (spun.fetch_add(1, std::memory_order_relaxed) < spins) {
      }
      EXPECT_TRUE(cache.Invalidate(pid).ok());
    });
    go.store(true);
    swapper.join();
    invalidator.join();
    ASSERT_EQ(cache.EntryCount(), 0u) << "round " << round;
    ASSERT_EQ(stores[round], 1) << "round " << round;
  }
  EXPECT_EQ(store.flush_count(), kRounds);
  EXPECT_EQ(cache.DirtyCount(), 0u);
  store.SetStoreHook(nullptr);  // the hook must not outlive `cache`
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

// A reader's load reads the stored profile (feature 1) and parks. Meanwhile
// a writer loads the pid, adds feature 2, and `unmap` writes the entry back
// and drops it. When the parked load resumes, its bytes predate that
// write-back: installing them would lose feature 2, and the next flush
// would overwrite the store with the stale copy. The cache must load the
// pid again instead.
constexpr ProfileId kRacedPid = 5;

void CheckLoadReadBeforeUnmapIsNotInstalled(
    const std::function<void(GCache&)>& unmap) {
  FakeStore store;
  {
    ProfileData seed(kMinute);
    ASSERT_TRUE(seed.Add(kMinute, 1, 1, 1, CountVector{1}).ok());
    ASSERT_TRUE(store.StoreOne(kRacedPid, seed).ok());
  }
  test_util::Gate gate;
  std::atomic<bool> park_next_load{true};
  LoadFn inner = store.Loader();
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.memory_limit_bytes = 1;  // every resident profile is over it
  GCache cache(options, SystemClock::Instance(),
               [&](const std::vector<ProfileId>& pids,
                   std::vector<bool>* out_degraded) {
                 auto loaded = inner(pids, out_degraded);
                 if (park_next_load.exchange(false)) gate.Enter();
                 return loaded;
               },
               store.Storer());

  std::thread reader([&] {
    EXPECT_TRUE(cache.WithProfile(kRacedPid, [](const ProfileData&) {}).ok());
  });
  gate.AwaitEntered();  // the reader's load holds feature 1 only
  AddCount(cache, kRacedPid, 2);
  unmap(cache);
  EXPECT_EQ(cache.EntryCount(), 0u);
  gate.Open();
  reader.join();

  size_t resident_features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(kRacedPid,
                               [&](const ProfileData& profile) {
                                 resident_features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(resident_features, 2u) << "a stale load was installed";
  AddCount(cache, kRacedPid, 3);
  cache.FlushAll();
  EXPECT_EQ(store.Get(kRacedPid).TotalFeatures(), 3u);
}

TEST(GCacheTest, LoadReadBeforeInvalidateIsNotInstalled) {
  CheckLoadReadBeforeUnmapIsNotInstalled(
      [](GCache& cache) { ASSERT_TRUE(cache.Invalidate(kRacedPid).ok()); });
}

TEST(GCacheTest, LoadReadBeforeEvictionIsNotInstalled) {
  CheckLoadReadBeforeUnmapIsNotInstalled(
      [](GCache& cache) { ASSERT_EQ(cache.SwapOnce(), 1u); });
}

TEST(GCacheTest, WritesSurviveLoadsRacingEvictionAndInvalidate) {
  // Overlapping loads of a few pids from writers and readers, while
  // eviction, Invalidate and flush passes unmap and store them. Loads yield
  // after reading, so a pid is often unmapped while a load of it is in
  // flight. Every acknowledged write must reach the store.
  constexpr int kWriters = 3;
  constexpr int kWrites = 400;
  constexpr ProfileId kPids = 4;
  FakeStore store;
  LoadFn inner = store.Loader();
  GCacheOptions options = ManualOptions();
  options.lru_shards = 1;
  options.memory_limit_bytes = 1;  // every pass evicts what it can
  GCache cache(options, SystemClock::Instance(),
               [&](const std::vector<ProfileId>& pids,
                   std::vector<bool>* out_degraded) {
                 auto loaded = inner(pids, out_degraded);
                 std::this_thread::yield();
                 return loaded;
               },
               store.Storer());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // acked[w][pid - 1]: writes of writer w's feature acknowledged per pid.
  std::vector<std::vector<int64_t>> acked(kWriters,
                                          std::vector<int64_t>(kPids, 0));
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      for (int i = 0; i < kWrites; ++i) {
        const ProfileId pid = 1 + rng.Uniform(kPids);
        const Status status = cache.WithProfileMutable(
            pid, [&](ProfileData& profile) {
              profile
                  .Add(kMinute, 1, 1, static_cast<FeatureId>(w + 1),
                       CountVector{1})
                  .ok();
            });
        if (status.ok()) ++acked[w][pid - 1];
      }
    });
  }
  std::thread reader([&] {
    Rng rng(7);
    while (!stop.load()) {
      cache.WithProfile(1 + rng.Uniform(kPids), [](const ProfileData&) {})
          .ok();
    }
  });
  std::thread maintenance([&] {
    Rng rng(11);
    while (!stop.load()) {
      cache.SwapOnce();
      cache.Invalidate(1 + rng.Uniform(kPids)).ok();  // Aborted is fine
      cache.FlushOnce();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();
  maintenance.join();
  cache.FlushAll();

  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    ASSERT_TRUE(store.Has(pid)) << pid;
    const ProfileData stored = store.Get(pid);
    for (int w = 0; w < kWriters; ++w) {
      const FeatureRow* row =
          stored.slices().front().Find(1, 1, static_cast<FeatureId>(w + 1));
      ASSERT_NE(row, nullptr) << "pid " << pid << " writer " << w;
      EXPECT_EQ(row->counts[0], acked[w][pid - 1])
          << "pid " << pid << " writer " << w;
    }
  }
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

TEST(GCacheTest, OffLockMutateFinishesLockedAfterLosingEveryRace) {
  // A pass that loses every off-lock race runs once more under the entry
  // lock and commits, instead of giving up and leaving the profile due for
  // a second pass.
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
        if (passes <= 2) {
          // The off-lock attempts race a fresh write each and lose.
          cache
              .WithProfileMutable(1,
                                  [&](ProfileData& p) {
                                    p.Add(passes * kMinute, 1, 1,
                                          static_cast<FeatureId>(passes),
                                          CountVector{1})
                                        .ok();
                                  })
              .ok();
        }
        profile.Add(100 * kMinute, 1, 1, 99, CountVector{1}).ok();
        return true;
      },
      /*max_retries=*/1);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(passes, 3);  // two lost off-lock tries, then the locked one
  EXPECT_EQ(metrics.GetCounter("compaction.overlap_stalls")->Value(), 2);
  // The locked pass committed on top of both racing writes.
  size_t features = 0;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 features = profile.TotalFeatures();
                               })
                  .ok());
  EXPECT_EQ(features, 3u);  // fids 1 and 2, then the pass's 99
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
  // a profile holds no lock while it works, so a flush pass over that
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

// ------------------------------------------------- compaction trigger ---

// A submit function that records every pid it is handed and accepts or
// refuses it; the pass itself is left to the test.
class RecordingSubmit {
 public:
  CompactSubmitFn Fn() {
    return [this](ProfileId pid) {
      std::lock_guard<std::mutex> lock(mu_);
      pids_.push_back(pid);
      return accept_;
    };
  }
  void set_accept(bool accept) {
    std::lock_guard<std::mutex> lock(mu_);
    accept_ = accept;
  }
  std::vector<ProfileId> pids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ProfileId> pids_;
  bool accept_ = true;
};

// Due as soon as the profile holds two slices or more.
CompactDueFn DueFromTwoSlices() {
  return [](const ProfileData& profile, TimestampMs now_ms) {
    return profile.SliceCount() >= 2 ? now_ms
                                     : std::numeric_limits<TimestampMs>::max();
  };
}

void AddAt(GCache& cache, ProfileId pid, TimestampMs ts) {
  ASSERT_TRUE(cache
                  .WithProfileMutable(pid,
                                      [&](ProfileData& profile) {
                                        profile.Add(ts, 1, 1, 1, CountVector{1})
                                            .ok();
                                      })
                  .ok());
}

void Touch(GCache& cache, const std::vector<ProfileId>& pids) {
  std::vector<Status> statuses;
  cache.WithProfiles(pids, [](size_t, const ProfileData&) {}, &statuses);
}

TEST(GCacheCompactionTest, DueEntryIsSubmittedOnceUntilItsPassEnds) {
  // The in-flight dedupe lives in the entry: a queued pid is not handed to
  // the submit function again, however often it is touched.
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  RecordingSubmit submit;
  cache.set_compaction(DueFromTwoSlices(), submit.Fn());
  AddAt(cache, 1, kMinute);  // one slice: not due
  Touch(cache, {1, 1});
  EXPECT_TRUE(submit.pids().empty());
  AddAt(cache, 1, 3 * kMinute);  // two slices: due after the write
  EXPECT_EQ(submit.pids(), std::vector<ProfileId>({1}));
  Touch(cache, {1});
  AddAt(cache, 1, 5 * kMinute);
  EXPECT_EQ(submit.pids().size(), 1u);
  // The pass ends without work; the profile is still due, so the next touch
  // submits it again.
  ASSERT_TRUE(
      cache.WithProfileOffLockMutate(1, [](ProfileData&) { return false; })
          .ok());
  Touch(cache, {1});
  EXPECT_EQ(submit.pids(), std::vector<ProfileId>({1, 1}));
}

TEST(GCacheCompactionTest, RefusedSubmitLeavesThePidSubmittable) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  RecordingSubmit submit;
  submit.set_accept(false);
  cache.set_compaction(DueFromTwoSlices(), submit.Fn());
  AddAt(cache, 1, kMinute);
  AddAt(cache, 1, 3 * kMinute);
  Touch(cache, {1});
  Touch(cache, {1});
  EXPECT_EQ(submit.pids(), std::vector<ProfileId>({1, 1, 1}));
}

TEST(GCacheCompactionTest, CommittedPassRecomputesDue) {
  FakeStore store;
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  RecordingSubmit submit;
  cache.set_compaction(DueFromTwoSlices(), submit.Fn());
  AddAt(cache, 1, kMinute);
  AddAt(cache, 1, 3 * kMinute);
  ASSERT_EQ(submit.pids().size(), 1u);
  // The pass drops the older slice: one slice left, no longer due.
  ASSERT_TRUE(cache
                  .WithProfileOffLockMutate(1,
                                            [](ProfileData& profile) {
                                              profile.mutable_slices()
                                                  .pop_back();
                                              profile.RecomputeBytes();
                                              return true;
                                            })
                  .ok());
  Touch(cache, {1});
  EXPECT_EQ(submit.pids().size(), 1u);
}

TEST(GCacheCompactionTest, LoadComputesDueAndMarkAllMakesEveryEntryDue) {
  FakeStore store;
  {
    GCache writer(ManualOptions(), SystemClock::Instance(), store.Loader(),
                  store.Storer());
    AddAt(writer, 1, kMinute);
    AddAt(writer, 1, 3 * kMinute);
    AddAt(writer, 2, kMinute);
  }
  ASSERT_TRUE(store.Has(1) && store.Has(2));
  GCache cache(ManualOptions(), SystemClock::Instance(), store.Loader(),
               store.Storer());
  RecordingSubmit submit;
  cache.set_compaction(DueFromTwoSlices(), submit.Fn());
  Touch(cache, {1, 2});  // loads both: pid 1 is due on arrival
  EXPECT_EQ(submit.pids(), std::vector<ProfileId>({1}));
  cache.MarkAllCompactionDue();
  Touch(cache, {1, 2});  // pid 1 is still queued; pid 2 is due now
  EXPECT_EQ(submit.pids(), std::vector<ProfileId>({1, 2}));
}

TEST(GCacheCompactionTest, DueFlagStormLeavesNoEntryQueued) {
  // TSan target: writers, batch readers, eviction, flushes, Invalidate,
  // kill-switch flips and pool passes race on one pid set, every entry
  // always due. Once quiet and drained, no resident entry may still be
  // flagged queued: touching every pid submits each exactly once (a
  // resident one from its entry, an evicted or invalidated one on its
  // reload), which holds even when the storm leaves nothing resident.
  FakeStore store;
  GCacheOptions options = ManualOptions();
  options.memory_limit_bytes = 64 << 10;  // keeps the swap evicting
  GCache cache(options, SystemClock::Instance(), store.Loader(),
               store.Storer());
  CompactionManagerOptions manager_options;
  manager_options.num_threads = 2;
  manager_options.max_queue = 4;  // small: some submits are dropped
  CompactionManager manager(manager_options, [&](ProfileId pid, bool) {
    cache
        .WithProfileOffLockMutate(pid,
                                  [](ProfileData& profile) {
                                    if (profile.SliceCount() <= 4) {
                                      return false;
                                    }
                                    profile.mutable_slices().pop_back();
                                    profile.RecomputeBytes();
                                    return true;
                                  })
        .ok();
  });
  std::atomic<int> submits{0};
  cache.set_compaction(
      [](const ProfileData&, TimestampMs now_ms) { return now_ms; },
      [&](ProfileId pid) {
        submits.fetch_add(1);
        return manager.Submit(pid);
      });

  constexpr ProfileId kPids = 40;
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      std::vector<ProfileId> batch(4);
      std::vector<Status> statuses;
      for (int i = 0; i < 1000; ++i) {
        for (size_t b = 0; b < batch.size(); ++b) {
          batch[b] = static_cast<ProfileId>((t * 17 + i * 5 + b * 11) %
                                            kPids) +
                     1;
        }
        cache.WithProfilesMutable(
            batch,
            [&](size_t b, ProfileData& profile) {
              profile
                  .Add(kMinute * static_cast<TimestampMs>(i % 50 + 1), 1, 1,
                       batch[b], CountVector{1})
                  .ok();
            },
            &statuses);
      }
    });
  }
  traffic.emplace_back([&] {
    std::vector<ProfileId> batch(8);
    for (int i = 0; i < 1000; ++i) {
      for (size_t b = 0; b < batch.size(); ++b) {
        batch[b] = static_cast<ProfileId>((i * 3 + b * 7) % kPids) + 1;
      }
      Touch(cache, batch);
    }
  });
  std::thread maintenance([&] {
    for (int i = 0; !stop.load(); ++i) {
      cache.SwapOnce();
      cache.FlushOnce();
      cache.Invalidate(static_cast<ProfileId>(i % kPids) + 1).ok();
      manager.SetEnabled(i % 4 != 0);
      std::this_thread::yield();
    }
  });
  for (auto& thread : traffic) thread.join();
  stop.store(true);
  maintenance.join();
  manager.SetEnabled(true);
  manager.Drain();

  std::vector<ProfileId> all(kPids);
  for (ProfileId pid = 1; pid <= kPids; ++pid) all[pid - 1] = pid;
  const int before = submits.load();
  Touch(cache, all);
  EXPECT_EQ(submits.load() - before, static_cast<int>(kPids));
  manager.Drain();
}

}  // namespace
}  // namespace ips
