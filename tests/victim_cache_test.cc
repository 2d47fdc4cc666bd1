#include "cache/victim_cache.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/gcache.h"
#include "codec/profile_codec.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/profile_data.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;

VictimCacheOptions SmallOptions() {
  VictimCacheOptions options;
  options.shards = 2;
  options.memory_limit_bytes = 64 << 10;
  options.admit_min_frequency = 2;
  options.sketch_aging_window = 0;  // exact counts for deterministic tests
  return options;
}

TEST(VictimCacheTest, SketchCountsAccessesAndGatesAdmission) {
  VictimCache l2(SmallOptions());
  EXPECT_EQ(l2.EstimateFrequency(1), 0u);
  EXPECT_FALSE(l2.WouldAdmit(1));
  l2.RecordAccess(1);
  EXPECT_EQ(l2.EstimateFrequency(1), 1u);
  EXPECT_FALSE(l2.WouldAdmit(1));  // floor is 2
  l2.RecordAccess(1);
  EXPECT_EQ(l2.EstimateFrequency(1), 2u);
  EXPECT_TRUE(l2.WouldAdmit(1));

  // A one-touch scan pid is rejected; the bytes never enter the tier.
  l2.RecordAccess(42);
  EXPECT_FALSE(l2.Put(42, "scan-bytes", false));
  EXPECT_EQ(l2.EntryCount(), 0u);
  EXPECT_EQ(l2.MemoryBytes(), 0u);

  // The hot pid is admitted.
  EXPECT_TRUE(l2.Put(1, "hot-bytes", false));
  EXPECT_EQ(l2.EntryCount(), 1u);
  EXPECT_EQ(l2.MemoryBytes(), 9u);
}

TEST(VictimCacheTest, TakeRemovesAndReportsDegraded) {
  VictimCacheOptions options = SmallOptions();
  options.admit_min_frequency = 0;  // admission not under test here
  VictimCache l2(options);
  ASSERT_TRUE(l2.Put(7, "payload-7", true));
  ASSERT_TRUE(l2.Put(8, "payload-8", false));
  EXPECT_EQ(l2.EntryCount(), 2u);

  std::string bytes;
  bool degraded = false;
  ASSERT_TRUE(l2.Take(7, &bytes, &degraded));
  EXPECT_EQ(bytes, "payload-7");
  EXPECT_TRUE(degraded);  // staleness mark survives the demote/promote trip
  // Exclusive tiers: the promotion removed the bytes.
  EXPECT_FALSE(l2.Take(7, &bytes, &degraded));
  EXPECT_EQ(l2.EntryCount(), 1u);

  ASSERT_TRUE(l2.Take(8, &bytes, &degraded));
  EXPECT_EQ(bytes, "payload-8");
  EXPECT_FALSE(degraded);
  EXPECT_EQ(l2.MemoryBytes(), 0u);
}

TEST(VictimCacheTest, BytesAccountingThroughReplaceEraseAndEvict) {
  VictimCacheOptions options = SmallOptions();
  options.shards = 1;
  options.memory_limit_bytes = 64;  // tiny: forces LRU eviction
  options.admit_min_frequency = 0;
  VictimCache l2(options);

  ASSERT_TRUE(l2.Put(1, std::string(20, 'a'), false));
  ASSERT_TRUE(l2.Put(2, std::string(20, 'b'), false));
  EXPECT_EQ(l2.MemoryBytes(), 40u);

  // Replacement accounts the delta, not a duplicate.
  ASSERT_TRUE(l2.Put(1, std::string(30, 'A'), false));
  EXPECT_EQ(l2.MemoryBytes(), 50u);
  EXPECT_EQ(l2.EntryCount(), 2u);

  // A third entry exceeds the 64-byte budget: the LRU tail (pid 2 — pid 1
  // was renewed above) ages out.
  ASSERT_TRUE(l2.Put(3, std::string(30, 'c'), false));
  EXPECT_EQ(l2.EntryCount(), 2u);
  std::string bytes;
  bool degraded = false;
  EXPECT_FALSE(l2.Take(2, &bytes, &degraded));
  EXPECT_TRUE(l2.Take(1, &bytes, &degraded));
  EXPECT_EQ(bytes.size(), 30u);

  l2.Erase(3);
  EXPECT_EQ(l2.EntryCount(), 0u);
  EXPECT_EQ(l2.MemoryBytes(), 0u);

  // Oversized entries are rejected outright.
  EXPECT_FALSE(l2.Put(9, std::string(100, 'x'), false));
}

TEST(VictimCacheTest, SketchAgingHalvesEstimates) {
  VictimCacheOptions options = SmallOptions();
  options.sketch_aging_window = 8;
  VictimCache l2(options);
  for (int i = 0; i < 7; ++i) l2.RecordAccess(5);
  EXPECT_EQ(l2.EstimateFrequency(5), 7u);
  l2.RecordAccess(5);  // 8th access triggers the aging pass
  EXPECT_EQ(l2.EstimateFrequency(5), 4u);  // 8 halved
}

TEST(VictimCacheTest, ConcurrentHammerStaysConsistent) {
  VictimCacheOptions options;
  options.shards = 4;
  options.memory_limit_bytes = 32 << 10;
  options.admit_min_frequency = 1;
  options.sketch_aging_window = 1024;
  VictimCache l2(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> takes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string bytes;
      bool degraded = false;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ProfileId pid = static_cast<ProfileId>((t * 7 + i) % 64);
        l2.RecordAccess(pid);
        switch (i % 3) {
          case 0:
            l2.Put(pid, std::string(16 + pid % 32, 'p'), (pid % 2) == 0);
            break;
          case 1:
            if (l2.Take(pid, &bytes, &degraded)) {
              takes.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          default:
            l2.Erase(pid);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(takes.load(), 0);
  // Post-hammer invariant: global accounting equals the per-shard truth
  // (drain everything and both must hit zero together).
  std::string bytes;
  bool degraded = false;
  for (ProfileId pid = 0; pid < 64; ++pid) l2.Take(pid, &bytes, &degraded);
  EXPECT_EQ(l2.EntryCount(), 0u);
  EXPECT_EQ(l2.MemoryBytes(), 0u);
}

// --- GCache integration: demote on eviction, promote on miss -------------

// Storage functions for the tiered-cache tests: a store that accepts every
// write-back, and a load function built from a per-pid body.
StoreFn AcceptAllStore() {
  return [](const std::vector<ProfileId>& pids, const std::vector<uint64_t>&,
            const std::vector<const ProfileData*>&) {
    return std::vector<Status>(pids.size(), Status::OK());
  };
}

LoadFn PerPidLoad(std::function<Result<ProfileData>(ProfileId, bool*)> one) {
  return [one = std::move(one)](const std::vector<ProfileId>& pids,
                                std::vector<bool>* out_degraded,
                                TimestampMs) {
    std::vector<Result<ProfileData>> out;
    for (size_t i = 0; i < pids.size(); ++i) {
      bool degraded = false;
      out.push_back(one(pids[i], &degraded));
      (*out_degraded)[i] = degraded;
    }
    return out;
  };
}

GCacheOptions TieredCacheOptions() {
  GCacheOptions options;
  options.lru_shards = 1;  // deterministic eviction ordering
  options.memory_limit_bytes = 4 << 10;
  options.write_granularity_ms = kMinute;
  return options;
}

VictimEncodeFn CodecEncode() {
  return [](const ProfileData& profile, std::string* out) {
    EncodeProfile(profile, out);
  };
}

VictimDecodeFn CodecDecode() {
  return [](std::string_view bytes, ProfileData* profile) {
    return DecodeProfile(bytes, profile);
  };
}

TEST(VictimCacheTest, EvictionDemotesAndMissPromotesWithoutStoreLoad) {
  // Count loads that reach the "store" — a promotion must not.
  std::atomic<int> store_loads{0};
  GCache cache(TieredCacheOptions(), SystemClock::Instance(),
               PerPidLoad([&](ProfileId, bool*) -> Result<ProfileData> {
                 store_loads.fetch_add(1, std::memory_order_relaxed);
                 return Status::NotFound("not persisted");
               }),
               AcceptAllStore());
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 2;
  l2_options.sketch_aging_window = 0;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());

  // Touch pid 1 enough that the sketch clears the admission floor, with a
  // payload big enough to exceed the cache budget on its own.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(cache
                    .WithProfileMutable(1,
                                        [&](ProfileData& profile) {
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
  ASSERT_GT(cache.MemoryBytes(), cache.options().memory_limit_bytes);
  ASSERT_GT(cache.SwapOnce(), 0u);
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_EQ(l2.EntryCount(), 1u);  // demoted, not dropped
  EXPECT_GT(l2.MemoryBytes(), 0u);
  // Demoted bytes are compressed-encoded: far smaller than the resident
  // profile was.
  EXPECT_LT(l2.MemoryBytes(), 8u << 10);

  // The next read promotes from L2: intact contents, zero store loads.
  const int loads_before = store_loads.load();
  int64_t feature_count = 0;
  bool hit = true;
  ASSERT_TRUE(cache
                  .WithProfile(1,
                               [&](const ProfileData& profile) {
                                 for (const auto& slice : profile.slices()) {
                                   feature_count += static_cast<int64_t>(
                                       slice.SlotRows(1).size());
                                 }
                               },
                               &hit)
                  .ok());
  EXPECT_FALSE(hit);  // L1 miss (promotion), but...
  EXPECT_EQ(store_loads.load(), loads_before);  // ...no storage round trip
  EXPECT_EQ(feature_count, 120);
  EXPECT_EQ(l2.EntryCount(), 0u);  // exclusive: promotion emptied the tier
  EXPECT_EQ(cache.EntryCount(), 1u);
}

TEST(VictimCacheTest, DegradedFlagSurvivesDemoteAndPromote) {
  // Loader serves pid 5 degraded (fallback replica). After eviction demotes
  // it and a miss promotes it back, readers must still see the degraded
  // mark — the tier must not launder staleness.
  ProfileData seeded(kMinute);
  for (int i = 0; i < 120; ++i) {
    seeded.Add(kMinute * (i + 1), 1, 1, static_cast<FeatureId>(i + 1),
               CountVector{7})
        .ok();
  }
  GCacheOptions options = TieredCacheOptions();
  GCache cache(options, SystemClock::Instance(),
               PerPidLoad([&](ProfileId, bool* out_degraded)
                              -> Result<ProfileData> {
                 *out_degraded = true;
                 return seeded;
               }),
               AcceptAllStore());
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 1;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());

  bool degraded = false;
  ASSERT_TRUE(
      cache.WithProfile(5, [](const ProfileData&) {}, nullptr, &degraded)
          .ok());
  ASSERT_TRUE(degraded);
  // Evict: the entry is CLEAN (never written), so no flush happens and the
  // degraded mark must ride into the tier.
  ASSERT_GT(cache.SwapOnce(), 0u);
  ASSERT_EQ(cache.EntryCount(), 0u);
  ASSERT_EQ(l2.EntryCount(), 1u);

  degraded = false;
  ASSERT_TRUE(
      cache.WithProfile(5, [](const ProfileData&) {}, nullptr, &degraded)
          .ok());
  EXPECT_TRUE(degraded);  // promoted copy still marked possibly-stale
}

TEST(VictimCacheTest, InvalidateErasesBothTiers) {
  GCache cache(TieredCacheOptions(), SystemClock::Instance(),
               PerPidLoad([](ProfileId, bool*) -> Result<ProfileData> {
                 return Status::NotFound("no");
               }),
               AcceptAllStore());
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 0;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());

  // Plant demoted bytes directly, as if an earlier eviction left them.
  ASSERT_TRUE(l2.Put(3, "stale-demoted-bytes", false));
  ASSERT_TRUE(cache.Invalidate(3).ok());
  EXPECT_EQ(l2.EntryCount(), 0u);  // the handover cleared the L2 copy too
}

TEST(VictimCacheTest, CorruptDemotedBytesFallThroughToLoader) {
  ProfileData seeded(kMinute);
  seeded.Add(kMinute, 1, 1, 9, CountVector{5}).ok();
  std::atomic<int> store_loads{0};
  GCache cache(TieredCacheOptions(), SystemClock::Instance(),
               PerPidLoad([&](ProfileId, bool*) -> Result<ProfileData> {
                 store_loads.fetch_add(1, std::memory_order_relaxed);
                 return seeded;
               }),
               AcceptAllStore());
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 0;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());

  ASSERT_TRUE(l2.Put(9, "not a valid encoded profile", false));
  bool hit = true;
  ASSERT_TRUE(cache.WithProfile(9, [](const ProfileData&) {}, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(store_loads.load(), 1);  // decode failed -> authoritative load
  EXPECT_EQ(l2.EntryCount(), 0u);    // corrupt bytes were dropped, not kept
}

// Fills `pid` past the tiered cache's whole budget, so one eviction pass
// takes it.
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

TEST(VictimCacheTest, InvalidateQueuedBehindEvictionLeavesNoDemotedCopy) {
  // An eviction of `kPid` is parked in its write-back when Invalidate of the
  // pid starts, so Invalidate queues behind it on the write-back lock. The
  // eviction then commits — demoting the pid into L2 and unmapping it — and
  // Invalidate, finding the map without the pid, must still leave L2 empty,
  // or the demoted copy is promotable after the handover.
  constexpr ProfileId kPid = 5;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  int stores = 0;
  bool released = false;
  StoreFn gated = [&](const std::vector<ProfileId>& pids,
                      const std::vector<uint64_t>&,
                      const std::vector<const ProfileData*>&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    ++stores;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return released; });
    return std::vector<Status>(pids.size(), Status::OK());
  };
  GCache cache(TieredCacheOptions(), SystemClock::Instance(),
               PerPidLoad([](ProfileId, bool*) -> Result<ProfileData> {
                 return Status::NotFound("not persisted");
               }),
               gated);
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 0;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());
  WriteLargeProfile(cache, kPid);  // dirty victim

  std::thread swapper([&] { cache.SwapOnce(); });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return stores == 1; });
  }
  std::thread invalidator([&] { EXPECT_TRUE(cache.Invalidate(kPid).ok()); });
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
    gate_cv.notify_all();
  }
  swapper.join();
  invalidator.join();

  // The eviction's write-back was the only store: Invalidate found the pid
  // already written back and unmapped, and erased the demoted copy.
  EXPECT_EQ(stores, 1);
  std::string bytes;
  bool degraded = false;
  EXPECT_FALSE(l2.Take(kPid, &bytes, &degraded));
  EXPECT_EQ(l2.EntryCount(), 0u);
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(VictimCacheTest, InvalidateNeverLeavesDemotedCopyUnderEvictionStress) {
  // Seeded evict-vs-invalidate race over fresh pids: each round writes one
  // large profile (dirty or flushed clean), then runs an eviction pass and
  // an Invalidate of that pid concurrently, the Invalidate started after a
  // seeded spin so the two sweep across each other's phases. Nothing
  // reloads the pid, so a demoted copy left in L2 stays observable.
  constexpr int kRounds = 2000;
  GCache cache(TieredCacheOptions(), SystemClock::Instance(),
               PerPidLoad([](ProfileId, bool*) -> Result<ProfileData> {
                 return Status::NotFound("not persisted");
               }),
               AcceptAllStore());
  VictimCacheOptions l2_options;
  l2_options.admit_min_frequency = 0;
  VictimCache l2(l2_options);
  cache.set_victim_cache(&l2, CodecEncode(), CodecDecode());
  Rng rng(20261017);
  int stale = 0;
  for (int round = 0; round < kRounds; ++round) {
    const ProfileId pid = static_cast<ProfileId>(1000 + round);
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
    std::string bytes;
    bool degraded = false;
    if (l2.Take(pid, &bytes, &degraded)) ++stale;
    ASSERT_EQ(cache.EntryCount(), 0u) << "round " << round;
  }
  EXPECT_EQ(stale, 0);
}

}  // namespace
}  // namespace ips
