#include "cache/coalescer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/gcache.h"
#include "coalescer_test_util.h"
#include "common/clock.h"
#include "common/metrics.h"

namespace ips {
namespace {

using coalescer_test::Gate;
using coalescer_test::SpinUntil;

constexpr int64_t kMinute = kMillisPerMinute;

ProfileData MakeProfile(FeatureId fid) {
  ProfileData profile(kMinute);
  profile.Add(kMinute, 1, 1, fid, CountVector{1}).ok();
  return profile;
}

FeatureId OnlyFid(const ProfileData& profile) {
  return profile.slices().front().slots().begin()->second.types()
      .begin()->second.stats().front().fid;
}

// Records every round trip's pids, snapshots and calling thread, then holds
// it at the gate (when one is wired).
struct Recorder {
  std::mutex mu;
  std::vector<std::vector<ProfileId>> batches;
  std::vector<std::vector<const ProfileData*>> snapshots;
  std::vector<std::thread::id> threads;
  Gate* gate = nullptr;

  void Record(const std::vector<ProfileId>& pids,
              const std::vector<const ProfileData*>& snaps) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batches.push_back(pids);
      snapshots.push_back(snaps);
      threads.push_back(std::this_thread::get_id());
    }
    if (gate != nullptr) gate->Enter();
  }
  size_t Calls() {
    std::lock_guard<std::mutex> lock(mu);
    return batches.size();
  }
  std::vector<ProfileId> SortedBatch(size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<ProfileId> batch = batches.at(i);
    std::sort(batch.begin(), batch.end());
    return batch;
  }
};

// Loads answer every pid with a one-feature profile whose fid is the pid.
LoadCoalescer::DispatchFn RecordingFetch(Recorder* rec) {
  return [rec](const std::vector<ProfileId>& pids,
               const std::vector<const ProfileData*>& snaps,
               std::vector<bool>*) {
    rec->Record(pids, snaps);
    std::vector<Result<ProfileData>> out;
    for (ProfileId pid : pids) {
      out.push_back(MakeProfile(static_cast<FeatureId>(pid)));
    }
    return out;
  };
}

StoreCoalescer::DispatchFn RecordingStore(Recorder* rec) {
  return [rec](const std::vector<ProfileId>& pids,
               const std::vector<const ProfileData*>& snaps,
               std::vector<bool>*) {
    rec->Record(pids, snaps);
    return std::vector<Status>(pids.size(), Status::OK());
  };
}

std::vector<Result<ProfileData>> Load(
    LoadCoalescer& coalescer, const std::vector<ProfileId>& pids,
    std::vector<bool>* degraded = nullptr,
    TimestampMs deadline_ms = LoadCoalescer::kNoDeadline) {
  return coalescer.Submit(pids, {}, {}, degraded, deadline_ms);
}

int64_t CounterValue(MetricsRegistry& metrics, const char* name) {
  return metrics.GetCounter(name)->Value();
}

// ------------------------------------------------------------ load side ---

TEST(CoalescerLoadTest, FirstSubmitterDispatchesAtOnceAndFollowersRideIt) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), SystemClock::Instance(),
                          &metrics);

  std::optional<std::vector<Result<ProfileData>>> leader_results;
  std::thread leader([&] { leader_results = Load(coalescer, {7}); });
  // The round trip is on the wire before any second submitter exists: no
  // window held it back.
  gate.AwaitEntered();
  EXPECT_EQ(rec.Calls(), 1u);
  EXPECT_EQ(rec.threads[0], leader.get_id());

  constexpr int kFollowers = 3;
  std::optional<std::vector<Result<ProfileData>>> results[kFollowers];
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&, i] { results[i] = Load(coalescer, {7}); });
  }
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "broker.single_flight_hits") == kFollowers;
  }));
  gate.Open();
  leader.join();
  for (auto& t : followers) t.join();

  EXPECT_EQ(rec.Calls(), 1u);  // N concurrent misses, ONE kv.load
  ASSERT_TRUE((*leader_results)[0].ok());
  for (int i = 0; i < kFollowers; ++i) {
    ASSERT_EQ(results[i]->size(), 1u);
    ASSERT_TRUE((*results[i])[0].ok());
    EXPECT_EQ(OnlyFid((*results[i])[0].value()), 7u);
  }
  EXPECT_EQ(metrics.GetHistogram("broker.batch_pids")->count(), 1u);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerLoadTest, ArrivalsDuringDispatchGoOutAsOneNextBatch) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), SystemClock::Instance(),
                          &metrics);

  std::optional<std::vector<Result<ProfileData>>> ra, rb, rc;
  std::thread a([&] { ra = Load(coalescer, {1}); });
  gate.AwaitEntered();
  std::thread b([&] { rb = Load(coalescer, {2}); });
  std::thread c([&] { rc = Load(coalescer, {3}); });
  // Both arrivals park behind the round trip on the wire; neither
  // dispatches while it is there.
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 3; }));
  EXPECT_EQ(rec.Calls(), 1u);
  const std::thread::id b_id = b.get_id();
  const std::thread::id c_id = c.get_id();
  gate.Open();
  a.join();
  b.join();
  c.join();

  // Exactly one next batch, holding both arrivals, dispatched by one of
  // them rather than by the first round trip's submitter.
  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{2, 3}));
  EXPECT_TRUE(rec.threads[1] == b_id || rec.threads[1] == c_id);
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  EXPECT_EQ(OnlyFid((*rc)[0].value()), 3u);
  EXPECT_EQ(CounterValue(metrics, "broker.cross_request_dedup"), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerLoadTest, DuplicatePidAcrossRequestsDedupsBeforeDispatch) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), SystemClock::Instance(),
                          &metrics);

  std::optional<std::vector<Result<ProfileData>>> blocker, ra, rb;
  std::thread t0([&] { blocker = Load(coalescer, {9}); });
  gate.AwaitEntered();
  std::thread a([&] { ra = Load(coalescer, {1}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 2; }));
  // Second request wants pid 1 (already pending — merged, not re-fetched)
  // plus pid 2.
  std::thread b([&] { rb = Load(coalescer, {1, 2}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 3; }));
  gate.Open();
  t0.join();
  a.join();
  b.join();

  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{1, 2}));
  EXPECT_EQ(CounterValue(metrics, "broker.cross_request_dedup"), 1);
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_EQ(rb->size(), 2u);
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rb)[1].ok());
  EXPECT_EQ(OnlyFid((*rb)[1].value()), 2u);
}

TEST(CoalescerLoadTest, DegradedFlagFansOutToEveryAttachedWaiter) {
  // A shared load served from a fallback replica must flag EVERY attached
  // waiter degraded, not just the initiator.
  MetricsRegistry metrics;
  std::atomic<int> calls{0};
  Gate gate;
  LoadCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&,
          std::vector<bool>* degraded) -> std::vector<Result<ProfileData>> {
        calls.fetch_add(1);
        gate.Enter();
        degraded->assign(pids.size(), true);  // replica fallback
        std::vector<Result<ProfileData>> out;
        for (ProfileId pid : pids) {
          out.push_back(MakeProfile(static_cast<FeatureId>(pid)));
        }
        return out;
      },
      SystemClock::Instance(), &metrics);

  std::optional<std::vector<Result<ProfileData>>> r1, r2, r3;
  std::vector<bool> d1, d2, d3;
  std::thread initiator([&] { r1 = Load(coalescer, {5}, &d1); });
  gate.AwaitEntered();
  std::thread w2([&] { r2 = Load(coalescer, {5}, &d2); });
  std::thread w3([&] { r3 = Load(coalescer, {5}, &d3); });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "broker.single_flight_hits") == 2;
  }));
  gate.Open();
  initiator.join();
  w2.join();
  w3.join();

  EXPECT_EQ(calls.load(), 1);
  ASSERT_TRUE((*r1)[0].ok());
  ASSERT_TRUE((*r2)[0].ok());
  ASSERT_TRUE((*r3)[0].ok());
  EXPECT_EQ(d1, std::vector<bool>{true});
  EXPECT_EQ(d2, std::vector<bool>{true});
  EXPECT_EQ(d3, std::vector<bool>{true});
}

TEST(CoalescerLoadTest, NotFoundFansOutToEveryAttachedWaiter) {
  MetricsRegistry metrics;
  std::atomic<int> calls{0};
  Gate gate;
  LoadCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&,
          std::vector<bool>*) -> std::vector<Result<ProfileData>> {
        calls.fetch_add(1);
        gate.Enter();
        return std::vector<Result<ProfileData>>(
            pids.size(), Status::NotFound("never persisted"));
      },
      SystemClock::Instance(), &metrics);

  std::optional<std::vector<Result<ProfileData>>> r1, r2;
  std::thread initiator([&] { r1 = Load(coalescer, {11}); });
  gate.AwaitEntered();
  std::thread follower([&] { r2 = Load(coalescer, {11}); });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "broker.single_flight_hits") == 1;
  }));
  gate.Open();
  initiator.join();
  follower.join();

  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE((*r1)[0].status().IsNotFound());
  EXPECT_TRUE((*r2)[0].status().IsNotFound());
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerLoadTest, WaiterDeadlineExpiryDetachesWithoutPoisoning) {
  MetricsRegistry metrics;
  ManualClock clock(1000);
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), &clock, &metrics);

  // Leader with no deadline: its round trip stalls at the gate.
  std::optional<std::vector<Result<ProfileData>>> leader_results;
  std::thread leader([&] { leader_results = Load(coalescer, {9}); });
  gate.AwaitEntered();

  // Follower with a deadline rides the stalled round trip.
  std::optional<std::vector<Result<ProfileData>>> follower_results;
  std::thread follower([&] {
    follower_results = Load(coalescer, {9}, nullptr, /*deadline_ms=*/1050);
  });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "broker.single_flight_hits") == 1;
  }));

  // The deadline passes (simulated domain) while the round trip is still on
  // the wire: the follower detaches with DeadlineExceeded...
  clock.AdvanceMs(100);
  follower.join();
  ASSERT_EQ(follower_results->size(), 1u);
  EXPECT_TRUE((*follower_results)[0].status().IsDeadlineExceeded());
  EXPECT_EQ(CounterValue(metrics, "broker.deadline_detaches"), 1);

  // ...but the shared load is neither cancelled nor poisoned: the leader
  // still gets its value, and the table drains clean.
  EXPECT_EQ(coalescer.InFlightCount(), 1u);
  gate.Open();
  leader.join();
  ASSERT_TRUE((*leader_results)[0].ok());
  EXPECT_EQ(coalescer.InFlightCount(), 0u);

  // A later miss for the same pid starts a fresh, healthy load.
  auto again = Load(coalescer, {9});
  ASSERT_TRUE(again[0].ok());
  EXPECT_EQ(rec.Calls(), 2u);
}

TEST(CoalescerLoadTest, ExpiredWaiterThatWouldLeadNeverStallsPendingSet) {
  MetricsRegistry metrics;
  ManualClock clock(1000);
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), &clock, &metrics);

  std::optional<std::vector<Result<ProfileData>>> ra, rb, rc;
  std::thread a([&] { ra = Load(coalescer, {1}); });
  gate.AwaitEntered();
  // B parks first, so it would claim the next batch — but its deadline
  // expires before the round trip on the wire lands.
  std::thread b([&] {
    rb = Load(coalescer, {2, 3}, nullptr, /*deadline_ms=*/1050);
  });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 3; }));
  std::thread c([&] { rc = Load(coalescer, {2}); });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "broker.cross_request_dedup") == 1;
  }));

  clock.AdvanceMs(100);
  b.join();
  ASSERT_EQ(rb->size(), 2u);
  EXPECT_TRUE((*rb)[0].status().IsDeadlineExceeded());
  EXPECT_TRUE((*rb)[1].status().IsDeadlineExceeded());
  EXPECT_EQ(CounterValue(metrics, "broker.deadline_detaches"), 2);
  // Pid 3 had no other waiter and was dropped; pid 2 stays pending for C.
  EXPECT_EQ(coalescer.InFlightCount(), 2u);

  gate.Open();
  a.join();
  c.join();
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{2}));
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerLoadTest, ShortFetchResultListFailsWaitersNotCrash) {
  MetricsRegistry metrics;
  LoadCoalescer coalescer(
      [](const std::vector<ProfileId>&, const std::vector<const ProfileData*>&,
         std::vector<bool>* degraded) -> std::vector<Result<ProfileData>> {
        degraded->clear();
        return {};  // misbehaving loader: short result list
      },
      SystemClock::Instance(), &metrics);
  std::vector<bool> degraded;
  auto results = Load(coalescer, {3}, &degraded);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[0].status().IsNotFound());
  EXPECT_EQ(degraded, std::vector<bool>{false});
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerLoadTest, OversizedPendingSetSplitsIntoChunkedFetches) {
  MetricsRegistry metrics;
  Recorder rec;
  LoadCoalescer coalescer(RecordingFetch(&rec), SystemClock::Instance(),
                          &metrics);
  constexpr size_t kPids = 2 * LoadCoalescer::kChunkPids + 88;
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= kPids; ++pid) pids.push_back(pid);
  auto results = Load(coalescer, pids);
  ASSERT_EQ(results.size(), kPids);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(OnlyFid(results[i].value()), pids[i]);
  }
  // The whole pending set was claimed (no stranded entries) and dispatched
  // in fixed-size chunks.
  ASSERT_EQ(rec.Calls(), 3u);
  EXPECT_EQ(rec.batches[0].size(), LoadCoalescer::kChunkPids);
  EXPECT_EQ(rec.batches[1].size(), LoadCoalescer::kChunkPids);
  EXPECT_EQ(rec.batches[2].size(), 88u);
  EXPECT_EQ(metrics.GetHistogram("broker.batch_pids")->count(), 3u);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

// TSan hammer: overlapping pid sets from many threads, half of them with
// deadlines short enough to expire mid-wait. Exercises attach, claim,
// single-flight, detach and pending-entry drops concurrently; every pid
// resolves to its own profile or DeadlineExceeded, and the table drains.
TEST(CoalescerLoadTest, ConcurrentLoadsWithDeadlinesResolveAndDrainClean) {
  MetricsRegistry metrics;
  SystemClock* clock = SystemClock::Instance();
  LoadCoalescer coalescer(
      [](const std::vector<ProfileId>& pids,
         const std::vector<const ProfileData*>&,
         std::vector<bool>*) -> std::vector<Result<ProfileData>> {
        for (int i = 0; i < 200; ++i) std::this_thread::yield();
        std::vector<Result<ProfileData>> out;
        for (ProfileId pid : pids) {
          out.push_back(MakeProfile(static_cast<FeatureId>(pid)));
        }
        return out;
      },
      clock, &metrics);

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) * 7919 + 3);
      for (int iter = 0; iter < kIters; ++iter) {
        std::vector<ProfileId> pids;
        const size_t want = 1 + rng() % 4;
        while (pids.size() < want) {
          const ProfileId pid = 1 + rng() % 16;
          if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
            pids.push_back(pid);
          }
        }
        const TimestampMs deadline = (iter % 2 == 0)
                                         ? LoadCoalescer::kNoDeadline
                                         : clock->NowMs() + 1;
        auto results = Load(coalescer, pids, nullptr, deadline);
        for (size_t i = 0; i < pids.size(); ++i) {
          const bool ok = results[i].ok() &&
                          OnlyFid(results[i].value()) == pids[i];
          if (!ok && !results[i].status().IsDeadlineExceeded()) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
  EXPECT_GT(metrics.GetHistogram("broker.batch_pids")->count(), 0u);
}

// ----------------------------------------------------------- store side ---

TEST(CoalescerStoreTest, SameEpochReflushPiggybacksOnInFlightWrite) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  const ProfileData snapshot = MakeProfile(1);
  std::optional<std::vector<Status>> leader_results, follower_results;
  std::thread leader([&] {
    leader_results = coalescer.Submit({7}, {5}, {&snapshot});
  });
  gate.AwaitEntered();  // the epoch-5 write is on the wire

  // A second flush of pid 7 with the SAME snapshot epoch: the bytes on the
  // wire are identical, so it rides that write instead of paying another.
  std::thread follower([&] {
    follower_results = coalescer.Submit({7}, {5}, {&snapshot});
  });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "store_broker.single_flight_hits") == 1;
  }));
  gate.Open();
  leader.join();
  follower.join();

  EXPECT_EQ(rec.Calls(), 1u);  // two flushes, ONE kv.store
  EXPECT_TRUE((*leader_results)[0].ok());
  EXPECT_TRUE((*follower_results)[0].ok());
  EXPECT_EQ(CounterValue(metrics, "store_broker.requeued_pids"), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, NewerEpochRequeuesBehindInFlightWrite) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  const ProfileData old_snapshot = MakeProfile(1);
  const ProfileData new_snapshot = MakeProfile(2);
  std::optional<std::vector<Status>> leader_results, follower_results;
  std::thread leader([&] {
    leader_results = coalescer.Submit({7}, {5}, {&old_snapshot});
  });
  gate.AwaitEntered();

  // The pid was re-dirtied while its epoch-5 store is on the wire: the
  // epoch-6 snapshot must still be written, but only AFTER the older write
  // lands (per-pid writes stay in epoch order, never concurrent).
  std::thread follower([&] {
    follower_results = coalescer.Submit({7}, {6}, {&new_snapshot});
  });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "store_broker.requeued_pids") == 1;
  }));
  EXPECT_EQ(rec.Calls(), 1u);  // newer write not dispatched yet
  gate.Open();
  leader.join();
  follower.join();

  ASSERT_EQ(rec.Calls(), 2u);
  ASSERT_TRUE((*leader_results)[0].ok());
  ASSERT_TRUE((*follower_results)[0].ok());
  EXPECT_EQ(rec.batches[0], (std::vector<ProfileId>{7}));
  EXPECT_EQ(rec.batches[1], (std::vector<ProfileId>{7}));
  // The requeued round trip carried the epoch-6 snapshot, not a replay of
  // the epoch-5 bytes.
  EXPECT_EQ(rec.snapshots[1],
            (std::vector<const ProfileData*>{&new_snapshot}));
  EXPECT_EQ(CounterValue(metrics, "store_broker.single_flight_hits"), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, PendingMergeCarriesNewestSnapshot) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  const ProfileData blocker = MakeProfile(9);
  const ProfileData v1 = MakeProfile(1);
  const ProfileData v2 = MakeProfile(2);
  const ProfileData other = MakeProfile(3);
  std::optional<std::vector<Status>> r0, ra, rb, rc;
  std::thread t0([&] { r0 = coalescer.Submit({9}, {1}, {&blocker}); });
  gate.AwaitEntered();
  std::thread a([&] { ra = coalescer.Submit({1}, {1}, {&v1}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 2; }));
  // Same pid, newer epoch, while the entry is still PENDING: the
  // submissions merge and the newer snapshot replaces the older one on the
  // single write.
  std::thread b([&] { rb = coalescer.Submit({1}, {2}, {&v2}); });
  ASSERT_TRUE(SpinUntil([&] {
    return CounterValue(metrics, "store_broker.single_flight_hits") == 1;
  }));
  std::thread c([&] { rc = coalescer.Submit({2}, {1}, {&other}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 3; }));
  gate.Open();
  t0.join();
  a.join();
  b.join();
  c.join();

  ASSERT_EQ(rec.Calls(), 2u);
  ASSERT_EQ(rec.batches[1].size(), 2u);
  for (size_t i = 0; i < rec.batches[1].size(); ++i) {
    if (rec.batches[1][i] == 1) {
      EXPECT_EQ(rec.snapshots[1][i], &v2);  // newest merged wins
    }
  }
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  // The merged chunk carried entries of two submissions; the blocker's did
  // not.
  EXPECT_EQ(CounterValue(metrics, "store_broker.cross_shard_batches"), 1);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, GroupsArrivingDuringAWriteShareTheNextOne) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  const ProfileData p0 = MakeProfile(9);
  const ProfileData p1 = MakeProfile(1);
  const ProfileData p2 = MakeProfile(2);
  const ProfileData p3 = MakeProfile(3);
  std::optional<std::vector<Status>> r0, ra, rb, rc;
  std::thread t0([&] { r0 = coalescer.Submit({9}, {1}, {&p0}); });
  gate.AwaitEntered();
  // Three flush groups (think: three dirty shards' passes) arrive while the
  // first write is on the wire.
  std::thread a([&] { ra = coalescer.Submit({1}, {1}, {&p1}); });
  std::thread b([&] { rb = coalescer.Submit({2}, {1}, {&p2}); });
  std::thread c([&] { rc = coalescer.Submit({3}, {1}, {&p3}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 4; }));
  gate.Open();
  t0.join();
  a.join();
  b.join();
  c.join();

  // One merged store for all three groups.
  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{1, 2, 3}));
  ASSERT_TRUE((*ra)[0].ok());
  ASSERT_TRUE((*rb)[0].ok());
  ASSERT_TRUE((*rc)[0].ok());
  EXPECT_EQ(CounterValue(metrics, "store_broker.cross_shard_batches"), 1);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, PartialStoreFailureFansBackPerPid) {
  MetricsRegistry metrics;
  Gate gate;
  std::atomic<int> calls{0};
  StoreCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&, std::vector<bool>*) {
        calls.fetch_add(1);
        gate.Enter();
        std::vector<Status> statuses;
        for (ProfileId pid : pids) {
          statuses.push_back(pid == 2 ? Status::Unavailable("disk full")
                                      : Status::OK());
        }
        return statuses;
      },
      SystemClock::Instance(), &metrics);

  const ProfileData p0 = MakeProfile(9);
  const ProfileData p1 = MakeProfile(1);
  const ProfileData p2 = MakeProfile(2);
  const ProfileData p3 = MakeProfile(3);
  std::optional<std::vector<Status>> r0, ra, rb;
  std::thread t0([&] { r0 = coalescer.Submit({9}, {1}, {&p0}); });
  gate.AwaitEntered();
  std::thread a([&] { ra = coalescer.Submit({1, 2}, {1, 1}, {&p1, &p2}); });
  std::thread b([&] { rb = coalescer.Submit({3}, {1}, {&p3}); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 4; }));
  gate.Open();
  t0.join();
  a.join();
  b.join();

  // One merged round trip, but pid 2's failure reaches exactly the
  // submission that flushed pid 2 — submission B sees only its own OK, so
  // GCache's per-status requeue semantics survive the merge.
  EXPECT_EQ(calls.load(), 2);
  ASSERT_EQ(ra->size(), 2u);
  EXPECT_TRUE((*ra)[0].ok());
  EXPECT_TRUE((*ra)[1].IsUnavailable());
  ASSERT_EQ(rb->size(), 1u);
  EXPECT_TRUE((*rb)[0].ok());
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, OversizedPendingSetSplitsIntoChunkedStores) {
  MetricsRegistry metrics;
  Recorder rec;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  constexpr size_t kPids = StoreCoalescer::kChunkPids + 5;
  std::vector<ProfileData> owned;
  std::vector<ProfileId> pids;
  std::vector<const ProfileData*> snapshots;
  std::vector<uint64_t> epochs;
  owned.reserve(kPids);
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    owned.push_back(MakeProfile(static_cast<FeatureId>(pid)));
    pids.push_back(pid);
    snapshots.push_back(&owned.back());
    epochs.push_back(1);
  }
  std::vector<Status> results = coalescer.Submit(pids, epochs, snapshots);
  ASSERT_EQ(results.size(), kPids);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
  }
  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.batches[0].size(), StoreCoalescer::kChunkPids);
  EXPECT_EQ(rec.batches[1].size(), 5u);
  EXPECT_EQ(metrics.GetHistogram("store_broker.batch_pids")->count(), 2u);
  // One submission: chunking alone is not cross-shard merging.
  EXPECT_EQ(CounterValue(metrics, "store_broker.cross_shard_batches"), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, ShortStoreResultListFailsSubmittersNotCrash) {
  MetricsRegistry metrics;
  StoreCoalescer coalescer(
      [](const std::vector<ProfileId>&, const std::vector<const ProfileData*>&,
         std::vector<bool>*) {
        return std::vector<Status>{};  // misbehaving store: short list
      },
      SystemClock::Instance(), &metrics);
  const ProfileData snapshot = MakeProfile(3);
  std::vector<Status> results = coalescer.Submit({3}, {1}, {&snapshot});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

TEST(CoalescerStoreTest, MismatchedInputsRejectedUpFront) {
  MetricsRegistry metrics;
  Recorder rec;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);
  const ProfileData snapshot = MakeProfile(1);
  for (const auto& results :
       {coalescer.Submit({1, 2}, {1, 1}, {&snapshot}),
        coalescer.Submit({1, 2}, {1}, {&snapshot, &snapshot}),
        coalescer.Submit({1, 2}, {}, {&snapshot, &snapshot})}) {
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].IsInvalidArgument());
    EXPECT_TRUE(results[1].IsInvalidArgument());
  }
  EXPECT_EQ(rec.Calls(), 0u);  // nothing reached the store
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
}

// TSan hammer: random overlapping pids and monotonically growing epochs from
// many threads. Exercises merge, piggyback, requeue, handoff of the pending
// set and chunking concurrently. Every status resolves OK, no round trip
// carries a pid twice or overlaps another write of the same pid, and the
// table drains clean.
TEST(CoalescerStoreTest, ConcurrentStormResolvesEveryPidAndDrainsClean) {
  MetricsRegistry metrics;
  constexpr ProfileId kPidSpace = 12;
  std::mutex writing_mu;
  std::set<ProfileId> writing;
  std::atomic<int> overlapping{0};
  StoreCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids,
          const std::vector<const ProfileData*>&, std::vector<bool>*) {
        {
          std::lock_guard<std::mutex> lock(writing_mu);
          for (ProfileId pid : pids) {
            if (!writing.insert(pid).second) overlapping.fetch_add(1);
          }
        }
        for (int i = 0; i < 200; ++i) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(writing_mu);
        for (ProfileId pid : pids) writing.erase(pid);
        return std::vector<Status>(pids.size(), Status::OK());
      },
      SystemClock::Instance(), &metrics);

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<uint64_t> epoch_source{1};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) * 7919 + 1);
      for (int iter = 0; iter < kIters; ++iter) {
        const size_t group = 1 + rng() % 3;
        std::vector<ProfileId> pids;
        std::vector<uint64_t> epochs;
        for (size_t g = 0; g < group; ++g) {
          const ProfileId pid = rng() % kPidSpace;
          if (std::find(pids.begin(), pids.end(), pid) != pids.end()) {
            continue;  // GCache dirty lists never hold same-call duplicates
          }
          pids.push_back(pid);
          epochs.push_back(epoch_source.fetch_add(1));
        }
        std::vector<ProfileData> owned;
        std::vector<const ProfileData*> snapshots;
        owned.reserve(pids.size());
        for (ProfileId pid : pids) {
          owned.push_back(MakeProfile(static_cast<FeatureId>(pid + 1)));
          snapshots.push_back(&owned.back());
        }
        for (const Status& status :
             coalescer.Submit(pids, epochs, snapshots)) {
          if (!status.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(overlapping.load(), 0);
  EXPECT_EQ(coalescer.InFlightCount(), 0u);
  EXPECT_GT(metrics.GetHistogram("store_broker.batch_pids")->count(), 0u);
}

TEST(CoalescerStoreTest, EvictionWriteBackRoutesThroughCoalescerWhenInstalled) {
  // With the cache's store function composed over the coalescer (the broker
  // on) an eviction storm must ride its batches — and with the store
  // function calling storage directly (the broker ablated) the write-backs
  // must still go out, never silently drop.
  MetricsRegistry metrics;
  Recorder rec;
  StoreCoalescer coalescer(RecordingStore(&rec), SystemClock::Instance(),
                           &metrics);

  auto make_cache = [](StoreFn store) {
    GCacheOptions options;
    options.lru_shards = 1;
    options.dirty_shards = 1;
    options.memory_limit_bytes = 4 << 10;
    options.write_granularity_ms = kMinute;
    return std::make_unique<GCache>(
        options, SystemClock::Instance(),
        [](const std::vector<ProfileId>& pids, std::vector<bool>*,
           TimestampMs) {
          return std::vector<Result<ProfileData>>(
              pids.size(), Result<ProfileData>(Status::NotFound("cold")));
        },
        std::move(store));
  };
  auto fill = [](GCache& cache) {
    for (ProfileId pid = 1; pid <= 40; ++pid) {
      cache
          .WithProfileMutable(pid,
                              [&](ProfileData& profile) {
                                for (int i = 0; i < 8; ++i) {
                                  profile
                                      .Add(kMinute * (i + 1), 1, 1,
                                           static_cast<FeatureId>(i + 1),
                                           CountVector{1, 2})
                                      .ok();
                                }
                              })
          .ok();
    }
  };

  std::unique_ptr<GCache> cache =
      make_cache([&](const std::vector<ProfileId>& pids,
                     const std::vector<uint64_t>& epochs,
                     const std::vector<const ProfileData*>& snapshots) {
        return coalescer.Submit(pids, epochs, snapshots);
      });
  fill(*cache);
  ASSERT_GT(cache->MemoryBytes(), cache->options().memory_limit_bytes);
  ASSERT_GT(cache->SwapOnce(), 0u);
  // The dirty victims' write-backs all rode the coalescer.
  EXPECT_GT(rec.Calls(), 0u);
  // And nothing was dropped: every pid is still resident or went out in a
  // coalesced batch.
  std::set<ProfileId> covered;
  for (const auto& batch : rec.batches) {
    covered.insert(batch.begin(), batch.end());
  }
  for (ProfileId pid : cache->CachedIds()) covered.insert(pid);
  for (ProfileId pid = 1; pid <= 40; ++pid) {
    EXPECT_TRUE(covered.count(pid) == 1) << pid;
  }

  // Ablation: identical cache whose store function bypasses the coalescer
  // — the eviction write-back still goes out, and the coalescer sees
  // nothing.
  const size_t coalesced_before = rec.Calls();
  std::atomic<int> ablated_stores{0};
  std::unique_ptr<GCache> ablated =
      make_cache([&](const std::vector<ProfileId>& pids,
                     const std::vector<uint64_t>&,
                     const std::vector<const ProfileData*>&) {
        ablated_stores.fetch_add(1);
        return std::vector<Status>(pids.size(), Status::OK());
      });
  fill(*ablated);
  ASSERT_GT(ablated->SwapOnce(), 0u);
  EXPECT_GT(ablated_stores.load(), 0);
  EXPECT_EQ(rec.Calls(), coalesced_before);
}

}  // namespace
}  // namespace ips
