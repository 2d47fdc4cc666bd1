#include "cache/coalescer.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescer_test_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "kvstore/mem_kv_store.h"
#include "server/persistence.h"

namespace ips {
namespace {

using coalescer_test::DecodeAll;
using coalescer_test::FetchedOf;
using coalescer_test::Gate;
using coalescer_test::SpinUntil;

constexpr int64_t kMinute = kMillisPerMinute;

ProfileData MakeProfile(FeatureId fid) {
  ProfileData profile(kMinute);
  profile.Add(kMinute, 1, 1, fid, CountVector{1}).ok();
  return profile;
}

FeatureId OnlyFid(const ProfileData& profile) {
  return profile.slices().front().rows().front().fid;
}

// Records every round trip's pids and calling thread, then holds it at the
// gate (when one is wired).
struct Recorder {
  std::mutex mu;
  std::vector<std::vector<ProfileId>> batches;
  std::vector<std::thread::id> threads;
  Gate* gate = nullptr;

  void Record(const std::vector<ProfileId>& pids) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batches.push_back(pids);
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

// Fetches answer every pid with a one-feature profile whose fid is the pid.
LoadCoalescer::FetchFn RecordingFetch(Recorder* rec) {
  return [rec](const std::vector<ProfileId>& pids) {
    rec->Record(pids);
    std::vector<FetchedProfile> out;
    for (ProfileId pid : pids) {
      out.push_back(FetchedOf(MakeProfile(static_cast<FeatureId>(pid))));
    }
    return out;
  };
}

// Submits and decodes on the calling thread, as the instance's load function
// does.
std::vector<Result<ProfileData>> Load(
    LoadCoalescer& coalescer, const std::vector<ProfileId>& pids,
    std::vector<bool>* degraded = nullptr,
    TimestampMs deadline_ms = LoadCoalescer::kNoDeadline) {
  return DecodeAll(coalescer.Submit(pids, deadline_ms), degraded);
}

int64_t CounterValue(MetricsRegistry& metrics, const char* name) {
  return metrics.GetCounter(name)->Value();
}

TEST(CoalescerLoadTest, FirstSubmitterDispatchesAtOnceAndFollowersRideIt) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec),
                          SystemClock::Instance(), &metrics);

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
  LoadCoalescer coalescer(RecordingFetch(&rec),
                          SystemClock::Instance(), &metrics);

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
  LoadCoalescer coalescer(RecordingFetch(&rec),
                          SystemClock::Instance(), &metrics);

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
      [&](const std::vector<ProfileId>& pids) {
        calls.fetch_add(1);
        gate.Enter();
        std::vector<FetchedProfile> out;
        for (ProfileId pid : pids) {
          out.push_back(FetchedOf(MakeProfile(static_cast<FeatureId>(pid)),
                                  /*degraded=*/true));  // replica fallback
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
      [&](const std::vector<ProfileId>& pids) {
        calls.fetch_add(1);
        gate.Enter();
        std::vector<FetchedProfile> out(pids.size());
        for (FetchedProfile& f : out) {
          f.status = Status::NotFound("never persisted");
        }
        return out;
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
      [](const std::vector<ProfileId>&) {
        // Misbehaving fetch: short result list.
        return std::vector<FetchedProfile>();
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
  LoadCoalescer coalescer(RecordingFetch(&rec),
                          SystemClock::Instance(), &metrics);
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

// Holds a first round trip (pid 99) at the gate so that the submitters
// started by `park` attach while it is on the wire, then opens the gate:
// everything they parked goes out as ONE next fetch.
void ShareOneFetch(LoadCoalescer& coalescer, Gate& gate,
                   const std::function<void()>& park) {
  std::thread blocker([&] { Load(coalescer, {99}); });
  gate.AwaitEntered();
  park();
  gate.Open();
  blocker.join();
}

TEST(CoalescerLoadTest, SubmittersSharingOneFetchGetOnlyTheirOwnBytes) {
  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(RecordingFetch(&rec), SystemClock::Instance(),
                          &metrics);

  std::vector<FetchedProfile> fa, fb;
  std::thread a, b;
  ShareOneFetch(coalescer, gate, [&] {
    a = std::thread([&] { fa = coalescer.Submit({1}); });
    b = std::thread([&] { fb = coalescer.Submit({2}); });
    ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 3; }));
  });
  a.join();
  b.join();

  // One shared fetch carried both pids, and each submitter got back only
  // its own pid's stored bytes, still encoded: the decode is the
  // submitter's, on its own thread.
  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{1, 2}));
  ASSERT_EQ(fa.size(), 1u);
  ASSERT_EQ(fb.size(), 1u);
  ASSERT_TRUE(fa[0].status.ok());
  ASSERT_TRUE(fb[0].status.ok());
  EXPECT_EQ(fa[0].bulk, FetchedOf(MakeProfile(1)).bulk);
  EXPECT_EQ(fb[0].bulk, FetchedOf(MakeProfile(2)).bulk);
}

TEST(CoalescerLoadTest, CorruptValueFailsOnlyItsOwnPid) {
  // The instance's composition: the persister's fetch shared, its decode
  // per submitter. One stored value is corrupt; only the waiters on that
  // pid see Corruption.
  MemKvStore kv;
  Persister persister("t", &kv, PersisterOptions{});
  for (ProfileId pid : {1, 2, 3, 99}) {
    ASSERT_TRUE(
        persister.Flush(pid, MakeProfile(static_cast<FeatureId>(pid))).ok());
  }
  std::string value;
  ASSERT_TRUE(kv.Get(persister.BulkKey(2), &value).ok());
  value[value.size() / 2] ^= 0x10;
  ASSERT_TRUE(kv.Set(persister.BulkKey(2), value).ok());

  MetricsRegistry metrics;
  Gate gate;
  Recorder rec;
  rec.gate = &gate;
  LoadCoalescer coalescer(
      [&](const std::vector<ProfileId>& pids) {
        rec.Record(pids);
        return persister.FetchBatch(pids);
      },
      SystemClock::Instance(), &metrics);
  const auto load = [&](const std::vector<ProfileId>& pids) {
    return persister.DecodeBatch(coalescer.Submit(pids), nullptr);
  };

  std::optional<std::vector<Result<ProfileData>>> r1, r2, r2_again;
  std::vector<std::thread> threads;
  ShareOneFetch(coalescer, gate, [&] {
    threads.emplace_back([&] { r1 = load({1}); });
    threads.emplace_back([&] { r2 = load({2, 3}); });
    ASSERT_TRUE(SpinUntil([&] { return coalescer.InFlightCount() == 4; }));
    threads.emplace_back([&] { r2_again = load({2}); });
    ASSERT_TRUE(SpinUntil([&] {
      return CounterValue(metrics, "broker.cross_request_dedup") == 1;
    }));
  });
  for (auto& t : threads) t.join();

  ASSERT_EQ(rec.Calls(), 2u);
  EXPECT_EQ(rec.SortedBatch(1), (std::vector<ProfileId>{1, 2, 3}));
  ASSERT_TRUE((*r1)[0].ok());
  EXPECT_EQ(OnlyFid((*r1)[0].value()), 1u);
  EXPECT_TRUE((*r2)[0].status().IsCorruption()) << (*r2)[0].status().ToString();
  ASSERT_TRUE((*r2)[1].ok());
  EXPECT_EQ(OnlyFid((*r2)[1].value()), 3u);
  EXPECT_TRUE((*r2_again)[0].status().IsCorruption());
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
      [](const std::vector<ProfileId>& pids) {
        for (int i = 0; i < 200; ++i) std::this_thread::yield();
        std::vector<FetchedProfile> out;
        for (ProfileId pid : pids) {
          out.push_back(FetchedOf(MakeProfile(static_cast<FeatureId>(pid))));
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

}  // namespace
}  // namespace ips
