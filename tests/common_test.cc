#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "common/thread_pool.h"

namespace ips {
namespace {

// ---------------------------------------------------------------- Clock ---

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMs(), 1000);
  clock.AdvanceMs(500);
  EXPECT_EQ(clock.NowMs(), 1500);
  clock.SetMs(42);
  EXPECT_EQ(clock.NowMs(), 42);
}

TEST(ClockTest, ManualClockSleepAdvancesInsteadOfBlocking) {
  ManualClock clock(0);
  const int64_t before = MonotonicNanos();
  clock.SleepMs(60'000);  // a real sleep would hang the test
  EXPECT_EQ(clock.NowMs(), 60'000);
  EXPECT_LT(MonotonicNanos() - before, int64_t{1'000'000'000});
}

TEST(ClockTest, SystemClockMovesForward) {
  SystemClock* clock = SystemClock::Instance();
  const TimestampMs a = clock->NowMs();
  clock->SleepMs(2);
  EXPECT_GE(clock->NowMs(), a);
}

// ------------------------------------------------------------------ Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SkewConcentratesOnHead) {
  const double theta = GetParam();
  ZipfGenerator zipf(10'000, theta);
  Rng rng(13);
  int64_t head_hits = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const uint64_t rank = zipf.Next(rng);
    ASSERT_LT(rank, 10'000u);
    if (rank < 100) ++head_hits;
  }
  // Top 1% of items must dominate under any of these skews.
  const double head_fraction = static_cast<double>(head_hits) / n;
  EXPECT_GT(head_fraction, theta >= 0.99 ? 0.45 : 0.25);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfTest, ::testing::Values(0.8, 0.9, 0.99));

TEST(ScrambleIdTest, IsInjectiveOnSample) {
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 10'000; ++i) out.insert(ScrambleId(i));
  EXPECT_EQ(out.size(), 10'000u);
}

// ----------------------------------------------------------------- Hash ---

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1024; ++i) buckets.insert(Mix64(i) & 15);
  EXPECT_EQ(buckets.size(), 16u);  // all 16 shards hit by 1024 sequential ids
}

TEST(HashTest, Fnv1aDiffersForDifferentStrings) {
  EXPECT_NE(Fnv1a("table_a"), Fnv1a("table_b"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

TEST(HashTest, ChecksumDetectsSingleByteFlip) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t sum = Checksum32(data.data(), data.size());
  data[7] ^= 0x01;
  EXPECT_NE(sum, Checksum32(data.data(), data.size()));
}

// ------------------------------------------------------------ Histogram ---

TEST(HistogramTest, EmptyReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ExactInLinearRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(i % 10);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_EQ(h.Percentile(1.0), 9);
}

TEST(HistogramTest, PercentileOrderingHolds) {
  Histogram h;
  Rng rng(17);
  for (int i = 0; i < 100'000; ++i) {
    h.Record(static_cast<int64_t>(rng.Exponential(2000.0)));
  }
  const int64_t p50 = h.Percentile(0.50);
  const int64_t p90 = h.Percentile(0.90);
  const int64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // p50 of an exponential with mean 2000 is ~1386; allow bucket error.
  EXPECT_NEAR(static_cast<double>(p50), 1386.0, 160.0);
}

TEST(HistogramTest, BucketBoundsAreConsistent) {
  for (int64_t v : {0, 1, 63, 64, 100, 1000, 12345, 1 << 20, 1 << 30}) {
    const int b = Histogram::BucketFor(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, RelativeErrorBounded) {
  for (int64_t v = 64; v < (int64_t{1} << 40); v = v * 3 / 2 + 1) {
    const int64_t upper = Histogram::BucketUpperBound(Histogram::BucketFor(v));
    EXPECT_LE(static_cast<double>(upper - v) / static_cast<double>(v), 0.08)
        << v;
  }
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max(), 30);
  EXPECT_EQ(a.min(), 10);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), 0);
}

// ---------------------------------------------------------- TokenBucket ---

TEST(TokenBucketTest, AllowsBurstThenRejects) {
  ManualClock clock(0);
  TokenBucket bucket(10.0, 5.0, &clock);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

TEST(TokenBucketTest, RefillsWithTime) {
  ManualClock clock(0);
  TokenBucket bucket(10.0, 5.0, &clock);
  for (int i = 0; i < 5; ++i) bucket.TryAcquire();
  EXPECT_FALSE(bucket.TryAcquire());
  clock.AdvanceMs(100);  // 1 token at 10/s
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

TEST(TokenBucketTest, NeverExceedsBurst) {
  ManualClock clock(0);
  TokenBucket bucket(1000.0, 3.0, &clock);
  clock.AdvanceMs(60'000);
  int granted = 0;
  while (bucket.TryAcquire()) ++granted;
  EXPECT_EQ(granted, 3);
}

TEST(TokenBucketTest, ReconfigureTakesEffect) {
  ManualClock clock(0);
  TokenBucket bucket(1.0, 1.0, &clock);
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
  bucket.Reconfigure(100.0, 100.0);
  clock.AdvanceMs(1000);
  int granted = 0;
  while (bucket.TryAcquire()) ++granted;
  EXPECT_EQ(granted, 100);
  EXPECT_EQ(bucket.rate_per_sec(), 100.0);
}

TEST(TokenBucketTest, WeightedCosts) {
  ManualClock clock(0);
  TokenBucket bucket(10.0, 10.0, &clock);
  EXPECT_TRUE(bucket.TryAcquire(8.0));
  EXPECT_FALSE(bucket.TryAcquire(4.0));
  EXPECT_TRUE(bucket.TryAcquire(2.0));
}

// -------------------------------------------------- StripedThreadPool ---

TEST(StripedThreadPoolTest, RunsAllTasksAcrossShards) {
  StripedThreadPool pool(4, /*num_shards=*/16);
  std::atomic<int> counter{0};
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit(i, [&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(StripedThreadPoolTest, LoneTaskOnAnyShardDrainsOnItsOwnWake) {
  // Regression: the steal scan used stride num_workers, so with 4 workers
  // and 16 shards each worker could reach only 8 of the 16 shards. A lone
  // task on a shard outside the woken worker's reachable set made that
  // worker busy-spin (queued_ > 0, PopTask always failing) while the task
  // starved and Wait() hung. One task per shard with a Wait() between
  // submissions forces every shard to drain off a single wake-up.
  StripedThreadPool pool(4, /*num_shards=*/16);
  std::atomic<int> counter{0};
  for (uint64_t shard = 0; shard < 16; ++shard) {
    ASSERT_TRUE(pool.Submit(shard, [&counter] { counter.fetch_add(1); }));
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 16);
}

TEST(StripedThreadPoolTest, SameShardHintKeepsFifoOrder) {
  // One worker, all tasks on one shard: execution must follow submit order.
  StripedThreadPool pool(1, /*num_shards=*/4);
  std::mutex mu;
  std::vector<int> order;
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit(7, [&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.Submit(7, [&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  release.store(true);
  pool.Wait();
  ASSERT_EQ(order.size(), 32u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(StripedThreadPoolTest, RejectsWhenTotalQueueFull) {
  StripedThreadPool pool(1, /*num_shards=*/2, /*max_queue=*/2);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  int accepted = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    if (pool.Submit(i, [] {})) ++accepted;
  }
  EXPECT_LE(accepted, 2);
  release.store(true);
  pool.Wait();
}

TEST(StripedThreadPoolTest, WorkersStealFromForeignShards) {
  // Two workers; every task lands on one shard, so only one worker owns it
  // as home stripe. The first task parks its worker until a SECOND task is
  // also running — which the other worker can only reach by stealing from
  // the foreign shard. Forces (and counts) a steal even on one core, where
  // a free-running home worker would otherwise drain the queue alone.
  StripedThreadPool pool(2, /*num_shards=*/2);
  std::atomic<int> counter{0};
  std::atomic<int> entered{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit(0, [&counter, &entered] {
      entered.fetch_add(1);
      while (entered.load() < 2) std::this_thread::yield();
      counter.fetch_add(1);
    }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_GT(pool.StealCount(), 0u);
}

TEST(StripedThreadPoolTest, SingleWorkerNeverSteals) {
  // With one worker every shard is its home stripe, so "steal" must stay 0
  // regardless of how many shards the work spreads over — the structural
  // property the ablation bench's serial row relies on.
  StripedThreadPool pool(1, /*num_shards=*/8);
  std::atomic<int> counter{0};
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit(i * 2654435761u,
                            [&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.StealCount(), 0u);
}

TEST(StripedThreadPoolTest, ShardQueueDepthTracksBacklog) {
  StripedThreadPool pool(1, /*num_shards=*/4);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  // Park three more tasks behind the blocker on shard 1's queue.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(1, [] {}));
  }
  EXPECT_GE(pool.ShardQueueDepth(1), 3u);
  EXPECT_GE(pool.QueueDepth(), 3u);
  release.store(true);
  pool.Wait();
  EXPECT_EQ(pool.ShardQueueDepth(1), 0u);
}

TEST(StripedThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  StripedThreadPool pool(3, /*num_shards=*/8);
  pool.Wait();
  SUCCEED();
}

// ------------------------------------------------------- ZipfGenerator ---

using ZipfDeathTest = ::testing::Test;

TEST(ZipfDeathTest, RejectsThetaAtOrAboveOne) {
  // theta >= 1 makes alpha = 1/(1-theta) blow up; construction must abort
  // with a diagnostic instead of silently producing garbage skew.
  EXPECT_DEATH(ZipfGenerator(100, 1.0), "theta");
  EXPECT_DEATH(ZipfGenerator(100, 1.5), "theta");
}

TEST(ZipfDeathTest, RejectsNonPositiveThetaAndEmptyDomain) {
  EXPECT_DEATH(ZipfGenerator(100, 0.0), "theta");
  EXPECT_DEATH(ZipfGenerator(100, -0.5), "theta");
  EXPECT_DEATH(ZipfGenerator(0, 0.5), "n > 0");
}

TEST(ZipfTest, AcceptsOpenIntervalTheta) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const uint64_t v = zipf.Next(rng);
    EXPECT_LT(v, 1000u);
  }
}

}  // namespace
}  // namespace ips
