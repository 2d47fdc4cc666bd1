#include "server/quota.h"

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace ips {
namespace {

TEST(QuotaManagerTest, UnknownCallerUnlimitedByDefault) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(quota.Check("anyone").ok());
  }
  EXPECT_DOUBLE_EQ(quota.QuotaFor("anyone"), 0.0);  // 0 = unlimited
}

TEST(QuotaManagerTest, ExplicitQuotaEnforced) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("feed", 100.0);
  int granted = 0;
  for (int i = 0; i < 500; ++i) {
    if (quota.Check("feed").ok()) ++granted;
  }
  EXPECT_EQ(granted, 100);  // burst = one second of traffic
  Status rejected = quota.Check("feed");
  EXPECT_TRUE(rejected.IsResourceExhausted());
}

TEST(QuotaManagerTest, UsageRecoversAfterFallingUnderLimit) {
  // Section V-b: requests rejected "until its usage falls below the limit".
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("ads", 10.0);
  while (quota.Check("ads").ok()) {
  }
  clock.AdvanceMs(500);  // 5 tokens back
  int granted = 0;
  while (quota.Check("ads").ok()) ++granted;
  EXPECT_EQ(granted, 5);
}

TEST(QuotaManagerTest, CallersAreIndependent) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("a", 1.0);
  quota.SetQuota("b", 100.0);
  EXPECT_TRUE(quota.Check("a").ok());
  EXPECT_TRUE(quota.Check("a").IsResourceExhausted());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(quota.Check("b").ok()) << i;
  }
}

TEST(QuotaManagerTest, HotReconfigureTakesEffect) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("feed", 2.0);
  EXPECT_TRUE(quota.Check("feed").ok());
  EXPECT_TRUE(quota.Check("feed").ok());
  EXPECT_FALSE(quota.Check("feed").ok());
  quota.SetQuota("feed", 1000.0);  // ops bumps the quota live
  clock.AdvanceMs(1000);
  int granted = 0;
  while (quota.Check("feed").ok()) ++granted;
  EXPECT_EQ(granted, 1000);
  EXPECT_DOUBLE_EQ(quota.QuotaFor("feed"), 1000.0);
}

TEST(QuotaManagerTest, RemoveQuotaRestoresDefault) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("x", 1.0);
  quota.Check("x").ok();
  EXPECT_TRUE(quota.Check("x").IsResourceExhausted());
  quota.RemoveQuota("x");
  EXPECT_TRUE(quota.Check("x").ok());  // unlimited again
}

TEST(QuotaManagerTest, WeightedBatchCost) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("batch", 10.0);
  EXPECT_TRUE(quota.Check("batch", 8.0).ok());
  EXPECT_TRUE(quota.Check("batch", 8.0).IsResourceExhausted());
  EXPECT_TRUE(quota.Check("batch", 2.0).ok());
}

TEST(QuotaManagerTest, ReconfigurePreservesDrainedUsage) {
  // Reconfiguring a live quota keeps the bucket's accumulated usage: a
  // caller that just drained its allowance does NOT get a free burst from a
  // config push — it stays drained and refills at the NEW rate, capped at
  // the new burst. This is the semantic the config-registry watcher relies
  // on (re-publishing a quota document must not reset enforcement).
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("feed", 5.0);
  while (quota.Check("feed").ok()) {
  }
  quota.SetQuota("feed", 3.0);  // lower rate; drained state carries over
  EXPECT_FALSE(quota.Check("feed").ok());
  clock.AdvanceMs(5000);  // refill at the new rate, cap at the new burst
  int granted = 0;
  while (quota.Check("feed").ok()) ++granted;
  EXPECT_EQ(granted, 3);
}

TEST(QuotaManagerTest, RemoveUnknownCallerIsNoOp) {
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.RemoveQuota("ghost");  // never configured: must not crash or leak
  EXPECT_TRUE(quota.Check("ghost").ok());  // still unlimited
  EXPECT_DOUBLE_EQ(quota.QuotaFor("ghost"), 0.0);
}

TEST(QuotaManagerTest, MidFlightRemovalRaceIsSafe) {
  // Threads hammer Check while the main thread removes and re-adds the same
  // caller's quota: an in-flight Check that grabbed the bucket before a
  // RemoveQuota must resolve as "checked under the old quota", never as a
  // use-after-free (this is what TSan/ASan runs of this test pin down).
  ManualClock clock(0);
  QuotaManager quota(&clock);
  quota.SetQuota("hot", 1'000'000.0);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> checks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        quota.Check("hot", 1.0).ok();
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Churn for 500 rounds, then keep churning until every hammer thread has
  // demonstrably overlapped with it (on a loaded single-core sanitizer run
  // the fixed loop can finish before the threads are even scheduled).
  for (int i = 0; i < 500 || checks.load() < 4; ++i) {
    quota.RemoveQuota("hot");
    quota.SetQuota("hot", 1'000'000.0);
    clock.AdvanceMs(1);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(checks.load(), 0);
  // Manager still consistent after the churn.
  EXPECT_DOUBLE_EQ(quota.QuotaFor("hot"), 1'000'000.0);
  EXPECT_TRUE(quota.Check("hot").ok());
}

TEST(QuotaManagerTest, ShardedCallersStayIndependentUnderConcurrency) {
  // Many distinct callers spread across shards, checked from several
  // threads at once: each caller's accounting must stay exact.
  ManualClock clock(0);
  QuotaManager quota(&clock);
  constexpr int kCallers = 64;
  for (int c = 0; c < kCallers; ++c) {
    quota.SetQuota("caller-" + std::to_string(c), 10.0);
  }
  std::array<std::atomic<int>, kCallers> granted{};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int c = 0; c < kCallers; ++c) {
        const std::string caller = "caller-" + std::to_string(c);
        for (int i = 0; i < 10; ++i) {
          if (quota.Check(caller).ok()) {
            granted[c].fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // 4 threads x 10 attempts against a burst of 10: exactly 10 grants each.
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(granted[c].load(), 10) << "caller-" << c;
  }
}

}  // namespace
}  // namespace ips
