// The store side of an IpsInstance table: the StoreFn that CreateTable wires
// under GCache's write-back (Persister::StoreBatch, or an all-OK store when
// persist_writes is off) and the store_broker.batch_pids histogram that
// GCache records for every write-back store call. Write-back ordering under
// the cache's write-back lock is covered by gcache_test; a flush held on the
// wire while more writes land is covered by ips_instance_test.
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

using test_util::ManualInstanceOptions;
using test_util::TestSchema;

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

void AddOne(IpsInstance& instance, const Clock& clock, ProfileId pid) {
  ASSERT_TRUE(instance
                  .AddProfile("test", "profiles", pid,
                              clock.NowMs() - kMinute, 1, 1,
                              static_cast<FeatureId>(pid), CountVector{1})
                  .ok());
}

TEST(StoreBrokerInstanceTest, CrossShardFlushIsOneStoreBatchAndDurable) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  const IpsInstanceOptions options = ManualInstanceOptions();
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());
  const std::vector<ProfileId> pids = {1, 2, 3};
  for (ProfileId pid : pids) AddOne(instance, clock, pid);
  const int64_t multi_sets_before = kv.MultiSetCalls();
  const int64_t point_writes_before = kv.PointWriteCalls();
  instance.FlushAll();

  // One flush pass takes the whole dirty list: one store call, one
  // MultiSet, no point writes.
  EXPECT_EQ(kv.MultiSetCalls() - multi_sets_before, 1);
  EXPECT_EQ(kv.PointWriteCalls() - point_writes_before, 0);
  MetricsRegistry* metrics = instance.metrics();
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value(), 3);
  Histogram* batch_pids = metrics->GetHistogram("store_broker.batch_pids");
  EXPECT_EQ(batch_pids->count(), 1u);
  EXPECT_EQ(batch_pids->Mean(), 3.0);

  // The batch is durable: a cold instance reads every profile back.
  IpsInstance cold(options, &kv, &clock);
  ASSERT_TRUE(cold.CreateTable(TestSchema()).ok());
  for (ProfileId pid : pids) {
    auto result = cold.GetProfileTopK("test", "profiles", pid, 1,
                                      std::nullopt, TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->features.size(), 1u);
    EXPECT_EQ(result->features[0].fid, static_cast<FeatureId>(pid));
  }
}

TEST(StoreBrokerInstanceTest, PersistWritesOffCleansWithoutTouchingTheKv) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options = ManualInstanceOptions();
  options.persist_writes = false;  // a read replica: the all-OK store
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());
  const std::vector<ProfileId> pids = {1, 2, 3};
  for (ProfileId pid : pids) AddOne(instance, clock, pid);
  const int64_t multi_sets_before = kv.MultiSetCalls();
  const int64_t point_writes_before = kv.PointWriteCalls();
  instance.FlushAll();

  // The pass still runs and records its store call, but nothing reaches
  // the KV; the entries come out clean.
  EXPECT_EQ(kv.MultiSetCalls() - multi_sets_before, 0);
  EXPECT_EQ(kv.PointWriteCalls() - point_writes_before, 0);
  MetricsRegistry* metrics = instance.metrics();
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value(), 3);
  EXPECT_EQ(metrics->GetHistogram("store_broker.batch_pids")->count(), 1u);
  instance.FlushAll();  // clean entries: nothing left to write back
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value(), 3);
  EXPECT_EQ(metrics->GetHistogram("store_broker.batch_pids")->count(), 1u);

  IpsInstance cold(options, &kv, &clock);
  ASSERT_TRUE(cold.CreateTable(TestSchema()).ok());
  auto result = cold.GetProfileTopK("test", "profiles", pids[0], 1,
                                    std::nullopt, TimeRange::Current(kDay),
                                    SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->features.empty());
}

}  // namespace
}  // namespace ips
