// The store broker: the store-side Coalescer as IpsInstance wires it between
// GCache flush passes and Persister::StoreBatch (IpsInstanceOptions::
// enable_store_broker). Flush groups from different dirty shards that arrive
// while a write is on the wire share the next MultiSet; with the broker
// ablated, each pass still writes one batch and stays durable. The
// group-commit primitive itself is covered by coalescer_test.
#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescer_test_util.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

using coalescer_test::GatedKv;
using coalescer_test::ManualInstanceOptions;
using coalescer_test::SpinUntil;
using coalescer_test::TestSchema;

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

TEST(StoreBrokerInstanceTest, FlushPassesArrivingDuringAWriteShareOneMultiSet) {
  GatedKv kv;
  ManualClock clock(100 * kDay);
  const IpsInstanceOptions options = ManualInstanceOptions();
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());

  // Three pids in DIFFERENT dirty shards (same sharding function as GCache),
  // ordered by shard: a FlushAll pass reaches the first one before the
  // others, and each pass submits its own one-pid group, so the merge is
  // genuinely cross-shard.
  const size_t shard_mask = options.cache.dirty_shards - 1;
  auto shard_of = [&](ProfileId pid) { return (Mix64(pid) >> 17) & shard_mask; };
  std::vector<ProfileId> pids;
  std::set<size_t> shards;
  for (ProfileId pid = 1; pids.size() < 3; ++pid) {
    if (shards.insert(shard_of(pid)).second) pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end(), [&](ProfileId a, ProfileId b) {
    return shard_of(a) < shard_of(b);
  });
  for (ProfileId pid : pids) {
    ASSERT_TRUE(instance
                    .AddProfile("test", "profiles", pid,
                                clock.NowMs() - kMinute, 1, 1,
                                static_cast<FeatureId>(pid), CountVector{1})
                    .ok());
  }
  const int64_t point_writes_before = kv.inner().PointWriteCalls();
  auto coalescer_pids = [&] {
    return instance.GetTableStats("profiles")->store_coalescer_pids;
  };

  // The first pass's write of the lowest-shard pid holds the gate; two more
  // passes each take one of the remaining shards and park behind it.
  kv.Arm();
  std::thread t0([&] { instance.FlushAll(); });
  kv.gate().AwaitEntered();
  std::thread t1([&] { instance.FlushAll(); });
  std::thread t2([&] { instance.FlushAll(); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer_pids() == 3; }));
  kv.gate().Open();
  t0.join();
  t1.join();
  t2.join();

  // The two parked groups went out as ONE MultiSet.
  EXPECT_EQ(kv.MultiSetKeys().size(), 2u);
  EXPECT_EQ(kv.inner().PointWriteCalls() - point_writes_before, 0);
  MetricsRegistry* metrics = instance.metrics();
  EXPECT_EQ(metrics->GetCounter("store_broker.cross_shard_batches")->Value(),
            1);
  EXPECT_EQ(metrics->GetHistogram("store_broker.batch_pids")->Mean(), 1.5);
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value(), 3);
  EXPECT_EQ(coalescer_pids(), 0u);

  // The merged write is durable: a cold instance reads every profile back.
  IpsInstance cold(options, &kv.inner(), &clock);
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

TEST(StoreBrokerInstanceTest, StoreAblationKeepsBatchedFlushAndDurability) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options = ManualInstanceOptions();
  options.enable_store_broker = false;  // ablation: no coalescer wired
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());
  for (ProfileId pid = 1; pid <= 3; ++pid) {
    ASSERT_TRUE(instance
                    .AddProfile("test", "profiles", pid,
                                clock.NowMs() - kMinute, 1, 1,
                                static_cast<FeatureId>(pid), CountVector{1})
                    .ok());
  }
  const int64_t multi_sets_before = kv.MultiSetCalls();
  instance.FlushAll();

  // The direct batch-flusher path still amortizes within the pass, writes
  // are durable, and no coalescer metric moves.
  EXPECT_GE(kv.MultiSetCalls() - multi_sets_before, 1);
  MetricsRegistry* metrics = instance.metrics();
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value(), 3);
  EXPECT_EQ(metrics->GetCounter("store_broker.single_flight_hits")->Value(),
            0);
  EXPECT_EQ(metrics->GetCounter("store_broker.cross_shard_batches")->Value(),
            0);
  EXPECT_EQ(metrics->GetHistogram("store_broker.batch_pids")->count(), 0u);

  IpsInstance cold(options, &kv, &clock);
  ASSERT_TRUE(cold.CreateTable(TestSchema()).ok());
  auto result = cold.GetProfileTopK("test", "profiles", 2, 1, std::nullopt,
                                    TimeRange::Current(kDay),
                                    SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 2u);
}

}  // namespace
}  // namespace ips
