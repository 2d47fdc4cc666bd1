// The load broker: the load-side Coalescer as IpsInstance wires it between
// GCache misses and Persister::LoadBatch (IpsInstanceOptions::
// enable_load_broker). Cold queries that arrive while a load is on the wire
// share the next MultiGet; with the broker ablated, misses load inline.
// The group-commit primitive itself is covered by coalescer_test.
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescer_test_util.h"
#include "common/clock.h"
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

TEST(LoadBrokerInstanceTest, ColdQueriesArrivingDuringALoadShareOneMultiGet) {
  GatedKv kv;
  ManualClock clock(100 * kDay);
  {
    IpsInstance seeding(ManualInstanceOptions(), &kv, &clock);
    ASSERT_TRUE(seeding.CreateTable(TestSchema()).ok());
    for (ProfileId pid = 1; pid <= 3; ++pid) {
      ASSERT_TRUE(seeding
                      .AddProfile("test", "profiles", pid,
                                  clock.NowMs() - kMinute, 1, 1,
                                  static_cast<FeatureId>(pid), CountVector{1})
                      .ok());
    }
    seeding.FlushAll();
  }

  IpsInstance fresh(ManualInstanceOptions(), &kv, &clock);
  ASSERT_TRUE(fresh.CreateTable(TestSchema()).ok());
  auto query = [&](ProfileId pid) {
    return fresh.GetProfileTopK("test", "profiles", pid, 1, std::nullopt,
                                TimeRange::Current(kDay),
                                SortBy::kActionCount, 0, 10);
  };
  auto coalescer_pids = [&] {
    return fresh.GetTableStats("profiles")->load_coalescer_pids;
  };
  kv.Arm();
  std::optional<Result<QueryResult>> r1, r2, r3;
  std::thread t3([&] { r3 = query(3); });
  kv.gate().AwaitEntered();
  std::thread t1([&] { r1 = query(1); });
  std::thread t2([&] { r2 = query(2); });
  ASSERT_TRUE(SpinUntil([&] { return coalescer_pids() == 3; }));
  kv.gate().Open();
  t1.join();
  t2.join();
  t3.join();

  for (ProfileId pid = 1; pid <= 3; ++pid) {
    const auto& r = pid == 1 ? r1 : pid == 2 ? r2 : r3;
    ASSERT_TRUE(r->ok()) << r->status().ToString();
    ASSERT_EQ((*r)->features.size(), 1u);
    EXPECT_EQ((*r)->features[0].fid, static_cast<FeatureId>(pid));
  }
  // The two misses that arrived while pid 3's load was on the wire rode ONE
  // coalesced LoadBatch: one MultiGet for both.
  EXPECT_EQ(kv.MultiGetKeys(), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(coalescer_pids(), 0u);
}

TEST(LoadBrokerInstanceTest, LoadAblationFallsBackToInlineLoads) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options = ManualInstanceOptions();
  options.enable_load_broker = false;  // ablation: no coalescer wired
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());
  ASSERT_TRUE(instance
                  .AddProfile("test", "profiles", 1, clock.NowMs() - kMinute,
                              1, 1, 1, CountVector{1})
                  .ok());
  auto result = instance.GetProfileTopK("test", "profiles", 1, 1,
                                        std::nullopt, TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(
      instance.metrics()->GetHistogram("broker.batch_pids")->count(), 0u);
}

}  // namespace
}  // namespace ips
