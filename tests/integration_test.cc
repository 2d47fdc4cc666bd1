// Full-pipeline integration tests: raw event streams -> windowed join ->
// message log -> ingestion job -> unified client -> multi-region IPS
// deployment -> feature queries, with compaction and persistence running
// underneath. This is the end-to-end data path of Fig 5.
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "ingest/ingestion_job.h"
#include "ingest/message_log.h"
#include "ingest/stream_join.h"
#include "ingest/workload.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kHour = kMillisPerHour;
constexpr int64_t kDay = kMillisPerDay;

DeploymentOptions PipelineDeployment() {
  DeploymentOptions options;
  options.regions = {{"lf", 2, /*is_primary=*/true},
                     {"hl", 1, /*is_primary=*/false}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  options.kv.replication_lag_ms = 100;
  return options;
}

TableSchema PipelineSchema() {
  TableSchema schema = DefaultTableSchema("user_profile");
  schema.write_granularity_ms = kMinute;
  return schema;
}

TEST(IntegrationTest, EventsToFeaturesEndToEnd) {
  ManualClock clock(100 * kDay);
  Deployment deployment(PipelineDeployment(), &clock);
  ASSERT_TRUE(deployment.CreateTableEverywhere(PipelineSchema()).ok());

  IpsClientOptions client_options;
  client_options.caller = "pipeline";
  client_options.local_region = "lf";
  client_options.failover_regions = {"hl"};
  IpsClient client(client_options, &deployment);

  MessageLog log(4);
  StreamJoinOptions join_options;
  join_options.window_ms = kMinute;
  join_options.num_actions = 4;
  StreamJoiner joiner(join_options, [&](const Instance& instance) {
    log.Append("instances", instance.uid, EncodeInstance(instance));
  });

  WorkloadOptions workload_options;
  workload_options.num_users = 500;
  workload_options.seed = 77;
  WorkloadGenerator workload(workload_options);

  // One hour of simulated traffic at ~1 interaction per second.
  std::set<ProfileId> touched;
  for (int s = 0; s < 3600; s += 10) {
    auto group = workload.NextEventGroup(clock.NowMs());
    touched.insert(group.impression.uid);
    joiner.OnImpression(group.impression);
    joiner.OnFeature(group.feature);
    for (const auto& action : group.actions) joiner.OnAction(action);
    clock.AdvanceMs(10'000);
    deployment.HeartbeatAll();  // instances heartbeat Consul while alive
    joiner.AdvanceWatermark(clock.NowMs());
  }
  joiner.AdvanceWatermark(clock.NowMs() + 2 * kMinute);

  IngestionJobOptions job_options;
  job_options.table = "user_profile";
  IngestionJob job(job_options, &log, &client);
  const size_t written = job.PollOnce();
  EXPECT_GT(written, 300u);
  EXPECT_EQ(job.error_count(), 0);

  // Every touched user must have at least one queryable feature in some
  // slot over the last 2 hours.
  size_t users_with_features = 0;
  for (ProfileId uid : touched) {
    size_t total = 0;
    for (SlotId slot = 0; slot < workload_options.num_slots; ++slot) {
      auto result = client.GetProfileTopK("user_profile", uid, slot,
                                          std::nullopt,
                                          TimeRange::Current(2 * kHour),
                                          SortBy::kActionCount, 0, 100);
      ASSERT_TRUE(result.ok());
      total += result->features.size();
    }
    if (total > 0) ++users_with_features;
  }
  EXPECT_GT(users_with_features, touched.size() * 9 / 10);
}

TEST(IntegrationTest, WriteQueryCompactPersistCycle) {
  ManualClock clock(100 * kDay);
  Deployment deployment(PipelineDeployment(), &clock);
  ASSERT_TRUE(deployment.CreateTableEverywhere(PipelineSchema()).ok());
  IpsClientOptions client_options;
  client_options.local_region = "lf";
  client_options.failover_regions = {"hl"};
  IpsClient client(client_options, &deployment);

  // Simulate 3 days of one user's activity: 20 actions per day.
  const ProfileId uid = 4242;
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client
                      .AddProfile("user_profile", uid,
                                  clock.NowMs() - kMinute, 1, 1,
                                  static_cast<FeatureId>(day * 100 + i + 1),
                                  CountVector{1, 0, 0, 0})
                      .ok());
      clock.AdvanceMs(30 * kMinute);
      deployment.HeartbeatAll();
    }
    clock.AdvanceMs(14 * kHour);
    deployment.HeartbeatAll();
  }

  // Queries over several windows see monotone-decreasing feature counts.
  auto nodes = deployment.NodesInRegion("lf");
  size_t day1, day2, all;
  {
    auto r = client.GetProfileTopK("user_profile", uid, 1, std::nullopt,
                                   TimeRange::Current(kDay),
                                   SortBy::kActionCount, 0, 0);
    ASSERT_TRUE(r.ok());
    day1 = r->features.size();
  }
  {
    auto r = client.GetProfileTopK("user_profile", uid, 1, std::nullopt,
                                   TimeRange::Current(2 * kDay),
                                   SortBy::kActionCount, 0, 0);
    ASSERT_TRUE(r.ok());
    day2 = r->features.size();
  }
  {
    auto r = client.GetProfileTopK("user_profile", uid, 1, std::nullopt,
                                   TimeRange::Current(30 * kDay),
                                   SortBy::kActionCount, 0, 0);
    ASSERT_TRUE(r.ok());
    all = r->features.size();
  }
  EXPECT_LE(day1, day2);
  EXPECT_LE(day2, all);
  EXPECT_EQ(all, 60u);

  // Flush everything, fail the serving region, and verify the failover
  // region still answers (its own replica took the same writes).
  for (auto* node : nodes) node->instance().FlushAll();
  deployment.FailRegion("lf");
  client.RefreshView();
  auto result = client.GetProfileTopK("user_profile", uid, 1, std::nullopt,
                                      TimeRange::Current(30 * kDay),
                                      SortBy::kActionCount, 0, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->features.size(), 60u);
}

TEST(IntegrationTest, ColdRestartRecoversFromPersistentStore) {
  ManualClock clock(100 * kDay);
  MemKvStore kv;

  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  options.persistence.mode = PersistenceMode::kSliceSplit;
  options.persistence.split_threshold_bytes = 256;

  {
    IpsInstance instance(options, &kv, &clock);
    ASSERT_TRUE(instance.CreateTable(PipelineSchema()).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(instance
                      .AddProfile("w", "user_profile", 1,
                                  clock.NowMs() - (i + 1) * kMinute, 1, 1,
                                  static_cast<FeatureId>(i % 25 + 1),
                                  CountVector{1})
                      .ok());
    }
    instance.FlushAll();
  }
  ASSERT_GT(kv.KeyCount(), 1u);  // slice-split representation

  // Cold restart: a new instance over the same KV serves the same answers.
  IpsInstance restarted(options, &kv, &clock);
  ASSERT_TRUE(restarted.CreateTable(PipelineSchema()).ok());
  auto result = restarted.GetProfileTopK("w", "user_profile", 1, 1,
                                         std::nullopt,
                                         TimeRange::Current(kDay),
                                         SortBy::kActionCount, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 25u);
  int64_t total = 0;
  for (const auto& f : result->features) total += f.counts[0];
  EXPECT_EQ(total, 200);
}

TEST(IntegrationTest, YearLongReplayStaysBoundedWithCompaction) {
  // Condensed version of the Section III-D memory argument: a year of
  // activity with the production ladder keeps the slice count near the
  // paper's observed average (~62) instead of growing unboundedly.
  ManualClock clock(0);
  MemKvStore kv;
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  IpsInstance instance(options, &kv, &clock);
  TableSchema schema = PipelineSchema();  // Listing 3 ladder + 365d truncate
  // Disable the (deliberately lossy) Shrink so the exact-count invariant of
  // Compact/Truncate is checkable; the ladder alone must bound the slices.
  schema.shrink.default_retain = 0;
  schema.shrink.retain_per_slot.clear();
  ASSERT_TRUE(instance.CreateTable(schema).ok());

  Rng rng(3);
  clock.SetMs(kDay);  // start one day in
  // 360 days, 8 actions per day.
  for (int day = 0; day < 360; ++day) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(instance
                      .AddProfile("u", "user_profile", 99,
                                  clock.NowMs() - kMinute, 1, 1,
                                  rng.Uniform(300) + 1, CountVector{1})
                      .ok());
      clock.AdvanceMs(2 * kHour);
    }
    clock.AdvanceMs(8 * kHour);
  }
  instance.DrainCompactions();

  auto result = instance.GetProfileTopK("u", "user_profile", 99, 1,
                                        std::nullopt,
                                        TimeRange::Current(365 * kDay),
                                        SortBy::kActionCount, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->features.size(), 0u);
  // Without compaction there would be ~2880 slices; the ladder keeps it
  // within the same order as the paper's reported average of 62.
  EXPECT_LT(result->slices_scanned, 150u);
  int64_t total = 0;
  for (const auto& f : result->features) total += f.counts[0];
  EXPECT_EQ(total, 360 * 8);  // Compact never loses counts
}

}  // namespace
}  // namespace ips
