#include "ingest/events.h"
#include "ingest/ingestion_job.h"
#include "ingest/message_log.h"
#include "ingest/stream_join.h"
#include "ingest/workload.h"

#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

// --------------------------------------------------------------- Events ---

TEST(EventsTest, InstanceEncodeDecodeRoundTrips) {
  Instance instance;
  instance.uid = 0xDEADBEEF12345678ULL;
  instance.item_id = 99;
  instance.timestamp = -5;  // negative timestamps survive zigzag
  instance.slot = 3;
  instance.type = 7;
  instance.counts = CountVector{1, 0, 2};
  Instance decoded;
  ASSERT_TRUE(DecodeInstance(EncodeInstance(instance), &decoded));
  EXPECT_EQ(decoded.uid, instance.uid);
  EXPECT_EQ(decoded.item_id, 99u);
  EXPECT_EQ(decoded.timestamp, -5);
  EXPECT_EQ(decoded.slot, 3u);
  EXPECT_EQ(decoded.type, 7u);
  EXPECT_EQ(decoded.counts, instance.counts);
}

TEST(EventsTest, DecodeRejectsGarbage) {
  Instance decoded;
  EXPECT_FALSE(DecodeInstance("garbage!", &decoded));
  EXPECT_FALSE(DecodeInstance("", &decoded));
}

// ----------------------------------------------------------- MessageLog ---

TEST(MessageLogTest, AppendReadRoundTrips) {
  MessageLog log(4);
  const uint64_t key = 7;
  const size_t partition = log.PartitionFor(key);
  log.Append("topic", key, "a");
  log.Append("topic", key, "b");
  const auto records = log.Read("topic", partition, 0, 10);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].value, "a");
  EXPECT_EQ(records[1].value, "b");
  EXPECT_EQ(records[1].offset, 1);
  EXPECT_EQ(log.EndOffset("topic", partition), 2);
}

TEST(MessageLogTest, SameKeyStaysOrderedInOnePartition) {
  MessageLog log(8);
  for (int i = 0; i < 100; ++i) {
    log.Append("t", 42, std::to_string(i));
  }
  const size_t partition = log.PartitionFor(42);
  const auto records = log.Read("t", partition, 0, 1000);
  ASSERT_EQ(records.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(records[i].value, std::to_string(i));
  }
}

TEST(MessageLogTest, ReadRespectsOffsetAndLimit) {
  MessageLog log(1);
  for (int i = 0; i < 10; ++i) log.Append("t", 1, std::to_string(i));
  auto records = log.Read("t", 0, 4, 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].value, "4");
  EXPECT_EQ(records[2].value, "6");
  EXPECT_TRUE(log.Read("t", 0, 100, 5).empty());
  EXPECT_TRUE(log.Read("nope", 0, 0, 5).empty());
}

TEST(MessageLogTest, CommittedOffsetsPerGroup) {
  MessageLog log(2);
  EXPECT_EQ(log.CommittedOffset("g1", "t", 0), 0);
  log.CommitOffset("g1", "t", 0, 5);
  log.CommitOffset("g2", "t", 0, 9);
  EXPECT_EQ(log.CommittedOffset("g1", "t", 0), 5);
  EXPECT_EQ(log.CommittedOffset("g2", "t", 0), 9);
  EXPECT_EQ(log.CommittedOffset("g1", "t", 1), 0);
}

// ----------------------------------------------------------- StreamJoin ---

StreamJoinOptions JoinOptions() {
  StreamJoinOptions options;
  options.window_ms = kMinute;
  options.num_actions = 3;
  return options;
}

TEST(StreamJoinTest, CompleteGroupEmitsEagerly) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  ImpressionEvent imp{1, 100, 200, 1000, false};
  FeatureEvent feat{1, 100, 1000, 5, 6};
  ActionEvent act{1, 100, 200, 1500, 1, 1};
  joiner.OnImpression(imp);
  joiner.OnFeature(feat);
  joiner.OnAction(act);
  EXPECT_EQ(joiner.AdvanceWatermark(2000), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].uid, 100u);
  EXPECT_EQ(out[0].item_id, 200u);
  EXPECT_EQ(out[0].slot, 5u);
  EXPECT_EQ(out[0].type, 6u);
  EXPECT_EQ(out[0].counts.At(1), 1);
  EXPECT_EQ(out[0].timestamp, 1500);  // action time dominates
  EXPECT_EQ(joiner.PendingGroups(), 0u);
}

TEST(StreamJoinTest, IncompleteGroupWaitsForWindow) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1000, false});
  joiner.OnAction(ActionEvent{1, 100, 200, 1200, 0, 1});
  // Missing the feature stream: do not emit before the window expires.
  EXPECT_EQ(joiner.AdvanceWatermark(1000 + kMinute - 1), 0u);
  EXPECT_EQ(joiner.PendingGroups(), 1u);
  // Window expired: emit with default categorization.
  EXPECT_EQ(joiner.AdvanceWatermark(1000 + kMinute), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].slot, 0u);
}

TEST(StreamJoinTest, ActionlessGroupDroppedByDefault) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1000, false});
  joiner.OnFeature(FeatureEvent{1, 100, 1000, 5, 6});
  EXPECT_EQ(joiner.AdvanceWatermark(1000 + 2 * kMinute), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(StreamJoinTest, ActionlessEmittedWhenConfigured) {
  StreamJoinOptions options = JoinOptions();
  options.emit_actionless = true;
  std::vector<Instance> out;
  StreamJoiner joiner(options, [&](const Instance& i) { out.push_back(i); });
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1000, false});
  EXPECT_EQ(joiner.AdvanceWatermark(1000 + 2 * kMinute), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].counts.Total(), 0);
}

TEST(StreamJoinTest, ActionWithoutImpressionNeverEmits) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  joiner.OnAction(ActionEvent{1, 100, 200, 1000, 0, 1});
  EXPECT_EQ(joiner.AdvanceWatermark(1000 + 2 * kMinute), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(joiner.PendingGroups(), 0u);  // expired groups are purged
}

TEST(StreamJoinTest, MultipleActionsAggregate) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1000, false});
  joiner.OnFeature(FeatureEvent{1, 100, 1000, 5, 6});
  joiner.OnAction(ActionEvent{1, 100, 200, 1100, 0, 1});
  joiner.OnAction(ActionEvent{1, 100, 200, 1200, 0, 1});
  joiner.OnAction(ActionEvent{1, 100, 200, 1300, 2, 1});
  joiner.AdvanceWatermark(2000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].counts.At(0), 2);
  EXPECT_EQ(out[0].counts.At(2), 1);
}

TEST(StreamJoinTest, ServerAndClientImpressionsDeduplicate) {
  std::vector<Instance> out;
  StreamJoiner joiner(JoinOptions(),
                      [&](const Instance& i) { out.push_back(i); });
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1100, /*client=*/true});
  joiner.OnImpression(ImpressionEvent{1, 100, 200, 1000, /*client=*/false});
  joiner.OnFeature(FeatureEvent{1, 100, 1000, 5, 6});
  joiner.OnAction(ActionEvent{1, 100, 200, 1200, 0, 1});
  joiner.AdvanceWatermark(5000);
  ASSERT_EQ(out.size(), 1u);  // one instance, not two
}

// ------------------------------------------------------------- Workload ---

TEST(WorkloadTest, DeterministicForSeed) {
  WorkloadOptions options;
  options.seed = 5;
  WorkloadGenerator a(options), b(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.SampleUser(), b.SampleUser());
  }
}

TEST(WorkloadTest, ItemCategorizationIsStable) {
  WorkloadOptions options;
  WorkloadGenerator gen(options);
  std::map<FeatureId, std::pair<SlotId, TypeId>> seen;
  for (int i = 0; i < 5000; ++i) {
    FeatureId item;
    SlotId slot;
    TypeId type;
    gen.SampleItem(&item, &slot, &type);
    ASSERT_LT(slot, options.num_slots);
    ASSERT_LT(type, options.types_per_slot);
    auto it = seen.find(item);
    if (it != seen.end()) {
      EXPECT_EQ(it->second.first, slot) << item;
      EXPECT_EQ(it->second.second, type) << item;
    } else {
      seen[item] = {slot, type};
    }
  }
}

TEST(WorkloadTest, QuerySpecsAreWellFormed) {
  WorkloadGenerator gen({});
  for (int i = 0; i < 1000; ++i) {
    ProfileId uid;
    const QuerySpec spec = gen.NextQuerySpec(&uid);
    EXPECT_LT(spec.slot, gen.options().num_slots);
    EXPECT_GE(spec.k, 10u);
    EXPECT_LE(spec.k, 100u);
    EXPECT_TRUE(spec.decay.Validate().ok());
  }
}

TEST(WorkloadTest, EventGroupsCorrelateStreams) {
  WorkloadGenerator gen({});
  auto group = gen.NextEventGroup(1000);
  EXPECT_EQ(group.impression.request_id, group.feature.request_id);
  for (const auto& action : group.actions) {
    EXPECT_EQ(action.request_id, group.impression.request_id);
    EXPECT_EQ(action.uid, group.impression.uid);
    EXPECT_GE(action.timestamp, 1000);
  }
  // Click (rate 1.0) always present.
  ASSERT_FALSE(group.actions.empty());
  EXPECT_EQ(group.actions[0].action, 0u);
}

TEST(WorkloadTest, DiurnalCurveBoundsAndShape) {
  double min_seen = 1e9, max_seen = -1e9;
  for (int64_t t = 0; t < kDay; t += kMinute) {
    const double f = DiurnalLoadFactor(t, 0.35);
    EXPECT_GE(f, 0.35 - 1e-9);
    EXPECT_LE(f, 1.0 + 1e-9);
    min_seen = std::min(min_seen, f);
    max_seen = std::max(max_seen, f);
  }
  EXPECT_LT(min_seen, 0.45);  // a real trough exists
  EXPECT_GT(max_seen, 0.9);   // a real peak exists
  // 3-4 am is quieter than 9 pm.
  EXPECT_LT(DiurnalLoadFactor(3 * kMillisPerHour + kMillisPerHour / 2),
            DiurnalLoadFactor(21 * kMillisPerHour));
}

// --------------------------------------------------------- IngestionJob ---

TEST(IngestionJobTest, EndToEndThroughLogAndCluster) {
  ManualClock clock(100 * kDay);
  DeploymentOptions dep_options;
  dep_options.regions = {{"lf", 1, true}};
  dep_options.instance.start_background_threads = false;
  dep_options.instance.compaction.synchronous = true;
  dep_options.instance.isolation_enabled = false;
  dep_options.instance.cache.write_granularity_ms = kMinute;
  Deployment deployment(dep_options, &clock);
  TableSchema schema = DefaultTableSchema("user_profile");
  schema.write_granularity_ms = kMinute;
  ASSERT_TRUE(deployment.CreateTableEverywhere(schema).ok());

  IpsClientOptions client_options;
  client_options.caller = "ingest";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  MessageLog log(4);
  Instance instance;
  instance.uid = 77;
  instance.item_id = 555;
  instance.timestamp = clock.NowMs() - kMinute;
  instance.slot = 2;
  instance.type = 3;
  instance.counts = CountVector{1, 1, 0, 0};
  log.Append("instances", instance.uid, EncodeInstance(instance));

  IngestionJobOptions job_options;
  job_options.table = "user_profile";
  IngestionJob job(job_options, &log, &client);
  EXPECT_EQ(job.PollOnce(), 1u);
  EXPECT_EQ(job.PollOnce(), 0u);  // offsets committed; no reprocessing
  EXPECT_EQ(job.error_count(), 0);

  auto result = client.GetProfileTopK("user_profile", 77, 2, 3,
                                      TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 555u);
}

TEST(IngestionJobTest, MalformedRecordsCountedNotFatal) {
  ManualClock clock(100 * kDay);
  DeploymentOptions dep_options;
  dep_options.regions = {{"lf", 1, true}};
  dep_options.instance.start_background_threads = false;
  dep_options.instance.compaction.synchronous = true;
  dep_options.instance.isolation_enabled = false;
  Deployment deployment(dep_options, &clock);
  ASSERT_TRUE(
      deployment.CreateTableEverywhere(DefaultTableSchema("user_profile"))
          .ok());
  IpsClientOptions client_options;
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  MessageLog log(1);
  log.Append("instances", 1, "not an instance");
  Instance good;
  good.uid = 1;
  good.item_id = 2;
  good.timestamp = clock.NowMs() - kMinute;
  good.counts = CountVector{1};
  log.Append("instances", 1, EncodeInstance(good));

  IngestionJob job({}, &log, &client);
  EXPECT_EQ(job.PollOnce(), 1u);
  EXPECT_EQ(job.error_count(), 1);
}

TEST(IngestionJobTest, CustomExtractionLogic) {
  ManualClock clock(100 * kDay);
  DeploymentOptions dep_options;
  dep_options.regions = {{"lf", 1, true}};
  dep_options.instance.start_background_threads = false;
  dep_options.instance.compaction.synchronous = true;
  dep_options.instance.isolation_enabled = false;
  Deployment deployment(dep_options, &clock);
  ASSERT_TRUE(
      deployment.CreateTableEverywhere(DefaultTableSchema("user_profile"))
          .ok());
  IpsClientOptions client_options;
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  MessageLog log(1);
  Instance instance;
  instance.uid = 9;
  instance.item_id = 100;
  instance.timestamp = clock.NowMs() - kMinute;
  instance.counts = CountVector{1};
  log.Append("instances", 9, EncodeInstance(instance));

  // Extraction that duplicates each instance into two slots.
  IngestionJob job({}, &log, &client, [](const Instance& i) {
    AddRecord a;
    a.timestamp = i.timestamp;
    a.slot = 1;
    a.fid = i.item_id;
    a.counts = i.counts;
    AddRecord b = a;
    b.slot = 2;
    return std::vector<AddRecord>{a, b};
  });
  EXPECT_EQ(job.PollOnce(), 1u);
  for (SlotId slot : {1u, 2u}) {
    auto result = client.GetProfileTopK("user_profile", 9, slot, std::nullopt,
                                        TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->features.size(), 1u) << slot;
  }
}

}  // namespace
}  // namespace ips
