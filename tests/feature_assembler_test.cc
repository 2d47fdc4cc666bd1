#include "server/feature_assembler.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "kvstore/mem_kv_store.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

class FeatureAssemblerTest : public ::testing::Test {
 protected:
  FeatureAssemblerTest()
      : clock_(100 * kDay), instance_(InstanceOptions(), &kv_, &clock_) {
    schema_ = DefaultTableSchema("user_profile");
    schema_.actions = {"click", "like"};
    EXPECT_TRUE(instance_.CreateTable(schema_).ok());
    // User 1: clicks in slot 1 (fids 1..5 with rising like counts), and
    // slot 2 content.
    for (int i = 1; i <= 5; ++i) {
      EXPECT_TRUE(instance_
                      .AddProfile("seed", "user_profile", 1,
                                  clock_.NowMs() - i * kMinute, 1, 1,
                                  static_cast<FeatureId>(i),
                                  CountVector{1, static_cast<int64_t>(i)})
                      .ok());
    }
    EXPECT_TRUE(instance_
                    .AddProfile("seed", "user_profile", 1,
                                clock_.NowMs() - kMinute, 2, 1, 100,
                                CountVector{3, 0})
                    .ok());
  }

  static IpsInstanceOptions InstanceOptions() {
    IpsInstanceOptions options;
    options.start_background_threads = false;
    options.compaction.synchronous = true;
    options.isolation_enabled = false;
    return options;
  }

  static constexpr const char* kFeatureSetJson = R"({
    "features": [
      {"name": "top_likes_s1", "table": "user_profile", "slot": 1,
       "window": {"kind": "CURRENT", "span": "1d"},
       "sort": {"by": "count", "action": "like"}, "k": 3},
      {"name": "clicks_s2", "table": "user_profile", "slot": 2,
       "window": {"kind": "CURRENT", "span": "1d"},
       "sort": {"by": "count", "action": "click"}, "k": 10}
    ]
  })";

  ManualClock clock_;
  MemKvStore kv_;
  IpsInstance instance_;
  TableSchema schema_;
};

TEST_F(FeatureAssemblerTest, AssemblesAllGroups) {
  FeatureAssembler assembler({}, &instance_);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());
  EXPECT_EQ(assembler.FeatureCount(), 2u);

  auto sample = assembler.Assemble(1);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  ASSERT_EQ(sample->features.size(), 2u);
  const AssembledFeature& likes = sample->features[0];
  EXPECT_EQ(likes.name, "top_likes_s1");
  ASSERT_EQ(likes.fids.size(), 3u);  // k = 3
  EXPECT_EQ(likes.fids[0], 5u);      // most likes first
  EXPECT_DOUBLE_EQ(likes.values[0], 5.0);
  const AssembledFeature& clicks = sample->features[1];
  ASSERT_EQ(clicks.fids.size(), 1u);
  EXPECT_EQ(clicks.fids[0], 100u);
  EXPECT_EQ(sample->TotalValues(), 4u);
}

TEST_F(FeatureAssemblerTest, UnknownUserYieldsEmptyGroups) {
  FeatureAssembler assembler({}, &instance_);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());
  auto sample = assembler.Assemble(999999);
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ(sample->features.size(), 2u);
  EXPECT_TRUE(sample->features[0].fids.empty());
  EXPECT_TRUE(sample->features[1].fids.empty());
}

TEST_F(FeatureAssemblerTest, TrainingSampleFlushedToTopic) {
  MessageLog log(2);
  FeatureAssemblerOptions options;
  options.training_topic = "training";
  FeatureAssembler assembler(options, &instance_, &log);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());
  auto sample = assembler.Assemble(1);
  ASSERT_TRUE(sample.ok());

  // The flushed sample decodes to exactly what serving saw — the
  // training-serving-skew guarantee.
  const size_t partition = log.PartitionFor(1);
  const auto records = log.Read("training", partition, 0, 10);
  ASSERT_EQ(records.size(), 1u);
  AssembledSample decoded;
  ASSERT_TRUE(DecodeSample(records[0].value, &decoded));
  EXPECT_EQ(decoded.uid, 1u);
  ASSERT_EQ(decoded.features.size(), sample->features.size());
  for (size_t g = 0; g < decoded.features.size(); ++g) {
    EXPECT_EQ(decoded.features[g].name, sample->features[g].name);
    EXPECT_EQ(decoded.features[g].fids, sample->features[g].fids);
    ASSERT_EQ(decoded.features[g].values.size(),
              sample->features[g].values.size());
    for (size_t i = 0; i < decoded.features[g].values.size(); ++i) {
      EXPECT_NEAR(decoded.features[g].values[i],
                  sample->features[g].values[i], 0.001);
    }
  }
}

TEST_F(FeatureAssemblerTest, AssembleBatchOneMultiQueryPerSpec) {
  FeatureAssembler assembler({}, &instance_);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());

  Histogram* rpcs =
      instance_.metrics()->GetHistogram("server.multi_query_batch");
  const int64_t before = rpcs->count();
  // A candidate list with a known user, an unknown one, and a duplicate.
  const std::vector<ProfileId> uids = {1, 999999, 1};
  auto samples = assembler.AssembleBatch(uids);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  // Two specs, one MultiQuery each — independent of the candidate count.
  EXPECT_EQ(rpcs->count() - before, 2);

  ASSERT_EQ(samples->size(), 3u);
  const AssembledSample& known = (*samples)[0];
  EXPECT_EQ(known.uid, 1u);
  ASSERT_EQ(known.features.size(), 2u);
  ASSERT_EQ(known.features[0].fids.size(), 3u);
  EXPECT_EQ(known.features[0].fids[0], 5u);
  const AssembledSample& unknown = (*samples)[1];
  EXPECT_EQ(unknown.uid, 999999u);
  ASSERT_EQ(unknown.features.size(), 2u);
  EXPECT_TRUE(unknown.features[0].fids.empty());
  EXPECT_TRUE(unknown.features[1].fids.empty());
  // The duplicate candidate assembles the same sample as its first
  // occurrence.
  EXPECT_EQ((*samples)[2].TotalValues(), known.TotalValues());
}

TEST_F(FeatureAssemblerTest, AssembleBatchFlushesEverySampleToTraining) {
  MessageLog log(2);
  FeatureAssemblerOptions options;
  options.training_topic = "training";
  FeatureAssembler assembler(options, &instance_, &log);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());
  auto samples = assembler.AssembleBatch(std::vector<ProfileId>{1, 2, 3});
  ASSERT_TRUE(samples.ok());
  size_t flushed = 0;
  for (size_t partition = 0; partition < 2; ++partition) {
    flushed += log.Read("training", partition, 0, 100).size();
  }
  EXPECT_EQ(flushed, 3u);
}

TEST_F(FeatureAssemblerTest, RejectsSetReferencingUnknownTable) {
  FeatureAssembler assembler({}, &instance_);
  Status status = assembler.LoadFeatureSetJson(R"({
    "features": [{"name": "f", "table": "nope", "slot": 1}]})");
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(assembler.FeatureCount(), 0u);  // old (empty) set stays
}

TEST_F(FeatureAssemblerTest, HotReloadViaConfigRegistry) {
  FeatureAssembler assembler({}, &instance_);
  ConfigRegistry registry;
  assembler.AttachConfigRegistry(&registry, "features/feed", &schema_);

  ASSERT_TRUE(registry.PublishJson("features/feed", kFeatureSetJson).ok());
  EXPECT_EQ(assembler.FeatureCount(), 2u);

  // A malformed publish leaves the active set untouched.
  ASSERT_TRUE(
      registry.PublishJson("features/feed", R"({"features": []})").ok());
  EXPECT_EQ(assembler.FeatureCount(), 2u);

  // A smaller valid set replaces it.
  ASSERT_TRUE(registry
                  .PublishJson("features/feed", R"({"features": [
                    {"name": "only", "table": "user_profile", "slot": 1}
                  ]})")
                  .ok());
  EXPECT_EQ(assembler.FeatureCount(), 1u);
}

TEST_F(FeatureAssemblerTest, QuotaRejectionPropagates) {
  FeatureAssembler assembler({}, &instance_);
  ASSERT_TRUE(assembler.LoadFeatureSetJson(kFeatureSetJson, &schema_).ok());
  instance_.quota().SetQuota("feature-assembler", 1.0);
  // First assemble uses the single token for its first feature; the second
  // feature (and thus the sample) hits the quota.
  auto sample = assembler.Assemble(1);
  EXPECT_TRUE(sample.status().IsResourceExhausted());
}

TEST(AssembledSampleCodecTest, RoundTripsEdgeCases) {
  AssembledSample sample;
  sample.uid = 0;
  sample.assembled_at_ms = -1;
  AssembledFeature empty_group;
  empty_group.name = "empty";
  sample.features.push_back(empty_group);
  AssembledFeature group;
  group.name = "g";
  group.fids = {1, 0xFFFFFFFFFFFFFFFFULL};
  group.values = {0.0, -2.5};
  sample.features.push_back(group);

  AssembledSample decoded;
  ASSERT_TRUE(DecodeSample(EncodeSample(sample), &decoded));
  ASSERT_EQ(decoded.features.size(), 2u);
  EXPECT_TRUE(decoded.features[0].fids.empty());
  EXPECT_EQ(decoded.features[1].fids[1], 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_NEAR(decoded.features[1].values[1], -2.5, 0.001);

  AssembledSample bad;
  EXPECT_FALSE(DecodeSample("junk", &bad));
}

}  // namespace
}  // namespace ips
