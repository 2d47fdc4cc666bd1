#include "ingest/bulk_import.h"

#include <optional>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

class BulkImportTest : public ::testing::Test {
 protected:
  BulkImportTest() : clock_(100 * kDay) {
    DeploymentOptions options;
    options.regions = {{"lf", 1, /*is_primary=*/true}};
    options.instance.start_background_threads = false;
    options.instance.compaction.synchronous = true;
    options.instance.isolation_enabled = false;
    options.instance.cache.write_granularity_ms = kMinute;
    options.discovery_ttl_ms = 365 * kDay;
    deployment_ = std::make_unique<Deployment>(options, &clock_);
    EXPECT_TRUE(deployment_
                    ->CreateTableEverywhere(
                        DefaultTableSchema("user_profile"))
                    .ok());
    IpsClientOptions client_options;
    client_options.caller = "online";
    client_options.local_region = "lf";
    client_ = std::make_unique<IpsClient>(client_options, deployment_.get());
  }

  std::vector<Instance> HistoricalInstances(int count) {
    std::vector<Instance> out;
    for (int i = 0; i < count; ++i) {
      Instance instance;
      instance.uid = 1 + (i % 10);
      instance.item_id = 1000 + i;
      instance.timestamp = clock_.NowMs() - 60 * kDay + i * kMinute;
      instance.slot = 1;
      instance.type = 1;
      instance.counts = CountVector{1, 0, 0, 0};
      out.push_back(instance);
    }
    return out;
  }

  IpsInstance& Node() {
    return deployment_->NodesInRegion("lf")[0]->instance();
  }

  ManualClock clock_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<IpsClient> client_;
};

TEST_F(BulkImportTest, ImportsEverythingAndRestoresIsolation) {
  ASSERT_FALSE(Node().IsolationEnabled());
  BulkImporter importer({}, client_.get(), deployment_.get(), &clock_);
  size_t last_progress = 0;
  auto report = importer.Run(HistoricalInstances(500),
                             [&](size_t processed) {
                               EXPECT_GT(processed, last_progress);
                               last_progress = processed;
                             });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->imported, 500u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(last_progress, 500u);
  // The job toggled isolation on, then back off (draining the buffers).
  EXPECT_FALSE(Node().IsolationEnabled());

  // All historical data is queryable with a 90-day window.
  auto result = client_->GetProfileTopK("user_profile", 1, 1, std::nullopt,
                                        TimeRange::Current(90 * kDay),
                                        SortBy::kActionCount, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 50u);  // 500 instances over 10 users
}

TEST_F(BulkImportTest, UnknownTableRejectedUpfront) {
  BulkImportOptions options;
  options.table = "nope";
  BulkImporter importer(options, client_.get(), deployment_.get(), &clock_);
  auto report = importer.Run(HistoricalInstances(3));
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(BulkImportTest, QuotaPacesTheJobWithBackoff) {
  // 100 qps quota for the import caller; manual clock advances via the
  // job's own backoff sleeps, refilling tokens.
  Node().quota().SetQuota("bulk-import", 100.0);
  BulkImportOptions options;
  options.backoff_ms = 100;  // refills 10 tokens per backoff
  BulkImporter importer(options, client_.get(), deployment_.get(), &clock_);
  auto report = importer.Run(HistoricalInstances(300));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->imported, 300u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->quota_backoffs, 0u);  // it actually got paced

  // Online traffic was never throttled by the job's quota.
  EXPECT_TRUE(client_
                  ->AddProfile("user_profile", 77, clock_.NowMs() - kMinute,
                               1, 1, 5, CountVector{1})
                  .ok());
}

TEST_F(BulkImportTest, GivesUpAfterRetryLimit) {
  Node().quota().SetQuota("bulk-import", 0.000001);  // effectively zero
  Node().quota().Check("bulk-import").ok();          // drain the bucket
  BulkImportOptions options;
  options.retry_limit = 2;
  options.backoff_ms = 1;
  BulkImporter importer(options, client_.get(), deployment_.get(), &clock_);
  auto report = importer.Run(HistoricalInstances(5));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->imported, 0u);
  EXPECT_EQ(report->failed, 5u);
}

TEST_F(BulkImportTest, ManageIsolationFalseLeavesSwitchAlone) {
  BulkImportOptions options;
  options.manage_isolation = false;
  BulkImporter importer(options, client_.get(), deployment_.get(), &clock_);
  ASSERT_FALSE(Node().IsolationEnabled());
  auto report = importer.Run(HistoricalInstances(10));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(Node().IsolationEnabled());
}

}  // namespace
}  // namespace ips
