#include "server/ips_instance.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "common/clock.h"
#include "kvstore/mem_kv_store.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kHour = kMillisPerHour;
constexpr int64_t kDay = kMillisPerDay;

IpsInstanceOptions ManualInstanceOptions() {
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  return options;
}

TableSchema TestSchema(const std::string& name = "profiles") {
  TableSchema schema = DefaultTableSchema(name);
  schema.write_granularity_ms = kMinute;
  return schema;
}

class IpsInstanceTest : public ::testing::Test {
 protected:
  IpsInstanceTest()
      : clock_(100 * kDay),
        instance_(ManualInstanceOptions(), &kv_, &clock_) {
    EXPECT_TRUE(instance_.CreateTable(TestSchema()).ok());
  }

  Result<QueryResult> TopK(ProfileId pid, SlotId slot, size_t k,
                           int64_t window = kDay) {
    return instance_.GetProfileTopK("test", "profiles", pid, slot,
                                    std::nullopt, TimeRange::Current(window),
                                    SortBy::kActionCount, 0, k);
  }

  /// Compaction passes run so far, full and partial.
  int64_t Passes() {
    return instance_.metrics()->GetCounter("compaction.full")->Value() +
           instance_.metrics()->GetCounter("compaction.partial")->Value();
  }

  MemKvStore kv_;
  ManualClock clock_;
  IpsInstance instance_;
};

TEST_F(IpsInstanceTest, CreateTableTwiceFails) {
  EXPECT_TRUE(instance_.CreateTable(TestSchema()).IsAlreadyExists());
  EXPECT_TRUE(instance_.HasTable("profiles"));
  EXPECT_FALSE(instance_.HasTable("nope"));
}

TEST_F(IpsInstanceTest, AddToUnknownTableFails) {
  EXPECT_TRUE(instance_
                  .AddProfile("test", "nope", 1, clock_.NowMs(), 1, 1, 1,
                              CountVector{1})
                  .IsNotFound());
}

TEST_F(IpsInstanceTest, AddThenQueryRoundTrips) {
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 7, now - kMinute, 1, 2,
                              1001, CountVector{3, 1})
                  .ok());
  auto result = TopK(7, 1, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 1001u);
  EXPECT_EQ(result->features[0].counts[0], 3);
}

TEST_F(IpsInstanceTest, QueryUnknownProfileIsEmptyNotError) {
  auto result = TopK(424242, 1, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->features.empty());
}

TEST_F(IpsInstanceTest, BatchedAddAllRecorded) {
  const TimestampMs now = clock_.NowMs();
  std::vector<AddRecord> records;
  for (int i = 0; i < 10; ++i) {
    AddRecord r;
    r.timestamp = now - (i + 1) * kMinute;
    r.slot = 1;
    r.type = 1;
    r.fid = static_cast<FeatureId>(i + 1);
    r.counts = CountVector{1};
    records.push_back(r);
  }
  ASSERT_TRUE(instance_.AddProfiles("test", "profiles", 5, records).ok());
  auto result = TopK(5, 1, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 10u);
}

TEST_F(IpsInstanceTest, EmptyBatchRejected) {
  EXPECT_TRUE(
      instance_.AddProfiles("test", "profiles", 1, {}).IsInvalidArgument());
}

TEST_F(IpsInstanceTest, QuotaRejectsOverLimit) {
  instance_.quota().SetQuota("greedy", 5.0);
  const TimestampMs now = clock_.NowMs();
  int ok_count = 0;
  for (int i = 0; i < 20; ++i) {
    if (instance_
            .AddProfile("greedy", "profiles", 1, now, 1, 1, 1,
                        CountVector{1})
            .ok()) {
      ++ok_count;
    }
  }
  EXPECT_EQ(ok_count, 5);
  // Other callers unaffected.
  EXPECT_TRUE(instance_
                  .AddProfile("polite", "profiles", 1, now, 1, 1, 1,
                              CountVector{1})
                  .ok());
}

TEST_F(IpsInstanceTest, MultiQueryAlignsResultsWithPids) {
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 1, now - kMinute, 1, 1, 11,
                              CountVector{1})
                  .ok());
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 2, now - kMinute, 1, 1, 22,
                              CountVector{1})
                  .ok());

  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.k = 10;
  const std::vector<ProfileId> pids = {1, 424242, 2};
  auto batch = instance_.MultiQuery("test", "profiles", pids, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), 3u);
  ASSERT_EQ(batch->statuses.size(), 3u);
  for (const auto& status : batch->statuses) EXPECT_TRUE(status.ok());
  ASSERT_EQ(batch->results[0].features.size(), 1u);
  EXPECT_EQ(batch->results[0].features[0].fid, 11u);
  // Unknown profile: empty result, same contract as single-profile Query.
  EXPECT_TRUE(batch->results[1].features.empty());
  ASSERT_EQ(batch->results[2].features.size(), 1u);
  EXPECT_EQ(batch->results[2].features[0].fid, 22u);
}

TEST_F(IpsInstanceTest, MultiQueryEmptyBatchRejected) {
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  auto batch =
      instance_.MultiQuery("test", "profiles", std::vector<ProfileId>{}, spec);
  EXPECT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument());
}

TEST_F(IpsInstanceTest, MultiQueryColdCacheIssuesOneKvMultiGet) {
  // The tentpole acceptance check: a 256-candidate batch on a cold cache
  // costs exactly ONE KvStore::MultiGet and zero point reads (bulk mode).
  const TimestampMs now = clock_.NowMs();
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 256; ++pid) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", pid, now - kMinute, 1, 1,
                                pid, CountVector{1})
                    .ok());
    pids.push_back(pid);
  }
  instance_.FlushAll();

  // A fresh instance over the same KV store starts with a cold cache.
  IpsInstance fresh(ManualInstanceOptions(), &kv_, &clock_);
  ASSERT_TRUE(fresh.CreateTable(TestSchema()).ok());
  const int64_t multi_gets_before = kv_.MultiGetCalls();
  const int64_t point_reads_before = kv_.PointReadCalls();

  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.k = 10;
  auto batch = fresh.MultiQuery("test", "profiles", pids, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->cache_hits, 0u);
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok());
    ASSERT_EQ(batch->results[i].features.size(), 1u);
    EXPECT_EQ(batch->results[i].features[0].fid, pids[i]);
  }
  EXPECT_EQ(kv_.MultiGetCalls() - multi_gets_before, 1);
  EXPECT_EQ(kv_.PointReadCalls() - point_reads_before, 0);

  // The batch is now cached: a repeat is all hits and touches the KV store
  // not at all.
  const int64_t multi_gets_warm = kv_.MultiGetCalls();
  auto warm = fresh.MultiQuery("test", "profiles", pids, spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, pids.size());
  EXPECT_EQ(kv_.MultiGetCalls(), multi_gets_warm);
}

TEST_F(IpsInstanceTest, MultiQueryChargesQuotaOncePerBatch) {
  instance_.quota().SetQuota("batcher", 3.0);
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", pid, now - kMinute, 1, 1,
                                pid, CountVector{1})
                    .ok());
  }
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  const std::vector<ProfileId> pids = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  // Each 10-pid batch is one admission decision: 3 batches fit a 3.0 quota,
  // the 4th is rejected wholesale.
  for (int i = 0; i < 3; ++i) {
    auto batch = instance_.MultiQuery("batcher", "profiles", pids, spec);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  }
  auto rejected = instance_.MultiQuery("batcher", "profiles", pids, spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
}

TEST_F(IpsInstanceTest, MultiQueryDuplicatePidsEachGetResults) {
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 9, now - kMinute, 1, 1, 99,
                              CountVector{1})
                  .ok());
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  const std::vector<ProfileId> pids = {9, 9, 9};
  auto batch = instance_.MultiQuery("test", "profiles", pids, spec);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok());
    ASSERT_EQ(batch->results[i].features.size(), 1u);
    EXPECT_EQ(batch->results[i].features[0].fid, 99u);
  }
}

TEST_F(IpsInstanceTest, MultiAddAlignsStatusesWithItems) {
  const TimestampMs now = clock_.NowMs();
  auto make_item = [&](ProfileId pid, FeatureId fid) {
    MultiAddItem item;
    item.pid = pid;
    AddRecord r;
    r.timestamp = now - kMinute;
    r.slot = 1;
    r.type = 1;
    r.fid = fid;
    r.counts = CountVector{1};
    item.records.push_back(r);
    return item;
  };
  // Item 1 has no records: it must fail alone, without sinking the batch.
  std::vector<MultiAddItem> items = {make_item(1, 11), MultiAddItem{2, {}},
                                     make_item(3, 33)};
  auto batch = instance_.MultiAdd("test", "profiles", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->statuses.size(), 3u);
  EXPECT_TRUE(batch->statuses[0].ok());
  EXPECT_TRUE(batch->statuses[1].IsInvalidArgument());
  EXPECT_TRUE(batch->statuses[2].ok());
  EXPECT_EQ(batch->ok_items, 2u);
  auto result = TopK(1, 1, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 11u);
  result = TopK(3, 1, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 33u);
}

TEST_F(IpsInstanceTest, MultiAddChargesQuotaOncePerBatch) {
  instance_.quota().SetQuota("batcher", 3.0);
  const TimestampMs now = clock_.NowMs();
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    MultiAddItem item;
    item.pid = pid;
    AddRecord r;
    r.timestamp = now - kMinute;
    r.slot = 1;
    r.type = 1;
    r.fid = pid;
    r.counts = CountVector{1};
    item.records.push_back(r);
    items.push_back(item);
  }
  // Each 10-item batch is one admission decision: 3 batches fit a 3.0
  // quota, the 4th is rejected wholesale.
  for (int i = 0; i < 3; ++i) {
    auto batch = instance_.MultiAdd("batcher", "profiles", items);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  }
  auto rejected = instance_.MultiAdd("batcher", "profiles", items);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
}

TEST_F(IpsInstanceTest, MultiAddEmptyBatchRejected) {
  auto batch = instance_.MultiAdd("test", "profiles", {});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument());
}

TEST_F(IpsInstanceTest, MultiAddUnknownTableFails) {
  MultiAddItem item;
  item.pid = 1;
  AddRecord r;
  r.timestamp = clock_.NowMs();
  r.slot = 1;
  r.type = 1;
  r.fid = 1;
  r.counts = CountVector{1};
  item.records.push_back(r);
  auto batch = instance_.MultiAdd("test", "nope", {item});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsNotFound());
}

// One item of one record in slot 1, type 1.
MultiAddItem OneRecordItem(ProfileId pid, TimestampMs ts, FeatureId fid,
                           int64_t count) {
  return MultiAddItem{pid, {{ts, 1, 1, fid, CountVector{count}}}};
}

TEST_F(IpsInstanceTest, RejectedRequestsAreNotChargedQuota) {
  // An empty batch or an unknown table is rejected before admission charges
  // anything: a 1-QPS caller (the ManualClock never refills it) still has
  // its one token for the valid call that follows.
  instance_.quota().SetQuota("one", 1.0);
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  const std::vector<ProfileId> pids = {1};
  const std::vector<MultiAddItem> items = {
      OneRecordItem(1, clock_.NowMs() - kMinute, 5, 1)};

  EXPECT_TRUE(instance_.MultiAdd("one", "profiles", {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(instance_.MultiQuery("one", "profiles", {}, spec)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(instance_.MultiAdd("one", "nope", items).status().IsNotFound());
  EXPECT_TRUE(
      instance_.MultiQuery("one", "nope", pids, spec).status().IsNotFound());

  auto valid = instance_.MultiAdd("one", "profiles", items);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_TRUE(valid->statuses[0].ok());
  // The token is spent now.
  EXPECT_TRUE(instance_.MultiAdd("one", "profiles", items)
                  .status()
                  .IsResourceExhausted());
}

TEST_F(IpsInstanceTest, MultiAddOfColdPidsIssuesOneKvMultiGet) {
  // Isolation off: every item goes to the cache, and the 16 never-written
  // pids are looked up and loaded as one batch, not one load per pid.
  const TimestampMs ts = clock_.NowMs() - kMinute;
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    items.push_back(OneRecordItem(pid, ts, pid, 2));
  }
  const int64_t multi_gets_before = kv_.MultiGetCalls();
  auto batch = instance_.MultiAdd("test", "profiles", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->ok_items, items.size());
  EXPECT_EQ(kv_.MultiGetCalls() - multi_gets_before, 1);

  for (ProfileId pid = 1; pid <= 16; ++pid) {
    auto result = TopK(pid, 1, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->features.size(), 1u);
    EXPECT_EQ(result->features[0].fid, pid);
    EXPECT_EQ(result->features[0].counts[0], 2);
  }
}

TEST_F(IpsInstanceTest, IsolationMergeOfNonResidentPidsIssuesOneKvMultiGet) {
  // 16 profiles persisted by one instance, then buffered writes for all of
  // them on a fresh instance (nothing resident): the merge folds the whole
  // drain with one lookup and one load.
  const TimestampMs ts = clock_.NowMs() - kMinute;
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    items.push_back(OneRecordItem(pid, ts, 7, 1));
  }
  ASSERT_TRUE(instance_.MultiAdd("test", "profiles", items).ok());
  instance_.FlushAll();

  IpsInstanceOptions options = ManualInstanceOptions();
  options.isolation_enabled = true;
  IpsInstance fresh(options, &kv_, &clock_);
  ASSERT_TRUE(fresh.CreateTable(TestSchema()).ok());
  for (auto& item : items) item.records[0].counts = CountVector{2};
  const int64_t multi_gets_before = kv_.MultiGetCalls();
  auto buffered = fresh.MultiAdd("test", "profiles", items);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ(buffered->ok_items, items.size());
  EXPECT_EQ(kv_.MultiGetCalls(), multi_gets_before);  // only buffered

  EXPECT_EQ(fresh.MergeWriteTablesOnce(), 16u);
  EXPECT_EQ(kv_.MultiGetCalls() - multi_gets_before, 1);

  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  std::vector<ProfileId> pids;
  for (const auto& item : items) pids.push_back(item.pid);
  auto merged = fresh.MultiQuery("test", "profiles", pids, spec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->cache_hits, pids.size());
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_EQ(merged->results[i].features.size(), 1u) << pids[i];
    EXPECT_EQ(merged->results[i].features[0].counts[0], 3) << pids[i];
  }
}

TEST_F(IpsInstanceTest, ReduceReloadRacingIsolatedWritesIsSafe) {
  // Writers buffer under isolation and a merger folds the buffer while the
  // table's reduce function is hot-reloaded back and forth. Every request
  // reads reduce from one snapshot taken under the schema lock (TSan checks
  // the race; the counts check that no write went missing).
  instance_.SetIsolationEnabled(true);
  constexpr int kWriters = 4;
  constexpr int kBatches = 200;
  constexpr ProfileId kPids = 32;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int64_t> acked{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const TimestampMs ts = clock_.NowMs() - kMinute;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<MultiAddItem> items;
        for (ProfileId k = 0; k < 4; ++k) {
          items.push_back(
              OneRecordItem(1 + (b * 4 + k + w * 7) % kPids, ts, 9, 1));
        }
        auto result = instance_.MultiAdd("test", "profiles", items);
        if (result.ok()) acked.fetch_add(result->ok_items);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    TableSchema schema = TestSchema();
    for (int i = 0; writers_left.load() > 0; ++i) {
      schema.reduce = i % 2 == 0 ? ReduceFn::kMax : ReduceFn::kSum;
      EXPECT_TRUE(instance_.ReconfigureTable(schema).ok());
    }
  });
  threads.emplace_back([&] {
    while (writers_left.load() > 0) instance_.MergeWriteTablesOnce();
  });
  for (auto& t : threads) t.join();
  instance_.MergeWriteTablesOnce();

  EXPECT_EQ(acked.load(), int64_t{kWriters} * kBatches * 4);
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    auto result = TopK(pid, 1, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->features.size(), 1u) << pid;
    EXPECT_GE(result->features[0].counts[0], 1) << pid;
  }
}

TEST_F(IpsInstanceTest, MultiAddFlushIssuesOneKvMultiSetPerBatch) {
  // The write-side acceptance check: a MultiAdd batch drained by FlushAll
  // rides batched flushes — KvStore::MultiSet round trips, zero point
  // writes (bulk mode).
  const TimestampMs now = clock_.NowMs();
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 64; ++pid) {
    MultiAddItem item;
    item.pid = pid;
    AddRecord r;
    r.timestamp = now - kMinute;
    r.slot = 1;
    r.type = 1;
    r.fid = pid;
    r.counts = CountVector{1};
    item.records.push_back(r);
    items.push_back(item);
  }
  auto batch = instance_.MultiAdd("test", "profiles", items);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->ok_items, 64u);
  const int64_t multi_sets_before = kv_.MultiSetCalls();
  const int64_t point_writes_before = kv_.PointWriteCalls();
  instance_.FlushAll();
  // 64 dirty profiles with the default flush_batch_max of 64: a flush pass
  // takes the whole dirty list, so one MultiSet per flush group.
  const size_t group_max = ManualInstanceOptions().cache.flush_batch_max;
  EXPECT_EQ(kv_.MultiSetCalls() - multi_sets_before,
            static_cast<int64_t>((64 + group_max - 1) / group_max));
  EXPECT_EQ(kv_.PointWriteCalls() - point_writes_before, 0);
  // And the batch is durable: a fresh instance reads it back from the KV.
  IpsInstance fresh(ManualInstanceOptions(), &kv_, &clock_);
  ASSERT_TRUE(fresh.CreateTable(TestSchema()).ok());
  auto result = fresh.GetProfileTopK("test", "profiles", 64, 1, std::nullopt,
                                     TimeRange::Current(kDay),
                                     SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 64u);
}

TEST(IpsInstanceWriteBackTest, WritesLandingDuringAGatedFlushShareOneMultiSet) {
  // One FlushAll pass's MultiSet is held on the wire while writes land on
  // three pids, and two more FlushAll callers
  // queue behind it on the cache's write-back lock. Everything written
  // meanwhile goes out in exactly one more MultiSet, and is durable.
  test_util::GatedKv kv;
  ManualClock clock(100 * kDay);
  const IpsInstanceOptions options = ManualInstanceOptions();
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());

  const std::vector<ProfileId> pids = {1, 2, 3};
  auto write = [&](ProfileId pid, FeatureId fid) {
    ASSERT_TRUE(instance
                    .AddProfile("test", "profiles", pid,
                                clock.NowMs() - kMinute, 1, 1, fid,
                                CountVector{1})
                    .ok());
  };
  // Make every pid resident and clean first, so no write below loads (the
  // gate holds MultiGet as well).
  for (ProfileId pid : pids) write(pid, static_cast<FeatureId>(pid));
  instance.FlushAll();
  const int64_t point_writes_before = kv.inner().PointWriteCalls();
  MetricsRegistry* metrics = instance.metrics();
  const int64_t flushed_before = metrics->GetCounter("cache.flushed")->Value();

  write(pids[0], 100);
  kv.Arm();
  std::thread t0([&] { instance.FlushAll(); });
  kv.gate().AwaitEntered();  // the pass storing pids[0] is on the wire
  for (ProfileId pid : pids) write(pid, static_cast<FeatureId>(200 + pid));
  std::thread t1([&] { instance.FlushAll(); });
  std::thread t2([&] { instance.FlushAll(); });
  kv.gate().Open();
  t0.join();
  t1.join();
  t2.join();

  EXPECT_EQ(kv.MultiSetKeys(), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(kv.inner().PointWriteCalls() - point_writes_before, 0);
  EXPECT_EQ(metrics->GetCounter("cache.flushed")->Value() - flushed_before, 4);

  // A cold instance reads every write back.
  IpsInstance cold(options, &kv.inner(), &clock);
  ASSERT_TRUE(cold.CreateTable(TestSchema()).ok());
  for (ProfileId pid : pids) {
    auto result = cold.GetProfileTopK("test", "profiles", pid, 1,
                                      std::nullopt, TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<FeatureId> fids;
    for (const auto& feature : result->features) fids.insert(feature.fid);
    std::set<FeatureId> want = {static_cast<FeatureId>(pid),
                                static_cast<FeatureId>(200 + pid)};
    if (pid == pids[0]) want.insert(100);
    EXPECT_EQ(fids, want) << "pid " << pid;
  }
}

TEST_F(IpsInstanceTest, IsolationDelaysVisibilityUntilMerge) {
  instance_.SetIsolationEnabled(true);
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 9, now - kMinute, 1, 1,
                              77, CountVector{1})
                  .ok());
  // Not yet merged: invisible to queries.
  auto before = TopK(9, 1, 10);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->features.empty());
  auto stats = instance_.GetTableStats("profiles");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->write_table_profiles, 1u);

  EXPECT_EQ(instance_.MergeWriteTablesOnce(), 1u);
  auto after = TopK(9, 1, 10);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->features.size(), 1u);
  EXPECT_EQ(after->features[0].fid, 77u);
  stats = instance_.GetTableStats("profiles");
  EXPECT_EQ(stats->write_table_profiles, 0u);
}

TEST_F(IpsInstanceTest, IsolationHotSwitchOffDrainsBuffer) {
  instance_.SetIsolationEnabled(true);
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 3, now - kMinute, 1, 1,
                              55, CountVector{1})
                  .ok());
  instance_.SetIsolationEnabled(false);  // must merge synchronously
  auto result = TopK(3, 1, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->features.size(), 1u);
}

TEST_F(IpsInstanceTest, IsolationAggregatesAcrossMerge) {
  instance_.SetIsolationEnabled(true);
  const TimestampMs now = clock_.NowMs();
  // Write the same (slot, type, fid) twice pre-merge and once post-merge.
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 4, now - kMinute, 1, 1, 8,
                              CountVector{1})
                  .ok());
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 4, now - kMinute, 1, 1, 8,
                              CountVector{2})
                  .ok());
  instance_.MergeWriteTablesOnce();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 4, now - kMinute, 1, 1, 8,
                              CountVector{4})
                  .ok());
  instance_.MergeWriteTablesOnce();
  auto result = TopK(4, 1, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].counts[0], 7);
}

TEST_F(IpsInstanceTest, IsolationMergeRacingWritersLosesNoAcknowledgedWrite) {
  // Writers keep adding while merges drain the write table. A write that
  // lands on a shard the merge has already drained must stay buffered for
  // the next merge, never be erased after its MultiAdd was acknowledged.
  instance_.SetIsolationEnabled(true);
  constexpr int kWriters = 4;
  constexpr int kBatches = 400;
  constexpr ProfileId kPids = 64;
  std::vector<std::vector<int64_t>> acked(kWriters,
                                          std::vector<int64_t>(kPids + 1));
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const TimestampMs ts = clock_.NowMs() - kMinute;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<MultiAddItem> items;
        for (ProfileId k = 0; k < 8; ++k) {
          const ProfileId pid = 1 + (b * 8 + k + w * 13) % kPids;
          items.push_back(MultiAddItem{pid, {{ts, 1, 1, 5, CountVector{1}}}});
        }
        auto result = instance_.MultiAdd("test", "profiles", items);
        if (!result.ok()) continue;
        for (size_t i = 0; i < items.size(); ++i) {
          if (result->statuses[i].ok()) ++acked[w][items[i].pid];
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  std::thread merger([&] {
    while (writers_left.load() > 0) instance_.MergeWriteTablesOnce();
  });
  for (auto& t : writers) t.join();
  merger.join();
  instance_.MergeWriteTablesOnce();

  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    int64_t expected = 0;
    for (int w = 0; w < kWriters; ++w) expected += acked[w][pid];
    ASSERT_GT(expected, 0);
    auto result = TopK(pid, 1, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->features.size(), 1u) << pid;
    EXPECT_EQ(result->features[0].counts[0], expected) << pid;
  }
  auto stats = instance_.GetTableStats("profiles");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->write_table_profiles, 0u);
  EXPECT_EQ(stats->write_table_bytes, 0u);
}

TEST_F(IpsInstanceTest, DataSurvivesRestartThroughKv) {
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 11, now - kMinute, 2, 1,
                              99, CountVector{6})
                  .ok());
  instance_.FlushAll();
  // A new instance over the same KV (restart / failover takeover).
  IpsInstance fresh(ManualInstanceOptions(), &kv_, &clock_);
  ASSERT_TRUE(fresh.CreateTable(TestSchema()).ok());
  auto result = fresh.GetProfileTopK("test", "profiles", 11, 2, std::nullopt,
                                     TimeRange::Current(kDay),
                                     SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->features.size(), 1u);
  EXPECT_EQ(result->features[0].fid, 99u);
  EXPECT_EQ(result->features[0].counts[0], 6);
}

TEST_F(IpsInstanceTest, HotReloadChangesCompactionPolicy) {
  TableSchema updated = TestSchema();
  updated.truncate.max_slices = 3;
  ASSERT_TRUE(instance_.ReconfigureTable(updated).ok());
  // Action schema changes are rejected.
  TableSchema bad = TestSchema();
  bad.actions.push_back("extra");
  EXPECT_TRUE(instance_.ReconfigureTable(bad).IsInvalidArgument());
  // Granularity changes rejected.
  TableSchema bad2 = TestSchema();
  bad2.write_granularity_ms = 5 * kMinute;
  EXPECT_TRUE(instance_.ReconfigureTable(bad2).IsInvalidArgument());
  // Unknown table.
  TableSchema other = TestSchema("other");
  EXPECT_TRUE(instance_.ReconfigureTable(other).IsNotFound());
}

TEST_F(IpsInstanceTest, ConfigRegistryDrivesHotReload) {
  ConfigRegistry registry;
  instance_.AttachConfigRegistry(&registry);
  const std::string key =
      "ips/" + instance_.instance_id() + "/tables/profiles";
  // Valid reload.
  ASSERT_TRUE(registry
                  .PublishJson(key, R"({
                    "name": "profiles",
                    "actions": ["click", "like", "share", "comment"],
                    "write_granularity": "1m",
                    "truncate": {"max_slices": 7}
                  })")
                  .ok());
  EXPECT_GE(instance_.metrics()->GetCounter("config.table_reload")->Value(),
            1);
  // Malformed reload: rejected, old config stays.
  ASSERT_TRUE(registry.PublishJson(key, R"({"name": "profiles"})").ok());
  // (rejected internally: empty actions mismatch; reload count unchanged)
  EXPECT_EQ(instance_.metrics()->GetCounter("config.table_reload")->Value(),
            1);
  // The registry is a local and dies before the fixture's instance_.
  instance_.DetachConfigRegistry();
}

TEST_F(IpsInstanceTest, QuotaHotReloadViaConfigRegistry) {
  ConfigRegistry registry;
  instance_.AttachConfigRegistry(&registry);
  const std::string key = "ips/" + instance_.instance_id() + "/quotas";
  ASSERT_TRUE(registry.PublishJson(key, R"({"feed": 3, "ads": 50})").ok());
  EXPECT_DOUBLE_EQ(instance_.quota().QuotaFor("feed"), 3.0);
  EXPECT_DOUBLE_EQ(instance_.quota().QuotaFor("ads"), 50.0);
  // The new quota is live: "feed" gets 3 requests then rejections.
  const TimestampMs now = clock_.NowMs();
  int ok_count = 0;
  for (int i = 0; i < 10; ++i) {
    if (instance_
            .AddProfile("feed", "profiles", 1, now, 1, 1, 1, CountVector{1})
            .ok()) {
      ++ok_count;
    }
  }
  EXPECT_EQ(ok_count, 3);
  // Publishing 0 removes the explicit quota (back to unlimited default).
  ASSERT_TRUE(registry.PublishJson(key, R"({"feed": 0})").ok());
  EXPECT_TRUE(instance_
                  .AddProfile("feed", "profiles", 1, now, 1, 1, 1,
                              CountVector{1})
                  .ok());
  // The registry is a local and dies before the fixture's instance_.
  instance_.DetachConfigRegistry();
}

TEST_F(IpsInstanceTest, QuotaHotReloadPreservesDrainedUsage) {
  ConfigRegistry registry;
  instance_.AttachConfigRegistry(&registry);
  const std::string key = "ips/" + instance_.instance_id() + "/quotas";
  auto add_as = [&](const std::string& caller) {
    return instance_.AddProfile(caller, "profiles", 1, clock_.NowMs(), 1, 1,
                                1, CountVector{1});
  };

  // Drain the caller dry under the old quota...
  ASSERT_TRUE(registry.PublishJson(key, R"({"feed": 4})").ok());
  while (add_as("feed").ok()) {
  }
  // ...then reconfigure mid-flight: the drained state carries over (no free
  // burst from a config push) and the bucket refills at the NEW rate.
  ASSERT_TRUE(registry.PublishJson(key, R"({"feed": 2})").ok());
  EXPECT_TRUE(add_as("feed").IsResourceExhausted());
  clock_.AdvanceMs(5000);
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    if (add_as("feed").ok()) ++granted;
  }
  EXPECT_EQ(granted, 2);  // burst cap = one second of the new rate
  instance_.DetachConfigRegistry();
}

TEST_F(IpsInstanceTest, QuotaHotReloadMixedRemovalDocument) {
  ConfigRegistry registry;
  instance_.AttachConfigRegistry(&registry);
  const std::string key = "ips/" + instance_.instance_id() + "/quotas";
  const TimestampMs now = clock_.NowMs();
  auto add_as = [&](const std::string& caller) {
    return instance_.AddProfile(caller, "profiles", 1, now, 1, 1, 1,
                                CountVector{1});
  };

  ASSERT_TRUE(registry.PublishJson(key, R"({"feed": 1})").ok());
  ASSERT_TRUE(add_as("feed").ok());
  ASSERT_TRUE(add_as("feed").IsResourceExhausted());

  // One document mixes removal ("feed": 0), a no-op removal of a caller
  // that never had a quota, and a fresh explicit quota.
  ASSERT_TRUE(
      registry.PublishJson(key, R"({"feed": 0, "ghost": 0, "ads": 1})").ok());
  EXPECT_TRUE(add_as("feed").ok());   // removed: unlimited default again
  EXPECT_TRUE(add_as("ghost").ok());  // still unlimited, removal was a no-op
  EXPECT_TRUE(add_as("ads").ok());
  EXPECT_TRUE(add_as("ads").IsResourceExhausted());

  // A non-numeric value fails safe to removal, never to a 0-qps lockout.
  ASSERT_TRUE(registry.PublishJson(key, R"({"ads": "lots"})").ok());
  EXPECT_TRUE(add_as("ads").ok());
  instance_.DetachConfigRegistry();
}

TEST_F(IpsInstanceTest, TierHotReloadViaConfigRegistry) {
  ConfigRegistry registry;
  instance_.AttachConfigRegistry(&registry);
  const std::string key = "ips/" + instance_.instance_id() + "/tiers";
  ASSERT_TRUE(
      registry
          .PublishJson(key, R"({"checkout": "critical", "backfill": "bulk"})")
          .ok());
  EXPECT_EQ(instance_.overload().TierFor("checkout", /*is_write=*/false),
            RequestTier::kCritical);
  EXPECT_EQ(instance_.overload().TierFor("backfill", /*is_write=*/true),
            RequestTier::kBulk);
  EXPECT_GE(instance_.metrics()->GetCounter("config.tier_reload")->Value(), 1);
  // Unknown tier names and non-string values remove the mark: callers fall
  // back to the read/write defaults instead of keeping a stale tier.
  ASSERT_TRUE(
      registry.PublishJson(key, R"({"checkout": "turbo", "backfill": 3})")
          .ok());
  EXPECT_EQ(instance_.overload().TierFor("checkout", false),
            RequestTier::kRead);
  EXPECT_EQ(instance_.overload().TierFor("backfill", true),
            RequestTier::kWrite);
  instance_.DetachConfigRegistry();
}

TEST_F(IpsInstanceTest, BrownOutShedsAtAdmission) {
  const TimestampMs now = clock_.NowMs();
  // Level 2 sheds writes (and bulk) but still serves reads.
  instance_.overload().SetLevelOverride(2);
  Status write = instance_.AddProfile("test", "profiles", 1, now, 1, 1, 1,
                                      CountVector{1});
  ASSERT_TRUE(write.IsThrottled()) << write.ToString();
  EXPECT_TRUE(write.has_retry_after());
  EXPECT_TRUE(TopK(1, 1, 10).ok());
  EXPECT_GE(
      instance_.metrics()->GetCounter("admission.shed_brownout")->Value(), 1);
  // Level 3 sheds normal reads too.
  instance_.overload().SetLevelOverride(3);
  auto read = TopK(1, 1, 10);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsThrottled());
  EXPECT_TRUE(read.status().has_retry_after());
  // Back to automatic control: healthy instance serves everything again.
  instance_.overload().SetLevelOverride(-1);
  EXPECT_TRUE(TopK(1, 1, 10).ok());
  EXPECT_TRUE(instance_
                  .AddProfile("test", "profiles", 1, now, 1, 1, 1,
                              CountVector{1})
                  .ok());
}

TEST_F(IpsInstanceTest, CompactionTriggeredByTraffic) {
  const TimestampMs base = clock_.NowMs() - 2 * kDay;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", 20, base + i * kMinute,
                                1, 1, static_cast<FeatureId>(i % 10 + 1),
                                CountVector{1})
                    .ok());
  }
  instance_.DrainCompactions();
  // The ladder must have consolidated day-old minute slices.
  auto stats = instance_.GetTableStats("profiles");
  ASSERT_TRUE(stats.ok());
  const int64_t merged =
      instance_.metrics()->GetCounter("compaction.slices_merged")->Value();
  EXPECT_GT(merged, 0);
}

TEST_F(IpsInstanceTest, CompactTableNowSweepsEveryCachedProfile) {
  // Pause traffic-triggered compaction so the sweep does the work.
  instance_.SetCompactionEnabled(false);
  const TimestampMs base = clock_.NowMs() - 2 * kDay;
  for (ProfileId pid = 1; pid <= 3; ++pid) {
    for (int i = 0; i < 90; ++i) {
      ASSERT_TRUE(instance_
                      .AddProfile("test", "profiles", pid,
                                  base + i * kMinute, 1, 1,
                                  static_cast<FeatureId>(i + 1),
                                  CountVector{1})
                      .ok());
    }
  }
  auto swept = instance_.CompactTableNow("profiles");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 3u);
  // Day-old minute slices must have been consolidated by the ladder.
  auto result = TopK(1, 1, 0, 30 * kDay);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->slices_scanned, 30u);
  EXPECT_TRUE(instance_.CompactTableNow("nope").status().IsNotFound());

  // A second sweep over the compacted table changes nothing, so nothing is
  // written back.
  instance_.FlushAll();
  const int64_t keys_before = kv_.MultiSetKeys() + kv_.PointWriteCalls();
  swept = instance_.CompactTableNow("profiles");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 0u);
  instance_.FlushAll();
  EXPECT_EQ(kv_.MultiSetKeys() + kv_.PointWriteCalls(), keys_before);
}

TEST_F(IpsInstanceTest, CompactionKillSwitchStopsTriggers) {
  instance_.SetCompactionEnabled(false);
  const TimestampMs base = clock_.NowMs() - 2 * kDay;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", 8, base + i * kMinute,
                                1, 1, static_cast<FeatureId>(i + 1),
                                CountVector{1})
                    .ok());
  }
  instance_.DrainCompactions();
  EXPECT_EQ(Passes(), 0);
  EXPECT_EQ(
      instance_.metrics()->GetCounter("compaction.slices_merged")->Value(),
      0);
  // Re-enable: the profile became due while compaction was off, so its
  // first touch runs the pass; the compacted profile is not due again.
  instance_.SetCompactionEnabled(true);
  ASSERT_TRUE(TopK(8, 1, 0, 30 * kDay).ok());
  ASSERT_TRUE(TopK(8, 1, 0, 30 * kDay).ok());
  instance_.DrainCompactions();
  EXPECT_EQ(Passes(), 1);
  EXPECT_GT(
      instance_.metrics()->GetCounter("compaction.slices_merged")->Value(),
      0);
}

TEST_F(IpsInstanceTest, TouchingAProfileThatIsNotDueRunsNoPass) {
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 30, now - kMinute, 1, 1, 1,
                              CountVector{1})
                  .ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(TopK(30, 1, 10).ok());
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 30, now - kMinute, 1, 1, 2,
                              CountVector{1})
                  .ok());
  EXPECT_EQ(Passes(), 0);
  EXPECT_EQ(instance_.metrics()->GetCounter("compaction.triggered")->Value(),
            0);
}

TEST_F(IpsInstanceTest, TouchPastDueRunsExactlyOnePass) {
  const TimestampMs base = clock_.NowMs();  // hour-aligned
  clock_.AdvanceMs(10 * kMinute);
  for (const int minute : {5, 6}) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", 31,
                                base + minute * kMinute, 1, 1, 1,
                                CountVector{1})
                    .ok());
  }
  // The two minute slices share an hour: the hour rung merges them once the
  // newer one (ending at base + 7m) is an hour old.
  const TimestampMs due = base + 67 * kMinute;
  ASSERT_TRUE(TopK(31, 1, 10).ok());
  clock_.SetMs(due - 1);
  ASSERT_TRUE(TopK(31, 1, 10).ok());
  EXPECT_EQ(Passes(), 0);
  clock_.SetMs(due);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(TopK(31, 1, 10).ok());
  EXPECT_EQ(Passes(), 1);
  EXPECT_EQ(
      instance_.metrics()->GetCounter("compaction.slices_merged")->Value(),
      1);
}

TEST_F(IpsInstanceTest, LateWriteOverShrinkBudgetIsDueAtOnce) {
  TableSchema tight = TestSchema("tight");
  tight.shrink.retain_per_slot = {{1, 3}};
  ASSERT_TRUE(instance_.CreateTable(tight).ok());
  // Three features in a slice past the one-hour freshness horizon: at the
  // budget, not over it.
  const TimestampMs old = clock_.NowMs() - 2 * kHour;
  for (FeatureId fid = 1; fid <= 3; ++fid) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "tight", 32, old, 1, 1, fid,
                                CountVector{static_cast<int64_t>(fid)})
                    .ok());
  }
  EXPECT_EQ(Passes(), 0);
  // A late fourth feature puts the old slot over budget: due at once.
  ASSERT_TRUE(
      instance_.AddProfile("test", "tight", 32, old, 1, 1, 4, CountVector{1})
          .ok());
  EXPECT_EQ(Passes(), 1);
  EXPECT_EQ(
      instance_.metrics()->GetCounter("compaction.features_shrunk")->Value(),
      1);
}

TEST_F(IpsInstanceTest, ReloadToTighterTruncateTruncatesOnNextTouch) {
  ASSERT_TRUE(instance_
                  .AddProfile("test", "profiles", 33,
                              clock_.NowMs() - 10 * kDay, 1, 1, 1,
                              CountVector{1})
                  .ok());
  ASSERT_TRUE(TopK(33, 1, 10, 30 * kDay).ok());
  EXPECT_EQ(Passes(), 0);
  TableSchema tighter = TestSchema();
  tighter.truncate.max_age_ms = 5 * kDay;
  ASSERT_TRUE(instance_.ReconfigureTable(tighter).ok());
  EXPECT_EQ(Passes(), 0);  // the reload itself runs nothing
  ASSERT_TRUE(TopK(33, 1, 10, 30 * kDay).ok());
  EXPECT_EQ(Passes(), 1);
  EXPECT_EQ(
      instance_.metrics()->GetCounter("compaction.slices_truncated")->Value(),
      1);
  auto result = TopK(33, 1, 10, 30 * kDay);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->features.empty());
}

TEST(IpsInstanceCompactionTest, DroppedSubmitLeavesPidRetriggerable) {
  MemKvStore kv;
  ManualClock clock(100 * kDay);
  IpsInstanceOptions options = ManualInstanceOptions();
  options.compaction.synchronous = false;
  options.compaction.num_threads = 1;
  options.compaction.max_queue = 0;  // every submit is dropped
  IpsInstance instance(options, &kv, &clock);
  ASSERT_TRUE(instance.CreateTable(TestSchema()).ok());
  // Day-old minute slices: due at once.
  std::vector<AddRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back({clock.NowMs() - 2 * kDay + i * kMinute, 1, 1,
                       static_cast<FeatureId>(i + 1), CountVector{1}});
  }
  ASSERT_TRUE(instance.AddProfiles("test", "profiles", 40, records).ok());
  Counter* dropped = instance.metrics()->GetCounter("compaction.dropped");
  EXPECT_EQ(dropped->Value(), 1);
  // The drop cleared the queued flag: every touch submits the pid again.
  for (int touch = 2; touch <= 3; ++touch) {
    ASSERT_TRUE(instance
                    .GetProfileTopK("test", "profiles", 40, 1, std::nullopt,
                                    TimeRange::Current(30 * kDay),
                                    SortBy::kActionCount, 0, 10)
                    .ok());
    EXPECT_EQ(dropped->Value(), touch);
  }
  EXPECT_EQ(instance.metrics()->GetCounter("compaction.full")->Value(), 0);
}

TEST_F(IpsInstanceTest, TableStatsReflectCache) {
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 5; ++pid) {
    ASSERT_TRUE(instance_
                    .AddProfile("test", "profiles", pid, now - kMinute, 1, 1,
                                1, CountVector{1})
                    .ok());
  }
  auto stats = instance_.GetTableStats("profiles");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cached_profiles, 5u);
  EXPECT_GT(stats->cache_bytes, 0u);
  EXPECT_TRUE(instance_.GetTableStats("nope").status().IsNotFound());
}

TEST(IpsInstanceBackgroundTest, MaintenanceLoopRunsAutomatically) {
  MemKvStore kv;
  SystemClock* clock = SystemClock::Instance();
  IpsInstanceOptions options;
  options.compaction.synchronous = true;
  options.isolation_enabled = true;
  options.isolation_merge_interval_ms = 20;
  options.start_background_threads = true;
  IpsInstance instance(options, &kv, clock);
  TableSchema schema = DefaultTableSchema("t");
  ASSERT_TRUE(instance.CreateTable(schema).ok());
  const TimestampMs now = clock->NowMs();
  ASSERT_TRUE(
      instance.AddProfile("c", "t", 1, now, 1, 1, 5, CountVector{1}).ok());
  // Wait for the background merge to surface the write.
  bool visible = false;
  for (int i = 0; i < 200 && !visible; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto result = instance.GetProfileTopK("c", "t", 1, 1, std::nullopt,
                                          TimeRange::Current(kDay),
                                          SortBy::kActionCount, 0, 10);
    visible = result.ok() && !result->features.empty();
  }
  EXPECT_TRUE(visible);
}

TEST(IpsInstanceBackgroundTest, MaintenanceLoopFlushesAndSwaps) {
  MemKvStore kv;
  SystemClock* clock = SystemClock::Instance();
  IpsInstanceOptions options;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  options.cache.memory_limit_bytes = 16 << 10;  // far below 200 profiles
  IpsInstance instance(options, &kv, clock);
  ASSERT_TRUE(instance.CreateTable(DefaultTableSchema("t")).ok());
  constexpr ProfileId kProfiles = 200;
  const TimestampMs now = clock->NowMs();
  for (ProfileId pid = 1; pid <= kProfiles; ++pid) {
    ASSERT_TRUE(
        instance.AddProfile("c", "t", pid, now, 1, 1, 5, CountVector{1}).ok());
  }

  // Every write reaches the KV with no FlushAll: a second instance, reading
  // only through the KV, sees all of them.
  IpsInstanceOptions reader_options;
  reader_options.start_background_threads = false;
  IpsInstance reader(reader_options, &kv, clock);
  ASSERT_TRUE(reader.CreateTable(DefaultTableSchema("t")).ok());
  ProfileId persisted = 0;
  for (int i = 0; i < 400 && persisted < kProfiles; ++i) {
    auto result = reader.GetProfileTopK("c", "t", persisted + 1, 1,
                                        std::nullopt, TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
    if (result.ok() && !result->features.empty()) {
      ++persisted;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(persisted, kProfiles);

  // And the swap brought usage back under the high watermark by evicting.
  bool under = false;
  for (int i = 0; i < 400 && !under; ++i) {
    auto stats = instance.GetTableStats("t");
    ASSERT_TRUE(stats.ok());
    under = stats->memory_usage_ratio <= GCache::kHighWatermark;
    if (!under) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(under);
  EXPECT_GT(instance.metrics()->GetCounter("cache.evicted")->Value(), 0);
}

TEST(IpsInstanceBackgroundTest, MaintenanceLoopRacingServingLosesNoWrite) {
  // The loop swaps, flushes and merges while tables are created, a writer
  // writes, isolation flips on and off and, at the end, the instance is
  // destroyed. Every acknowledged write must be in the KV afterwards.
  MemKvStore kv;
  SystemClock* clock = SystemClock::Instance();
  IpsInstanceOptions options;
  options.compaction.synchronous = true;
  options.isolation_merge_interval_ms = 10;
  options.cache.memory_limit_bytes = 16 << 10;  // keeps the swap evicting
  constexpr int kTables = 4;
  constexpr ProfileId kPids = 32;
  const auto table_name = [](int t) {
    std::string name = "t";
    name += std::to_string(t);
    return name;
  };
  std::vector<std::vector<int64_t>> acked(kTables,
                                          std::vector<int64_t>(kPids + 1));
  const TimestampMs ts = clock->NowMs();
  {
    IpsInstance instance(options, &kv, clock);
    ASSERT_TRUE(instance.CreateTable(DefaultTableSchema(table_name(0))).ok());
    std::atomic<bool> done{false};
    std::thread creator([&] {
      for (int t = 1; t < kTables; ++t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
        EXPECT_TRUE(
            instance.CreateTable(DefaultTableSchema(table_name(t))).ok());
      }
    });
    std::thread switcher([&] {
      for (bool on = false; !done.load(); on = !on) {
        instance.SetIsolationEnabled(on);
        std::this_thread::sleep_for(std::chrono::milliseconds(7));
      }
    });
    std::thread writer([&] {
      std::vector<MultiAddItem> items;
      for (ProfileId pid = 1; pid <= kPids; ++pid) {
        items.push_back(MultiAddItem{pid, {{ts, 1, 1, 5, CountVector{1}}}});
      }
      for (int round = 0; round < 40; ++round) {
        for (int t = 0; t < kTables; ++t) {
          auto result = instance.MultiAdd("c", table_name(t), items);
          if (!result.ok()) continue;  // table not created yet
          for (size_t i = 0; i < items.size(); ++i) {
            if (result->statuses[i].ok()) ++acked[t][items[i].pid];
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    writer.join();
    creator.join();
    done.store(true);
    switcher.join();
  }

  IpsInstanceOptions reader_options;
  reader_options.start_background_threads = false;
  IpsInstance reader(reader_options, &kv, clock);
  for (int t = 0; t < kTables; ++t) {
    ASSERT_TRUE(reader.CreateTable(DefaultTableSchema(table_name(t))).ok());
    for (ProfileId pid = 1; pid <= kPids; ++pid) {
      auto result = reader.GetProfileTopK(
          "c", table_name(t), pid, 1, std::nullopt, TimeRange::Current(kDay),
          SortBy::kActionCount, 0, 10);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      int64_t stored = 0;
      for (const auto& feature : result->features) stored += feature.counts[0];
      EXPECT_EQ(stored, acked[t][pid]) << table_name(t) << " pid " << pid;
    }
  }
  EXPECT_GT(acked[0][1], 0);
}

}  // namespace
}  // namespace ips
