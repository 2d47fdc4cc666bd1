#include "kvstore/mem_kv_store.h"
#include "kvstore/replicated_kv.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"

namespace ips {
namespace {

// "<prefix><i>", built by appends rather than a "lit" + std::string
// temporary, which GCC 12 misreads as an overlapping copy (-Wrestrict).
std::string Numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

TEST(MemKvStoreTest, SetGetDelete) {
  MemKvStore kv;
  EXPECT_TRUE(kv.Set("k1", "v1").ok());
  std::string value;
  ASSERT_TRUE(kv.Get("k1", &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(kv.Set("k1", "v2").ok());
  ASSERT_TRUE(kv.Get("k1", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(kv.Delete("k1").ok());
  EXPECT_TRUE(kv.Get("k1", &value).IsNotFound());
}

TEST(MemKvStoreTest, GetMissingIsNotFound) {
  MemKvStore kv;
  std::string value;
  EXPECT_TRUE(kv.Get("missing", &value).IsNotFound());
}

TEST(MemKvStoreTest, KeyCountAndBytes) {
  MemKvStore kv;
  EXPECT_EQ(kv.KeyCount(), 0u);
  kv.Set("a", "xx").ok();
  kv.Set("b", std::string(100, 'y')).ok();
  EXPECT_EQ(kv.KeyCount(), 2u);
  EXPECT_GE(kv.TotalValueBytes(), 102u);
}

TEST(MemKvStoreTest, VersionsIncreaseMonotonically) {
  MemKvStore kv;
  kv.Set("k", "v1").ok();
  KvEntry entry;
  ASSERT_TRUE(kv.XGet("k", &entry).ok());
  const KvVersion v1 = entry.version;
  EXPECT_GE(v1, 1u);
  kv.Set("k", "v2").ok();
  ASSERT_TRUE(kv.XGet("k", &entry).ok());
  EXPECT_GT(entry.version, v1);
}

TEST(MemKvStoreTest, XSetCreateRequiresVersionZero) {
  MemKvStore kv;
  KvVersion version = 0;
  EXPECT_TRUE(kv.XSet("k", "v", 0, &version).ok());
  EXPECT_EQ(version, 1u);
  // A second create must conflict.
  EXPECT_TRUE(kv.XSet("k", "v2", 0, &version).IsAborted());
}

TEST(MemKvStoreTest, XSetDetectsStaleWriter) {
  // The Fig 14 protocol: two writers hold version 1; the slower one must be
  // rejected and reload.
  MemKvStore kv;
  KvVersion v = 0;
  ASSERT_TRUE(kv.XSet("meta", "a", 0, &v).ok());  // v=1
  KvVersion writer_a = v, writer_b = v;
  ASSERT_TRUE(kv.XSet("meta", "b", writer_a, &v).ok());  // a wins, v=2
  KvVersion unused;
  EXPECT_TRUE(kv.XSet("meta", "c", writer_b, &unused).IsAborted());
  // b reloads and retries.
  KvEntry entry;
  ASSERT_TRUE(kv.XGet("meta", &entry).ok());
  EXPECT_EQ(entry.value, "b");
  EXPECT_TRUE(kv.XSet("meta", "c", entry.version, &unused).ok());
}

TEST(MemKvStoreTest, XGetMissingIsNotFound) {
  MemKvStore kv;
  KvEntry entry;
  EXPECT_TRUE(kv.XGet("nope", &entry).IsNotFound());
}

TEST(MemKvStoreTest, DownStoreRejectsEverything) {
  MemKvStore kv;
  kv.Set("k", "v").ok();
  kv.SetDown(true);
  std::string value;
  EXPECT_TRUE(kv.Get("k", &value).IsUnavailable());
  EXPECT_TRUE(kv.Set("k", "v2").IsUnavailable());
  EXPECT_TRUE(kv.Delete("k").IsUnavailable());
  kv.SetDown(false);
  EXPECT_TRUE(kv.Get("k", &value).ok());
  EXPECT_EQ(value, "v");  // the failed Set did not land
}

TEST(MemKvStoreTest, FailureInjectionProducesUnavailable) {
  MemKvOptions options;
  options.failure_probability = 0.5;
  options.seed = 3;
  MemKvStore kv(options);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (kv.Set(Numbered("k", i), "v").IsUnavailable()) ++failures;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
  kv.SetFailureProbability(0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(kv.Set(Numbered("x", i), "v").ok());
  }
}

TEST(MemKvStoreTest, MultiGetAlignsOutputs) {
  MemKvStore kv;
  kv.Set("a", "1").ok();
  kv.Set("c", "3").ok();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet({"a", "b", "c"}, &values, &statuses);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "1");
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "3");
}

TEST(MemKvStoreTest, MultiGetCountsOneBatchedCall) {
  MemKvStore kv;
  kv.Set("a", "1").ok();
  kv.Set("b", "2").ok();
  std::string value;
  kv.Get("a", &value).ok();
  KvEntry entry;
  kv.XGet("a", &entry).ok();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet({"a", "b", "missing"}, &values, &statuses);
  EXPECT_EQ(kv.PointReadCalls(), 2);  // the Get + the XGet
  EXPECT_EQ(kv.MultiGetCalls(), 1);   // one batch, regardless of keys
  EXPECT_EQ(kv.MultiGetKeys(), 3);
}

TEST(MemKvStoreTest, MultiGetChargesOneRoundTripPerBatch) {
  // With a 2ms base latency, 50 point reads burn >= 100ms of simulated
  // round trips while one 50-key MultiGet burns a single one. The margin is
  // wide enough to survive a loaded test machine.
  MemKvOptions options;
  options.base_latency_us = 2000;
  MemKvStore kv(options);
  std::vector<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    const std::string key = Numbered("k", i);
    kv.Set(key, "v").ok();
    keys.push_back(key);
  }

  const auto sequential_start = std::chrono::steady_clock::now();
  std::string value;
  for (const auto& key : keys) {
    ASSERT_TRUE(kv.Get(key, &value).ok());
  }
  const auto sequential_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - sequential_start)
          .count();

  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet(keys, &values, &statuses);
  const auto batch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - batch_start)
                            .count();

  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
  EXPECT_GE(sequential_us, 100'000);
  EXPECT_LT(batch_us, sequential_us / 4);
}

TEST(MemKvStoreTest, MultiGetFailsPerKeyOnInjectedFailures) {
  // Failure draws stay per key, so a batch partially succeeds the way a
  // multi-get spanning region servers does.
  MemKvOptions options;
  options.failure_probability = 0.3;
  options.seed = 7;
  MemKvStore kv(options);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    const std::string key = Numbered("k", i);
    keys.push_back(key);
  }
  kv.SetFailureProbability(0.0);
  for (const auto& key : keys) ASSERT_TRUE(kv.Set(key, "v").ok());
  kv.SetFailureProbability(0.3);

  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet(keys, &values, &statuses);
  int ok = 0, unavailable = 0;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) {
      ++ok;
      EXPECT_EQ(values[i], "v");
    } else {
      EXPECT_TRUE(statuses[i].IsUnavailable());
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 80);
  EXPECT_GT(unavailable, 20);
}

TEST(MemKvStoreTest, MultiGetOnDownStoreIsAllUnavailable) {
  MemKvStore kv;
  kv.Set("a", "1").ok();
  kv.SetDown(true);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet({"a", "b"}, &values, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsUnavailable());
  EXPECT_TRUE(statuses[1].IsUnavailable());
}

TEST(MemKvStoreTest, MultiGetEmptyBatchIsNoop) {
  MemKvStore kv;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  kv.MultiGet({}, &values, &statuses);
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
  EXPECT_EQ(kv.MultiGetCalls(), 1);
  EXPECT_EQ(kv.MultiGetKeys(), 0);
}

TEST(MemKvStoreTest, MultiSetAlignsOutputs) {
  MemKvStore kv;
  std::vector<Status> statuses;
  kv.MultiSet({"a", "b", "c"}, {"1", "2", "3"}, &statuses);
  ASSERT_EQ(statuses.size(), 3u);
  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
  std::string value;
  ASSERT_TRUE(kv.Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_EQ(kv.KeyCount(), 3u);
}

TEST(MemKvStoreTest, MultiSetMismatchedValuesIsInvalidArgument) {
  MemKvStore kv;
  std::vector<Status> statuses;
  kv.MultiSet({"a", "b"}, {"only one"}, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsInvalidArgument());
  EXPECT_TRUE(statuses[1].IsInvalidArgument());
  EXPECT_EQ(kv.KeyCount(), 0u);
}

TEST(MemKvStoreTest, MultiSetCountsOneBatchedCall) {
  MemKvStore kv;
  kv.Set("x", "v").ok();
  kv.Delete("x").ok();
  std::vector<Status> statuses;
  kv.MultiSet({"a", "b", "c"}, {"1", "2", "3"}, &statuses);
  EXPECT_EQ(kv.PointWriteCalls(), 2);  // the Set + the Delete
  EXPECT_EQ(kv.MultiSetCalls(), 1);    // one batch, regardless of keys
  EXPECT_EQ(kv.MultiSetKeys(), 3);
}

TEST(MemKvStoreTest, MultiSetChargesOneRoundTripPerBatch) {
  // Mirror of MultiGetChargesOneRoundTripPerBatch on the write side: 50
  // point writes burn >= 100ms of simulated round trips while one 50-key
  // MultiSet burns a single one.
  MemKvOptions options;
  options.base_latency_us = 2000;
  MemKvStore kv(options);
  std::vector<std::string> keys, values;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(Numbered("k", i));
    values.push_back("v");
  }

  const auto sequential_start = std::chrono::steady_clock::now();
  for (const auto& key : keys) {
    ASSERT_TRUE(kv.Set(key, "v").ok());
  }
  const auto sequential_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - sequential_start)
          .count();

  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<Status> statuses;
  kv.MultiSet(keys, values, &statuses);
  const auto batch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - batch_start)
                            .count();

  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
  EXPECT_GE(sequential_us, 100'000);
  EXPECT_LT(batch_us, sequential_us / 4);
}

TEST(MemKvStoreTest, MultiSetFailsPerKeyOnInjectedFailures) {
  // Per-key failure draws: a batched mutation partially lands, the way an
  // HBase batch spanning region servers does. Bounced keys must not be
  // visible afterwards.
  MemKvOptions options;
  options.failure_probability = 0.3;
  options.seed = 11;
  MemKvStore kv(options);
  std::vector<std::string> keys, values;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(Numbered("k", i));
    values.push_back("v");
  }
  std::vector<Status> statuses;
  kv.MultiSet(keys, values, &statuses);
  int ok = 0, unavailable = 0;
  kv.SetFailureProbability(0.0);
  for (size_t i = 0; i < statuses.size(); ++i) {
    std::string value;
    if (statuses[i].ok()) {
      ++ok;
      ASSERT_TRUE(kv.Get(keys[i], &value).ok());
      EXPECT_EQ(value, "v");
    } else {
      EXPECT_TRUE(statuses[i].IsUnavailable());
      EXPECT_TRUE(kv.Get(keys[i], &value).IsNotFound());
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 80);
  EXPECT_GT(unavailable, 20);
}

TEST(MemKvStoreTest, MultiSetOnDownStoreIsAllUnavailable) {
  MemKvStore kv;
  kv.SetDown(true);
  std::vector<Status> statuses;
  kv.MultiSet({"a", "b"}, {"1", "2"}, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsUnavailable());
  EXPECT_TRUE(statuses[1].IsUnavailable());
  kv.SetDown(false);
  std::string value;
  EXPECT_TRUE(kv.Get("a", &value).IsNotFound());
}

TEST(MemKvStoreTest, MultiSetEmptyBatchIsNoop) {
  MemKvStore kv;
  std::vector<Status> statuses;
  kv.MultiSet({}, {}, &statuses);
  EXPECT_TRUE(statuses.empty());
  EXPECT_EQ(kv.MultiSetCalls(), 1);
  EXPECT_EQ(kv.MultiSetKeys(), 0);
}

TEST(MemKvStoreTest, MultiSetBumpsVersions) {
  MemKvStore kv;
  kv.Set("a", "v0").ok();
  KvEntry entry;
  ASSERT_TRUE(kv.XGet("a", &entry).ok());
  const KvVersion v1 = entry.version;
  std::vector<Status> statuses;
  kv.MultiSet({"a"}, {"v1"}, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(kv.XGet("a", &entry).ok());
  EXPECT_GT(entry.version, v1);
  EXPECT_EQ(entry.value, "v1");
}

TEST(MemKvStoreTest, ForEachVisitsEverything) {
  MemKvStore kv;
  for (int i = 0; i < 20; ++i) {
    kv.Set(Numbered("k", i), "v").ok();
  }
  int visited = 0;
  kv.ForEach([&](const std::string&, const KvEntry&) { ++visited; });
  EXPECT_EQ(visited, 20);
}

// ------------------------------------------------------------ Replicated ---

TEST(ReplicatedKvTest, SlaveSeesWriteAfterLag) {
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.num_slaves = 2;
  options.replication_lag_ms = 1000;
  ReplicatedKv kv(options, &clock);

  ASSERT_TRUE(kv.master()->Set("k", "v").ok());
  std::string value;
  // Immediately: master has it, slaves do not.
  EXPECT_TRUE(kv.master()->Get("k", &value).ok());
  EXPECT_TRUE(kv.slave(0)->Get("k", &value).IsNotFound());
  EXPECT_EQ(kv.PendingMutations(0), 1u);

  clock.AdvanceMs(999);
  EXPECT_TRUE(kv.slave(0)->Get("k", &value).IsNotFound());
  clock.AdvanceMs(2);
  ASSERT_TRUE(kv.slave(0)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(kv.slave(1)->Get("k", &value).ok());
}

TEST(ReplicatedKvTest, SlavesAreReadOnly) {
  ManualClock clock(0);
  ReplicatedKv kv({}, &clock);
  EXPECT_TRUE(kv.slave(0)->Set("k", "v").IsUnavailable());
  EXPECT_TRUE(kv.slave(0)->Delete("k").IsUnavailable());
  KvVersion v;
  EXPECT_TRUE(kv.slave(0)->XSet("k", "v", 0, &v).IsUnavailable());
}

TEST(ReplicatedKvTest, DeleteReplicates) {
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 100;
  ReplicatedKv kv(options, &clock);
  kv.master()->Set("k", "v").ok();
  clock.AdvanceMs(200);
  std::string value;
  ASSERT_TRUE(kv.slave(0)->Get("k", &value).ok());
  kv.master()->Delete("k").ok();
  clock.AdvanceMs(200);
  EXPECT_TRUE(kv.slave(0)->Get("k", &value).IsNotFound());
}

TEST(ReplicatedKvTest, CatchUpAllIgnoresLag) {
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 1'000'000;
  ReplicatedKv kv(options, &clock);
  kv.master()->Set("k", "v").ok();
  std::string value;
  EXPECT_TRUE(kv.slave(0)->Get("k", &value).IsNotFound());
  kv.CatchUpAll();
  ASSERT_TRUE(kv.slave(0)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(kv.PendingMutations(0), 0u);
}

TEST(ReplicatedKvTest, StaleReadWindowIsObservable) {
  // The weak-consistency scenario of Section III-G: a value updated on the
  // master reads stale from a slave until the lag elapses.
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 500;
  ReplicatedKv kv(options, &clock);
  kv.master()->Set("profile", "old").ok();
  clock.AdvanceMs(600);
  std::string value;
  ASSERT_TRUE(kv.slave(0)->Get("profile", &value).ok());
  ASSERT_EQ(value, "old");

  kv.master()->Set("profile", "new").ok();
  ASSERT_TRUE(kv.slave(0)->Get("profile", &value).ok());
  EXPECT_EQ(value, "old");  // stale
  clock.AdvanceMs(600);
  ASSERT_TRUE(kv.slave(0)->Get("profile", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST(ReplicatedKvTest, MultiGetRespectsReplicationLag) {
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 1000;
  ReplicatedKv kv(options, &clock);
  ASSERT_TRUE(kv.master()->Set("a", "1").ok());
  ASSERT_TRUE(kv.master()->Set("b", "2").ok());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  // Master view serves the batch immediately.
  kv.master()->MultiGet({"a", "b", "c"}, &values, &statuses);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "1");
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].IsNotFound());

  // The slave view sees nothing until the lag elapses...
  kv.slave(0)->MultiGet({"a", "b"}, &values, &statuses);
  EXPECT_TRUE(statuses[0].IsNotFound());
  EXPECT_TRUE(statuses[1].IsNotFound());
  // ...then drains the matured mutations before serving the batch.
  clock.AdvanceMs(1001);
  kv.slave(0)->MultiGet({"a", "b"}, &values, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "1");
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "2");
}

TEST(ReplicatedKvTest, MultiSetReplicatesAcceptedKeysOnly) {
  // A batched write through the master proxy replicates exactly the keys
  // the master accepted; bounced keys must not resurrect on a slave.
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 100;
  ReplicatedKv kv(options, &clock);
  std::vector<Status> statuses;
  kv.master()->MultiSet({"a", "b"}, {"1", "2"}, &statuses);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  clock.AdvanceMs(200);
  std::string value;
  ASSERT_TRUE(kv.slave(0)->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(kv.slave(0)->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST(ReplicatedKvTest, SlaveMultiSetIsReadOnly) {
  ManualClock clock(0);
  ReplicatedKv kv({}, &clock);
  std::vector<Status> statuses;
  kv.slave(0)->MultiSet({"a"}, {"1"}, &statuses);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsUnavailable());
  std::string value;
  EXPECT_TRUE(kv.master()->Get("a", &value).IsNotFound());
}

TEST(ReplicatedKvTest, OrderingPreservedThroughReplication) {
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 10;
  ReplicatedKv kv(options, &clock);
  for (int i = 0; i < 50; ++i) {
    kv.master()->Set("k", Numbered("v", i)).ok();
  }
  clock.AdvanceMs(20);
  std::string value;
  ASSERT_TRUE(kv.slave(0)->Get("k", &value).ok());
  EXPECT_EQ(value, "v49");
}

TEST(ReplicatedKvTest, DownSlaveKeepsEveryUnappliedMutationInOrder) {
  // Three matured writes meet a slave that is down for one drain: the
  // failed apply and everything behind it stay queued, in order, and land
  // once the slave is back.
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 10;
  ReplicatedKv kv(options, &clock);
  ASSERT_TRUE(kv.master()->Set("a", "1").ok());
  ASSERT_TRUE(kv.master()->Set("b", "2").ok());
  ASSERT_TRUE(kv.master()->Set("c", "3").ok());
  clock.AdvanceMs(20);
  kv.slave_store(0)->SetDown(true);
  std::string value;
  EXPECT_TRUE(kv.slave(0)->Get("a", &value).IsUnavailable());
  EXPECT_EQ(kv.PendingMutations(0), 3u);

  kv.slave_store(0)->SetDown(false);
  kv.CatchUpAll();
  EXPECT_EQ(kv.PendingMutations(0), 0u);
  for (const auto& [key, want] : {std::pair<std::string, std::string>{"a", "1"},
                                  {"b", "2"},
                                  {"c", "3"}}) {
    ASSERT_TRUE(kv.slave(0)->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, want);
  }
}

TEST(ReplicatedKvTest, ConcurrentSlaveReadersNeverApplyAnOlderValueLast) {
  // Slave reads drain the replication queue. Four readers race while the
  // master rewrites one key; once replication catches up the slave holds
  // the master's value, not an older one a slower drainer applied last.
  ManualClock clock(0);
  ReplicatedKvOptions options;
  options.replication_lag_ms = 0;
  ReplicatedKv kv(options, &clock);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::string value;
      while (!done.load()) kv.slave(0)->Get("k", &value).ok();
    });
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(kv.master()->Set("k", Numbered("v", i)).ok());
  }
  done.store(true);
  for (auto& t : readers) t.join();
  kv.CatchUpAll();

  std::string master_value, slave_value;
  ASSERT_TRUE(kv.master()->Get("k", &master_value).ok());
  ASSERT_TRUE(kv.slave(0)->Get("k", &slave_value).ok());
  EXPECT_EQ(slave_value, master_value);
}

}  // namespace
}  // namespace ips
