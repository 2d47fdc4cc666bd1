#include "cluster/client.h"
#include "cluster/consistent_hash.h"
#include "cluster/deployment.h"
#include "cluster/discovery.h"
#include "cluster/rpc.h"

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

// ------------------------------------------------------- ConsistentHash ---

TEST(ConsistentHashTest, EmptyRingReturnsEmpty) {
  ConsistentHashRing ring;
  EXPECT_EQ(ring.Lookup(123), "");
  EXPECT_TRUE(ring.LookupN(123, 3).empty());
}

TEST(ConsistentHashTest, SingleNodeOwnsEverything) {
  ConsistentHashRing ring;
  ring.AddNode("n1");
  for (ProfileId pid = 0; pid < 100; ++pid) {
    EXPECT_EQ(ring.Lookup(pid), "n1");
  }
}

TEST(ConsistentHashTest, LookupIsDeterministic) {
  ConsistentHashRing a, b;
  for (const char* n : {"n1", "n2", "n3"}) {
    a.AddNode(n);
    b.AddNode(n);
  }
  for (ProfileId pid = 0; pid < 1000; ++pid) {
    EXPECT_EQ(a.Lookup(pid), b.Lookup(pid));
  }
}

TEST(ConsistentHashTest, LoadSpreadsAcrossNodes) {
  ConsistentHashRing ring(/*virtual_nodes=*/128);
  for (int i = 0; i < 8; ++i) ring.AddNode("node-" + std::to_string(i));
  std::map<std::string, int> counts;
  Rng rng(5);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[ring.Lookup(rng.Next())];
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [node, count] : counts) {
    // Each node owns roughly 1/8 of keys; allow generous imbalance.
    EXPECT_GT(count, n / 8 / 3) << node;
    EXPECT_LT(count, n / 8 * 3) << node;
  }
}

TEST(ConsistentHashTest, NodeRemovalMovesOnlyItsKeys) {
  ConsistentHashRing ring;
  for (int i = 0; i < 8; ++i) ring.AddNode("node-" + std::to_string(i));
  std::map<ProfileId, std::string> before;
  for (ProfileId pid = 0; pid < 10'000; ++pid) before[pid] = ring.Lookup(pid);
  ring.RemoveNode("node-3");
  int moved = 0;
  for (const auto& [pid, owner] : before) {
    const std::string& now = ring.Lookup(pid);
    if (owner == "node-3") {
      EXPECT_NE(now, "node-3");
    } else {
      if (now != owner) ++moved;
    }
  }
  EXPECT_EQ(moved, 0) << "keys not owned by the removed node must not move";
}

TEST(ConsistentHashTest, LookupNReturnsDistinctSuccessors) {
  ConsistentHashRing ring;
  for (int i = 0; i < 5; ++i) ring.AddNode("node-" + std::to_string(i));
  const auto targets = ring.LookupN(42, 3);
  ASSERT_EQ(targets.size(), 3u);
  std::set<std::string> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_EQ(targets[0], ring.Lookup(42));
  // Requesting more than the membership returns all members.
  EXPECT_EQ(ring.LookupN(42, 10).size(), 5u);
}

TEST(ConsistentHashTest, SetMembersReplacesView) {
  ConsistentHashRing ring;
  ring.AddNode("old");
  ring.SetMembers({"a", "b"});
  EXPECT_FALSE(ring.HasNode("old"));
  EXPECT_TRUE(ring.HasNode("a"));
  EXPECT_EQ(ring.NodeCount(), 2u);
}

// ------------------------------------------------------------ Discovery ---

TEST(DiscoveryTest, RegisterSnapshotDeregister) {
  ManualClock clock(0);
  DiscoveryService discovery(&clock, /*ttl_ms=*/1000);
  discovery.Register("i1", "region-a", 0);
  discovery.Register("i2", "region-b", 1);
  EXPECT_EQ(discovery.Snapshot().size(), 2u);
  EXPECT_EQ(discovery.Snapshot("region-a").size(), 1u);
  discovery.Deregister("i1");
  EXPECT_EQ(discovery.Snapshot().size(), 1u);
}

TEST(DiscoveryTest, EntriesExpireWithoutHeartbeat) {
  ManualClock clock(0);
  DiscoveryService discovery(&clock, /*ttl_ms=*/1000);
  discovery.Register("i1", "r", 0);
  clock.AdvanceMs(500);
  EXPECT_EQ(discovery.Snapshot().size(), 1u);
  clock.AdvanceMs(600);  // past TTL
  EXPECT_TRUE(discovery.Snapshot().empty());
  // A heartbeat revives within TTL.
  discovery.Register("i2", "r", 0);
  clock.AdvanceMs(900);
  discovery.Heartbeat("i2");
  clock.AdvanceMs(900);
  EXPECT_EQ(discovery.Snapshot().size(), 1u);
}

// ------------------------------------------------------------- Channel ---

TEST(ChannelTest, DeliversCalls) {
  Channel channel(ChannelOptions{});
  int calls = 0;
  Status status = channel.Call(100, 100, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
}

TEST(ChannelTest, PartitionBlocksCalls) {
  Channel channel(ChannelOptions{});
  channel.SetPartitioned(true);
  int calls = 0;
  Status status = channel.Call(0, 0, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(calls, 0);
  channel.SetPartitioned(false);
  EXPECT_TRUE(channel.Call(0, 0, [] { return Status::OK(); }).ok());
}

TEST(ChannelTest, DropProbabilityDropsSomeCalls) {
  ChannelOptions options;
  options.drop_probability = 0.5;
  options.seed = 11;
  Channel channel(options);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    if (channel.Call(0, 0, [] { return Status::OK(); }).ok()) ++delivered;
  }
  EXPECT_GT(delivered, 50);
  EXPECT_LT(delivered, 150);
  channel.SetDropProbability(0.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(channel.Call(0, 0, [] { return Status::OK(); }).ok());
  }
}

TEST(ChannelTest, DropProbabilityFlipsWhileCallsAreInFlight) {
  // Callers read the drop probability without the channel's rng lock;
  // flipping it under load must stay race-free (run under TSan) and must
  // take full effect once it settles at zero.
  ChannelOptions options;
  options.seed = 3;
  Channel channel(options);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> dropped{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Status status = channel.Call(0, 0, [] { return Status::OK(); });
        if (status.ok()) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
          dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int flip = 0; flip < 200; ++flip) {
    channel.SetDropProbability(flip % 2 == 0 ? 0.5 : 0.0);
    std::this_thread::yield();
  }
  // Flip until both outcomes were seen by the in-flight callers.
  for (int flip = 0; dropped.load() == 0 || delivered.load() == 0; ++flip) {
    channel.SetDropProbability(flip % 2 == 0 ? 0.5 : 0.0);
    std::this_thread::yield();
  }
  channel.SetDropProbability(0.0);
  stop.store(true);
  for (auto& caller : callers) caller.join();
  EXPECT_GT(delivered.load(), 0);
  EXPECT_GT(dropped.load(), 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.Call(0, 0, [] { return Status::OK(); }).ok());
  }
}

TEST(ChannelTest, LatencySimulationAddsDelay) {
  ChannelOptions options;
  options.base_latency_us = 2000;  // 2 ms each way
  Channel channel(options);
  const int64_t begin = MonotonicNanos();
  channel.Call(0, 0, [] { return Status::OK(); }).ok();
  const int64_t elapsed_us = (MonotonicNanos() - begin) / 1000;
  EXPECT_GE(elapsed_us, 3500);  // ~4 ms round trip, scheduling slop allowed
}

// ----------------------------------------------------------- Deployment ---

DeploymentOptions TwoRegionOptions() {
  DeploymentOptions options;
  options.regions = {{"lf", 2, /*is_primary=*/true},
                     {"hl", 2, /*is_primary=*/false}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  options.instance.cache.write_granularity_ms = kMinute;
  options.kv.replication_lag_ms = 100;
  return options;
}

TableSchema ClusterSchema() {
  TableSchema schema = DefaultTableSchema("profiles");
  schema.write_granularity_ms = kMinute;
  return schema;
}

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest()
      : clock_(100 * kDay), deployment_(TwoRegionOptions(), &clock_) {
    EXPECT_TRUE(deployment_.CreateTableEverywhere(ClusterSchema()).ok());
  }

  IpsClientOptions LocalClientOptions(const std::string& region) {
    IpsClientOptions options;
    options.caller = "test";
    options.local_region = region;
    for (const auto& r : deployment_.region_names()) {
      if (r != region) options.failover_regions.push_back(r);
    }
    return options;
  }

  ManualClock clock_;
  Deployment deployment_;
};

TEST_F(DeploymentTest, TopologyIsBuilt) {
  EXPECT_EQ(deployment_.region_names().size(), 2u);
  EXPECT_EQ(deployment_.NodesInRegion("lf").size(), 2u);
  EXPECT_EQ(deployment_.NodesInRegion("hl").size(), 2u);
  EXPECT_EQ(deployment_.discovery().LiveCount(), 4u);
  EXPECT_NE(deployment_.FindNode("lf/ips-0"), nullptr);
  EXPECT_EQ(deployment_.FindNode("nope"), nullptr);
}

TEST_F(DeploymentTest, WriteGoesToAllRegionsReadStaysLocal) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(
      client.AddProfile("profiles", 1, now - kMinute, 1, 1, 42, CountVector{1})
          .ok());
  // Readable from both regions (each got its own copy).
  for (const std::string region : {"lf", "hl"}) {
    IpsClient reader(LocalClientOptions(region), &deployment_);
    auto result = reader.GetProfileTopK("profiles", 1, 1, std::nullopt,
                                        TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
    ASSERT_TRUE(result.ok()) << region;
    ASSERT_EQ(result->features.size(), 1u) << region;
    EXPECT_EQ(result->features[0].fid, 42u);
  }
}

TEST_F(DeploymentTest, NodeFailureRetriesOnSuccessor) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  // Write enough profiles that both lf nodes own some.
  for (ProfileId pid = 1; pid <= 20; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid,
                                CountVector{1})
                    .ok());
  }
  // Persist the write-back caches so the downed node's data is reachable
  // from the shared region KV (a crash before flush loses cache-only data —
  // the weak-consistency trade-off the paper accepts).
  for (auto* node : deployment_.NodesInRegion("lf")) {
    node->instance().FlushAll();
  }
  // Kill one lf node; reads must still succeed via the ring successor or
  // failover region.
  deployment_.FindNode("lf/ips-0")->SetDown(true);
  int successes = 0;
  for (ProfileId pid = 1; pid <= 20; ++pid) {
    auto result = client.GetProfileTopK("profiles", pid, 1, std::nullopt,
                                        TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
    if (result.ok() && !result->features.empty()) ++successes;
  }
  EXPECT_EQ(successes, 20);
}

TEST_F(DeploymentTest, ClientMultiQueryReassemblesInInputOrder) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 8; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid * 10,
                                CountVector{1})
                    .ok());
  }
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.k = 10;
  // Out-of-order pids, one duplicate, one unknown.
  const std::vector<ProfileId> pids = {5, 1, 424242, 3, 1};
  auto batch = client.MultiQuery("profiles", pids, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), pids.size());
  for (const auto& status : batch->statuses) EXPECT_TRUE(status.ok());
  ASSERT_EQ(batch->results[0].features.size(), 1u);
  EXPECT_EQ(batch->results[0].features[0].fid, 50u);
  ASSERT_EQ(batch->results[1].features.size(), 1u);
  EXPECT_EQ(batch->results[1].features[0].fid, 10u);
  EXPECT_TRUE(batch->results[2].features.empty());  // unknown: empty, not error
  ASSERT_EQ(batch->results[3].features.size(), 1u);
  EXPECT_EQ(batch->results[3].features[0].fid, 30u);
  // The duplicate occurrence gets its own (identical) slot.
  ASSERT_EQ(batch->results[4].features.size(), 1u);
  EXPECT_EQ(batch->results[4].features[0].fid, 10u);
}

TEST_F(DeploymentTest, ClientMultiQuerySendsOneSubBatchPerOwningNode) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 32; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid,
                                CountVector{1})
                    .ok());
    pids.push_back(pid);
  }
  // Every sub-batch RPC records one server.multi_query_batch sample; the lf
  // region has two nodes, so 32 pids must arrive in at most two sub-batches
  // (exactly one per owning node) instead of 32 point RPCs.
  Histogram* batches =
      deployment_.metrics()->GetHistogram("server.multi_query_batch");
  const int64_t rpcs_before = batches->count();
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.k = 10;
  auto batch = client.MultiQuery("profiles", pids, spec);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok());
    ASSERT_EQ(batch->results[i].features.size(), 1u) << "pid " << pids[i];
  }
  const int64_t rpcs = batches->count() - rpcs_before;
  EXPECT_GE(rpcs, 1);
  EXPECT_LE(rpcs, 2);
  EXPECT_EQ(
      deployment_.metrics()->GetCounter("client.multi_read_errors")->Value(),
      0);
}

TEST_F(DeploymentTest, ClientMultiQuerySurvivesNodeFailure) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 20; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid,
                                CountVector{1})
                    .ok());
    pids.push_back(pid);
  }
  for (auto* node : deployment_.NodesInRegion("lf")) {
    node->instance().FlushAll();
  }
  deployment_.FindNode("lf/ips-0")->SetDown(true);
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.k = 10;
  // The downed node's sub-batch regroups onto ring successors / failover
  // regions; every pid still resolves.
  auto batch = client.MultiQuery("profiles", pids, spec);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok()) << batch->statuses[i].ToString();
    EXPECT_EQ(batch->results[i].features.size(), 1u) << "pid " << pids[i];
  }
}

TEST_F(DeploymentTest, RegionFailoverServesFromOtherRegion) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid,
                                CountVector{1})
                    .ok());
  }
  deployment_.FailRegion("lf");
  client.RefreshView();
  int successes = 0;
  for (ProfileId pid = 1; pid <= 10; ++pid) {
    auto result = client.GetProfileTopK("profiles", pid, 1, std::nullopt,
                                        TimeRange::Current(kDay),
                                        SortBy::kActionCount, 0, 10);
    if (result.ok() && !result->features.empty()) ++successes;
  }
  EXPECT_EQ(successes, 10);

  deployment_.RecoverRegion("lf");
  client.RefreshView();
  auto result = client.GetProfileTopK("profiles", 1, 1, std::nullopt,
                                      TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
  EXPECT_TRUE(result.ok());
}

TEST_F(DeploymentTest, AllRegionsDownReportsUnavailable) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  deployment_.FailRegion("lf");
  deployment_.FailRegion("hl");
  client.RefreshView();
  auto result = client.GetProfileTopK("profiles", 1, 1, std::nullopt,
                                      TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_GT(client.errors(), 0);
  EXPECT_GT(client.ErrorRate(), 0.0);
}

TEST_F(DeploymentTest, WriteToleratesSingleRegionFailure) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  deployment_.FailRegion("hl");
  client.RefreshView();
  const TimestampMs now = clock_.NowMs();
  // Weak consistency contract: one region acknowledging suffices.
  EXPECT_TRUE(
      client.AddProfile("profiles", 5, now - kMinute, 1, 1, 1, CountVector{1})
          .ok());
}

TEST_F(DeploymentTest, QuotaRejectionSurfacesWithoutRetryStorm) {
  auto nodes = deployment_.NodesInRegion("lf");
  for (auto* node : nodes) {
    node->instance().quota().SetQuota("test", 0.001);
    // Exhaust the tiny budget.
    node->instance().quota().Check("test").ok();
  }
  IpsClientOptions options = LocalClientOptions("lf");
  options.failover_regions.clear();  // keep it within the throttled region
  IpsClient client(options, &deployment_);
  auto result = client.GetProfileTopK("profiles", 1, 1, std::nullopt,
                                      TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST_F(DeploymentTest, ColdSecondaryNodeServesStaleDataWithinLag) {
  // The weak-consistency scenario of Section III-G, end to end: a profile
  // is updated on the primary region and flushed to the master KV; a cold
  // node in the secondary region loads from its lagging slave, serving the
  // old value until replication catches up.
  const TimestampMs now = clock_.NowMs();
  auto lf_nodes = deployment_.NodesInRegion("lf");
  auto hl_nodes = deployment_.NodesInRegion("hl");

  // Write v1 to the owning primary node only (e.g. the hl copy of the
  // multi-region write was lost — the failure the paper tolerates), flush,
  // and replicate.
  ASSERT_TRUE(lf_nodes[0]
                  ->instance()
                  .AddProfile("w", "profiles", 501, now - 2 * kMinute, 1, 1,
                              7, CountVector{1})
                  .ok());
  lf_nodes[0]->instance().FlushAll();
  deployment_.kv().CatchUpAll();

  // Write v2 (more counts) to the same node, flush — but do NOT let
  // replication catch up.
  ASSERT_TRUE(lf_nodes[0]
                  ->instance()
                  .AddProfile("w", "profiles", 501, now - kMinute, 1, 1, 7,
                              CountVector{9})
                  .ok());
  lf_nodes[0]->instance().FlushAll();

  // A cold hl node loads from the slave: sees v1 (count 1, not 10).
  auto stale = hl_nodes[0]->instance().GetProfileTopK(
      "r", "profiles", 501, 1, std::nullopt, TimeRange::Current(kDay),
      SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale->features.size(), 1u);
  EXPECT_EQ(stale->features[0].counts[0], 1);  // the stale value

  // After replication catches up, convergence follows.
  deployment_.kv().CatchUpAll();
  // A different hl node (still cold) sees the fresh value immediately.
  auto fresh = hl_nodes[1]->instance().GetProfileTopK(
      "r", "profiles", 501, 1, std::nullopt, TimeRange::Current(kDay),
      SortBy::kActionCount, 0, 10);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->features.size(), 1u);
  EXPECT_EQ(fresh->features[0].counts[0], 10);  // 1 + 9 aggregated
}

TEST_F(DeploymentTest, StaleViewCrashedNodeIsMaskedByRetryAndBreaker) {
  // A node crashes *between* discovery refreshes: the client's ring still
  // routes to it. Every read must still succeed via the ring-successor
  // retry, and after a few failures the circuit breaker must take the dead
  // node out of candidate selection entirely (no RPC even attempted).
  IpsClientOptions options = LocalClientOptions("lf");
  options.refresh_interval_ms = 1'000'000'000;  // view stays stale
  IpsClient client(options, &deployment_);
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 20; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, now - kMinute, 1, 1, pid,
                                CountVector{1})
                    .ok());
  }
  for (auto* node : deployment_.NodesInRegion("lf")) {
    node->instance().FlushAll();
  }
  // Crash: down AND deregistered, but the client never refreshes its view.
  deployment_.FindNode("lf/ips-0")->SetDown(true);
  deployment_.discovery().Deregister("lf/ips-0");

  for (int round = 0; round < 5; ++round) {
    for (ProfileId pid = 1; pid <= 20; ++pid) {
      auto result = client.GetProfileTopK("profiles", pid, 1, std::nullopt,
                                          TimeRange::Current(kDay),
                                          SortBy::kActionCount, 0, 10);
      ASSERT_TRUE(result.ok()) << "pid " << pid << ": "
                               << result.status().ToString();
      EXPECT_EQ(result->features.size(), 1u) << "pid " << pid;
    }
  }
  // The dead node's breaker tripped...
  CircuitBreaker* breaker = client.breakers().Get("lf/ips-0");
  EXPECT_GE(breaker->consecutive_failures(),
            client.breakers().options().failure_threshold);
  EXPECT_NE(breaker->state(clock_.NowMs()), CircuitBreaker::State::kClosed);
  // ...so later reads skipped it before the RPC, after earlier reads were
  // saved by budget-granted successor retries.
  EXPECT_GT(
      deployment_.metrics()->GetCounter("client.breaker_skips")->Value(), 0);
  EXPECT_GT(deployment_.metrics()->GetCounter("client.retries")->Value(), 0);
  EXPECT_EQ(deployment_.metrics()->GetCounter("client.read_errors")->Value(),
            0);
}

TEST_F(DeploymentTest, ExpiredDeadlineFailsFastOnEveryApi) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  ASSERT_TRUE(
      client.AddProfile("profiles", 1, now - kMinute, 1, 1, 1, CountVector{1})
          .ok());
  // A context whose deadline already passed: no RPC is worth sending.
  const CallContext expired = CallContext::WithDeadline(clock_.NowMs());
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);

  auto read = client.Query("profiles", 1, spec, expired);
  EXPECT_TRUE(read.status().IsDeadlineExceeded());

  const std::vector<ProfileId> batch_pids = {1, 2, 3};
  auto batch = client.MultiQuery("profiles", batch_pids, spec, expired);
  ASSERT_TRUE(batch.ok());
  for (const auto& status : batch->statuses) {
    EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  }

  AddRecord record;
  record.timestamp = now - kMinute;
  record.slot = 1;
  record.type = 1;
  record.fid = 2;
  record.counts = CountVector{1};
  EXPECT_TRUE(client.AddProfilesAs("test", "profiles", 1, {record}, expired)
                  .IsDeadlineExceeded());
  EXPECT_GT(
      deployment_.metrics()->GetCounter("client.deadline_exceeded")->Value(),
      0);
}

TEST_F(DeploymentTest, ChannelEnforcesDeadlineAgainstSimulatedLatency) {
  // A request whose simulated wire time cannot fit in the remaining budget
  // fails with DeadlineExceeded at the channel — without spending the
  // latency first.
  DeploymentOptions options = TwoRegionOptions();
  options.channel.base_latency_us = 5000;  // 5 ms each way
  ManualClock clock(100 * kDay);
  Deployment deployment(options, &clock);
  ASSERT_TRUE(deployment.CreateTableEverywhere(ClusterSchema()).ok());
  IpsClientOptions client_options;
  client_options.caller = "test";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  // 2 ms of budget against 5 ms of one-way latency: hopeless, fail fast.
  const CallContext tight = CallContext::WithTimeout(clock, 2);
  const int64_t begin = MonotonicNanos();
  auto result = client.Query("profiles", 1, spec, tight);
  const int64_t elapsed_us = (MonotonicNanos() - begin) / 1000;
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // Fail-fast: nowhere near the 10ms+ a full round trip would have burned
  // across the retry attempts.
  EXPECT_LT(elapsed_us, 8000);
  // An unhurried request on the same deployment still works.
  const TimestampMs now = clock.NowMs();
  ASSERT_TRUE(
      client.AddProfile("profiles", 1, now - kMinute, 1, 1, 1, CountVector{1})
          .ok());
  EXPECT_TRUE(client.Query("profiles", 1, spec).ok());
}

TEST_F(DeploymentTest, KvOutageServesDegradedReadsFromReplica) {
  // Graceful degradation end to end: the master KV fails, and a cold read
  // on a primary-region node is served from the slave replica, flagged
  // degraded instead of failing.
  const TimestampMs now = clock_.NowMs();
  auto lf_nodes = deployment_.NodesInRegion("lf");
  ASSERT_TRUE(lf_nodes[0]
                  ->instance()
                  .AddProfile("w", "profiles", 601, now - kMinute, 1, 1, 7,
                              CountVector{3})
                  .ok());
  lf_nodes[0]->instance().FlushAll();
  deployment_.kv().CatchUpAll();
  deployment_.kv().master_store()->SetDown(true);

  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  auto degraded_read = lf_nodes[1]->instance().Query("r", "profiles", 601, spec);
  ASSERT_TRUE(degraded_read.ok()) << degraded_read.status().ToString();
  EXPECT_TRUE(degraded_read->degraded);
  ASSERT_EQ(degraded_read->features.size(), 1u);
  EXPECT_EQ(degraded_read->features[0].counts[0], 3);
  EXPECT_GT(
      deployment_.metrics()->GetCounter("server.degraded_reads")->Value(), 0);

  // Master recovers: the resident copy revalidates on the next flush and
  // fresh cold reads are clean again.
  deployment_.kv().master_store()->SetDown(false);
  auto clean_read = lf_nodes[0]->instance().Query("r", "profiles", 601, spec);
  ASSERT_TRUE(clean_read.ok());
  EXPECT_FALSE(clean_read->degraded);
}

MultiAddItem MakeWriteItem(ProfileId pid, TimestampMs timestamp,
                           FeatureId fid) {
  MultiAddItem item;
  item.pid = pid;
  AddRecord r;
  r.timestamp = timestamp;
  r.slot = 1;
  r.type = 1;
  r.fid = fid;
  r.counts = CountVector{1};
  item.records.push_back(r);
  return item;
}

TEST_F(DeploymentTest, ClientMultiAddWritesEveryRegionInInputOrder) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 8; ++pid) {
    items.push_back(MakeWriteItem(pid, now - kMinute, pid * 10));
  }
  auto batch = client.MultiAdd("profiles", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->statuses.size(), items.size());
  for (const auto& status : batch->statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(batch->ok_items, items.size());
  // Multi-region writing: each region got its own copy, so a local reader
  // in either region resolves every pid.
  for (const std::string region : {"lf", "hl"}) {
    IpsClient reader(LocalClientOptions(region), &deployment_);
    for (ProfileId pid = 1; pid <= 8; ++pid) {
      auto result = reader.GetProfileTopK("profiles", pid, 1, std::nullopt,
                                          TimeRange::Current(kDay),
                                          SortBy::kActionCount, 0, 10);
      ASSERT_TRUE(result.ok()) << region << " pid " << pid;
      ASSERT_EQ(result->features.size(), 1u) << region << " pid " << pid;
      EXPECT_EQ(result->features[0].fid, pid * 10);
    }
  }
  EXPECT_EQ(
      deployment_.metrics()->GetCounter("client.multi_write_errors")->Value(),
      0);
  EXPECT_EQ(deployment_.metrics()
                ->GetCounter("client.write_partial_regions")
                ->Value(),
            0);
}

TEST_F(DeploymentTest, ClientMultiAddSendsOneSubBatchPerOwningNode) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 32; ++pid) {
    items.push_back(MakeWriteItem(pid, now - kMinute, pid));
  }
  // Every MultiAdd RPC records one server.multi_add_batch sample; two nodes
  // per region and two regions bound the fan-out at four sub-batches for 32
  // items — not 64 point RPCs.
  Histogram* batches =
      deployment_.metrics()->GetHistogram("server.multi_add_batch");
  const int64_t rpcs_before = batches->count();
  auto batch = client.MultiAdd("profiles", items);
  ASSERT_TRUE(batch.ok());
  for (const auto& status : batch->statuses) ASSERT_TRUE(status.ok());
  const int64_t rpcs = batches->count() - rpcs_before;
  EXPECT_GE(rpcs, 2);  // at least one sub-batch per region
  EXPECT_LE(rpcs, 4);
}

TEST_F(DeploymentTest, ClientMultiAddSurvivesNodeFailure) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  deployment_.FindNode("lf/ips-0")->SetDown(true);
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 1; pid <= 20; ++pid) {
    items.push_back(MakeWriteItem(pid, now - kMinute, pid));
  }
  // The downed node's sub-batch regroups onto its lf ring successor (and hl
  // accepts its copies regardless); every item must be acknowledged.
  auto batch = client.MultiAdd("profiles", items);
  ASSERT_TRUE(batch.ok());
  for (const auto& status : batch->statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(batch->ok_items, items.size());
}

TEST_F(DeploymentTest, ClientMultiAddBadItemFailsAloneWithErrorCounter) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  std::vector<MultiAddItem> items;
  items.push_back(MakeWriteItem(1, now - kMinute, 11));
  items.push_back(MultiAddItem{2, {}});  // no records: rejected per item
  items.push_back(MakeWriteItem(3, now - kMinute, 33));
  auto batch = client.MultiAdd("profiles", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->statuses[0].ok());
  EXPECT_TRUE(batch->statuses[1].IsInvalidArgument())
      << batch->statuses[1].ToString();
  EXPECT_TRUE(batch->statuses[2].ok());
  EXPECT_EQ(batch->ok_items, 2u);
  EXPECT_EQ(
      deployment_.metrics()->GetCounter("client.multi_write_errors")->Value(),
      1);
}

TEST_F(DeploymentTest, ClientMultiAddExpiredDeadlineFailsFast) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const CallContext expired = CallContext::WithDeadline(clock_.NowMs());
  std::vector<MultiAddItem> items = {
      MakeWriteItem(1, clock_.NowMs() - kMinute, 1)};
  auto batch = client.MultiAdd("profiles", items, expired);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->statuses.size(), 1u);
  EXPECT_TRUE(batch->statuses[0].IsDeadlineExceeded())
      << batch->statuses[0].ToString();
  EXPECT_EQ(batch->ok_items, 0u);
}

TEST_F(DeploymentTest, PartialRegionWriteSurfacesAckAndCounter) {
  // The silent-partial-write fix: a write that lands in only one region
  // still returns OK (weak consistency) but must say so — via the WriteAck
  // out-param and the client.write_partial_regions counter — instead of
  // looking indistinguishable from a fully replicated write.
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  AddRecord record;
  record.timestamp = now - kMinute;
  record.slot = 1;
  record.type = 1;
  record.fid = 5;
  record.counts = CountVector{1};

  // Healthy deployment: the ack reports full coverage.
  WriteAck ack;
  ASSERT_TRUE(client
                  .AddProfilesAs("test", "profiles", 1, {record},
                                 CallContext{}, &ack)
                  .ok());
  EXPECT_EQ(ack.regions_ok, 2u);
  EXPECT_EQ(ack.regions_total, 2u);
  EXPECT_TRUE(ack.complete());
  EXPECT_EQ(deployment_.metrics()
                ->GetCounter("client.write_partial_regions")
                ->Value(),
            0);

  // hl down: the write is still acknowledged but the ack exposes the gap.
  deployment_.FailRegion("hl");
  client.RefreshView();
  ASSERT_TRUE(client
                  .AddProfilesAs("test", "profiles", 2, {record},
                                 CallContext{}, &ack)
                  .ok());
  EXPECT_EQ(ack.regions_ok, 1u);
  EXPECT_EQ(ack.regions_total, 2u);
  EXPECT_FALSE(ack.complete());
  EXPECT_EQ(deployment_.metrics()
                ->GetCounter("client.write_partial_regions")
                ->Value(),
            1);
  // The batched path reports the same signal.
  auto batch = client.MultiAdd(
      "profiles", {MakeWriteItem(3, now - kMinute, 5)});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->statuses[0].ok());
  EXPECT_EQ(deployment_.metrics()
                ->GetCounter("client.write_partial_regions")
                ->Value(),
            2);
}

TEST(WritePayloadTest, EstimateTracksEncodedRecords) {
  // The payload-accounting fix: request bytes must scale with the records
  // actually sent, not sit at a fixed per-request constant.
  std::vector<AddRecord> small(1);
  small[0].counts = CountVector{1};
  std::vector<AddRecord> large(64);
  for (auto& r : large) r.counts = CountVector{1, 2, 3, 4};
  const size_t small_bytes = EstimateAddPayloadBytes(small);
  const size_t large_bytes = EstimateAddPayloadBytes(large);
  EXPECT_GT(small_bytes, 0u);
  EXPECT_GT(large_bytes, 32 * small_bytes);
  // Wider count vectors cost more than narrow ones at equal record count.
  std::vector<AddRecord> narrow(8), wide(8);
  for (auto& r : narrow) r.counts = CountVector{1};
  for (auto& r : wide) r.counts = CountVector{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_GT(EstimateAddPayloadBytes(wide), EstimateAddPayloadBytes(narrow));
}

TEST_F(DeploymentTest, DuplicatePidsGetIdenticalResultsAfterGather) {
  // The gather moves each slot's result into its last occurrence and copies
  // it for the earlier ones; every occurrence must read the same.
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  const TimestampMs now = clock_.NowMs();
  for (ProfileId pid = 1; pid <= 12; ++pid) {
    for (FeatureId fid = 1; fid <= 3; ++fid) {
      ASSERT_TRUE(client
                      .AddProfile("profiles", pid, now - kMinute, 1, 1,
                                  pid * 100 + fid, CountVector{int64_t(fid)})
                      .ok());
    }
  }
  std::vector<ProfileId> pids;
  for (int round = 0; round < 3; ++round) {
    for (ProfileId pid = 1; pid <= 12; ++pid) pids.push_back(pid);
  }
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 10;
  auto batch = client.MultiQuery("profiles", pids, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), pids.size());
  EXPECT_EQ(batch->degraded, 0u);
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok());
    const QueryResult& result = batch->results[i];
    ASSERT_EQ(result.features.size(), 3u) << "occurrence " << i;
    // Sorted by count: fid 3 (count 3) first.
    for (size_t f = 0; f < 3; ++f) {
      EXPECT_EQ(result.features[f].fid, pids[i] * 100 + (3 - f));
      EXPECT_EQ(result.features[f].counts[0], int64_t(3 - f));
    }
    const QueryResult& first = batch->results[i % 12];
    EXPECT_EQ(result.slices_scanned, first.slices_scanned);
    EXPECT_EQ(result.features_merged, first.features_merged);
  }
}

TEST_F(DeploymentTest, DuplicatePidsCountEachDegradedOccurrence) {
  // A cold read during a master outage is served from the replica and
  // flagged degraded; MultiQueryResult::degraded counts every occurrence of
  // the pid, not the one lookup the duplicates share.
  const TimestampMs now = clock_.NowMs();
  const ProfileId pid = 601;
  ConsistentHashRing ring;
  ring.SetMembers({"lf/ips-0", "lf/ips-1"});
  // Write through the node that does NOT own the pid, so the owner serves
  // it cold.
  IpsNode* writer = deployment_.FindNode(
      ring.Lookup(pid) == "lf/ips-0" ? "lf/ips-1" : "lf/ips-0");
  ASSERT_TRUE(writer->instance()
                  .AddProfile("w", "profiles", pid, now - kMinute, 1, 1, 7,
                              CountVector{3})
                  .ok());
  writer->instance().FlushAll();
  deployment_.kv().CatchUpAll();
  deployment_.kv().master_store()->SetDown(true);

  IpsClient client(LocalClientOptions("lf"), &deployment_);
  Counter* degraded_reads =
      deployment_.metrics()->GetCounter("client.degraded_reads");
  const int64_t degraded_before = degraded_reads->Value();
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  const std::vector<ProfileId> pids = {pid, pid, pid};
  auto batch = client.MultiQuery("profiles", pids, spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->degraded, 3u);
  EXPECT_EQ(degraded_reads->Value() - degraded_before, 3);
  for (size_t i = 0; i < pids.size(); ++i) {
    ASSERT_TRUE(batch->statuses[i].ok());
    EXPECT_TRUE(batch->results[i].degraded);
    ASSERT_EQ(batch->results[i].features.size(), 1u);
    EXPECT_EQ(batch->results[i].features[0].fid, 7u);
    EXPECT_EQ(batch->results[i].features[0].counts[0], 3);
  }
  deployment_.kv().master_store()->SetDown(false);
}

TEST(ClientFanOutTest, SaturationStormThroughOneSharedClient) {
  // Four times as many caller threads as fan-out workers, over a channel
  // with real latency, so sub-calls queue behind each other and callers
  // reclaim the ones no worker has started. Every call must succeed with
  // exact results, and destroying the client right after the storm must
  // leave no wrapper touching freed state (run under ASan and TSan).
  ManualClock clock(100 * kDay);
  DeploymentOptions options;
  options.regions = {{"lf", 4, /*is_primary=*/true}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  options.instance.cache.write_granularity_ms = kMinute;
  // The storm is about the client; keep admission from shedding it.
  options.instance.overload.enabled = false;
  options.channel.base_latency_us = 50;
  Deployment deployment(options, &clock);
  ASSERT_TRUE(deployment.CreateTableEverywhere(ClusterSchema()).ok());
  const TimestampMs now = clock.NowMs();

  IpsClientOptions client_options;
  client_options.caller = "storm";
  client_options.local_region = "lf";
  auto client = std::make_unique<IpsClient>(client_options, &deployment);

  // Shared read set: pid p holds one feature fid = p with count p.
  constexpr ProfileId kShared = 48;
  std::vector<MultiAddItem> preload;
  for (ProfileId pid = 1; pid <= kShared; ++pid) {
    MultiAddItem item = MakeWriteItem(pid, now - kMinute, pid);
    item.records[0].counts = CountVector{int64_t(pid)};
    preload.push_back(item);
  }
  auto preloaded = client->MultiAdd("profiles", preload);
  ASSERT_TRUE(preloaded.ok());
  ASSERT_EQ(preloaded->ok_items, preload.size());

  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  const size_t num_threads = std::max<size_t>(8, 4 * workers);
  constexpr int kIterations = 40;
  constexpr ProfileId kPrivatePerThread = 8;
  auto private_pid = [](size_t t, ProfileId k) {
    return 10'000 + static_cast<ProfileId>(t) * 100 + k;
  };
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 10;

  std::vector<int64_t> acked_adds(num_threads, 0);
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(17 + t);
      for (int i = 0; i < kIterations; ++i) {
        if (i % 3 == 2) {
          std::vector<MultiAddItem> items;
          for (ProfileId k = 0; k < kPrivatePerThread; ++k) {
            items.push_back(MakeWriteItem(private_pid(t, k), now - kMinute, 9));
          }
          auto added = client->MultiAdd("profiles", items);
          if (!added.ok() || added->ok_items != items.size()) {
            failures.fetch_add(1);
            continue;
          }
          ++acked_adds[t];
          continue;
        }
        // 24 draws from the shared set: duplicates are likely.
        std::vector<ProfileId> pids;
        for (int d = 0; d < 24; ++d) pids.push_back(1 + rng.Next() % kShared);
        auto batch = client->MultiQuery("profiles", pids, spec);
        if (!batch.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < pids.size(); ++j) {
          const QueryResult& result = batch->results[j];
          if (!batch->statuses[j].ok() || result.features.size() != 1 ||
              result.features[0].fid != pids[j] ||
              result.features[0].counts[0] != int64_t(pids[j])) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  client.reset();
  EXPECT_EQ(failures.load(), 0);

  // Every acknowledged write landed exactly once per item.
  IpsClient reader(client_options, &deployment);
  for (size_t t = 0; t < num_threads; ++t) {
    std::vector<ProfileId> pids;
    for (ProfileId k = 0; k < kPrivatePerThread; ++k) {
      pids.push_back(private_pid(t, k));
    }
    auto batch = reader.MultiQuery("profiles", pids, spec);
    ASSERT_TRUE(batch.ok());
    for (size_t j = 0; j < pids.size(); ++j) {
      ASSERT_TRUE(batch->statuses[j].ok());
      if (acked_adds[t] == 0) {
        EXPECT_TRUE(batch->results[j].features.empty());
        continue;
      }
      ASSERT_EQ(batch->results[j].features.size(), 1u) << pids[j];
      EXPECT_EQ(batch->results[j].features[0].counts[0], acked_adds[t])
          << pids[j];
    }
  }
  EXPECT_EQ(
      deployment.metrics()->GetCounter("client.multi_read_errors")->Value(), 0);
  EXPECT_EQ(
      deployment.metrics()->GetCounter("client.multi_write_errors")->Value(),
      0);
}

TEST_F(DeploymentTest, StaleViewStopsRoutingToDeregisteredNode) {
  IpsClient client(LocalClientOptions("lf"), &deployment_);
  deployment_.FailRegion("lf");
  // Without refresh the client still holds the stale view: calls fail over.
  const TimestampMs now = clock_.NowMs();
  EXPECT_TRUE(
      client.AddProfile("profiles", 3, now - kMinute, 1, 1, 1, CountVector{1})
          .ok());
  client.RefreshView();
  // After refresh, lf has no members; reads go straight to hl.
  auto result = client.GetProfileTopK("profiles", 3, 1, std::nullopt,
                                      TimeRange::Current(kDay),
                                      SortBy::kActionCount, 0, 10);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace ips
