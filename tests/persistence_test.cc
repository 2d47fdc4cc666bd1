#include "server/persistence.h"

#include <gtest/gtest.h>

#include "codec/profile_codec.h"
#include "common/clock.h"
#include "common/random.h"
#include "kvstore/mem_kv_store.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;

ProfileData MakeProfile(int slices, int features_per_slice) {
  ProfileData profile(kMinute);
  const TimestampMs base = 100 * kMillisPerDay;
  for (int s = 0; s < slices; ++s) {
    for (int f = 0; f < features_per_slice; ++f) {
      EXPECT_TRUE(profile
                      .Add(base + s * kMinute, 1, 1,
                           static_cast<FeatureId>(f + 1),
                           CountVector{1, 2})
                      .ok());
    }
  }
  return profile;
}

int64_t ReadCount(const ProfileData& profile, TimestampMs ts, FeatureId fid) {
  for (const auto& slice : profile.slices()) {
    if (slice.Contains(ts)) {
      const FeatureRow* stat = slice.Find(1, 1, fid);
      return stat == nullptr ? -1 : stat->counts[0];
    }
  }
  return -1;
}

class PersisterModeTest : public ::testing::TestWithParam<PersistenceMode> {};

TEST_P(PersisterModeTest, FlushLoadRoundTrips) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = GetParam();
  Persister persister("t", &kv, options);
  ProfileData profile = MakeProfile(10, 8);
  ASSERT_TRUE(persister.Flush(42, profile).ok());
  auto loaded = persister.Load(42);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->SliceCount(), profile.SliceCount());
  EXPECT_EQ(loaded->TotalFeatures(), profile.TotalFeatures());
  EXPECT_EQ(loaded->LastActionMs(), profile.LastActionMs());
  EXPECT_EQ(ReadCount(*loaded, 100 * kMillisPerDay, 3), 1);
}

TEST_P(PersisterModeTest, LoadMissingIsNotFound) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = GetParam();
  Persister persister("t", &kv, options);
  EXPECT_TRUE(persister.Load(999).status().IsNotFound());
}

TEST_P(PersisterModeTest, EraseRemovesEverything) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = GetParam();
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(5, 5)).ok());
  ASSERT_GT(kv.KeyCount(), 0u);
  ASSERT_TRUE(persister.Erase(1).ok());
  EXPECT_EQ(kv.KeyCount(), 0u);
  EXPECT_TRUE(persister.Load(1).status().IsNotFound());
}

TEST_P(PersisterModeTest, LoadBatchAlignsAndRoundTrips) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = GetParam();
  options.split_threshold_bytes = 0;  // split mode splits even small profiles
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(10, 8)).ok());
  ASSERT_TRUE(persister.Flush(2, MakeProfile(3, 2)).ok());

  auto results = persister.LoadBatch({2, 777, 1});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->SliceCount(), 3u);
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(results[2]->SliceCount(), 10u);
  EXPECT_EQ(results[2]->TotalFeatures(), MakeProfile(10, 8).TotalFeatures());
}

TEST(PersisterTest, BulkLoadBatchIsOneMultiGet) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kBulk;
  Persister persister("t", &kv, options);
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    ASSERT_TRUE(persister.Flush(pid, MakeProfile(4, 4)).ok());
    pids.push_back(pid);
  }
  const int64_t multi_gets_before = kv.MultiGetCalls();
  const int64_t point_reads_before = kv.PointReadCalls();
  auto results = persister.LoadBatch(pids);
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  EXPECT_EQ(kv.MultiGetCalls() - multi_gets_before, 1);
  EXPECT_EQ(kv.PointReadCalls() - point_reads_before, 0);
}

TEST(PersisterTest, SplitLoadBatchCoalescesSliceValues) {
  // Slice-split metas stay on the versioned XGet protocol (per-pid point
  // reads), but every slice VALUE across every profile rides one MultiGet.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 0;
  Persister persister("t", &kv, options);
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 8; ++pid) {
    ASSERT_TRUE(persister.Flush(pid, MakeProfile(6, 4)).ok());
    pids.push_back(pid);
  }
  const int64_t multi_gets_before = kv.MultiGetCalls();
  auto results = persister.LoadBatch(pids);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->SliceCount(), 6u);
  }
  EXPECT_EQ(kv.MultiGetCalls() - multi_gets_before, 1);
}

INSTANTIATE_TEST_SUITE_P(Modes, PersisterModeTest,
                         ::testing::Values(PersistenceMode::kBulk,
                                           PersistenceMode::kSliceSplit));

TEST(PersisterTest, BulkModeUsesOneKey) {
  MemKvStore kv;
  Persister persister("t", &kv, {});
  ASSERT_TRUE(persister.Flush(1, MakeProfile(20, 5)).ok());
  EXPECT_EQ(kv.KeyCount(), 1u);
}

TEST(PersisterTest, SplitModeUsesMetaPlusSliceKeys) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(20, 5)).ok());
  EXPECT_EQ(kv.KeyCount(), 21u);  // 20 slices + meta
  std::string value;
  EXPECT_TRUE(kv.Get(persister.MetaKey(1), &value).ok());
}

TEST(PersisterTest, SplitThresholdKeepsSmallProfilesBulk) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 1 << 20;  // everything is "small"
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(5, 5)).ok());
  EXPECT_EQ(kv.KeyCount(), 1u);  // bulk key only
  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 5u);
}

TEST(PersisterTest, GrowingProfileMigratesBulkToSplit) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 600;
  Persister persister("t", &kv, options);
  // Small profile: bulk.
  ASSERT_TRUE(persister.Flush(1, MakeProfile(2, 2)).ok());
  EXPECT_EQ(kv.KeyCount(), 1u);
  // Grown profile: split; the stale bulk key must be retired.
  ASSERT_TRUE(persister.Flush(1, MakeProfile(30, 10)).ok());
  std::string value;
  EXPECT_TRUE(kv.Get(persister.BulkKey(1), &value).IsNotFound());
  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 30u);
}

TEST(PersisterTest, ShrinkingProfileMigratesSplitToBulk) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 600;
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(30, 10)).ok());
  ASSERT_GT(kv.KeyCount(), 1u);
  // After heavy compaction the profile is small again.
  ASSERT_TRUE(persister.Flush(1, MakeProfile(1, 2)).ok());
  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 1u);
  std::string value;
  EXPECT_TRUE(kv.Get(persister.MetaKey(1), &value).IsNotFound());
}

TEST(PersisterTest, SplitGarbageCollectsDroppedSlices) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(20, 3)).ok());
  const size_t keys_before = kv.KeyCount();
  // Compaction shrank the slice list to 4.
  ASSERT_TRUE(persister.Flush(1, MakeProfile(4, 3)).ok());
  EXPECT_LT(kv.KeyCount(), keys_before);
  EXPECT_EQ(kv.KeyCount(), 5u);  // 4 slices + meta
}

TEST(PersisterTest, ConcurrentWritersResolveViaVersionProtocol) {
  // Two Persister instances (two IPS nodes) write the same profile; the
  // version-checked meta update forces the stale writer through the reload
  // path and both eventually succeed (Fig 14).
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  Persister node_a("t", &kv, options);
  Persister node_b("t", &kv, options);

  ASSERT_TRUE(node_a.Flush(1, MakeProfile(3, 3)).ok());
  // b never loaded; its held version is 0 — stale. The retry logic must
  // recover without caller intervention.
  ASSERT_TRUE(node_b.Flush(1, MakeProfile(5, 3)).ok());
  auto loaded = node_a.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 5u);
  // a's held version is now stale in turn; flushing must still work.
  ASSERT_TRUE(node_a.Flush(1, MakeProfile(2, 3)).ok());
  auto final_load = node_b.Load(1);
  ASSERT_TRUE(final_load.ok());
  EXPECT_EQ(final_load->SliceCount(), 2u);
}

TEST(PersisterTest, SplitSkipsUnchangedSlices) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  Persister persister("t", &kv, options);
  ProfileData profile = MakeProfile(60, 40);
  ASSERT_TRUE(persister.Flush(1, profile).ok());
  const int64_t after_initial = kv.TotalBytesWritten();

  // Touch only the newest slice; the re-flush must rewrite just that slice
  // plus the meta record — the point of the fine-grained mode.
  ASSERT_TRUE(
      profile.Add(profile.NewestMs() - 1, 1, 1, 9999, CountVector{1}).ok());
  ASSERT_TRUE(persister.Flush(1, profile).ok());
  const int64_t steady_delta = kv.TotalBytesWritten() - after_initial;
  // Reference: a persister without checksum memory rewrites everything.
  Persister amnesiac("t", &kv, options);
  const int64_t before_full = kv.TotalBytesWritten();
  ASSERT_TRUE(amnesiac.Flush(1, profile).ok());
  const int64_t full_delta = kv.TotalBytesWritten() - before_full;
  EXPECT_LT(steady_delta, full_delta / 2);

  // An identical flush writes only the meta (no slice changed).
  const int64_t before_noop = kv.TotalBytesWritten();
  ASSERT_TRUE(persister.Flush(1, profile).ok());
  const int64_t noop_delta = kv.TotalBytesWritten() - before_noop;
  EXPECT_LT(noop_delta, steady_delta);

  // Everything still loads back correctly after skipped writes.
  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalFeatures(), profile.TotalFeatures());
}

TEST(PersisterTest, SplitSkipStateSurvivesReload) {
  // A fresh Persister (process restart) has no checksum memory: it must
  // rebuild it from a Load and still converge to skipping.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  {
    Persister persister("t", &kv, options);
    ASSERT_TRUE(persister.Flush(1, MakeProfile(10, 5)).ok());
  }
  Persister restarted("t", &kv, options);
  auto loaded = restarted.Load(1);
  ASSERT_TRUE(loaded.ok());
  const int64_t before = kv.TotalBytesWritten();
  ASSERT_TRUE(restarted.Flush(1, *loaded).ok());
  // All slices unchanged since the load: only the meta is rewritten.
  const int64_t delta = kv.TotalBytesWritten() - before;
  EXPECT_LT(delta, 200);
}

TEST(PersisterTest, KeysAreNamespacedByTable) {
  MemKvStore kv;
  Persister a("table_a", &kv, {});
  Persister b("table_b", &kv, {});
  ASSERT_TRUE(a.Flush(1, MakeProfile(1, 1)).ok());
  EXPECT_TRUE(b.Load(1).status().IsNotFound());
  EXPECT_NE(a.BulkKey(1), b.BulkKey(1));
}

TEST(PersisterTest, FallbackServesDegradedReadWhenPrimaryDown) {
  MemKvStore primary;
  MemKvStore replica;
  // Populate both stores (standing in for the replication the KV cluster
  // does internally), then take the primary down.
  PersisterOptions options;
  options.fallback_kv = &replica;
  Persister persister("t", &primary, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(4, 3)).ok());
  {
    Persister replica_writer("t", &replica, {});
    ASSERT_TRUE(replica_writer.Flush(1, MakeProfile(4, 3)).ok());
  }
  primary.SetDown(true);
  bool degraded = false;
  auto loaded = persister.Load(1, &degraded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(degraded);
  EXPECT_EQ(loaded->SliceCount(), 4u);
  // Primary recovers: reads are healthy again and flushing still works.
  primary.SetDown(false);
  degraded = true;
  ASSERT_TRUE(persister.Load(1, &degraded).ok());
  EXPECT_FALSE(degraded);
  EXPECT_TRUE(persister.Flush(1, MakeProfile(5, 3)).ok());
}

TEST(PersisterTest, FallbackNotFoundSurfacesPrimaryError) {
  // A lagging replica may legitimately miss a profile that exists on the
  // primary: NotFound from the fallback is inconclusive, so the caller gets
  // the primary's Unavailable, never a false "no such profile".
  MemKvStore primary;
  MemKvStore replica;  // empty — the profile never replicated
  PersisterOptions options;
  options.fallback_kv = &replica;
  Persister persister("t", &primary, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(2, 2)).ok());
  primary.SetDown(true);
  bool degraded = false;
  auto loaded = persister.Load(1, &degraded);
  EXPECT_TRUE(loaded.status().IsUnavailable());
  EXPECT_FALSE(degraded);
}

TEST(PersisterTest, LoadBatchFallsBackPerProfile) {
  MemKvStore primary;
  MemKvStore replica;
  PersisterOptions options;
  options.fallback_kv = &replica;
  Persister persister("t", &primary, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(3, 2)).ok());
  ASSERT_TRUE(persister.Flush(2, MakeProfile(6, 2)).ok());
  {
    // Only pid 1 made it to the replica before the outage.
    Persister replica_writer("t", &replica, {});
    ASSERT_TRUE(replica_writer.Flush(1, MakeProfile(3, 2)).ok());
  }
  primary.SetDown(true);
  std::vector<bool> degraded;
  auto results = persister.LoadBatch({1, 2, 404}, &degraded);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(degraded.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->SliceCount(), 3u);
  EXPECT_TRUE(degraded[0]);
  // pid 2 never replicated: the primary's outage surfaces, not NotFound.
  EXPECT_TRUE(results[1].status().IsUnavailable());
  EXPECT_FALSE(degraded[1]);
  // pid 404 exists nowhere; with the primary down that is indistinguishable
  // from an unreplicated profile, so it also reports the outage.
  EXPECT_FALSE(results[2].ok());
}

TEST(PersisterTest, StoreBatchRoundTripsMixedModes) {
  // One batch holding both small (bulk) and large (split) profiles: every
  // pid must round-trip regardless of which representation it lands in.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 600;
  Persister persister("t", &kv, options);
  ProfileData small = MakeProfile(2, 2);
  ProfileData large = MakeProfile(30, 10);
  auto statuses = persister.StoreBatch({1, 2}, {&small, &large});
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  auto loaded_small = persister.Load(1);
  ASSERT_TRUE(loaded_small.ok());
  EXPECT_EQ(loaded_small->SliceCount(), 2u);
  auto loaded_large = persister.Load(2);
  ASSERT_TRUE(loaded_large.ok());
  EXPECT_EQ(loaded_large->SliceCount(), 30u);
}

TEST(PersisterTest, BulkStoreBatchIsOneMultiSet) {
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kBulk;
  Persister persister("t", &kv, options);
  std::vector<ProfileData> profiles;
  std::vector<ProfileId> pids;
  std::vector<const ProfileData*> ptrs;
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    profiles.push_back(MakeProfile(4, 4));
    pids.push_back(pid);
  }
  for (const auto& profile : profiles) ptrs.push_back(&profile);
  const int64_t multi_sets_before = kv.MultiSetCalls();
  const int64_t point_writes_before = kv.PointWriteCalls();
  auto statuses = persister.StoreBatch(pids, ptrs);
  for (const auto& status : statuses) ASSERT_TRUE(status.ok());
  EXPECT_EQ(kv.MultiSetCalls() - multi_sets_before, 1);
  EXPECT_EQ(kv.PointWriteCalls() - point_writes_before, 0);
}

TEST(PersisterTest, StoreBatchResolvesGenerationConflict) {
  // Fig 14 under batching: node_b's held meta version is stale when its
  // batch commits; the version-checked XSet must bounce, refresh, and retry
  // without surfacing an error.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 0;
  Persister node_a("t", &kv, options);
  Persister node_b("t", &kv, options);
  ASSERT_TRUE(node_b.Flush(1, MakeProfile(3, 3)).ok());
  // node_a bumps the meta behind node_b's back.
  ASSERT_TRUE(node_a.Flush(1, MakeProfile(4, 3)).ok());
  ProfileData update = MakeProfile(5, 3);
  auto statuses = node_b.StoreBatch({1}, {&update});
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  auto loaded = node_a.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 5u);
}

TEST(PersisterTest, StoreBatchPartialFailureKeepsOldMetaReadable) {
  // When the slice MultiSet partially fails, the meta must NOT move: the
  // previous generation stays fully readable and the next flush rewrites
  // the landed slices (their checksums were never remembered).
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 0;
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(3, 3)).ok());

  kv.SetFailureProbability(1.0);
  ProfileData update = MakeProfile(6, 3);
  auto statuses = persister.StoreBatch({1}, {&update});
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsUnavailable());
  kv.SetFailureProbability(0.0);

  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->SliceCount(), 3u);  // old generation, not the torn one

  // Recovery: the same batch succeeds once the store heals.
  statuses = persister.StoreBatch({1}, {&update});
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SliceCount(), 6u);
}

TEST(PersisterTest, FlushIsBatchOfOne) {
  // Flush delegates to StoreBatch: a single-profile flush must ride the
  // batched write path (one MultiSet), not per-key point writes.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kBulk;
  Persister persister("t", &kv, options);
  const int64_t multi_sets_before = kv.MultiSetCalls();
  ASSERT_TRUE(persister.Flush(1, MakeProfile(2, 2)).ok());
  EXPECT_EQ(kv.MultiSetCalls() - multi_sets_before, 1);
}

TEST(PersisterTest, LoadIsBatchOfOne) {
  // Load delegates to LoadBatch: a single-profile load must ride the
  // batched read path (one MultiGet), not a point read.
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kBulk;
  Persister persister("t", &kv, options);
  ASSERT_TRUE(persister.Flush(1, MakeProfile(2, 2)).ok());
  const int64_t multi_gets_before = kv.MultiGetCalls();
  const int64_t point_reads_before = kv.PointReadCalls();
  auto loaded = persister.Load(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->SliceCount(), 2u);
  EXPECT_EQ(kv.MultiGetCalls() - multi_gets_before, 1);
  EXPECT_EQ(kv.PointReadCalls() - point_reads_before, 0);
}


// ----------------------------------------------- fetch / decode split ---

std::string Encoded(const ProfileData& profile) {
  std::string raw;
  EncodeProfileRaw(profile, &raw);
  return raw;
}

// FetchBatch then DecodeBatch, checked against what was flushed: the
// profiles the flushed bytes encode, NotFound for a never-written pid, and
// nothing decoded by the fetch alone.
void ExpectFetchDecodeRoundTrip(PersisterOptions options,
                                const std::vector<ProfileData>& profiles) {
  MemKvStore kv;
  Persister persister("t", &kv, options);
  std::vector<ProfileId> pids;
  for (size_t i = 0; i < profiles.size(); ++i) {
    pids.push_back(i + 1);
    ASSERT_TRUE(persister.Flush(pids.back(), profiles[i]).ok());
  }
  pids.push_back(404);
  std::vector<FetchedProfile> fetched = persister.FetchBatch(pids);
  ASSERT_EQ(fetched.size(), pids.size());
  std::vector<bool> degraded;
  auto decoded = persister.DecodeBatch(fetched, &degraded);
  auto loaded = persister.LoadBatch(pids);
  ASSERT_EQ(decoded.size(), pids.size());
  ASSERT_EQ(degraded, std::vector<bool>(pids.size(), false));
  for (size_t i = 0; i < profiles.size(); ++i) {
    ASSERT_TRUE(fetched[i].status.ok()) << i;
    ASSERT_TRUE(decoded[i].ok()) << decoded[i].status().ToString();
    EXPECT_EQ(Encoded(*decoded[i]), Encoded(profiles[i])) << i;
    ASSERT_TRUE(loaded[i].ok());
    EXPECT_EQ(Encoded(*loaded[i]), Encoded(profiles[i])) << i;
  }
  EXPECT_TRUE(fetched.back().status.IsNotFound());
  EXPECT_TRUE(decoded.back().status().IsNotFound());
  EXPECT_TRUE(loaded.back().status().IsNotFound());
}

TEST(PersisterFetchDecodeTest, BulkRoundTrips) {
  ExpectFetchDecodeRoundTrip({}, {MakeProfile(3, 4), MakeProfile(1, 1)});
}

TEST(PersisterFetchDecodeTest, SplitRoundTrips) {
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  ExpectFetchDecodeRoundTrip(options, {MakeProfile(5, 3), MakeProfile(2, 7)});
}

TEST(PersisterFetchDecodeTest, SplitThresholdRoundTripsBothForms) {
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.split_threshold_bytes = 256;
  // The small profile stays bulk, the large one splits.
  ExpectFetchDecodeRoundTrip(options, {MakeProfile(1, 1), MakeProfile(20, 6)});
}

TEST(PersisterFetchDecodeTest, FetchAloneKeepsTheSplitBookkeeping) {
  // A fresh persister fetches without decoding. The fetch must remember the
  // meta version (its next meta commit lands without the Aborted refresh,
  // i.e. without an XGet) and the slice checksums (its next flush of the
  // same profile rewrites only the meta).
  MemKvStore kv;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  const ProfileData profile = MakeProfile(10, 5);
  {
    Persister writer("t", &kv, options);
    ASSERT_TRUE(writer.Flush(1, profile).ok());
  }
  Persister restarted("t", &kv, options);
  std::vector<FetchedProfile> fetched = restarted.FetchBatch({1});
  ASSERT_TRUE(fetched[0].status.ok());
  EXPECT_TRUE(fetched[0].split);
  EXPECT_EQ(fetched[0].slices.size(), profile.SliceCount());
  const int64_t bytes_before = kv.TotalBytesWritten();
  const int64_t reads_before = kv.PointReadCalls();
  ASSERT_TRUE(restarted.Flush(1, profile).ok());
  EXPECT_LT(kv.TotalBytesWritten() - bytes_before, 200);
  // One point read: the bulk-key probe after the commit. A forgotten
  // version would add the XGet of the refresh.
  EXPECT_EQ(kv.PointReadCalls() - reads_before, 1);

  // The control: with no fetch, the same flush rewrites every slice and
  // refreshes the version.
  Persister amnesiac("t", &kv, options);
  const int64_t amnesiac_bytes = kv.TotalBytesWritten();
  const int64_t amnesiac_reads = kv.PointReadCalls();
  ASSERT_TRUE(amnesiac.Flush(1, profile).ok());
  EXPECT_GT(kv.TotalBytesWritten() - amnesiac_bytes, 200);
  EXPECT_EQ(kv.PointReadCalls() - amnesiac_reads, 2);
}

TEST(PersisterFetchDecodeTest, UnavailableAndDegradedFallback) {
  MemKvStore primary;
  MemKvStore replica;
  PersisterOptions options;
  options.mode = PersistenceMode::kSliceSplit;
  options.fallback_kv = &replica;
  Persister persister("t", &primary, options);
  const ProfileData one = MakeProfile(3, 2);
  ASSERT_TRUE(persister.Flush(1, one).ok());
  ASSERT_TRUE(persister.Flush(2, MakeProfile(6, 2)).ok());
  ASSERT_TRUE(persister.Flush(3, MakeProfile(2, 2)).ok());
  {
    // Pid 1 replicated intact, pid 3 replicated with a corrupt slice; pid 2
    // never replicated.
    Persister replica_writer("t", &replica, options);
    ASSERT_TRUE(replica_writer.Flush(1, one).ok());
    ASSERT_TRUE(replica_writer.Flush(3, MakeProfile(2, 2)).ok());
    SliceMeta meta;
    std::string value;
    ASSERT_TRUE(replica.Get(persister.MetaKey(3), &value).ok());
    ASSERT_TRUE(DecodeSliceMeta(value, &meta).ok());
    const std::string key =
        persister.SliceKey(3, meta.entries.front().slice_key);
    ASSERT_TRUE(replica.Get(key, &value).ok());
    value[value.size() / 2] ^= 0x40;
    ASSERT_TRUE(replica.Set(key, value).ok());
  }
  primary.SetDown(true);
  std::vector<FetchedProfile> fetched = persister.FetchBatch({1, 2, 3});
  ASSERT_EQ(fetched.size(), 3u);
  EXPECT_TRUE(fetched[0].degraded);
  EXPECT_TRUE(fetched[0].primary_status.IsUnavailable());
  EXPECT_TRUE(fetched[1].status.IsUnavailable());
  EXPECT_FALSE(fetched[1].degraded);
  EXPECT_TRUE(fetched[2].degraded);

  std::vector<bool> degraded;
  auto decoded = persister.DecodeBatch(fetched, &degraded);
  ASSERT_TRUE(decoded[0].ok()) << decoded[0].status().ToString();
  EXPECT_EQ(Encoded(*decoded[0]), Encoded(one));
  EXPECT_TRUE(degraded[0]);
  EXPECT_TRUE(decoded[1].status().IsUnavailable());
  EXPECT_FALSE(degraded[1]);
  // The replica's bytes for pid 3 do not decode: a bad replica proves
  // nothing, so the primary's outage surfaces, unflagged.
  EXPECT_TRUE(decoded[2].status().IsUnavailable())
      << decoded[2].status().ToString();
  EXPECT_FALSE(degraded[2]);

  // LoadBatch is the same two steps.
  std::vector<bool> load_degraded;
  auto loaded = persister.LoadBatch({1, 2, 3}, &load_degraded);
  EXPECT_EQ(load_degraded, degraded);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded[i].ok(), decoded[i].ok()) << i;
    if (!loaded[i].ok()) {
      EXPECT_EQ(loaded[i].status().code(), decoded[i].status().code()) << i;
    }
  }

  // The replica-served pid forgot its flush state: once the primary is
  // back, its next flush refreshes the version (an extra XGet) and rewrites
  // every slice.
  primary.SetDown(false);
  const int64_t reads_before = primary.PointReadCalls();
  ASSERT_TRUE(persister.Flush(1, one).ok());
  EXPECT_EQ(primary.PointReadCalls() - reads_before, 2);
}

TEST(PersisterFetchDecodeTest, CorruptBulkValueFailsOnlyItsPid) {
  MemKvStore kv;
  Persister persister("t", &kv, {});
  ASSERT_TRUE(persister.Flush(1, MakeProfile(2, 2)).ok());
  ASSERT_TRUE(persister.Flush(2, MakeProfile(2, 2)).ok());
  std::string value;
  ASSERT_TRUE(kv.Get(persister.BulkKey(2), &value).ok());
  value.resize(value.size() - 1);
  ASSERT_TRUE(kv.Set(persister.BulkKey(2), value).ok());
  auto results = persister.DecodeBatch(persister.FetchBatch({1, 2}));
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsCorruption());
}

TEST(PersisterTest, LoadBatchCorruptValueFailsOnlyItsOwnPid) {
  // One corrupt stored value in a batch: its pid fails with Corruption, the
  // pids around it in the same MultiGet load intact, and a later load of the
  // corrupt pid alone fails the same way.
  MemKvStore kv;
  Persister persister("t", &kv, {});
  for (int pid = 1; pid <= 3; ++pid) {
    ASSERT_TRUE(persister.Flush(pid, MakeProfile(pid, pid)).ok());
  }
  std::string value;
  ASSERT_TRUE(kv.Get(persister.BulkKey(2), &value).ok());
  value[value.size() / 2] ^= 0x10;
  ASSERT_TRUE(kv.Set(persister.BulkKey(2), value).ok());

  std::vector<bool> degraded;
  auto results = persister.LoadBatch({1, 2, 3}, &degraded);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[0]->TotalFeatures(), MakeProfile(1, 1).TotalFeatures());
  EXPECT_TRUE(results[1].status().IsCorruption())
      << results[1].status().ToString();
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(results[2]->TotalFeatures(), MakeProfile(3, 3).TotalFeatures());
  EXPECT_EQ(degraded, (std::vector<bool>{false, false, false}));
  EXPECT_TRUE(persister.LoadBatch({2})[0].status().IsCorruption());
}

TEST(PersisterTest, SurvivesKvFailuresWithErrorNotCorruption) {
  MemKvOptions kv_options;
  kv_options.failure_probability = 1.0;
  MemKvStore kv(kv_options);
  Persister persister("t", &kv, {});
  Status status = persister.Flush(1, MakeProfile(2, 2));
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_TRUE(persister.Load(1).status().IsUnavailable());
}

}  // namespace
}  // namespace ips
