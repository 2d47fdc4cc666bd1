// Feature rows of one slice: the sorted upsert (Slice::Add), the linear
// merge (Slice::MergeFrom) and the range lookups over the sorted rows.
#include "core/feature_stat.h"

#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/slice.h"

namespace ips {
namespace {

std::vector<FeatureId> Fids(RowSpan rows) {
  std::vector<FeatureId> out;
  for (const FeatureRow& row : rows) out.push_back(row.fid);
  return out;
}

TEST(FeatureRowTest, AddInsertsSorted) {
  Slice slice;
  slice.Add(1, 1, 30, CountVector{1});
  slice.Add(1, 1, 10, CountVector{2});
  slice.Add(1, 1, 20, CountVector{3});
  slice.Add(0, 9, 99, CountVector{4});
  slice.Add(1, 0, 50, CountVector{5});
  ASSERT_EQ(slice.TotalFeatures(), 5u);
  EXPECT_TRUE(RowsSorted(slice.rows()));
  EXPECT_EQ(Fids(slice.rows()), (std::vector<FeatureId>{99, 50, 10, 20, 30}));
}

TEST(FeatureRowTest, AddAggregatesSameKeyWithSum) {
  Slice slice;
  slice.Add(1, 1, 5, CountVector{1, 2});
  slice.Add(1, 1, 5, CountVector{10, 20}, ReduceFn::kSum);
  ASSERT_EQ(slice.TotalFeatures(), 1u);
  EXPECT_EQ(slice.rows()[0].counts, CountVector({11, 22}));
}

TEST(FeatureRowTest, AddAggregatesSameKeyWithMax) {
  Slice slice;
  slice.Add(1, 1, 5, CountVector{7, 1});
  slice.Add(1, 1, 5, CountVector{3, 9}, ReduceFn::kMax);
  ASSERT_EQ(slice.TotalFeatures(), 1u);
  EXPECT_EQ(slice.rows()[0].counts, CountVector({7, 9}));
}

TEST(FeatureRowTest, SameFidUnderDistinctTypesIsTwoRows) {
  Slice slice;
  slice.Add(1, 1, 5, CountVector{1});
  slice.Add(1, 2, 5, CountVector{2});
  EXPECT_EQ(slice.TotalFeatures(), 2u);
  EXPECT_EQ(slice.Find(1, 1, 5)->counts[0], 1);
  EXPECT_EQ(slice.Find(1, 2, 5)->counts[0], 2);
}

TEST(FeatureRowTest, FindHitsAndMisses) {
  Slice slice;
  slice.Add(1, 1, 42, CountVector{1});
  EXPECT_NE(slice.Find(1, 1, 42), nullptr);
  EXPECT_EQ(slice.Find(1, 1, 41), nullptr);
  EXPECT_EQ(slice.Find(1, 1, 43), nullptr);
  EXPECT_EQ(slice.Find(1, 2, 42), nullptr);
  EXPECT_EQ(slice.Find(2, 1, 42), nullptr);
  EXPECT_EQ(slice.Find(1, 1, 42)->counts[0], 1);
}

TEST(FeatureRowTest, SlotAndGroupRowsAreContiguousRanges) {
  Slice slice;
  for (SlotId slot : {3, 1, 2}) {
    for (TypeId type : {2, 0}) {
      for (FeatureId fid : {9, 4}) slice.Add(slot, type, fid, CountVector{1});
    }
  }
  EXPECT_EQ(slice.SlotRows(2).size(), 4u);
  EXPECT_EQ(slice.SlotRows(2).front().slot, 2u);
  EXPECT_TRUE(slice.SlotRows(7).empty());
  EXPECT_EQ(Fids(slice.GroupRows(2, 2)), (std::vector<FeatureId>{4, 9}));
  EXPECT_TRUE(slice.GroupRows(2, 1).empty());

  std::vector<std::pair<SlotId, TypeId>> groups;
  ForEachRun(slice.SlotRows(3), GroupKey, [&](RowSpan group) {
    groups.emplace_back(group.front().slot, group.front().type);
    EXPECT_EQ(group.size(), 2u);
  });
  EXPECT_EQ(groups, (std::vector<std::pair<SlotId, TypeId>>{{3, 0}, {3, 2}}));
  size_t slots = 0;
  ForEachRun(slice.rows(), SlotKey, [&](RowSpan) { ++slots; });
  EXPECT_EQ(slots, 3u);
}

TEST(FeatureRowTest, MergeFromDisjoint) {
  Slice a, b;
  a.Add(1, 1, 1, CountVector{1});
  a.Add(1, 1, 3, CountVector{3});
  b.Add(1, 1, 2, CountVector{2});
  b.Add(1, 1, 4, CountVector{4});
  a.MergeFrom(b, ReduceFn::kSum);
  ASSERT_EQ(a.TotalFeatures(), 4u);
  EXPECT_TRUE(RowsSorted(a.rows()));
  EXPECT_EQ(a.rows()[1].fid, 2u);
}

TEST(FeatureRowTest, MergeFromOverlappingSums) {
  Slice a, b;
  a.Add(1, 1, 1, CountVector{1, 0});
  a.Add(1, 1, 2, CountVector{2, 0});
  b.Add(1, 1, 2, CountVector{0, 5});
  b.Add(1, 1, 3, CountVector{3, 0});
  a.MergeFrom(b, ReduceFn::kSum);
  ASSERT_EQ(a.TotalFeatures(), 3u);
  EXPECT_EQ(a.Find(1, 1, 2)->counts, CountVector({2, 5}));
}

TEST(FeatureRowTest, MergeIntoEmptyAndFromEmpty) {
  Slice a(10, 20), b(0, 10);
  b.Add(1, 1, 7, CountVector{7});
  a.MergeFrom(b, ReduceFn::kSum);
  EXPECT_EQ(a.TotalFeatures(), 1u);
  EXPECT_EQ(a.start_ms(), 0);
  EXPECT_EQ(a.end_ms(), 20);
  a.MergeFrom(Slice(20, 30), ReduceFn::kSum);  // rows unchanged
  EXPECT_EQ(a.TotalFeatures(), 1u);
  EXPECT_EQ(a.end_ms(), 30);
}

TEST(FeatureRowTest, WideCountsSurviveMerge) {
  Slice a, b;
  a.Add(1, 1, 1, CountVector{1, 2, 3, 4, 5, 6});
  b.Add(1, 1, 1, CountVector{1, 1, 1, 1, 1, 1, 1});
  b.Add(1, 1, 2, CountVector{9, 9, 9, 9, 9});
  a.MergeFrom(b, ReduceFn::kSum);
  EXPECT_EQ(a.Find(1, 1, 1)->counts, CountVector({2, 3, 4, 5, 6, 7, 1}));
  EXPECT_EQ(a.Find(1, 1, 2)->counts, CountVector({9, 9, 9, 9, 9}));
  EXPECT_EQ(b.Find(1, 1, 2)->counts, CountVector({9, 9, 9, 9, 9}));
}

// Property: a random interleaving of adds across two slices, then a merge,
// equals a reference accumulation in a std::map keyed like the rows.
class FeatureStatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeatureStatPropertyTest, MergeMatchesReferenceModel) {
  Rng rng(GetParam());
  Slice a, b;
  std::map<std::tuple<SlotId, TypeId, FeatureId>, int64_t> reference;
  for (int i = 0; i < 500; ++i) {
    const SlotId slot = static_cast<SlotId>(rng.Uniform(3));
    const TypeId type = static_cast<TypeId>(rng.Uniform(3));
    const FeatureId fid = rng.Uniform(50);
    const int64_t count = static_cast<int64_t>(rng.Uniform(10)) + 1;
    (rng.Bernoulli(0.5) ? a : b).Add(slot, type, fid, CountVector{count});
    reference[{slot, type, fid}] += count;
  }
  a.MergeFrom(b, ReduceFn::kSum);
  EXPECT_TRUE(RowsSorted(a.rows()));
  ASSERT_EQ(a.TotalFeatures(), reference.size());
  for (const auto& [key, total] : reference) {
    const auto& [slot, type, fid] = key;
    const FeatureRow* row = a.Find(slot, type, fid);
    ASSERT_NE(row, nullptr) << fid;
    EXPECT_EQ(row->counts[0], total) << fid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureStatPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 29, 71));

// Heap bytes follow the row block's capacity and wide count vectors.
TEST(FeatureRowTest, HeapBytesAccountsRowsAndWideCounts) {
  Slice small, large;
  small.Add(1, 1, 1, CountVector{1});
  for (FeatureId fid = 0; fid < 100; ++fid) {
    large.Add(1, 1, fid, CountVector{1, 2, 3, 4});
  }
  EXPECT_EQ(small.HeapBytes(), HeapBlockBytes(sizeof(FeatureRow)));
  EXPECT_EQ(large.HeapBytes(),
            HeapBlockBytes(large.mutable_rows().capacity() *
                           sizeof(FeatureRow)));
  const size_t before = small.HeapBytes();
  EXPECT_EQ(small.Add(1, 1, 1, CountVector{1, 1, 1, 1, 1}),
            static_cast<int64_t>(HeapBlockBytes(5 * sizeof(int64_t))));
  EXPECT_EQ(small.HeapBytes(), before + HeapBlockBytes(5 * sizeof(int64_t)));
}

}  // namespace
}  // namespace ips
