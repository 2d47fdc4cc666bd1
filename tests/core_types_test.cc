#include "core/types.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ips {
namespace {

TEST(CountVectorTest, DefaultIsEmpty) {
  CountVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Total(), 0);
}

TEST(CountVectorTest, InitializerList) {
  CountVector v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
  EXPECT_EQ(v.Total(), 6);
}

TEST(CountVectorTest, AtReturnsZeroOutOfRange) {
  CountVector v{5};
  EXPECT_EQ(v.At(0), 5);
  EXPECT_EQ(v.At(1), 0);
  EXPECT_EQ(v.At(100), 0);
}

TEST(CountVectorTest, ResizeGrowsWithZeros) {
  CountVector v{1};
  v.Resize(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 0);
  EXPECT_EQ(v[2], 0);
}

TEST(CountVectorTest, InlineToHeapTransition) {
  CountVector v;
  v.Resize(CountVector::kInlineCapacity);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i + 1);
  // Cross the inline boundary.
  v.Resize(CountVector::kInlineCapacity + 3);
  EXPECT_EQ(v.size(), CountVector::kInlineCapacity + 3);
  for (size_t i = 0; i < CountVector::kInlineCapacity; ++i) {
    EXPECT_EQ(v[i], static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(v[CountVector::kInlineCapacity], 0);
}

TEST(CountVectorTest, HeapToInlineShrink) {
  CountVector v(10);
  for (size_t i = 0; i < 10; ++i) v[i] = static_cast<int64_t>(i);
  v.Resize(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 1);
}

TEST(CountVectorTest, CopySemantics) {
  CountVector a{1, 2, 3, 4, 5, 6};  // heap-backed
  CountVector b = a;
  b[0] = 99;
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 99);
  EXPECT_EQ(b.size(), 6u);
}

TEST(CountVectorTest, MoveSemantics) {
  CountVector a{1, 2, 3, 4, 5, 6};
  CountVector b = std::move(a);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b[5], 6);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented reset

  CountVector c{7, 8};  // inline
  CountVector d = std::move(c);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d[1], 8);
}

TEST(CountVectorTest, AccumulateSum) {
  CountVector a{1, 2};
  CountVector b{10, 20, 30};
  a.AccumulateSum(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], 11);
  EXPECT_EQ(a[1], 22);
  EXPECT_EQ(a[2], 30);
}

TEST(CountVectorTest, AccumulateMax) {
  CountVector a{5, 1};
  CountVector b{3, 9};
  a.AccumulateMax(b);
  EXPECT_EQ(a[0], 5);
  EXPECT_EQ(a[1], 9);
}

TEST(CountVectorTest, AccumulateSumIntoEmpty) {
  CountVector a;
  CountVector b{4, 5};
  a.AccumulateSum(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 4);
}

TEST(CountVectorTest, Equality) {
  EXPECT_EQ(CountVector({1, 2}), CountVector({1, 2}));
  EXPECT_FALSE(CountVector({1, 2}) == CountVector({1, 3}));
  EXPECT_FALSE(CountVector({1, 2}) == CountVector({1, 2, 0}));
  EXPECT_EQ(CountVector(), CountVector());
}

TEST(CountVectorTest, NegativeCountsSupported) {
  // MAX-reduced tables can hold e.g. bid prices; deltas may be negative.
  CountVector a{-5, 10};
  CountVector b{-7, -1};
  a.AccumulateSum(b);
  EXPECT_EQ(a[0], -12);
  EXPECT_EQ(a[1], 9);
}

TEST(CountVectorTest, HeapBytesOnlyPastInlineCapacity) {
  EXPECT_EQ(CountVector({1, 2}).HeapBytes(), 0u);
  EXPECT_GT(CountVector(32).HeapBytes(), 32 * sizeof(int64_t));
}

class CountVectorSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CountVectorSizeTest, RoundTripThroughResizeAndCopy) {
  const size_t n = GetParam();
  CountVector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i * i);
  CountVector copy = v;
  ASSERT_EQ(copy.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(copy[i], static_cast<int64_t>(i * i));
  }
  EXPECT_EQ(copy, v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CountVectorSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 8, 16, 64));

// The layout cache byte accounting is built on: a size, then four inline
// counts sharing their storage with the heap block's pointer and capacity,
// nothing else. A heap block is charged as malloc rounds it.
TEST(CountVectorTest, LayoutIsSizeAndInlineArrayOrHeapBlock) {
  EXPECT_EQ(sizeof(CountVector), sizeof(size_t) + 4 * sizeof(int64_t));
  EXPECT_EQ(CountVector({1, 2}).HeapBytes(), 0u);
  EXPECT_EQ(CountVector(5).HeapBytes(), 48u);  // 40 bytes + header, by 16
  EXPECT_EQ(CountVector(64).HeapBytes(), 528u);
}

// The inline <-> heap switch of SmallVector, run for both instantiations:
// CountVector (int64) and WeightVector (double).
template <typename V>
class SmallVectorTest : public ::testing::Test {
 protected:
  using T = typename V::value_type;
  static constexpr size_t kCap = V::kInlineCapacity;

  /// [1, 2, ..., n].
  static V Iota(size_t n) {
    V v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<T>(i + 1);
    return v;
  }
  static void ExpectIota(const V& v, size_t n) {
    ASSERT_EQ(v.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(v[i], static_cast<T>(i + 1)) << "at " << i;
    }
  }
  /// Whether the elements live inside the object (no heap block).
  static bool IsInline(const V& v) {
    const auto p = reinterpret_cast<uintptr_t>(v.data());
    const auto self = reinterpret_cast<uintptr_t>(&v);
    return p >= self && p < self + sizeof(V);
  }
};

using SmallVectorTypes = ::testing::Types<CountVector, WeightVector>;
TYPED_TEST_SUITE(SmallVectorTest, SmallVectorTypes);

TYPED_TEST(SmallVectorTest, SwitchesToHeapAtFiveAndBackAtFour) {
  constexpr size_t kCap = TestFixture::kCap;
  static_assert(kCap == 4);
  TypeParam v = TestFixture::Iota(kCap);
  EXPECT_TRUE(TestFixture::IsInline(v));
  EXPECT_EQ(v.HeapBytes(), 0u);

  v.Resize(kCap + 1);  // inline -> heap, values kept, new element zero
  EXPECT_FALSE(TestFixture::IsInline(v));
  EXPECT_GT(v.HeapBytes(), 0u);
  EXPECT_EQ(v[kCap], 0);
  v[kCap] = static_cast<typename TestFixture::T>(kCap + 1);
  TestFixture::ExpectIota(v, kCap + 1);

  v.Resize(kCap);  // heap -> inline, values kept, heap block released
  EXPECT_TRUE(TestFixture::IsInline(v));
  EXPECT_EQ(v.HeapBytes(), 0u);
  TestFixture::ExpectIota(v, kCap);

  v.Resize(kCap + 1);  // the dropped fifth element comes back zero
  EXPECT_EQ(v[kCap], 0);
  EXPECT_EQ(v.At(kCap + 1), 0);  // out of range

  v.Resize(1);  // shrinking within the inline slots, then regrowing
  v.Resize(kCap);
  EXPECT_TRUE(TestFixture::IsInline(v));
  EXPECT_EQ(v[0], 1);
  for (size_t i = 1; i < kCap; ++i) EXPECT_EQ(v[i], 0) << "at " << i;
}

TYPED_TEST(SmallVectorTest, CopyAndMoveFromInlineAndHeap) {
  constexpr size_t kCap = TestFixture::kCap;
  for (const size_t n : {kCap - 1, kCap, kCap + 1, kCap + 3}) {
    SCOPED_TRACE(n);
    // The other state than `n`'s, for cross-state assignment.
    const size_t other_n = n <= kCap ? kCap + 2 : 2;
    const TypeParam source = TestFixture::Iota(n);

    TypeParam copy(source);
    TestFixture::ExpectIota(copy, n);
    copy[0] = 99;  // a deep copy
    EXPECT_EQ(source[0], 1);

    TypeParam assigned = TestFixture::Iota(other_n);
    assigned = source;
    EXPECT_EQ(assigned, source);
    EXPECT_EQ(TestFixture::IsInline(assigned), n <= kCap);

    TypeParam moved_from = source;
    TypeParam moved(std::move(moved_from));
    EXPECT_EQ(moved, source);
    // NOLINTNEXTLINE(bugprone-use-after-move): a moved-from value is empty
    EXPECT_TRUE(moved_from.empty());
    moved_from.Resize(other_n);  // and usable in either state
    EXPECT_EQ(moved_from, TypeParam(other_n));
    moved_from = source;
    EXPECT_EQ(moved_from, source);

    TypeParam move_assigned = TestFixture::Iota(other_n);
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, source);
    // NOLINTNEXTLINE(bugprone-use-after-move)
    EXPECT_TRUE(moved.empty());
    moved = TestFixture::Iota(other_n);
    TestFixture::ExpectIota(moved, other_n);
  }
}

TYPED_TEST(SmallVectorTest, HeapShrinkKeepsBlockAndRegrowsZeroed) {
  constexpr size_t kCap = TestFixture::kCap;
  TypeParam v = TestFixture::Iota(kCap + 4);
  const auto* block = v.data();
  const size_t heap_bytes = v.HeapBytes();
  v.Resize(kCap + 1);  // still on the heap: the block is kept
  EXPECT_EQ(v.data(), block);
  EXPECT_EQ(v.HeapBytes(), heap_bytes);
  v.Resize(kCap + 3);  // regrowing within the block zeroes the new tail
  EXPECT_EQ(v.data(), block);
  TestFixture::ExpectIota(
      [&] {
        TypeParam prefix = v;
        prefix.Resize(kCap + 1);
        return prefix;
      }(),
      kCap + 1);
  EXPECT_EQ(v[kCap + 1], 0);
  EXPECT_EQ(v[kCap + 2], 0);
  const TypeParam fits = TestFixture::Iota(kCap + 2);
  v = fits;  // a copy that fits reuses the block
  EXPECT_EQ(v.data(), block);
  TestFixture::ExpectIota(v, kCap + 2);
  const TypeParam wider = TestFixture::Iota(kCap + 9);
  v = wider;  // one that does not reallocates exactly
  TestFixture::ExpectIota(v, kCap + 9);
  EXPECT_EQ(v.HeapBytes(), HeapBlockBytes((kCap + 9) * sizeof(v[0])));
}

TYPED_TEST(SmallVectorTest, Equality) {
  constexpr size_t kCap = TestFixture::kCap;
  EXPECT_EQ(TypeParam(), TypeParam());
  EXPECT_EQ(TestFixture::Iota(kCap), TestFixture::Iota(kCap));
  EXPECT_EQ(TestFixture::Iota(kCap + 2), TestFixture::Iota(kCap + 2));
  // Same prefix, different width: a trailing zero still differs.
  TypeParam wider = TestFixture::Iota(kCap);
  wider.Resize(kCap + 1);
  EXPECT_FALSE(wider == TestFixture::Iota(kCap));
  // One element off, inline and on the heap.
  TypeParam inline_off = TestFixture::Iota(kCap);
  inline_off[kCap - 1] = 0;
  EXPECT_FALSE(inline_off == TestFixture::Iota(kCap));
  TypeParam heap_off = TestFixture::Iota(kCap + 2);
  heap_off[kCap + 1] = 0;
  EXPECT_FALSE(heap_off == TestFixture::Iota(kCap + 2));
  // A vector shrunk back from the heap equals one that never left inline.
  TypeParam shrunk = TestFixture::Iota(kCap + 2);
  shrunk.Resize(kCap);
  EXPECT_EQ(shrunk, TestFixture::Iota(kCap));
}

}  // namespace
}  // namespace ips
