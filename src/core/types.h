// Fundamental identifier and count types of the IPS data model (Section II).
//
// Terminology mapping to the paper:
//   ProfileId  — 64-bit unsigned key of a profile inside a Profile Table.
//   SlotId     — coarse feature category ("Sports").
//   TypeId     — fine category within a slot ("Basketball"); the `type`
//                parameter of the read/write APIs. The paper's in-memory
//                description keys the Instance Set by an "action_type ID
//                defined by upstream applications"; we follow the API-level
//                meaning (category type) and keep per-action counts inside
//                the feature stat's count vector, which is the only reading
//                consistent with the motivating example (like/comment/share
//                counts attached to one feature).
//   FeatureId  — unique id of a feature ("Golden State Warriors"), hashed in
//                production; opaque 64-bit here.
//   ActionIndex — position in the count vector (0=click, 1=like, ... as the
//                table schema defines).
#ifndef IPS_CORE_TYPES_H_
#define IPS_CORE_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "common/clock.h"

namespace ips {

using ProfileId = uint64_t;
using SlotId = uint32_t;
using TypeId = uint32_t;
using FeatureId = uint64_t;
using ActionIndex = uint32_t;

/// Bytes a heap request of `n` bytes really occupies: glibc malloc adds an
/// 8-byte header and rounds each chunk up to 16 bytes, 32 at least. Memory
/// accounting charges this, not the requested size, so a budget of many
/// small blocks is not under-charged.
constexpr size_t HeapBlockBytes(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

/// Small-buffer vector of arithmetic values: up to kInlineCapacity elements
/// live inline, longer ones in one heap block. The inline array and the heap
/// pointer/capacity share a union (the size tells which is live), so the
/// object is a size plus four values: 40 bytes for 8-byte values. The one
/// implementation of the inline <-> heap switch, behind both CountVector and
/// the decay weights of query results (WeightVector): per-feature vectors of
/// <= 4 actions, the common case, then cost no heap allocation.
template <typename T>
class SmallVector {
 public:
  using value_type = T;
  static constexpr size_t kInlineCapacity = 4;

  SmallVector() : inline_{} {}
  explicit SmallVector(size_t n) : inline_{} { Resize(n); }
  SmallVector(std::initializer_list<T> init) : inline_{} {
    Assign(init.begin(), init.size());
  }
  ~SmallVector() { Release(); }

  SmallVector(const SmallVector& other) : inline_{} { CopyFrom(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SmallVector(SmallVector&& other) noexcept : inline_{} {
    MoveFrom(std::move(other));
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data()[i]; }
  T operator[](size_t i) const { return data()[i]; }

  /// Value at `i`, or 0 when out of range (queries may name an action the
  /// writer never recorded).
  T At(size_t i) const { return i < size_ ? data()[i] : T{0}; }

  T* data() { return OnHeap() ? heap_.ptr : inline_; }
  const T* data() const { return OnHeap() ? heap_.ptr : inline_; }

  /// Grows or shrinks; new elements are zero. Shrinking to the inline
  /// capacity releases the heap block; growing past it allocates one of
  /// exactly `n` elements.
  void Resize(size_t n) {
    if (n == size_) return;
    if (n <= kInlineCapacity) {
      if (OnHeap()) {
        T* old = heap_.ptr;
        std::copy_n(old, n, inline_);
        ::operator delete(old);
      } else if (n > size_) {
        std::fill(inline_ + size_, inline_ + n, T{0});
      }
    } else if (!OnHeap() || n > heap_.capacity) {
      T* grown = static_cast<T*>(::operator new(n * sizeof(T)));
      const size_t kept = std::min(size_, n);
      std::copy_n(data(), kept, grown);
      std::fill(grown + kept, grown + n, T{0});
      Release();
      heap_ = {grown, n};
    } else if (n > size_) {
      std::fill(heap_.ptr + size_, heap_.ptr + n, T{0});
    }
    size_ = n;
  }

  bool operator==(const SmallVector& other) const {
    return size_ == other.size_ &&
           std::equal(data(), data() + size_, other.data());
  }

  /// Bytes of the heap block (as malloc rounds it), 0 when inline.
  size_t HeapBytes() const {
    return OnHeap() ? HeapBlockBytes(heap_.capacity * sizeof(T)) : 0;
  }

 private:
  struct HeapBlock {
    T* ptr;
    size_t capacity;
  };

  bool OnHeap() const { return size_ > kInlineCapacity; }

  void Release() {
    if (OnHeap()) ::operator delete(heap_.ptr);
  }

  /// Sets the values to [src, src + n).
  void Assign(const T* src, size_t n) {
    Resize(n);
    if (OnHeap()) {
      std::copy_n(src, n, heap_.ptr);
    } else {
      // n <= kInlineCapacity here; the explicit bound lets the compiler
      // see the copy stays inside the inline array.
      std::copy_n(src, std::min(n, kInlineCapacity), inline_);
    }
  }

  void CopyFrom(const SmallVector& other) { Assign(other.data(), other.size_); }

  void MoveFrom(SmallVector&& other) {
    Release();
    if (other.OnHeap()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.inline_, std::min(other.size_, kInlineCapacity),
                  inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  size_t size_ = 0;
  union {
    T inline_[kInlineCapacity];
    HeapBlock heap_;
  };
};

/// Reduce functions applied when merging the same feature across slices
/// (compaction, Listing 2) or across the write table and the main table.
enum class ReduceFn : int {
  kSum = 0,
  kMax = 1,
};

/// Vector of per-action counts attached to one feature, e.g.
/// [clicks, likes, shares, comments]. Small-buffer-optimized: profiles hold
/// millions of these, and production count vectors have <= 4 actions in the
/// common case, so the inline representation avoids a heap allocation per
/// feature.
class CountVector : public SmallVector<int64_t> {
 public:
  using SmallVector<int64_t>::SmallVector;

  /// Folds `other` in element-wise under `reduce`, growing to other's
  /// width. Inline: the query kernel and slice merges fold once per merged
  /// row.
  void Reduce(const CountVector& other, ReduceFn reduce) {
    const size_t n = other.size();
    if (n > size()) Resize(n);
    const int64_t* src = other.data();
    int64_t* dst = data();
    if (reduce == ReduceFn::kMax) {
      for (size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
    } else {
      for (size_t i = 0; i < n; ++i) dst[i] += src[i];
    }
  }
  /// The SUM and MAX reduce paths.
  void AccumulateSum(const CountVector& other) {
    Reduce(other, ReduceFn::kSum);
  }
  void AccumulateMax(const CountVector& other) {
    Reduce(other, ReduceFn::kMax);
  }

  /// Sum of all elements (used by size-agnostic importance scoring).
  int64_t Total() const;
};

/// Decay-weighted counts of one query result feature, one per action.
using WeightVector = SmallVector<double>;

static_assert(sizeof(CountVector) <= 40 && sizeof(WeightVector) <= 40,
              "a count vector is a size plus four inline values");

/// Sort orders for top-K queries (Section II-B get_profile_topK sort_type):
/// by one action's count, by timestamp (slice recency), or by feature id.
enum class SortBy : int {
  kActionCount = 0,
  kTimestamp = 1,
  kFeatureId = 2,
};

}  // namespace ips

#endif  // IPS_CORE_TYPES_H_
