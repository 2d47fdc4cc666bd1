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
#include <string>
#include <vector>

#include "common/clock.h"

namespace ips {

using ProfileId = uint64_t;
using SlotId = uint32_t;
using TypeId = uint32_t;
using FeatureId = uint64_t;
using ActionIndex = uint32_t;

/// Small-buffer vector of arithmetic values: up to kInlineCapacity elements
/// live inline, longer ones in a heap vector. The one implementation of the
/// inline <-> heap switch, behind both CountVector and the decay weights of
/// query results (WeightVector): per-feature vectors of <= 4 actions, the
/// common case, then cost no heap allocation.
template <typename T>
class SmallVector {
 public:
  using value_type = T;
  static constexpr size_t kInlineCapacity = 4;

  SmallVector() = default;
  explicit SmallVector(size_t n) { Resize(n); }
  SmallVector(std::initializer_list<T> init) {
    Resize(init.size());
    std::copy(init.begin(), init.end(), data());
  }

  SmallVector(const SmallVector& other) { CopyFrom(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  SmallVector(SmallVector&& other) noexcept { MoveFrom(std::move(other)); }
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

  T* data() { return size_ <= kInlineCapacity ? inline_ : heap_.data(); }
  const T* data() const {
    return size_ <= kInlineCapacity ? inline_ : heap_.data();
  }

  /// Grows or shrinks; new elements are zero.
  void Resize(size_t n) {
    if (n == size_) return;
    if (n <= kInlineCapacity) {
      if (size_ > kInlineCapacity) {
        // Shrink heap -> inline.
        std::copy_n(heap_.data(), n, inline_);
        heap_.clear();
        heap_.shrink_to_fit();
      } else if (n > size_) {
        std::fill(inline_ + size_, inline_ + n, T{0});
      }
    } else if (size_ <= kInlineCapacity) {
      std::vector<T> grown(n, T{0});
      std::copy_n(inline_, size_, grown.data());
      heap_ = std::move(grown);
    } else {
      heap_.resize(n, T{0});
    }
    size_ = n;
  }

  bool operator==(const SmallVector& other) const {
    return size_ == other.size_ &&
           std::equal(data(), data() + size_, other.data());
  }

  /// Approximate heap + inline footprint for cache memory accounting.
  size_t ApproximateBytes() const {
    return sizeof(SmallVector) +
           (size_ > kInlineCapacity ? heap_.capacity() * sizeof(T) : 0);
  }

 private:
  void CopyFrom(const SmallVector& other) {
    Resize(other.size_);
    std::copy_n(other.data(), other.size_, data());
  }

  void MoveFrom(SmallVector&& other) {
    if (other.size_ <= kInlineCapacity) {
      Resize(other.size_);
      std::copy_n(other.inline_, other.size_, inline_);
    } else {
      heap_ = std::move(other.heap_);
      size_ = other.size_;
    }
    other.size_ = 0;
  }

  size_t size_ = 0;
  T inline_[kInlineCapacity] = {};
  std::vector<T> heap_;
};

/// Vector of per-action counts attached to one feature, e.g.
/// [clicks, likes, shares, comments]. Small-buffer-optimized: profiles hold
/// millions of these, and production count vectors have <= 4 actions in the
/// common case, so the inline representation avoids a heap allocation per
/// feature.
class CountVector : public SmallVector<int64_t> {
 public:
  using SmallVector<int64_t>::SmallVector;

  /// Element-wise accumulate, growing to other's width; the SUM reduce path.
  void AccumulateSum(const CountVector& other);
  /// Element-wise max, growing to other's width; the MAX reduce path.
  void AccumulateMax(const CountVector& other);

  /// Sum of all elements (used by size-agnostic importance scoring).
  int64_t Total() const;
};

/// Decay-weighted counts of one query result feature, one per action.
using WeightVector = SmallVector<double>;

/// Sort orders for top-K queries (Section II-B get_profile_topK sort_type):
/// by one action's count, by timestamp (slice recency), or by feature id.
enum class SortBy : int {
  kActionCount = 0,
  kTimestamp = 1,
  kFeatureId = 2,
};

/// Reduce functions applied when merging the same feature across slices
/// (compaction, Listing 2) or across the write table and the main table.
enum class ReduceFn : int {
  kSum = 0,
  kMax = 1,
};

}  // namespace ips

#endif  // IPS_CORE_TYPES_H_
