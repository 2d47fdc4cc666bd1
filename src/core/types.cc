#include "core/types.h"

#include <algorithm>

namespace ips {

void CountVector::AccumulateSum(const CountVector& other) {
  if (other.size() > size()) Resize(other.size());
  const int64_t* src = other.data();
  int64_t* dst = data();
  for (size_t i = 0; i < other.size(); ++i) dst[i] += src[i];
}

void CountVector::AccumulateMax(const CountVector& other) {
  if (other.size() > size()) Resize(other.size());
  const int64_t* src = other.data();
  int64_t* dst = data();
  for (size_t i = 0; i < other.size(); ++i) dst[i] = std::max(dst[i], src[i]);
}

int64_t CountVector::Total() const {
  const int64_t* p = data();
  int64_t sum = 0;
  for (size_t i = 0; i < size(); ++i) sum += p[i];
  return sum;
}

}  // namespace ips
