#include "core/types.h"

#include <algorithm>

namespace ips {

int64_t CountVector::Total() const {
  const int64_t* p = data();
  int64_t sum = 0;
  for (size_t i = 0; i < size(); ++i) sum += p[i];
  return sum;
}

}  // namespace ips
