#include "core/feature_stat.h"

namespace ips {

bool RowsSorted(RowSpan rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (!RowLess(rows[i - 1], rows[i])) return false;
  }
  return true;
}

void ReduceInto(CountVector& into, const CountVector& from, ReduceFn reduce) {
  switch (reduce) {
    case ReduceFn::kSum:
      into.AccumulateSum(from);
      break;
    case ReduceFn::kMax:
      into.AccumulateMax(from);
      break;
  }
}

}  // namespace ips
