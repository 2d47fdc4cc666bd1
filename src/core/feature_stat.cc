#include "core/feature_stat.h"

namespace ips {

bool RowsSorted(RowSpan rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (!RowLess(rows[i - 1], rows[i])) return false;
  }
  return true;
}

}  // namespace ips
