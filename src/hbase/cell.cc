#include "hbase/cell.h"

namespace synergy::hbase {

size_t RowResult::PayloadBytes() const {
  size_t total = row_key.size();
  for (const auto& [qual, value] : columns) total += qual.size() + value.size();
  return total;
}

}  // namespace synergy::hbase
