#include "hbase/cell.h"

namespace synergy::hbase {

std::vector<ColumnValue> ColumnViews(
    const std::vector<std::pair<std::string, std::string>>& columns) {
  std::vector<ColumnValue> views;
  views.reserve(columns.size());
  for (const auto& [qualifier, value] : columns) {
    views.push_back({qualifier, value});
  }
  return views;
}

size_t RowResult::PayloadBytes() const {
  size_t total = row_key.size();
  for (const auto& [qual, value] : columns) total += qual.size() + value.size();
  return total;
}

}  // namespace synergy::hbase
