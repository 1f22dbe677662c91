// Client-visible rows of the column-family store.
//
// Mirrors HBase's data model: a row is a set of (column qualifier -> cell)
// entries, each cell holding timestamped versions, newest first. Deletes
// write tombstone versions that major compaction removes. A region stores
// each row packed into one string (see region.cc); reads resolve the
// versions and return the row as a RowResult.
#pragma once

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace synergy::hbase {

/// Qualifier -> value container for client-visible rows: a flat vector of
/// pairs with a map-like interface, kept in insertion order. Rows carry a
/// handful of columns, so contiguous storage + linear find beats std::map's
/// per-node allocations on the scan hot path (one RowResult per scanned
/// row). No caller depends on qualifier-sorted iteration; store-produced
/// rows arrive sorted anyway because a packed row keeps its columns in
/// qualifier order.
class ColumnMap {
 public:
  using value_type = std::pair<std::string, std::string>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  ColumnMap() = default;
  ColumnMap(std::initializer_list<value_type> init) {
    for (const value_type& e : init) emplace(e.first, e.second);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void reserve(size_t n) { entries_.reserve(n); }

  const_iterator find(std::string_view qualifier) const {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == qualifier) return it;
    }
    return entries_.end();
  }
  bool contains(std::string_view qualifier) const {
    return find(qualifier) != end();
  }
  const std::string& at(std::string_view qualifier) const {
    const_iterator it = find(qualifier);
    if (it == end()) {
      throw std::out_of_range("no column " + std::string(qualifier));
    }
    return it->second;
  }

  /// Map semantics: an existing qualifier is left unchanged.
  void emplace(std::string qualifier, std::string value) {
    if (contains(qualifier)) return;
    entries_.emplace_back(std::move(qualifier), std::move(value));
  }

  /// Unchecked append for callers that guarantee qualifier uniqueness
  /// (e.g. iteration over a packed row) — skips the duplicate scan on the
  /// per-scanned-row hot path.
  void Append(std::string qualifier, std::string value) {
    entries_.emplace_back(std::move(qualifier), std::move(value));
  }

 private:
  std::vector<value_type> entries_;
};

/// Client-visible snapshot of one row (already version-resolved).
struct RowResult {
  std::string row_key;
  ColumnMap columns;
  bool empty() const { return columns.empty(); }
  size_t PayloadBytes() const;
};

}  // namespace synergy::hbase
