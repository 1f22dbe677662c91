// Client-visible rows of the column-family store.
//
// Mirrors HBase's data model: a row is a set of (column qualifier -> cell)
// entries, each cell holding timestamped versions, newest first. Deletes
// write tombstone versions that major compaction removes. A region stores
// each row packed into one string (see region.cc); reads resolve the
// versions and return the row as a RowResult.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace synergy::hbase {

/// One column of a Put, as views of the caller's bytes: the region copies
/// each value once, into the row it keeps.
struct ColumnValue {
  std::string_view qualifier;
  std::string_view value;
};

/// Views of owned columns, for the Put forms that take them.
std::vector<ColumnValue> ColumnViews(
    const std::vector<std::pair<std::string, std::string>>& columns);

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
  ColumnMap(const ColumnMap&) = default;
  ColumnMap& operator=(const ColumnMap&) = default;
  // A moved-from map is empty.
  ColumnMap(ColumnMap&& other) noexcept
      : entries_(std::move(other.entries_)),
        size_(std::exchange(other.size_, 0)) {}
  ColumnMap& operator=(ColumnMap&& other) noexcept {
    entries_ = std::move(other.entries_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return begin() + static_cast<std::ptrdiff_t>(size_); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const {
    return begin() + static_cast<std::ptrdiff_t>(size_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  void reserve(size_t n) { entries_.reserve(n); }
  /// Empties the map but keeps its entries' strings, which Append refills:
  /// a RowResult read into row after row allocates only while a row
  /// outgrows the ones before it.
  void clear() { size_ = 0; }

  const_iterator find(std::string_view qualifier) const {
    for (auto it = begin(); it != end(); ++it) {
      if (it->first == qualifier) return it;
    }
    return end();
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
  void emplace(std::string_view qualifier, std::string_view value) {
    if (!contains(qualifier)) Append(qualifier, value);
  }

  /// Unchecked append for callers that guarantee qualifier uniqueness
  /// (e.g. iteration over a packed row) — skips the duplicate scan on the
  /// per-scanned-row hot path. Refills an entry clear() kept, if any.
  void Append(std::string_view qualifier, std::string_view value) {
    if (size_ == entries_.size()) entries_.emplace_back();
    value_type& entry = entries_[size_++];
    entry.first.assign(qualifier);
    entry.second.assign(value);
  }

 private:
  // The first size_ entries are the columns; any after them are storage
  // kept by clear().
  std::vector<value_type> entries_;
  size_t size_ = 0;
};

/// Client-visible snapshot of one row (already version-resolved).
struct RowResult {
  std::string row_key;
  ColumnMap columns;
  bool empty() const { return columns.empty(); }
  size_t PayloadBytes() const;
};

}  // namespace synergy::hbase
