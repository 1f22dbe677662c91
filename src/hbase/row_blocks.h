// A region's rows in key order, private to Region (which holds the latch).
//
// Rows sit in sorted blocks of at most kBlockRows under an index keyed by
// each block's first key, as HBase's HFile (and Bigtable's SSTable) finds a
// row through an index of sorted data blocks rather than through one tree
// node per row. Each row is one heap allocation holding its key and its
// packed row (the layout is region.cc's) behind an 8-byte owning handle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace synergy::hbase {

/// One stored row: a single allocation holding `u32 key size, u32 row size,
/// key, row`. Whoever builds it writes the row bytes through row_data(); a
/// write then replaces the whole row rather than growing it.
class StoredRow {
 public:
  StoredRow(std::string_view key, size_t row_size) {
    if (key.size() > UINT32_MAX || row_size > UINT32_MAX) {
      throw std::length_error("stored row over 4 GiB");
    }
    const uint32_t sizes[2] = {static_cast<uint32_t>(key.size()),
                               static_cast<uint32_t>(row_size)};
    bytes_ = std::make_unique_for_overwrite<char[]>(kHeader + key.size() +
                                                    row_size);
    std::memcpy(bytes_.get(), sizes, kHeader);
    std::copy(key.begin(), key.end(), bytes_.get() + kHeader);
  }

  std::string_view key() const { return {bytes_.get() + kHeader, Size(0)}; }
  std::string_view row() const {
    return {bytes_.get() + kHeader + Size(0), Size(1)};
  }
  char* row_data() { return bytes_.get() + kHeader + Size(0); }

 private:
  static constexpr size_t kHeader = 2 * sizeof(uint32_t);

  uint32_t Size(size_t i) const {
    uint32_t size = 0;
    std::memcpy(&size, bytes_.get() + i * sizeof(uint32_t), sizeof(size));
    return size;
  }

  std::unique_ptr<char[]> bytes_;
};

/// The rows of one region, in byte order of their keys. Every block holds
/// at least one row and is keyed by its first row's key, so the block that
/// may hold a key is the last one keyed at or below it: finding a row costs
/// O(log blocks) in the index plus a binary search of one block, and no
/// insert or erase does work that grows with the block count.
class RowBlocks {
  using Block = std::vector<StoredRow>;
  using Index = std::map<std::string, Block, std::less<>>;

 public:
  static constexpr size_t kBlockRows = 64;

  class const_iterator {
   public:
    const StoredRow& operator*() const { return block_->second[at_]; }
    const StoredRow* operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++at_ == block_->second.size()) {
        ++block_;
        at_ = 0;
      }
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class RowBlocks;
    const_iterator(Index::const_iterator block, size_t at)
        : block_(block), at_(at) {}

    Index::const_iterator block_;
    size_t at_ = 0;
  };

  const_iterator begin() const { return {blocks_.begin(), 0}; }
  const_iterator end() const { return {blocks_.end(), 0}; }

  /// The first row whose key is not less than `key`.
  const_iterator lower_bound(std::string_view key) const {
    auto it = blocks_.upper_bound(key);
    if (it == blocks_.begin()) return {it, 0};
    --it;
    const size_t at = Position(it->second, key);
    if (at == it->second.size()) return {std::next(it), 0};
    return {it, at};
  }

  size_t size() const { return size_; }

  const StoredRow* Find(std::string_view key) const {
    const auto it = blocks_.upper_bound(key);
    if (it == blocks_.begin()) return nullptr;  // below the first row
    const Block& block = std::prev(it)->second;
    const size_t at = Position(block, key);
    return at < block.size() && block[at].key() == key ? &block[at] : nullptr;
  }
  StoredRow* Find(std::string_view key) {
    return const_cast<StoredRow*>(std::as_const(*this).Find(key));
  }

  /// Where a key's row is, or would go: one descent of the index, which a
  /// write then uses to replace the row or to insert it. Valid until the
  /// next Insert, Erase or Retain.
  class Place {
   public:
    StoredRow* row = nullptr;  // the key's row, null when it has none

   private:
    friend class RowBlocks;
    Index::iterator block_;  // the block that holds or takes the key
    size_t at_ = 0;          // the key's position in that block
  };

  Place Locate(std::string_view key) {
    Place place;
    place.block_ = blocks_.upper_bound(key);
    // Else the key leads the first block, or there are no blocks.
    if (place.block_ != blocks_.begin()) --place.block_;
    if (place.block_ == blocks_.end()) return place;
    Block& block = place.block_->second;
    place.at_ = Position(block, key);
    if (place.at_ < block.size() && block[place.at_].key() == key) {
      place.row = &block[place.at_];
    }
    return place;
  }

  /// Inserts `row` at `place`, which Locate found for its key with no row
  /// there, and returns where it went. A full block is halved, except that
  /// a row past the region's last key starts a new block: appends in key
  /// order then fill their blocks.
  StoredRow* Insert(const Place& place, StoredRow row) {
    ++size_;
    auto it = place.block_;
    if (it == blocks_.end()) return StartBlock(std::move(row));
    size_t at = place.at_;
    if (it->second.size() == kBlockRows) {
      if (at == kBlockRows && std::next(it) == blocks_.end()) {
        return StartBlock(std::move(row));
      }
      constexpr size_t kHalf = kBlockRows / 2;
      Block upper;
      upper.reserve(kBlockRows);
      std::move(it->second.begin() + kHalf, it->second.end(),
                std::back_inserter(upper));
      it->second.erase(it->second.begin() + kHalf, it->second.end());
      std::string first(upper.front().key());
      auto next = blocks_.emplace_hint(std::next(it), std::move(first),
                                       std::move(upper));
      if (at > kHalf) {
        it = next;
        at -= kHalf;
      }
    }
    Block& block = it->second;
    StoredRow* stored = &*block.insert(block.begin() + at, std::move(row));
    Settle(it);
    return stored;
  }

  /// Erases the row keyed `key`, which must be present.
  void Erase(std::string_view key) {
    const auto it = std::prev(blocks_.upper_bound(key));
    it->second.erase(it->second.begin() + Position(it->second, key));
    --size_;
    Settle(it);
  }

  /// Calls keep(row) once per row in key order and erases the rows it
  /// returns false for. keep may replace the row it is handed by one with
  /// the same key.
  template <typename Keep>
  void Retain(Keep keep) {
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      Block& block = it->second;
      size_t kept = 0;
      for (size_t i = 0; i < block.size(); ++i) {
        if (!keep(block[i])) continue;
        if (kept != i) block[kept] = std::move(block[i]);
        ++kept;
      }
      size_ -= block.size() - kept;
      block.erase(block.begin() + kept, block.end());
      it = Settle(it);
    }
  }

 private:
  /// Where `key` goes in `block`: the index of its first row not less.
  static size_t Position(const Block& block, std::string_view key) {
    return static_cast<size_t>(
        std::partition_point(block.begin(), block.end(),
                             [key](const StoredRow& row) {
                               return row.key() < key;
                             }) -
        block.begin());
  }

  /// A new last block holding only `row`, whose key is past every other.
  StoredRow* StartBlock(StoredRow row) {
    Block block;
    block.reserve(kBlockRows);
    block.push_back(std::move(row));
    std::string first(block.front().key());
    return &blocks_.emplace_hint(blocks_.end(), std::move(first),
                                 std::move(block))
                ->second.front();
  }

  /// Drops `it` if it is empty, else re-keys it by its first row, whose key
  /// changes when a row goes in below it or the first row is erased.
  /// Returns the block after it.
  Index::iterator Settle(Index::iterator it) {
    const auto next = std::next(it);
    if (it->second.empty()) {
      blocks_.erase(it);
    } else if (it->first != it->second.front().key()) {
      auto node = blocks_.extract(it);
      node.key() = node.mapped().front().key();
      blocks_.insert(next, std::move(node));
    }
    return next;
  }

  Index blocks_;
  size_t size_ = 0;
};

}  // namespace synergy::hbase
