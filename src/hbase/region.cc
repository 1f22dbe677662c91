#include "hbase/region.h"

#include <charconv>
#include <cstring>
#include <mutex>
#include <string_view>

namespace synergy::hbase {
namespace {

// A region flushes once its edit log holds this many bytes, as HBase flushes
// a memstore at hbase.hregion.memstore.flush.size. It bounds the memory the
// log holds and the edits a crash has to replay.
constexpr size_t kFlushLogBytes = size_t{1} << 20;

// Edit-log record layout: a varint body length, then the body: the
// varint-prefixed row key, the fixed64 timestamp, a tombstone byte, and one
// varint-prefixed qualifier and value per column until the body ends.

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out->append(bytes);
}

uint64_t GetVarint(std::string_view* in) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return v;
  }
}

std::string_view GetBytes(std::string_view* in) {
  const size_t n = GetVarint(in);
  const std::string_view bytes = in->substr(0, n);
  in->remove_prefix(n);
  return bytes;
}

/// Decodes `log` in append order, calling fn(RegionEdit&) once per record.
/// The edit is reused between calls; fn may move out of it.
template <typename Fn>
void ForEachEdit(std::string_view log, Fn&& fn) {
  RegionEdit edit;
  while (!log.empty()) {
    std::string_view body = GetBytes(&log);
    edit.row_key.assign(GetBytes(&body));
    std::memcpy(&edit.ts, body.data(), sizeof(edit.ts));
    body.remove_prefix(sizeof(edit.ts));
    edit.tombstone = body.front() != 0;
    body.remove_prefix(1);
    edit.columns.clear();
    while (!body.empty()) {
      const std::string_view qualifier = GetBytes(&body);
      edit.columns.emplace_back(qualifier, GetBytes(&body));
    }
    fn(edit);
  }
}

std::optional<RowResult> ResolveRow(const std::string& key, const RowData& row,
                                    const ReadView& view) {
  RowResult out;
  out.row_key = key;
  out.columns.reserve(row.size());
  for (const auto& [qual, cell] : row) {
    std::optional<std::string> v = cell.LatestVisible(view.read_ts, view.exclude);
    if (v.has_value()) out.columns.Append(qual, std::move(*v));
  }
  if (out.columns.empty()) return std::nullopt;
  return out;
}

}  // namespace

/// Appends one record to a region's edit log: the constructor writes the
/// header, Column() each column, and the destructor prefixes the body with
/// its length, then flushes a log that has reached kFlushLogBytes. Lives
/// under the region latch, held exclusively, and ends after the store
/// holds the record's versions, so a flush never precedes its own edit.
class Region::EditWriter {
 public:
  EditWriter(Region* region, std::string_view row_key, int64_t ts,
             bool tombstone)
      : region_(region), out_(&region->log_), start_(out_->size()) {
    ++region->log_entries_;
    PutBytes(out_, row_key);
    out_->append(reinterpret_cast<const char*>(&ts), sizeof(ts));
    out_->push_back(tombstone ? 1 : 0);
  }
  EditWriter(const EditWriter&) = delete;
  EditWriter& operator=(const EditWriter&) = delete;
  ~EditWriter() {
    std::string length;
    PutVarint(&length, out_->size() - start_);
    out_->insert(start_, length);
    if (out_->size() >= kFlushLogBytes) region_->Flush();
  }

  void Column(std::string_view qualifier, std::string_view value = {}) {
    PutBytes(out_, qualifier);
    PutBytes(out_, value);
  }

 private:
  Region* region_;
  std::string* out_;
  size_t start_;
};

void Region::Put(
    const std::string& row_key,
    const std::vector<std::pair<std::string, std::string>>& columns,
    std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  const int64_t t = AllocTs(ts);
  RowData& row = rows_[row_key];
  EditWriter edit(this, row_key, t, /*tombstone=*/false);
  for (const auto& [qual, value] : columns) {
    row[qual].AddVersion(CellVersion{t, value, /*tombstone=*/false});
    edit.Column(qual, value);
  }
}

void Region::Delete(const std::string& row_key, std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return;
  const int64_t t = AllocTs(ts);
  EditWriter edit(this, row_key, t, /*tombstone=*/true);
  for (auto& [qual, cell] : it->second) {
    cell.AddVersion(CellVersion{t, "", /*tombstone=*/true});
    edit.Column(qual);
  }
}

std::optional<RowResult> Region::Get(const std::string& row_key,
                                     const ReadView& view) const {
  std::shared_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return std::nullopt;
  return ResolveRow(row_key, it->second, view);
}

bool Region::CheckAndPut(const std::string& row_key,
                         const std::string& qualifier,
                         const std::optional<std::string>& expected,
                         const std::string& new_value) {
  std::unique_lock lock(mutex_);
  // A failed check writes nothing, as in HBase: the row is created only
  // when the put happens.
  std::optional<std::string> current;
  if (auto rit = rows_.find(row_key); rit != rows_.end()) {
    auto cit = rit->second.find(qualifier);
    if (cit != rit->second.end()) current = cit->second.Latest();
  }
  if (current != expected) return false;
  const int64_t t = AllocTs(std::nullopt);
  rows_[row_key][qualifier].AddVersion(
      CellVersion{t, new_value, /*tombstone=*/false});
  EditWriter(this, row_key, t, /*tombstone=*/false)
      .Column(qualifier, new_value);
  return true;
}

StatusOr<int64_t> Region::Increment(const std::string& row_key,
                                    const std::string& qualifier,
                                    int64_t delta) {
  std::unique_lock lock(mutex_);
  RowData& row = rows_[row_key];
  int64_t current = 0;
  auto cit = row.find(qualifier);
  if (cit != row.end()) {
    std::optional<std::string> v = cit->second.Latest();
    if (v.has_value()) {
      auto [ptr, ec] =
          std::from_chars(v->data(), v->data() + v->size(), current);
      if (ec != std::errc{}) {
        return Status::InvalidArgument("Increment on non-integer column");
      }
    }
  }
  const int64_t next = current + delta;
  const int64_t t = AllocTs(std::nullopt);
  const std::string encoded = std::to_string(next);
  row[qualifier].AddVersion(CellVersion{t, encoded, /*tombstone=*/false});
  EditWriter(this, row_key, t, /*tombstone=*/false).Column(qualifier, encoded);
  return next;
}

ScanBatchResult Region::ScanBatch(const std::string& from,
                                  const std::string& stop, size_t limit,
                                  const ReadView& view) const {
  std::shared_lock lock(mutex_);
  ScanBatchResult out;
  out.rows.reserve(std::min(limit, rows_.size()));
  auto it = rows_.lower_bound(from);
  for (; it != rows_.end(); ++it) {
    if (!stop.empty() && it->first >= stop) break;
    ++out.rows_examined;
    std::optional<RowResult> row = ResolveRow(it->first, it->second, view);
    if (row.has_value()) {
      out.rows.push_back(std::move(*row));
      if (out.rows.size() >= limit) {
        ++it;
        break;
      }
    }
  }
  if (it == rows_.end() || (!stop.empty() && it->first >= stop)) {
    out.exhausted = true;
  } else {
    out.next_start_key = it->first;
  }
  return out;
}

void Region::Flush() {
  // A dead server flushes nothing: its memstore is gone and the log is the
  // only copy of those edits until ReplayEdits().
  if (store_lost_.load(std::memory_order_relaxed)) return;
  std::string().swap(log_);  // free the buffer, not just clear it
  log_entries_ = 0;
}

void Region::MajorCompact(int max_versions) {
  std::unique_lock lock(mutex_);
  // Nor is a lost store compacted: without the versions the log names,
  // compaction would keep and drop the wrong ones.
  if (store_lost_.load(std::memory_order_relaxed)) return;
  for (auto row_it = rows_.begin(); row_it != rows_.end();) {
    RowData& row = row_it->second;
    for (auto cell_it = row.begin(); cell_it != row.end();) {
      cell_it->second.Compact(max_versions);
      if (cell_it->second.versions().empty()) {
        cell_it = row.erase(cell_it);
      } else {
        ++cell_it;
      }
    }
    if (row.empty()) {
      row_it = rows_.erase(row_it);
    } else {
      ++row_it;
    }
  }
  Flush();
}

size_t Region::RowCount() const {
  std::shared_lock lock(mutex_);
  size_t live = 0;
  for (const auto& [key, row] : rows_) {
    for (const auto& [qual, cell] : row) {
      if (cell.Latest().has_value()) {
        ++live;
        break;
      }
    }
  }
  return live;
}

size_t Region::ByteSize() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [key, row] : rows_) {
    total += key.size();
    for (const auto& [qual, cell] : row) total += qual.size() + cell.ByteSize();
  }
  return total;
}

size_t Region::ApproxRowCount() const {
  std::shared_lock lock(mutex_);
  return rows_.size();
}

void Region::DropStore() {
  std::unique_lock lock(mutex_);
  ForEachEdit(log_, [this](const RegionEdit& edit) {
    auto row_it = rows_.find(edit.row_key);
    if (row_it == rows_.end()) return;
    RowData& row = row_it->second;
    for (const auto& [qual, value] : edit.columns) {
      auto cell_it = row.find(qual);
      if (cell_it == row.end()) continue;
      cell_it->second.RemoveVersion(edit.ts);
      if (cell_it->second.versions().empty()) row.erase(cell_it);
    }
    if (row.empty()) rows_.erase(row_it);
  });
  store_lost_.store(true, std::memory_order_release);
}

void Region::ReplayEdits() {
  std::unique_lock lock(mutex_);
  ForEachEdit(log_, [this](RegionEdit& edit) {
    RowData& row = rows_[edit.row_key];
    for (auto& [qual, value] : edit.columns) {
      row[qual].AddVersion(
          CellVersion{edit.ts, std::move(value), edit.tombstone});
    }
  });
  store_lost_.store(false, std::memory_order_release);
}

size_t Region::EditLogSize() const {
  std::shared_lock lock(mutex_);
  return log_entries_;
}

}  // namespace synergy::hbase
