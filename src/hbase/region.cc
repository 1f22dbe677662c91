#include "hbase/region.h"

#include <algorithm>
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

int64_t GetFixed64(std::string_view* in) {
  int64_t v = 0;
  std::memcpy(&v, in->data(), sizeof(v));
  in->remove_prefix(sizeof(v));
  return v;
}

void PutFixed64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Decodes `log` in append order, calling fn(RegionEdit&) once per record.
/// The edit is reused between calls; fn may move out of it.
template <typename Fn>
void ForEachEdit(std::string_view log, Fn&& fn) {
  RegionEdit edit;
  while (!log.empty()) {
    std::string_view body = GetBytes(&log);
    edit.row_key.assign(GetBytes(&body));
    edit.ts = GetFixed64(&body);
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

// Packed row layout, HBase's KeyValue in spirit: a row is one string
// holding its columns in ascending qualifier order, each `varint qualifier
// length, qualifier, varint body length, body`. A body holds the column's
// versions newest (highest timestamp) first, each `fixed64 timestamp, u8
// tombstone, varint value length, value`. The body length lets a reader skip
// a column, or stop at its newest version, without walking the older ones.

struct Version {
  int64_t ts = 0;
  bool tombstone = false;
  std::string_view value;
};

Version GetVersion(std::string_view* body) {
  Version v;
  v.ts = GetFixed64(body);
  v.tombstone = body->front() != 0;
  body->remove_prefix(1);
  v.value = GetBytes(body);
  return v;
}

size_t VersionSize(std::string_view value) {
  return sizeof(int64_t) + 1 + VarintSize(value.size()) + value.size();
}

struct Column {
  std::string_view qualifier;
  std::string_view body;
};

/// Reads the column at the front of `*row` and advances past it.
Column GetColumn(std::string_view* row) {
  const std::string_view qualifier = GetBytes(row);
  return Column{qualifier, GetBytes(row)};
}

/// Where a column sits in a packed row, as byte offsets.
struct ColumnSpan {
  size_t begin = 0;       // its qualifier length
  size_t body_begin = 0;  // its newest version
  size_t end = 0;         // one past its oldest version
};

/// Finds `qualifier`'s column in `row`. When the row has none, `span` is
/// empty and sits where the column would go: before the first greater
/// qualifier, or at the row's end.
bool FindColumn(std::string_view row, std::string_view qualifier,
                ColumnSpan* span) {
  size_t at = 0;
  while (at < row.size()) {
    std::string_view rest = row.substr(at);
    const std::string_view q = GetBytes(&rest);
    const size_t body_size = GetVarint(&rest);
    const size_t body_begin = row.size() - rest.size();
    if (q == qualifier) {
      *span = ColumnSpan{at, body_begin, body_begin + body_size};
      return true;
    }
    if (q > qualifier) break;
    at = body_begin + body_size;
  }
  *span = ColumnSpan{at, at, at};
  return false;
}

std::string_view Body(std::string_view row, const ColumnSpan& span) {
  return row.substr(span.body_begin, span.end - span.body_begin);
}

/// The newest version of `body` visible through `view`: none if every
/// version is above read_ts or excluded, or if the first that is not is a
/// tombstone (which hides everything older).
std::optional<std::string_view> LatestVisible(std::string_view body,
                                              const ReadView& view) {
  while (!body.empty()) {
    const Version v = GetVersion(&body);
    if (v.ts > view.read_ts) continue;
    if (view.exclude != nullptr &&
        std::find(view.exclude->begin(), view.exclude->end(), v.ts) !=
            view.exclude->end()) {
      continue;  // version written by an invalid/in-flight transaction
    }
    if (v.tombstone) return std::nullopt;
    return v.value;
  }
  return std::nullopt;
}

/// The latest value of `qualifier` in `row`, or nullopt if absent/deleted.
std::optional<std::string_view> Latest(std::string_view row,
                                       std::string_view qualifier) {
  ColumnSpan span;
  if (!FindColumn(row, qualifier, &span)) return std::nullopt;
  return LatestVisible(Body(row, span), ReadView{});
}

/// Adds a version to `qualifier`'s column of `*row`, creating the column in
/// qualifier order if absent. A version at an equal timestamp is replaced
/// (HBase semantics: same coordinates replace). The new row is built at its
/// exact size: the bytes before the column, the column's header and its
/// versions newer than `ts`, the new version, then the older versions and
/// every later column as one block. A new one-column row is thus encoded
/// once, and a version newer than its column's newest copies the rest of
/// the row in one piece. Growing rows in place with spare capacity instead
/// took back most of the memory saved on write-heavy runs.
void AddVersion(std::string* row, std::string_view qualifier, int64_t ts,
                bool tombstone, std::string_view value) {
  const std::string_view old = *row;
  ColumnSpan span;
  FindColumn(old, qualifier, &span);
  size_t newer_end = span.body_begin;  // versions newer than ts end here
  size_t tail = span.body_begin;       // the block after the new version
  for (std::string_view versions = Body(old, span); !versions.empty();) {
    const Version v = GetVersion(&versions);
    const size_t next = span.end - versions.size();
    if (v.ts > ts) {
      newer_end = tail = next;
      continue;
    }
    if (v.ts == ts) tail = next;
    break;
  }
  const size_t newer = newer_end - span.body_begin;
  const size_t body_size = newer + VersionSize(value) + (span.end - tail);
  std::string out;
  out.reserve(span.begin + VarintSize(qualifier.size()) + qualifier.size() +
              VarintSize(body_size) + body_size + (old.size() - span.end));
  out.append(old.substr(0, span.begin));
  PutBytes(&out, qualifier);
  PutVarint(&out, body_size);
  out.append(old.substr(span.body_begin, newer));
  PutFixed64(&out, ts);
  out.push_back(tombstone ? 1 : 0);
  PutBytes(&out, value);
  out.append(old.substr(tail));
  *row = std::move(out);
}

/// Removes the version of `qualifier` written at exactly `ts`, if any, and
/// the column with it when that was its only version.
void RemoveVersion(std::string* row, std::string_view qualifier, int64_t ts) {
  ColumnSpan span;
  if (!FindColumn(*row, qualifier, &span)) return;
  const size_t body_size = span.end - span.body_begin;
  std::string_view versions = Body(*row, span);
  for (size_t at = span.body_begin; !versions.empty();) {
    const Version v = GetVersion(&versions);
    const size_t next = span.end - versions.size();
    if (v.ts != ts) {
      at = next;
      continue;
    }
    if (next - at == body_size) {
      row->erase(span.begin, span.end - span.begin);
      return;
    }
    row->erase(at, next - at);
    std::string length;
    PutVarint(&length, body_size - (next - at));
    const size_t length_size = VarintSize(body_size);
    row->replace(span.body_begin - length_size, length_size, length);
    return;
  }
}

/// The newest `max_versions` versions of `body`, cut at the first tombstone
/// (which hides everything older), as a byte count; `kept` is how many.
size_t KeptBytes(std::string_view body, int max_versions, int* kept) {
  std::string_view versions = body;
  for (*kept = 0; *kept < max_versions && !versions.empty(); ++*kept) {
    std::string_view after = versions;
    if (GetVersion(&after).tombstone) break;
    versions = after;
  }
  return body.size() - versions.size();
}

/// Compacts each column of `*row` to KeptBytes, dropping columns left
/// empty; rebuilds the row only when that drops a version. Returns whether
/// a column kept more than one version.
bool CompactRow(std::string* row, int max_versions) {
  bool multi_version = false;
  size_t size = 0;
  int kept = 0;
  for (std::string_view rest = *row; !rest.empty();) {
    const Column c = GetColumn(&rest);
    const size_t bytes = KeptBytes(c.body, max_versions, &kept);
    multi_version |= kept > 1;
    if (bytes > 0) {
      size += VarintSize(c.qualifier.size()) + c.qualifier.size() +
              VarintSize(bytes) + bytes;
    }
  }
  if (size == row->size()) return multi_version;  // dropped nothing
  std::string out;
  out.reserve(size);
  for (std::string_view rest = *row; !rest.empty();) {
    const Column c = GetColumn(&rest);
    const size_t bytes = KeptBytes(c.body, max_versions, &kept);
    if (bytes == 0) continue;
    PutBytes(&out, c.qualifier);
    PutBytes(&out, c.body.substr(0, bytes));
  }
  *row = std::move(out);
  return multi_version;
}

std::optional<RowResult> ResolveRow(const std::string& key,
                                    std::string_view row,
                                    const ReadView& view) {
  RowResult out;
  for (std::string_view rest = row; !rest.empty();) {
    const Column c = GetColumn(&rest);
    if (std::optional<std::string_view> v = LatestVisible(c.body, view)) {
      out.columns.Append(std::string(c.qualifier), std::string(*v));
    }
  }
  if (out.columns.empty()) return std::nullopt;
  out.row_key = key;
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
    PutFixed64(out_, ts);
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
  auto [it, inserted] = rows_.try_emplace(row_key);
  for (const auto& [qual, value] : columns) {
    AddVersion(&it->second, qual, t, /*tombstone=*/false, value);
  }
  if (!inserted || columns.empty()) compactable_ = true;
  EditWriter edit(this, row_key, t, /*tombstone=*/false);
  for (const auto& [qual, value] : columns) edit.Column(qual, value);
}

void Region::Delete(const std::string& row_key, std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return;
  const int64_t t = AllocTs(ts);
  std::vector<std::string> qualifiers;
  for (std::string_view rest = it->second; !rest.empty();) {
    qualifiers.emplace_back(GetColumn(&rest).qualifier);
  }
  EditWriter edit(this, row_key, t, /*tombstone=*/true);
  for (const std::string& qual : qualifiers) {
    AddVersion(&it->second, qual, t, /*tombstone=*/true, {});
    edit.Column(qual);
  }
  compactable_ = true;
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
  auto it = rows_.find(row_key);
  std::optional<std::string_view> current;
  if (it != rows_.end()) current = Latest(it->second, qualifier);
  if (current != expected) return false;
  const int64_t t = AllocTs(std::nullopt);
  if (it == rows_.end()) {
    it = rows_.try_emplace(row_key).first;
  } else {
    compactable_ = true;
  }
  AddVersion(&it->second, qualifier, t, /*tombstone=*/false, new_value);
  EditWriter(this, row_key, t, /*tombstone=*/false)
      .Column(qualifier, new_value);
  return true;
}

StatusOr<int64_t> Region::Increment(const std::string& row_key,
                                    const std::string& qualifier,
                                    int64_t delta) {
  std::unique_lock lock(mutex_);
  auto [it, inserted] = rows_.try_emplace(row_key);
  int64_t current = 0;
  if (std::optional<std::string_view> v = Latest(it->second, qualifier)) {
    auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), current);
    if (ec != std::errc{}) {
      return Status::InvalidArgument("Increment on non-integer column");
    }
  }
  const int64_t next = current + delta;
  const int64_t t = AllocTs(std::nullopt);
  const std::string encoded = std::to_string(next);
  AddVersion(&it->second, qualifier, t, /*tombstone=*/false, encoded);
  if (!inserted) compactable_ = true;
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
  if (compactable_ || max_versions < 1) {
    bool multi_version = false;
    for (auto it = rows_.begin(); it != rows_.end();) {
      multi_version |= CompactRow(&it->second, max_versions);
      it = it->second.empty() ? rows_.erase(it) : std::next(it);
    }
    compactable_ = multi_version;
  }
  Flush();
}

size_t Region::RowCount() const {
  std::shared_lock lock(mutex_);
  size_t live = 0;
  for (const auto& [key, row] : rows_) {
    for (std::string_view rest = row; !rest.empty();) {
      if (LatestVisible(GetColumn(&rest).body, ReadView{}).has_value()) {
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
    for (std::string_view rest = row; !rest.empty();) {
      const Column c = GetColumn(&rest);
      total += c.qualifier.size();
      for (std::string_view versions = c.body; !versions.empty();) {
        total += GetVersion(&versions).value.size() + 16;
      }
    }
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
    for (const auto& [qual, value] : edit.columns) {
      RemoveVersion(&row_it->second, qual, edit.ts);
    }
    if (row_it->second.empty()) rows_.erase(row_it);
  });
  compactable_ = true;
  store_lost_.store(true, std::memory_order_release);
}

void Region::ReplayEdits() {
  std::unique_lock lock(mutex_);
  ForEachEdit(log_, [this](const RegionEdit& edit) {
    std::string& row = rows_[edit.row_key];
    for (const auto& [qual, value] : edit.columns) {
      AddVersion(&row, qual, edit.ts, edit.tombstone, value);
    }
  });
  compactable_ = true;
  store_lost_.store(false, std::memory_order_release);
}

size_t Region::EditLogSize() const {
  std::shared_lock lock(mutex_);
  return log_entries_;
}

}  // namespace synergy::hbase
