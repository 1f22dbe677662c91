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
// varint-prefixed row key, the fixed64 timestamp, a flags byte, and one
// varint-prefixed qualifier per column until the body ends. No value: the
// store holds the version each qualifier names until the next flush.
constexpr uint8_t kTombstone = 1;  // each column's version is a tombstone
constexpr uint8_t kGrown = 2;      // the row existed before this record

/// The Put* functions write to a std::string (the edit log) or to this: a
/// stored row's bytes, allocated at their exact size first, through the two
/// calls they make on a std::string.
struct RowWriter {
  char* at;
  void push_back(char c) { *at++ = c; }
  void append(std::string_view bytes) {
    at = std::copy(bytes.begin(), bytes.end(), at);
  }
};

template <typename Out>
void PutVarint(Out* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

template <typename Out>
void PutBytes(Out* out, std::string_view bytes) {
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

template <typename Out>
void PutFixed64(Out* out, int64_t v) {
  out->append(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// One edit-log record, as views into the log.
struct LogRecord {
  std::string_view row_key;
  int64_t ts = 0;
  uint8_t flags = 0;
  std::string_view qualifiers;  // varint-prefixed, back to back
};

/// Decodes `log` in append order, calling fn(const LogRecord&) once per
/// record.
template <typename Fn>
void ForEachRecord(std::string_view log, Fn&& fn) {
  while (!log.empty()) {
    std::string_view body = GetBytes(&log);
    LogRecord record;
    record.row_key = GetBytes(&body);
    record.ts = GetFixed64(&body);
    record.flags = static_cast<uint8_t>(body.front());
    body.remove_prefix(1);
    record.qualifiers = body;
    fn(record);
  }
}

// Packed row layout, HBase's KeyValue in spirit: a row (a StoredRow's row
// bytes) holds its columns in ascending qualifier order, each `varint
// qualifier length, qualifier, varint body length, body`. A body holds the
// column's versions newest (highest timestamp) first, each `fixed64
// timestamp, u8 tombstone, varint value length, value`. The body length lets
// a reader skip a column, or stop at its newest version, without walking
// the older ones.

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

/// `key`'s row `old` (empty for a new row) with a version added to
/// `qualifier`'s column, which is created in qualifier order if absent. A
/// version at an equal timestamp is replaced (HBase semantics: same
/// coordinates replace). The new row is one allocation of its exact size:
/// the bytes before the column, the column's header and its versions newer
/// than `ts`, the new version, then the older versions and every later
/// column as one block. A new one-column row is thus encoded once, and a
/// version newer than its column's newest copies the rest of the row in one
/// piece. Growing rows in place with spare capacity instead took back most
/// of the memory saved on write-heavy runs.
StoredRow AddVersion(std::string_view key, std::string_view old,
                     std::string_view qualifier, int64_t ts, bool tombstone,
                     std::string_view value) {
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
  StoredRow out(key, span.begin + VarintSize(qualifier.size()) +
                         qualifier.size() + VarintSize(body_size) + body_size +
                         (old.size() - span.end));
  RowWriter w{out.row_data()};
  w.append(old.substr(0, span.begin));
  PutBytes(&w, qualifier);
  PutVarint(&w, body_size);
  w.append(old.substr(span.body_begin, newer));
  PutFixed64(&w, ts);
  w.push_back(tombstone ? 1 : 0);
  PutBytes(&w, value);
  w.append(old.substr(tail));
  return out;
}

std::string_view RowBytes(const StoredRow* row) {
  return row == nullptr ? std::string_view() : row->row();
}

/// Puts `row` where `place` says: over the row Locate found there, or as a
/// new row. Returns where it went.
StoredRow* Store(RowBlocks* rows, const RowBlocks::Place& place,
                 StoredRow row) {
  if (place.row == nullptr) return rows->Insert(place, std::move(row));
  *place.row = std::move(row);
  return place.row;
}

/// Adds one version per column at `ts` to `key`'s row, creating the row
/// (empty when there are no columns) if it is absent. Returns whether it
/// was absent. One descent finds the row or where it goes.
bool WriteRow(RowBlocks* rows, std::string_view key,
              std::span<const ColumnValue> columns, int64_t ts,
              bool tombstone) {
  const RowBlocks::Place place = rows->Locate(key);
  if (columns.empty()) {
    if (place.row == nullptr) rows->Insert(place, StoredRow(key, 0));
    return place.row == nullptr;
  }
  StoredRow* row =
      Store(rows, place,
            AddVersion(key, RowBytes(place.row), columns[0].qualifier, ts,
                       tombstone, columns[0].value));
  for (const ColumnValue& c : columns.subspan(1)) {
    *row = AddVersion(key, row->row(), c.qualifier, ts, tombstone, c.value);
  }
  return place.row == nullptr;
}

/// `row` with its bytes [begin, end) replaced by `with`, as a new row.
StoredRow Spliced(const StoredRow& row, size_t begin, size_t end,
                  std::string_view with) {
  const std::string_view old = row.row();
  StoredRow out(row.key(), old.size() - (end - begin) + with.size());
  RowWriter w{out.row_data()};
  w.append(old.substr(0, begin));
  w.append(with);
  w.append(old.substr(end));
  return out;
}

/// The value of `qualifier`'s version written at exactly `ts` in `row`, or
/// empty if there is none.
std::string_view ValueAt(std::string_view row, std::string_view qualifier,
                         int64_t ts) {
  ColumnSpan span;
  if (!FindColumn(row, qualifier, &span)) return {};
  for (std::string_view versions = Body(row, span); !versions.empty();) {
    const Version v = GetVersion(&versions);
    if (v.ts == ts) return v.value;
  }
  return {};
}

/// Removes the version of `qualifier` written at exactly `ts`, if any, and
/// the column with it when that was its only version.
void RemoveVersion(StoredRow* row, std::string_view qualifier, int64_t ts) {
  const std::string_view old = row->row();
  ColumnSpan span;
  if (!FindColumn(old, qualifier, &span)) return;
  const size_t body_size = span.end - span.body_begin;
  std::string_view versions = Body(old, span);
  for (size_t at = span.body_begin; !versions.empty();) {
    const Version v = GetVersion(&versions);
    const size_t next = span.end - versions.size();
    if (v.ts != ts) {
      at = next;
      continue;
    }
    // What replaces the column up to the version's end: its header with the
    // shorter body length and its newer versions, or nothing.
    std::string column;
    if (next - at < body_size) {
      PutBytes(&column, qualifier);
      PutVarint(&column, body_size - (next - at));
      column.append(old.substr(span.body_begin, at - span.body_begin));
    }
    *row = Spliced(*row, span.begin, next, column);
    return;
  }
}

/// The newest `max_versions` versions of `body` as a byte count; `kept` is
/// how many. With `drop_tombstones` they are cut at the first tombstone,
/// which hides everything older and goes too.
size_t KeptBytes(std::string_view body, int max_versions, bool drop_tombstones,
                 int* kept) {
  std::string_view versions = body;
  for (*kept = 0; *kept < max_versions && !versions.empty(); ++*kept) {
    std::string_view after = versions;
    if (GetVersion(&after).tombstone && drop_tombstones) break;
    versions = after;
  }
  return body.size() - versions.size();
}

/// Compacts each column of `*row` to KeptBytes, dropping columns left
/// empty; rebuilds the row only when that drops a version. Returns whether
/// a column kept more than one version.
bool CompactRow(StoredRow* row, int max_versions, bool drop_tombstones) {
  bool multi_version = false;
  size_t size = 0;
  int kept = 0;
  for (std::string_view rest = row->row(); !rest.empty();) {
    const Column c = GetColumn(&rest);
    const size_t bytes =
        KeptBytes(c.body, max_versions, drop_tombstones, &kept);
    multi_version |= kept > 1;
    if (bytes > 0) {
      size += VarintSize(c.qualifier.size()) + c.qualifier.size() +
              VarintSize(bytes) + bytes;
    }
  }
  if (size == row->row().size()) return multi_version;  // dropped nothing
  StoredRow out(row->key(), size);
  RowWriter w{out.row_data()};
  for (std::string_view rest = row->row(); !rest.empty();) {
    const Column c = GetColumn(&rest);
    const size_t bytes =
        KeptBytes(c.body, max_versions, drop_tombstones, &kept);
    if (bytes == 0) continue;
    PutBytes(&w, c.qualifier);
    PutBytes(&w, c.body.substr(0, bytes));
  }
  *row = std::move(out);
  return multi_version;
}

/// Fills `*out` with `row`'s newest cells visible through `view`, reusing
/// its storage. False when no cell is.
bool ResolveRow(const StoredRow& row, const ReadView& view, RowResult* out) {
  out->columns.clear();
  for (std::string_view rest = row.row(); !rest.empty();) {
    const Column c = GetColumn(&rest);
    if (std::optional<std::string_view> v = LatestVisible(c.body, view)) {
      out->columns.Append(c.qualifier, *v);
    }
  }
  if (out->columns.empty()) return false;
  out->row_key.assign(row.key());
  return true;
}

}  // namespace

/// Appends one record to a region's edit log: the constructor writes the
/// header, Column() each column's qualifier, and the destructor prefixes the
/// body with its length, then flushes a log whose records would take
/// kFlushLogBytes with their values. `grown` says the row existed before
/// the record. Lives under the region latch, held exclusively, and ends
/// after the store holds the record's versions, so a flush never precedes
/// its own edit.
class Region::EditWriter {
 public:
  EditWriter(Region* region, std::string_view row_key, int64_t ts,
             bool tombstone, bool grown)
      : region_(region), out_(&region->log_), start_(out_->size()) {
    ++region->log_entries_;
    region->grown_ |= grown;
    PutBytes(out_, row_key);
    PutFixed64(out_, ts);
    out_->push_back(static_cast<char>((tombstone ? kTombstone : 0) |
                                      (grown ? kGrown : 0)));
  }
  EditWriter(const EditWriter&) = delete;
  EditWriter& operator=(const EditWriter&) = delete;
  ~EditWriter() {
    const size_t body = out_->size() - start_;
    std::string length;
    PutVarint(&length, body);
    out_->insert(start_, length);
    const size_t full_body = body + value_bytes_;
    region_->log_bytes_ += VarintSize(full_body) + full_body;
    if (region_->log_bytes_ >= kFlushLogBytes) region_->Flush();
  }

  void Column(std::string_view qualifier, std::string_view value = {}) {
    PutBytes(out_, qualifier);
    value_bytes_ += VarintSize(value.size()) + value.size();
  }

 private:
  Region* region_;
  std::string* out_;
  size_t start_;
  size_t value_bytes_ = 0;  // the varint-prefixed values the log leaves out
};

void Region::Put(const std::string& row_key,
                 std::span<const ColumnValue> columns,
                 std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  const int64_t t = AllocTs(ts);
  const bool inserted =
      WriteRow(&rows_, row_key, columns, t, /*tombstone=*/false);
  if (!inserted || columns.empty()) compactable_ = true;
  EditWriter edit(this, row_key, t, /*tombstone=*/false, !inserted);
  for (const ColumnValue& c : columns) edit.Column(c.qualifier, c.value);
}

void Region::Delete(const std::string& row_key, std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  StoredRow* row = rows_.Find(row_key);
  if (row == nullptr) return;
  const int64_t t = AllocTs(ts);
  std::vector<std::string> qualifiers;
  for (std::string_view rest = row->row(); !rest.empty();) {
    qualifiers.emplace_back(GetColumn(&rest).qualifier);
  }
  EditWriter edit(this, row_key, t, /*tombstone=*/true, /*grown=*/true);
  for (const std::string& qual : qualifiers) {
    *row = AddVersion(row_key, row->row(), qual, t, /*tombstone=*/true, {});
    edit.Column(qual);
  }
  compactable_ = true;
}

bool Region::Get(const std::string& row_key, const ReadView& view,
                 RowResult* out) const {
  std::shared_lock lock(mutex_);
  const StoredRow* row = rows_.Find(row_key);
  return row != nullptr && ResolveRow(*row, view, out);
}

bool Region::CheckAndPut(const std::string& row_key,
                         const std::string& qualifier,
                         const std::optional<std::string>& expected,
                         const std::string& new_value) {
  std::unique_lock lock(mutex_);
  // A failed check writes nothing, as in HBase: the row is created only
  // when the put happens.
  const RowBlocks::Place place = rows_.Locate(row_key);
  if (Latest(RowBytes(place.row), qualifier) != expected) return false;
  const int64_t t = AllocTs(std::nullopt);
  const bool grown = place.row != nullptr;
  if (grown) compactable_ = true;
  Store(&rows_, place,
        AddVersion(row_key, RowBytes(place.row), qualifier, t,
                   /*tombstone=*/false, new_value));
  EditWriter(this, row_key, t, /*tombstone=*/false, grown)
      .Column(qualifier, new_value);
  return true;
}

StatusOr<int64_t> Region::Increment(const std::string& row_key,
                                    const std::string& qualifier,
                                    int64_t delta) {
  std::unique_lock lock(mutex_);
  const RowBlocks::Place place = rows_.Locate(row_key);
  int64_t current = 0;
  if (std::optional<std::string_view> v =
          Latest(RowBytes(place.row), qualifier)) {
    auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), current);
    if (ec != std::errc{}) {
      return Status::InvalidArgument("Increment on non-integer column");
    }
  }
  const int64_t next = current + delta;
  const int64_t t = AllocTs(std::nullopt);
  const std::string encoded = std::to_string(next);
  const bool grown = place.row != nullptr;
  if (grown) compactable_ = true;
  Store(&rows_, place,
        AddVersion(row_key, RowBytes(place.row), qualifier, t,
                   /*tombstone=*/false, encoded));
  EditWriter(this, row_key, t, /*tombstone=*/false, grown)
      .Column(qualifier, encoded);
  return next;
}

ScanBatchResult Region::ScanBatch(const std::string& from,
                                  const std::string& stop, size_t limit,
                                  const ReadView& view) const {
  std::shared_lock lock(mutex_);
  ScanBatchResult out;
  out.rows.reserve(std::min(limit, rows_.size()));
  RowResult row;
  auto it = rows_.lower_bound(from);
  for (; it != rows_.end(); ++it) {
    if (!stop.empty() && it->key() >= stop) break;
    ++out.rows_examined;
    if (ResolveRow(*it, view, &row)) {
      out.rows.push_back(std::move(row));
      if (out.rows.size() >= limit) {
        ++it;
        break;
      }
    }
  }
  if (it == rows_.end() || (!stop.empty() && it->key() >= stop)) {
    out.exhausted = true;
  } else {
    out.next_start_key = it->key();
  }
  return out;
}

void Region::Flush() {
  // A dead server flushes nothing: its memstore is gone and the log is the
  // only record of those edits until ReplayEdits().
  if (store_lost_.load(std::memory_order_relaxed)) return;
  // Only a record that grew an existing row can leave a cell over its cap: a
  // row the log created holds one version per column until it is written
  // again, by a grown record. So a load, which only creates rows, caps
  // nothing and walks no log.
  if (grown_) {
    ForEachRecord(log_, [this](const LogRecord& record) {
      if ((record.flags & kGrown) == 0) return;
      if (StoredRow* row = rows_.Find(record.row_key)) {
        CompactRow(row, max_versions_, /*drop_tombstones=*/false);
      }
    });
  }
  TruncateLog();
}

void Region::TruncateLog() {
  std::string().swap(log_);  // free the buffer, not just clear it
  log_entries_ = 0;
  log_bytes_ = 0;
  grown_ = false;
}

void Region::MajorCompact(int max_versions) {
  std::unique_lock lock(mutex_);
  // Nor is a lost store compacted: without the versions the log names,
  // compaction would keep and drop the wrong ones.
  if (store_lost_.load(std::memory_order_relaxed)) return;
  if (compactable_ || max_versions < 1) {
    bool multi_version = false;
    rows_.Retain([&](StoredRow& row) {
      multi_version |=
          CompactRow(&row, max_versions, /*drop_tombstones=*/true);
      return !row.row().empty();
    });
    compactable_ = multi_version;
  }
  TruncateLog();
}

size_t Region::RowCount() const {
  std::shared_lock lock(mutex_);
  size_t live = 0;
  for (const StoredRow& row : rows_) {
    for (std::string_view rest = row.row(); !rest.empty();) {
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
  for (const StoredRow& row : rows_) {
    total += row.key().size();
    for (std::string_view rest = row.row(); !rest.empty();) {
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
  if (store_lost_.load(std::memory_order_relaxed)) return;
  // Every version a record names is in the store: only a flush or a
  // compaction drops versions, and each truncates the log. Read them all
  // back before removing any, since a later record may have replaced an
  // earlier one's version at an equal timestamp; replaying the later value
  // for both leaves the same store.
  replay_.reserve(log_entries_);
  ForEachRecord(log_, [this](const LogRecord& record) {
    RegionEdit& edit = replay_.emplace_back();
    edit.row_key = record.row_key;
    edit.ts = record.ts;
    edit.tombstone = (record.flags & kTombstone) != 0;
    const std::string_view row = RowBytes(rows_.Find(record.row_key));
    for (std::string_view rest = record.qualifiers; !rest.empty();) {
      const std::string_view qual = GetBytes(&rest);
      edit.columns.emplace_back(qual, edit.tombstone
                                          ? std::string_view()
                                          : ValueAt(row, qual, record.ts));
    }
  });
  for (const RegionEdit& edit : replay_) {
    StoredRow* row = rows_.Find(edit.row_key);
    if (row == nullptr) continue;
    for (const auto& [qual, value] : edit.columns) {
      RemoveVersion(row, qual, edit.ts);
    }
    if (row->row().empty()) rows_.Erase(edit.row_key);
  }
  compactable_ = true;
  store_lost_.store(true, std::memory_order_release);
}

void Region::ReplayEdits() {
  std::unique_lock lock(mutex_);
  for (const RegionEdit& edit : replay_) {
    WriteRow(&rows_, edit.row_key, ColumnViews(edit.columns), edit.ts,
             edit.tombstone);
  }
  std::vector<RegionEdit>().swap(replay_);
  compactable_ = true;
  store_lost_.store(false, std::memory_order_release);
}

size_t Region::EditLogSize() const {
  std::shared_lock lock(mutex_);
  return log_entries_;
}

}  // namespace synergy::hbase
