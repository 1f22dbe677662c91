// Cell semantics of the region store, and a differential property test of
// the store against a reference model.
//
// A region packs each row into one string (region.cc). The CellTest cases
// pin the per-cell rules through the Region API: newest version first, an
// equal timestamp replaces, tombstones hide older versions, the read_ts and
// exclude filters, and compaction keeping the newest N versions cut at the
// first tombstone.
//
// RegionModelTest runs seeded random operation sequences on a Region and on
// RegionModel, a plain reimplementation with one std::map node per row and
// per cell and one std::vector of versions per cell, and compares every
// observable after every step. It runs over six keys, which fit in one of the
// region's row blocks, and (ManyBlocksRegionModelTest) over 2000 keys, which
// fill more than 30: there the region is preloaded in a seeded random order
// and the steps also put or delete runs of consecutive keys, so blocks
// split, start past the last key, take rows below the first, empty out and
// are dropped. Failing instances print their seed; export
// SYNERGY_TEST_SEED=<n> to replay exactly that run.
#include "hbase/cell.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hbase/region.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

using Columns = std::vector<std::pair<std::string, std::string>>;

// ---- Cell rules, through the Region API ----

std::optional<std::string> Read(const Region& r, int64_t read_ts = INT64_MAX,
                                const std::vector<int64_t>* exclude = nullptr) {
  std::optional<RowResult> row =
      r.Get("k", ReadView{.read_ts = read_ts, .exclude = exclude});
  if (!row.has_value() || !row->columns.contains("c")) return std::nullopt;
  return row->columns.at("c");
}

// Region::ByteSize counts key + qualifier + value + 16 per version, so with
// the key "k", the qualifier "c" and one-byte values it counts versions.
size_t Versions(const Region& r) { return (r.ByteSize() - 2) / 17; }

TEST(CellTest, LatestReturnsNewestVersion) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "old"}}, 1);
  r.Put("k", {{"c", "new"}}, 5);
  r.Put("k", {{"c", "mid"}}, 3);
  ASSERT_TRUE(Read(r).has_value());
  EXPECT_EQ(*Read(r), "new");
}

TEST(CellTest, SameTimestampOverwrites) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "a"}}, 2);
  r.Put("k", {{"c", "b"}}, 2);
  EXPECT_EQ(Versions(r), 1u);
  EXPECT_EQ(*Read(r), "b");
}

TEST(CellTest, TombstoneHidesValue) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "v"}}, 1);
  r.Delete("k", 2);
  EXPECT_FALSE(Read(r).has_value());
}

TEST(CellTest, LatestVisibleRespectsReadTimestamp) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "ten"}}, 10);
  r.Put("k", {{"c", "twenty"}}, 20);
  EXPECT_EQ(*Read(r, 15), "ten");
  EXPECT_EQ(*Read(r, 25), "twenty");
  EXPECT_FALSE(Read(r, 5).has_value());
}

TEST(CellTest, LatestVisibleSkipsExcludedTransactions) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "committed"}}, 10);
  r.Put("k", {{"c", "in-flight"}}, 20);
  std::vector<int64_t> exclude = {20};
  EXPECT_EQ(*Read(r, INT64_MAX, &exclude), "committed");
}

TEST(CellTest, TombstoneVisibleAtTimestampHidesOlder) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "v"}}, 10);
  r.Delete("k", 20);
  EXPECT_FALSE(Read(r, 30).has_value());
  EXPECT_EQ(*Read(r, 15), "v");
}

TEST(CellTest, CompactDropsTombstonesAndOldVersions) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  for (int i = 1; i <= 5; ++i) r.Put("k", {{"c", std::to_string(i)}}, i);
  r.MajorCompact(2);
  ASSERT_EQ(Versions(r), 2u);
  EXPECT_EQ(*Read(r), "5");
  EXPECT_EQ(*Read(r, 4), "4");
  EXPECT_FALSE(Read(r, 3).has_value());
}

TEST(CellTest, CompactWithLeadingTombstoneEmptiesCell) {
  std::atomic<int64_t> clock{0};
  Region r(&clock);
  r.Put("k", {{"c", "v"}}, 1);
  r.Delete("k", 2);
  r.MajorCompact(3);
  EXPECT_EQ(r.ByteSize(), 0u);
  EXPECT_EQ(r.ApproxRowCount(), 0u);
}

TEST(RowResultTest, PayloadBytesCountsKeysAndValues) {
  RowResult r;
  r.row_key = "key1";  // 4
  r.columns = {{"a", "xx"}, {"bb", "y"}};  // 1+2 + 2+1
  EXPECT_EQ(r.PayloadBytes(), 10u);
}

// ---- The reference model ----

struct ModelVersion {
  int64_t timestamp = 0;
  std::string value;
  bool tombstone = false;
};

/// Versions of one column, newest first.
class ModelCell {
 public:
  void AddVersion(ModelVersion v) {
    auto it = std::lower_bound(
        versions_.begin(), versions_.end(), v.timestamp,
        [](const ModelVersion& a, int64_t ts) { return a.timestamp > ts; });
    if (it != versions_.end() && it->timestamp == v.timestamp) {
      *it = std::move(v);
    } else {
      versions_.insert(it, std::move(v));
    }
  }

  std::optional<std::string> Latest() const {
    if (versions_.empty() || versions_.front().tombstone) return std::nullopt;
    return versions_.front().value;
  }

  std::optional<std::string> LatestVisible(const ReadView& view) const {
    for (const ModelVersion& v : versions_) {
      if (v.timestamp > view.read_ts) continue;
      if (view.exclude != nullptr &&
          std::find(view.exclude->begin(), view.exclude->end(),
                    v.timestamp) != view.exclude->end()) {
        continue;
      }
      if (v.tombstone) return std::nullopt;
      return v.value;
    }
    return std::nullopt;
  }

  void RemoveVersion(int64_t ts) {
    auto it = std::find_if(
        versions_.begin(), versions_.end(),
        [ts](const ModelVersion& v) { return v.timestamp == ts; });
    if (it != versions_.end()) versions_.erase(it);
  }

  void Compact(int max_versions) {
    const auto limit = versions_.begin() +
                       std::clamp<std::ptrdiff_t>(max_versions, 0,
                                                  std::ssize(versions_));
    versions_.erase(
        std::find_if(versions_.begin(), limit,
                     [](const ModelVersion& v) { return v.tombstone; }),
        versions_.end());
  }

  bool empty() const { return versions_.empty(); }

  size_t ByteSize() const {
    size_t total = 0;
    for (const ModelVersion& v : versions_) total += v.value.size() + 16;
    return total;
  }

 private:
  std::vector<ModelVersion> versions_;
};

using ModelRow = std::map<std::string, ModelCell>;

/// A Region without a latch, a clock of its own or a log flush: the test's
/// logs stay far below the 1 MiB at which a region flushes.
class RegionModel {
 public:
  int64_t clock = 0;

  void Put(const std::string& key, const Columns& columns,
           std::optional<int64_t> ts) {
    const int64_t t = Alloc(ts);
    ModelRow& row = rows_[key];
    for (const auto& [qual, value] : columns) {
      row[qual].AddVersion(ModelVersion{t, value, false});
    }
    log_.push_back(RegionEdit{key, columns, t, false});
  }

  void Delete(const std::string& key, std::optional<int64_t> ts) {
    auto it = rows_.find(key);
    if (it == rows_.end()) return;
    RegionEdit edit{key, {}, Alloc(ts), true};
    for (auto& [qual, cell] : it->second) {
      cell.AddVersion(ModelVersion{edit.ts, "", true});
      edit.columns.emplace_back(qual, "");
    }
    log_.push_back(std::move(edit));
  }

  std::optional<RowResult> Get(const std::string& key,
                               const ReadView& view) const {
    auto it = rows_.find(key);
    if (it == rows_.end()) return std::nullopt;
    return Resolve(key, it->second, view);
  }

  bool CheckAndPut(const std::string& key, const std::string& qual,
                   const std::optional<std::string>& expected,
                   const std::string& value) {
    std::optional<std::string> current;
    if (auto rit = rows_.find(key); rit != rows_.end()) {
      auto cit = rit->second.find(qual);
      if (cit != rit->second.end()) current = cit->second.Latest();
    }
    if (current != expected) return false;
    const int64_t t = Alloc(std::nullopt);
    rows_[key][qual].AddVersion(ModelVersion{t, value, false});
    log_.push_back(RegionEdit{key, {{qual, value}}, t, false});
    return true;
  }

  std::optional<int64_t> Increment(const std::string& key,
                                   const std::string& qual, int64_t delta) {
    ModelRow& row = rows_[key];
    int64_t current = 0;
    if (auto cit = row.find(qual); cit != row.end()) {
      if (std::optional<std::string> v = cit->second.Latest()) {
        auto [ptr, ec] =
            std::from_chars(v->data(), v->data() + v->size(), current);
        if (ec != std::errc{}) return std::nullopt;
      }
    }
    const int64_t next = current + delta;
    const int64_t t = Alloc(std::nullopt);
    row[qual].AddVersion(ModelVersion{t, std::to_string(next), false});
    log_.push_back(RegionEdit{key, {{qual, std::to_string(next)}}, t, false});
    return next;
  }

  ScanBatchResult ScanBatch(const std::string& from, const std::string& stop,
                            size_t limit, const ReadView& view) const {
    ScanBatchResult out;
    auto it = rows_.lower_bound(from);
    for (; it != rows_.end(); ++it) {
      if (!stop.empty() && it->first >= stop) break;
      ++out.rows_examined;
      if (std::optional<RowResult> row = Resolve(it->first, it->second, view)) {
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

  void MajorCompact(int max_versions) {
    for (auto row_it = rows_.begin(); row_it != rows_.end();) {
      ModelRow& row = row_it->second;
      for (auto cell_it = row.begin(); cell_it != row.end();) {
        cell_it->second.Compact(max_versions);
        cell_it = cell_it->second.empty() ? row.erase(cell_it)
                                          : std::next(cell_it);
      }
      row_it = row.empty() ? rows_.erase(row_it) : std::next(row_it);
    }
    log_.clear();
  }

  size_t RowCount() const {
    size_t live = 0;
    for (const auto& [key, row] : rows_) {
      live += std::any_of(row.begin(), row.end(), [](const auto& entry) {
        return entry.second.Latest().has_value();
      });
    }
    return live;
  }

  size_t ApproxRowCount() const { return rows_.size(); }

  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& [key, row] : rows_) {
      total += key.size();
      for (const auto& [qual, cell] : row) {
        total += qual.size() + cell.ByteSize();
      }
    }
    return total;
  }

  size_t EditLogSize() const { return log_.size(); }

  void DropStore() {
    for (const RegionEdit& edit : log_) {
      auto row_it = rows_.find(edit.row_key);
      if (row_it == rows_.end()) continue;
      ModelRow& row = row_it->second;
      for (const auto& [qual, value] : edit.columns) {
        auto cell_it = row.find(qual);
        if (cell_it == row.end()) continue;
        cell_it->second.RemoveVersion(edit.ts);
        if (cell_it->second.empty()) row.erase(cell_it);
      }
      if (row.empty()) rows_.erase(row_it);
    }
  }

  void ReplayEdits() {
    for (const RegionEdit& edit : log_) {
      ModelRow& row = rows_[edit.row_key];
      for (const auto& [qual, value] : edit.columns) {
        row[qual].AddVersion(ModelVersion{edit.ts, value, edit.tombstone});
      }
    }
  }

 private:
  int64_t Alloc(std::optional<int64_t> ts) {
    return ts.has_value() ? *ts : ++clock;
  }

  static std::optional<RowResult> Resolve(const std::string& key,
                                          const ModelRow& row,
                                          const ReadView& view) {
    RowResult out;
    out.row_key = key;
    for (const auto& [qual, cell] : row) {
      if (std::optional<std::string> v = cell.LatestVisible(view)) {
        out.columns.Append(qual, std::move(*v));
      }
    }
    if (out.columns.empty()) return std::nullopt;
    return out;
  }

  std::map<std::string, ModelRow> rows_;
  std::vector<RegionEdit> log_;
};

// ---- The differential property test ----

std::string Describe(const std::optional<RowResult>& row) {
  if (!row.has_value()) return "(none)";
  std::string out = row->row_key + " {";
  for (const auto& [qual, value] : row->columns) {
    out += " " + qual + "=" + value;
  }
  return out + " }";
}

class RegionModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int kSteps = 400;
  // Up to this many keys, CheckSame reads every one; above it, a sample.
  static constexpr size_t kReadAllKeys = 6;

  /// The key space, in byte order (runs of consecutive keys index into it).
  std::vector<std::string> keys_ = {"a", "b", "c", "d", "e", "f"};
  const std::vector<std::string> quals_ = {"m", "d", "n", "x"};
  /// Step draws one of this many operations: 12, or 14 with the run ops.
  uint64_t ops_ = 12;
  /// ScanBatch limits are drawn from [1, max_limit_].
  int64_t max_limit_ = 7;

  std::string Key() { return Pick(keys_); }
  std::string Qual() { return Pick(quals_); }
  std::string RandomValue() {
    // Small integers half the time, so Increment both succeeds and fails.
    // Now and then a value long enough that lengths take two varint bytes.
    switch (rng_.Next() % 8) {
      case 0:
        return rng_.AlphaString(static_cast<size_t>(rng_.Uniform(100, 200)));
      case 1:
      case 2:
      case 3:
        return rng_.AlphaString(static_cast<size_t>(rng_.Uniform(0, 6)));
      default:
        return std::to_string(rng_.Uniform(-3, 9));
    }
  }
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_.Next() % from.size()];
  }

  /// No timestamp (the clock's next), the newest seen, or any earlier one.
  std::optional<int64_t> Ts() {
    switch (rng_.Next() % 4) {
      case 0:
        return std::nullopt;
      case 1:
        return model_.clock;  // equal to the newest clock write
      default:
        return rng_.Uniform(1, model_.clock + 3);
    }
  }

  /// Read views: the latest, a read timestamp in the past, and a snapshot
  /// that excludes some recent timestamps.
  std::vector<ReadView> Views() {
    exclude_.clear();
    for (int i = 0; i < 3; ++i) {
      exclude_.push_back(rng_.Uniform(1, model_.clock + 3));
    }
    return {ReadView{},
            ReadView{.read_ts = rng_.Uniform(0, model_.clock + 3)},
            ReadView{.read_ts = rng_.Uniform(0, model_.clock + 3),
                     .exclude = &exclude_}};
  }

  /// Every key of a small space; else a seeded sample, a few of them made
  /// absent keys that sort right after a present one ('!' sorts below every
  /// digit).
  std::vector<std::string> ReadKeys() {
    if (keys_.size() <= kReadAllKeys) return keys_;
    std::vector<std::string> out;
    for (int i = 0; i < 32; ++i) {
      out.push_back(Key());
      if (rng_.Next() % 8 == 0) out.back() += "!";
    }
    return out;
  }

  void Step(std::string* op) {
    const std::string key = Key();
    switch (rng_.Next() % ops_) {
      case 0:
      case 1:
      case 2: {  // Put, at any timestamp
        const Columns columns = {{Qual(), RandomValue()}};
        const std::optional<int64_t> ts = Ts();
        *op = "Put " + key + " " + columns[0].first + " ts " +
              (ts ? std::to_string(*ts) : "clock");
        region_.Put(key, columns, ts);
        model_.Put(key, columns, ts);
        break;
      }
      case 3: {  // multi-column Put, duplicate qualifiers allowed, or empty
        Columns columns;
        const int n = static_cast<int>(rng_.Uniform(0, 3));
        for (int i = 0; i < n; ++i) columns.emplace_back(Qual(), RandomValue());
        const std::optional<int64_t> ts = Ts();
        *op = "Put " + key + " of " + std::to_string(n) + " columns";
        region_.Put(key, columns, ts);
        model_.Put(key, columns, ts);
        break;
      }
      case 4:
      case 5: {
        const std::optional<int64_t> ts = Ts();
        *op = "Delete " + key + " ts " + (ts ? std::to_string(*ts) : "clock");
        region_.Delete(key, ts);
        model_.Delete(key, ts);
        break;
      }
      case 6: {
        const std::string qual = Qual();
        std::optional<std::string> expected;
        if (std::optional<RowResult> row = model_.Get(key, ReadView{});
            row.has_value() && row->columns.contains(qual) &&
            rng_.Next() % 2 == 0) {
          expected = row->columns.at(qual);
        } else if (rng_.Next() % 2 == 0) {
          expected = RandomValue();
        }
        const std::string value = RandomValue();
        *op = "CheckAndPut " + key + " " + qual;
        ASSERT_EQ(region_.CheckAndPut(key, qual, expected, value),
                  model_.CheckAndPut(key, qual, expected, value));
        break;
      }
      case 7: {
        const std::string qual = Qual();
        const int64_t delta = rng_.Uniform(-5, 5);
        *op = "Increment " + key + " " + qual;
        StatusOr<int64_t> got = region_.Increment(key, qual, delta);
        std::optional<int64_t> want = model_.Increment(key, qual, delta);
        ASSERT_EQ(got.ok(), want.has_value());
        if (want.has_value()) {
          ASSERT_EQ(*got, *want);
        }
        break;
      }
      case 8:
      case 9: {
        const int max_versions = rng_.Next() % 2 == 0 ? 1 : 3;
        *op = "MajorCompact(" + std::to_string(max_versions) + ")";
        region_.MajorCompact(max_versions);
        model_.MajorCompact(max_versions);
        break;
      }
      case 10:
      case 11: {
        *op = "DropStore";
        region_.DropStore();
        model_.DropStore();
        ASSERT_NO_FATAL_FAILURE(CheckSame());
        *op = "DropStore, ReplayEdits";
        region_.ReplayEdits();
        model_.ReplayEdits();
        break;
      }
      default: {  // Put or Delete every key of a run of consecutive keys
        const bool put = rng_.Next() % 2 == 0;
        const size_t first = rng_.Next() % keys_.size();
        const size_t end = std::min(
            keys_.size(), first + static_cast<size_t>(rng_.Uniform(1, 150)));
        *op = std::string(put ? "Put" : "Delete") + " run [" + keys_[first] +
              ", " + std::to_string(end - first) + " keys)";
        for (size_t i = first; i < end; ++i) {
          if (put) {
            const Columns columns = {{Qual(), RandomValue()}};
            region_.Put(keys_[i], columns);
            model_.Put(keys_[i], columns, std::nullopt);
          } else {
            region_.Delete(keys_[i]);
            model_.Delete(keys_[i], std::nullopt);
          }
        }
        break;
      }
    }
  }

  /// Puts every key once, with clock timestamps, in runs of consecutive
  /// keys (half of up to 4 keys, half of up to 100), each ascending or
  /// descending. Two runs in three grow the region outward from a random
  /// one, so each lands past the region's last key or below its first; the
  /// rest then fill the gaps in shuffled order.
  void Preload() {
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t at = 0; at < keys_.size();) {
      const int64_t longest = rng_.Next() % 2 == 0 ? 4 : 100;
      const size_t end = std::min(
          keys_.size(), at + static_cast<size_t>(rng_.Uniform(1, longest)));
      runs.emplace_back(at, end);
      at = end;
    }
    std::vector<std::pair<size_t, size_t>> order;
    std::vector<std::pair<size_t, size_t>> gaps;
    size_t lo = rng_.Next() % runs.size();  // runs [lo, hi) are placed
    size_t hi = lo;
    while (lo > 0 || hi < runs.size()) {
      const bool up = lo == 0 || (hi < runs.size() && rng_.Next() % 2 == 0);
      const auto& run = up ? runs[hi++] : runs[--lo];
      (rng_.Next() % 3 == 0 ? gaps : order).push_back(run);
    }
    for (size_t i = gaps.size(); i > 1; --i) {
      std::swap(gaps[i - 1], gaps[rng_.Next() % i]);
    }
    order.insert(order.end(), gaps.begin(), gaps.end());
    for (const auto& [begin, end] : order) {
      const bool descending = rng_.Next() % 2 == 0;
      for (size_t i = 0; i < end - begin; ++i) {
        const std::string& key = keys_[descending ? end - 1 - i : begin + i];
        const Columns columns = {{Qual(), RandomValue()}};
        region_.Put(key, columns);
        model_.Put(key, columns, std::nullopt);
      }
    }
  }

  void Run() {
    std::string op;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      ASSERT_NO_FATAL_FAILURE(Step(&op)) << op;
      ASSERT_EQ(clock_.load(), model_.clock) << op;
      ASSERT_NO_FATAL_FAILURE(CheckSame()) << op;
    }
  }

  void CheckSame() {
    ASSERT_EQ(region_.RowCount(), model_.RowCount());
    ASSERT_EQ(region_.ApproxRowCount(), model_.ApproxRowCount());
    ASSERT_EQ(region_.ByteSize(), model_.ByteSize());
    ASSERT_EQ(region_.EditLogSize(), model_.EditLogSize());
    for (const ReadView& view : Views()) {
      for (const std::string& key : ReadKeys()) {
        ASSERT_EQ(Describe(region_.Get(key, view)),
                  Describe(model_.Get(key, view)))
            << "Get " << key << " at read_ts " << view.read_ts;
      }
      const std::string from = rng_.Next() % 3 == 0 ? "" : Key();
      const std::string stop = rng_.Next() % 2 == 0 ? "" : Key();
      const size_t limit = static_cast<size_t>(rng_.Uniform(1, max_limit_));
      const ScanBatchResult got = region_.ScanBatch(from, stop, limit, view);
      const ScanBatchResult want = model_.ScanBatch(from, stop, limit, view);
      SCOPED_TRACE("ScanBatch [" + from + ", " + stop + ") limit " +
                   std::to_string(limit));
      ASSERT_EQ(got.rows.size(), want.rows.size());
      for (size_t i = 0; i < got.rows.size(); ++i) {
        ASSERT_EQ(Describe(got.rows[i]), Describe(want.rows[i]));
      }
      ASSERT_EQ(got.rows_examined, want.rows_examined);
      ASSERT_EQ(got.next_start_key, want.next_start_key);
      ASSERT_EQ(got.exhausted, want.exhausted);
    }
  }

  Rng rng_{GetParam()};
  std::atomic<int64_t> clock_{0};
  Region region_{&clock_};
  RegionModel model_;
  std::vector<int64_t> exclude_;
};

TEST_P(RegionModelTest, PackedStoreMatchesModel) {
  SCOPED_TRACE("replay with SYNERGY_TEST_SEED=" + std::to_string(GetParam()));
  Run();
}

/// The same steps over 2000 keys, "r0" to "r1999" in byte order (so "r1",
/// "r10", "r100", ...), preloaded: scans with limits of up to four blocks'
/// worth of rows, and the run ops that empty blocks out.
class ManyBlocksRegionModelTest : public RegionModelTest {
 protected:
  void SetUp() override {
    keys_.clear();
    for (int i = 0; i < 2000; ++i) keys_.push_back("r" + std::to_string(i));
    std::sort(keys_.begin(), keys_.end());
    ops_ = 14;
    max_limit_ = 256;
    Preload();
  }
};

TEST_P(ManyBlocksRegionModelTest, BlockStoreMatchesModel) {
  SCOPED_TRACE("replay with SYNERGY_TEST_SEED=" + std::to_string(GetParam()));
  ASSERT_NO_FATAL_FAILURE(CheckSame()) << "Preload";
  Run();
}

// SYNERGY_TEST_SEED=<n> collapses each suite to the single failing seed.
INSTANTIATE_TEST_SUITE_P(
    Seeds, RegionModelTest,
    ::testing::ValuesIn(fault::TestSeedsFromEnv({1, 2, 3, 5, 8, 13, 21, 34})));
INSTANTIATE_TEST_SUITE_P(
    Seeds, ManyBlocksRegionModelTest,
    ::testing::ValuesIn(fault::TestSeedsFromEnv({1, 2, 3, 5, 8, 13, 21, 34})));

}  // namespace
}  // namespace synergy::hbase
