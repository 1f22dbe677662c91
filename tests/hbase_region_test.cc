#include "hbase/region.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace synergy::hbase {
namespace {

ReadView Now() { return ReadView{}; }
std::atomic<int64_t> clock{0};

TEST(RegionTest, PutGetRoundTrip) {
  Region r(&clock);
  r.Put("k1", {{"a", "1"}, {"b", "2"}}, 1);
  auto row = r.Get("k1", Now());
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->columns.at("a"), "1");
  EXPECT_EQ(row->columns.at("b"), "2");
}

TEST(RegionTest, GetMissingRow) {
  Region r(&clock);
  EXPECT_FALSE(r.Get("nope", Now()).has_value());
}

TEST(RegionTest, DeleteHidesRow) {
  Region r(&clock);
  r.Put("k", {{"a", "1"}}, 1);
  r.Delete("k", 2);
  EXPECT_FALSE(r.Get("k", Now()).has_value());
}

TEST(RegionTest, CheckAndPutSucceedsOnMatch) {
  Region r(&clock);
  EXPECT_TRUE(r.CheckAndPut("k", "lock", std::nullopt, "1"));
  EXPECT_FALSE(r.CheckAndPut("k", "lock", std::nullopt, "1"));
  EXPECT_TRUE(r.CheckAndPut("k", "lock", "1", "0"));
  auto row = r.Get("k", Now());
  EXPECT_EQ(row->columns.at("lock"), "0");
}

// A failed check leaves no empty row behind: one would count in the row
// count and the size, and every full scan would be charged for it.
TEST(RegionTest, FailedCheckAndPutOnAbsentRowCreatesNoRow) {
  Region r(&clock);
  EXPECT_FALSE(r.CheckAndPut("k", "lock", "0", "1"));
  EXPECT_EQ(r.ApproxRowCount(), 0u);
  EXPECT_EQ(r.ByteSize(), 0u);
  EXPECT_FALSE(r.Get("k", Now()).has_value());
  EXPECT_EQ(r.ScanBatch("", "", 10, Now()).rows_examined, 0u);
  EXPECT_TRUE(r.CheckAndPut("k", "lock", std::nullopt, "0"));
  EXPECT_EQ(r.ApproxRowCount(), 1u);
}

TEST(RegionTest, CheckAndPutIsMutuallyExclusiveUnderThreads) {
  Region r(&clock);
  r.Put("k", {{"lock", "0"}}, 1);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      if (r.CheckAndPut("k", "lock", "0", "1")) winners.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(RegionTest, IncrementAccumulates) {
  Region r(&clock);
  auto v1 = r.Increment("k", "n", 5);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 5);
  auto v2 = r.Increment("k", "n", -2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 3);
}

TEST(RegionTest, IncrementRejectsNonInteger) {
  Region r(&clock);
  r.Put("k", {{"n", "abc"}}, 1);
  EXPECT_FALSE(r.Increment("k", "n", 1).ok());
}

TEST(RegionTest, ScanBatchReturnsSortedRange) {
  Region r(&clock);
  for (const char* k : {"d", "a", "c", "b", "e"}) r.Put(k, {{"v", k}}, 1);
  auto batch = r.ScanBatch("b", "e", 100, Now());
  ASSERT_EQ(batch.rows.size(), 3u);
  EXPECT_EQ(batch.rows[0].row_key, "b");
  EXPECT_EQ(batch.rows[2].row_key, "d");
  EXPECT_TRUE(batch.exhausted);
}

TEST(RegionTest, ScanBatchHonorsLimitAndResumes) {
  Region r(&clock);
  for (const char* k : {"a", "b", "c", "d"}) r.Put(k, {{"v", k}}, 1);
  auto batch = r.ScanBatch("", "", 2, Now());
  ASSERT_EQ(batch.rows.size(), 2u);
  EXPECT_FALSE(batch.exhausted);
  EXPECT_EQ(batch.next_start_key, "c");
  auto batch2 = r.ScanBatch(batch.next_start_key, "", 10, Now());
  ASSERT_EQ(batch2.rows.size(), 2u);
  EXPECT_TRUE(batch2.exhausted);
}

TEST(RegionTest, ScanSkipsDeletedRowsButCountsThem) {
  Region r(&clock);
  r.Put("a", {{"v", "1"}}, 1);
  r.Put("b", {{"v", "2"}}, 1);
  r.Delete("a", 2);
  auto batch = r.ScanBatch("", "", 10, Now());
  ASSERT_EQ(batch.rows.size(), 1u);
  EXPECT_EQ(batch.rows[0].row_key, "b");
  EXPECT_EQ(batch.rows_examined, 2u);
}

TEST(RegionTest, MajorCompactRemovesDeletedRows) {
  Region r(&clock);
  r.Put("a", {{"v", "1"}}, 1);
  r.Delete("a", 2);
  r.MajorCompact(3);
  EXPECT_EQ(r.RowCount(), 0u);
}

// A store whose every cell holds one live version, as a load leaves it,
// has nothing to drop: compaction that keeps a version leaves every row and
// byte as it was, and only flushes the edit log.
TEST(RegionTest, OneVersionStoreCompactsToTheIdenticalStore) {
  Region r(&clock);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    r.Put(key, {{"d", "value" + std::to_string(i)}});
    if (i % 3 == 0) {
      EXPECT_TRUE(r.CheckAndPut("m" + key, "m", std::nullopt, "0"));
    }
    if (i % 7 == 0) {
      ASSERT_TRUE(r.Increment("n" + key, "n", i).ok());
    }
  }
  auto snapshot = [&r] {
    std::string rows;
    for (const RowResult& row : r.ScanBatch("", "", 1000, Now()).rows) {
      rows += row.row_key;
      for (const auto& [qual, value] : row.columns) {
        rows += " " + qual + "=" + value;
      }
      rows += "\n";
    }
    return rows + std::to_string(r.RowCount()) + " " +
           std::to_string(r.ApproxRowCount()) + " " +
           std::to_string(r.ByteSize());
  };
  const std::string before = snapshot();
  ASSERT_GT(r.EditLogSize(), 0u);
  for (int max_versions : {3, 1}) {
    r.MajorCompact(max_versions);
    EXPECT_EQ(snapshot(), before);
    EXPECT_EQ(r.EditLogSize(), 0u);
  }
  // Keeping no version empties even such a store.
  r.MajorCompact(0);
  EXPECT_EQ(r.ApproxRowCount(), 0u);
  EXPECT_EQ(r.ByteSize(), 0u);
}

// Each row written below logs a record of a little over 1 KiB, so a flush
// at 1 MiB comes after the 1001st to the 1024th record since the last one.
TEST(RegionTest, EditLogFlushesAtOneMebibyteAndKeepsEveryVersion) {
  Region r(&clock);
  r.Put("k", {{"v", "old"}}, 1);
  r.Put("k", {{"v", "new"}}, 2);
  const std::string value(1024, 'x');
  size_t since_flush = 2;
  int flushes = 0;
  for (int i = 0; i < 3000; ++i) {  // about 3 MiB of edits
    r.Put("row" + std::to_string(i), {{"v", value}}, 3 + i);
    ++since_flush;
    if (r.EditLogSize() == 0) {
      EXPECT_GT(since_flush, 1000u) << "flushed before 1 MiB";
      EXPECT_LE(since_flush, 1024u) << "flushed after 1 MiB";
      since_flush = 0;
      ++flushes;
    }
    ASSERT_EQ(r.EditLogSize(), since_flush);
  }
  EXPECT_EQ(flushes, 2);

  // The flushes kept both of the row's versions, since the default VERSIONS
  // is 3: a view that excludes the rewrite's timestamp still reads the
  // value under it.
  const std::vector<int64_t> newest = {2};
  EXPECT_EQ(r.Get("k", ReadView{.exclude = &newest})->columns.at("v"), "old");
  EXPECT_EQ(r.Get("k", Now())->columns.at("v"), "new");
  EXPECT_EQ(r.RowCount(), 3001u);
}

/// Puts rows of 1 KiB under fresh keys, at timestamps from `*ts` on, until
/// `r` flushes; returns how many.
size_t FillUntilFlush(Region& r, int64_t* ts) {
  const std::string value(1024, 'x');
  size_t rows = 0;
  do {
    r.Put("fill" + std::to_string(rows++), {{"v", value}}, ++*ts);
  } while (r.EditLogSize() > 0 && rows < 2000);
  return rows;
}

/// `key`'s column `qual` as a read at `read_ts` sees it, or "-".
std::string At(const Region& r, const std::string& key,
               const std::string& qual, int64_t read_ts) {
  std::optional<RowResult> row = r.Get(key, ReadView{.read_ts = read_ts});
  if (!row.has_value() || !row->columns.contains(qual)) return "-";
  return row->columns.at(qual);
}

// A flush caps each row that a write grew since the last flush at the
// region's VERSIONS: the newest version of each cell at max_versions 1, the
// newest three by default. Tombstones count as versions, so no row or
// column goes, and both row counts stay as they were.
TEST(RegionTest, FlushCapsGrownRowsAtTheRegionsVersions) {
  for (const int max_versions : {1, kMaxVersions}) {
    SCOPED_TRACE("max_versions " + std::to_string(max_versions));
    Region r(&clock, 0, max_versions);
    EXPECT_EQ(r.max_versions(), max_versions);
    int64_t ts = 0;
    for (int v = 1; v <= 5; ++v) {  // "k" at ts 1..5
      const std::string n = std::to_string(v);
      r.Put("k", {{"a", "a" + n}, {"b", "b" + n}}, ++ts);
    }
    for (int v = 6; v <= 9; ++v) r.Put("gone", {{"a", std::to_string(v)}}, ++ts);
    r.Delete("gone", ++ts);  // a tombstone at ts 10
    r.Put("once", {{"a", "1"}}, ++ts);
    ASSERT_EQ(r.ApproxRowCount(), 3u);
    ASSERT_EQ(r.RowCount(), 2u);
    for (int64_t t = 1; t <= 5; ++t) {  // before the flush, every version
      ASSERT_EQ(At(r, "k", "b", t), "b" + std::to_string(t));
    }

    const size_t filled = FillUntilFlush(r, &ts);
    ASSERT_EQ(r.EditLogSize(), 0u) << "no flush";
    EXPECT_EQ(r.ApproxRowCount(), 3u + filled);
    EXPECT_EQ(r.RowCount(), 2u + filled);
    for (int64_t t = 1; t <= 5; ++t) {
      const bool kept = t > 5 - max_versions;
      for (const std::string qual : {"a", "b"}) {
        EXPECT_EQ(At(r, "k", qual, t), kept ? qual + std::to_string(t) : "-")
            << qual << " at ts " << t;
      }
    }
    // "gone" keeps its tombstone, and with it max_versions - 1 values.
    EXPECT_FALSE(r.Get("gone", ReadView{}).has_value());
    EXPECT_EQ(At(r, "gone", "a", 9), max_versions > 1 ? "9" : "-");
    EXPECT_EQ(At(r, "gone", "a", 8), max_versions > 2 ? "8" : "-");
    EXPECT_EQ(At(r, "gone", "a", 7), "-");
    EXPECT_EQ(At(r, "once", "a", ts), "1");
  }
}

/// What reads tell of `r`: its sizes, every row at the newest timestamp
/// (a value over 16 bytes as its length), and `key`'s column "a" at each
/// timestamp up to `max_ts`.
std::string Snapshot(const Region& r, const std::string& key, int64_t max_ts) {
  std::string out = std::to_string(r.ApproxRowCount()) + " " +
                    std::to_string(r.RowCount()) + " " +
                    std::to_string(r.ByteSize()) + "\n";
  for (const RowResult& row : r.ScanBatch("", "", SIZE_MAX, Now()).rows) {
    out += row.row_key;
    for (const auto& [qual, value] : row.columns) {
      out += " " + qual + "=" +
             (value.size() > 16 ? std::to_string(value.size()) + "B" : value);
    }
    out += "\n";
  }
  for (int64_t t = 1; t <= max_ts; ++t) out += At(r, key, "a", t) + ",";
  return out;
}

// DropStore after a capping flush leaves the flushed store, where a
// rewritten cell holds its newest flushed version only; ReplayEdits puts
// back every version written since, byte for byte.
TEST(RegionTest, DropStoreAfterCappingFlushLeavesNewestFlushedVersions) {
  Region r(&clock, 0, /*max_versions=*/1);
  int64_t ts = 0;
  for (int v = 1; v <= 3; ++v) r.Put("k", {{"a", "flushed" + std::to_string(v)}}, ++ts);
  FillUntilFlush(r, &ts);
  ASSERT_EQ(r.EditLogSize(), 0u) << "no flush";
  const int64_t flush_ts = ts;
  const std::string flushed = Snapshot(r, "k", flush_ts);

  r.Put("k", {{"a", "lost1"}}, ++ts);
  r.Put("k", {{"a", "lost2"}}, ++ts);
  r.Put("new", {{"a", "x"}}, ++ts);
  r.Delete("fill0", ++ts);
  ASSERT_TRUE(r.CheckAndPut("lock", "a", std::nullopt, "1"));
  ASSERT_TRUE(r.Increment("k", "n", 7).ok());
  const std::string before = Snapshot(r, "k", ts);

  r.DropStore();
  EXPECT_EQ(r.Get("k", Now())->columns.at("a"), "flushed3");
  EXPECT_EQ(At(r, "k", "a", 2), "-");  // capped at the flush
  EXPECT_FALSE(r.Get("new", Now()).has_value());
  EXPECT_TRUE(r.Get("fill0", Now()).has_value());
  EXPECT_EQ(Snapshot(r, "k", flush_ts), flushed);

  r.ReplayEdits();
  EXPECT_EQ(Snapshot(r, "k", ts), before);
  EXPECT_EQ(r.Get("k", Now())->columns.at("a"), "lost2");
  EXPECT_EQ(At(r, "k", "a", ts - 3), "lost1");  // unflushed: not capped
}

// A region keeps its rows in blocks of 64 (row_blocks.h): a full block is
// halved, and a row past the last key starts a block. Around one, two and
// three blocks' worth of rows, put in ascending or in descending key order,
// one more row at each position must leave every row readable and the scan
// in key order.
TEST(RegionTest, InsertAtEachPositionAroundFullBlocks) {
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    return std::string(buf);
  };
  for (const int n : {63, 64, 65, 128, 192}) {
    for (const bool descending : {false, true}) {
      for (int at = 0; at <= n; ++at) {
        SCOPED_TRACE(std::to_string(n) + (descending ? " descending" : "") +
                     " rows, one more at " + std::to_string(at));
        Region r(&clock);
        for (int i = 0; i < n; ++i) {
          r.Put(key(2 * (descending ? n - 1 - i : i) + 1), {{"v", "x"}});
        }
        r.Put(key(2 * at), {{"v", "new"}});
        const ScanBatchResult all = r.ScanBatch("", "", n + 2, Now());
        ASSERT_EQ(all.rows.size(), static_cast<size_t>(n + 1));
        for (int i = 0; i <= n; ++i) {
          const std::string want = key(i < at ? 2 * i + 1 : 2 * (i - 1) + 1);
          ASSERT_EQ(all.rows[i].row_key, i == at ? key(2 * at) : want);
          ASSERT_TRUE(r.Get(all.rows[i].row_key, Now()).has_value());
        }
        ASSERT_EQ(r.ApproxRowCount(), static_cast<size_t>(n + 1));
      }
    }
  }
}

TEST(RegionTest, ConcurrentPutsAllLand) {
  Region r(&clock);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 250; ++i) {
        r.Put("k" + std::to_string(t) + "_" + std::to_string(i),
              {{"v", "x"}}, t * 1000 + i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.RowCount(), 1000u);
}

}  // namespace
}  // namespace synergy::hbase
