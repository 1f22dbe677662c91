#include "hbase/region.h"

#include <gtest/gtest.h>

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

  // The flushes dropped no version: a view that excludes the rewrite's
  // timestamp still reads the value under it.
  const std::vector<int64_t> newest = {2};
  EXPECT_EQ(r.Get("k", ReadView{.exclude = &newest})->columns.at("v"), "old");
  EXPECT_EQ(r.Get("k", Now())->columns.at("v"), "new");
  EXPECT_EQ(r.RowCount(), 3001u);
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
