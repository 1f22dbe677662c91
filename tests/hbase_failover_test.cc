// Region-server failover: heartbeat-driven failure detection, WAL-backed
// region reassignment (crash = store lost + replay; fence = store intact,
// move without replay), degraded reads, and the client retry path riding
// through an outage.
#include "hbase/failover.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "hbase/cluster.h"
#include "hbase/region.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

// Five one-row tables created in order, so table i is placed on server i.
// Each holds row "r" whose value is its table's name.
const char* const kTables[] = {"t0", "t1", "t2", "t3", "t4"};

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fast detection so tests drive whole failovers with a few pumps: a
    // heartbeat round every 4 ticks, dead after 2 missed rounds.
    config_.heartbeat_every_rpcs = 4;
    config_.lease_missed_rounds = 2;
    cluster_.ConfigureFailover(config_);
    Session s(&cluster_);
    for (const char* table : kTables) {
      ASSERT_TRUE(cluster_.CreateTable({.name = table}).ok());
      ASSERT_TRUE(cluster_.Put(s, table, "r", {{"v", table}}).ok());
    }
  }

  /// Reads row "r" of every table; each must hold its table's name.
  void ExpectEveryRowIntact() {
    Session s(&cluster_);
    for (const char* table : kTables) {
      StatusOr<RowResult> got = cluster_.Get(s, table, "r");
      ASSERT_TRUE(got.ok()) << table << ": " << got.status();
      EXPECT_EQ(got->columns.at("v"), table);
    }
  }

  /// Advances virtual time by `n` heartbeat rounds without issuing RPCs.
  void Rounds(int n) {
    for (int i = 0; i < n; ++i) {
      cluster_.failover().PumpVirtualTime(config_.heartbeat_every_rpcs *
                                          config_.us_per_tick);
    }
  }

  /// Current value of a registry counter family.
  uint64_t Count(const char* family) const {
    return cluster_.metrics().Snapshot().CounterValue(family);
  }

  FailoverConfig config_;
  Cluster cluster_;
};

TEST_F(FailoverTest, RegionServerOfReportsHostingServer) {
  for (int i = 0; i < 5; ++i) {
    StatusOr<int> host = cluster_.RegionServerOf(kTables[i]);
    ASSERT_TRUE(host.ok());
    EXPECT_EQ(*host, i);  // the i-th table created is placed on server i
  }
  EXPECT_EQ(cluster_.RegionServerOf("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FailoverTest, CrashedServerIsUnavailableUntilLeaseExpires) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  EXPECT_EQ(cluster_.failover().state(0), ServerState::kCrashed);
  EXPECT_FALSE(cluster_.failover().AllHealthy());

  // Table t0 lives on server 0: its store is gone and the master has not
  // noticed yet, so the read fails retryably.
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t0", "r").status().code(),
            StatusCode::kUnavailable);
  // Tables on live servers are unaffected.
  EXPECT_TRUE(cluster_.Get(s, "t1", "r").ok());
}

TEST_F(FailoverTest, CrashReassignsAndReplaysWithoutLosingWrites) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  Rounds(config_.lease_missed_rounds + 2);  // expire lease + sweep

  EXPECT_EQ(cluster_.failover().state(0), ServerState::kDead);
  ExpectEveryRowIntact();
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  EXPECT_EQ(Count("hbase_failover_regions_reassigned_total"), 1u);
  // The crash lost the memstore, so the region's one edit was replayed.
  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), 1u);
  EXPECT_GT(cluster_.RegionServerOf("t0").value(), 0);  // moved off server 0
}

TEST_F(FailoverTest, FencedServerMovesRegionsWithoutReplay) {
  cluster_.failover().FenceServer(1);
  Rounds(config_.lease_missed_rounds + 2);

  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  Session s(&cluster_);
  StatusOr<RowResult> got = cluster_.Get(s, "t1", "r");  // was on server 1
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "t1");
  EXPECT_EQ(Count("hbase_failover_fenced_total"), 1u);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 0u);
  EXPECT_EQ(Count("hbase_failover_regions_reassigned_total"), 1u);
  // The store was intact: replaying would duplicate versions, so none ran.
  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), 0u);
}

TEST_F(FailoverTest, DegradedReadsDuringReassignmentWindow) {
  // Zero-region batches freeze the sweep, holding the cluster in the
  // "declared dead, not yet reassigned" window.
  config_.reassign_regions_per_round = 0;
  cluster_.ConfigureFailover(config_);

  cluster_.failover().FenceServer(2);
  Rounds(config_.lease_missed_rounds + 2);
  ASSERT_EQ(cluster_.failover().state(2), ServerState::kDead);

  // Fenced store is intact: reads are served, flagged degraded.
  Session s(&cluster_);
  StatusOr<RowResult> got = cluster_.Get(s, "t2", "r");  // server 2's region
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "t2");
  EXPECT_EQ(s.count(obs::OpCounter::kDegradedReads), 1u);
  EXPECT_EQ(Count("client_degraded_reads_total"), 1u);

  // Writes cannot be accepted mid-reassignment.
  EXPECT_EQ(cluster_.Put(s, "t2", "r2", {{"v", "x"}}).code(),
            StatusCode::kUnavailable);
  EXPECT_GE(Count("hbase_failover_writes_rejected_total"), 1u);
}

TEST_F(FailoverTest, CrashedStoreRefusesDegradedReads) {
  config_.reassign_regions_per_round = 0;
  cluster_.ConfigureFailover(config_);

  ASSERT_TRUE(cluster_.failover().CrashServer(3));
  Rounds(config_.lease_missed_rounds + 2);
  ASSERT_EQ(cluster_.failover().state(3), ServerState::kDead);

  // The store is lost and replay is frozen: stale data would be *wrong*
  // data, so the read fails retryably instead of degrading.
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t3", "r").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(s.count(obs::OpCounter::kDegradedReads), 0u);
}

TEST_F(FailoverTest, RetryingClientRidesThroughCrash) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));

  // The client's backoffs pump virtual time: failure detection, lease
  // expiry and WAL replay all complete inside this one Get call.
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  StatusOr<RowResult> got = cluster_.Get(s, "t0", "r");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "t0");
  EXPECT_GT(s.count(obs::OpCounter::kRetries), 0u);
  EXPECT_EQ(cluster_.failover().state(0), ServerState::kDead);
  EXPECT_GE(Count("hbase_failover_edits_replayed_total"), 1u);
}

TEST_F(FailoverTest, LastLiveServerCannotBeTakenDown) {
  for (int sid = 0; sid < 4; ++sid) {
    ASSERT_TRUE(cluster_.failover().CrashServer(sid)) << sid;
    Rounds(config_.lease_missed_rounds + 2);
  }
  EXPECT_FALSE(cluster_.failover().CrashServer(4));
  EXPECT_EQ(cluster_.failover().state(4), ServerState::kLive);
  EXPECT_EQ(cluster_.failover().LiveServerCount(), 1);

  // Everything reassigned onto the survivor; no acknowledged write lost.
  Rounds(8);
  ExpectEveryRowIntact();
  for (const char* table : kTables) {
    EXPECT_EQ(cluster_.RegionServerOf(table).value(), 4) << table;
  }
}

TEST_F(FailoverTest, InjectedServerCrashFiresOnHeartbeatRound) {
  fault::FaultInjector faults(7);
  faults.AddRule({.point = fault::FaultPoint::kRegionServerCrash,
                  .probability = 1.0,
                  .skip_hits = 0,
                  .max_fires = 1,
                  .table_prefix = "",
                  .server_id = 1});
  cluster_.SetFaultInjector(&faults);

  // RPC traffic drives the heartbeat that consults the rule; keep reading a
  // table hosted elsewhere so the reads themselves never fault.
  Session s(&cluster_);
  for (int i = 0; i < 16 * config_.heartbeat_every_rpcs; ++i) {
    ASSERT_TRUE(cluster_.Get(s, "t0", "r").ok());
  }
  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  StatusOr<RowResult> got = cluster_.Get(s, "t1", "r");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "t1");
}

TEST(RegionWalTest, ReplayReproducesTombstonesAndRmwResults) {
  std::atomic<int64_t> clock{0};
  Region region(&clock, 0);
  region.Put("r", {{"a", "1"}, {"b", "2"}});
  region.Delete("r");
  region.Put("r", {{"a", "3"}});
  ASSERT_TRUE(region.CheckAndPut("r", "a", "3", "4"));
  ASSERT_TRUE(region.Increment("r", "n", 5).ok());

  region.DropStore();
  region.ReplayEdits();
  std::optional<RowResult> row = region.Get("r", ReadView{});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->columns.at("a"), "4");
  EXPECT_EQ(row->columns.at("n"), "5");
  EXPECT_EQ(row->columns.find("b"), row->columns.end())
      << "tombstoned column resurrected by replay";
}

TEST(RegionWalTest, ReplayDoesNotUndoCompaction) {
  std::atomic<int64_t> clock{0};
  Region region(&clock, 0);
  for (int i = 1; i <= 4; ++i) region.Put("k", {{"v", std::to_string(i)}});
  region.Put("gone", {{"v", "x"}});
  region.Delete("gone");
  const int64_t oldest_ts = 1;  // the first Put's clock tick
  region.MajorCompact(3);
  ASSERT_FALSE(region.Get("k", ReadView{.read_ts = oldest_ts}).has_value());
  const size_t rows = region.ApproxRowCount();
  const size_t bytes = region.ByteSize();

  region.DropStore();
  region.ReplayEdits();
  // The compaction dropped the oldest version and the deleted row; a crash
  // must not bring either back.
  EXPECT_FALSE(region.Get("k", ReadView{.read_ts = oldest_ts}).has_value());
  EXPECT_FALSE(region.Get("gone", ReadView{}).has_value());
  EXPECT_EQ(region.ApproxRowCount(), rows);
  EXPECT_EQ(region.ByteSize(), bytes);
  EXPECT_EQ(region.Get("k", ReadView{})->columns.at("v"), "4");
}

TEST(RegionWalTest, OnlyEditsSinceTheFlushReplay) {
  std::atomic<int64_t> clock{0};
  Region region(&clock, 0);
  region.Put("a", {{"v", "1"}});
  region.Put("b", {{"v", "2"}});
  region.MajorCompact(3);
  EXPECT_EQ(region.EditLogSize(), 0u);

  region.Put("b", {{"v", "3"}});
  region.Put("c", {{"v", "4"}});
  EXPECT_EQ(region.EditLogSize(), 2u);
  const size_t bytes = region.ByteSize();

  // The crash loses the memstore only: the flushed rows survive with their
  // flushed values, the row written after the flush is gone.
  region.DropStore();
  EXPECT_TRUE(region.store_lost());
  ASSERT_EQ(region.ApproxRowCount(), 2u);
  EXPECT_EQ(region.Get("a", ReadView{})->columns.at("v"), "1");
  EXPECT_EQ(region.Get("b", ReadView{})->columns.at("v"), "2");
  EXPECT_FALSE(region.Get("c", ReadView{}).has_value());
  // A lost store is not flushed: the log is the only copy of those edits.
  region.MajorCompact(3);
  EXPECT_EQ(region.EditLogSize(), 2u);

  region.ReplayEdits();
  EXPECT_FALSE(region.store_lost());
  EXPECT_EQ(region.ApproxRowCount(), 3u);
  EXPECT_EQ(region.ByteSize(), bytes);
  EXPECT_EQ(region.Get("b", ReadView{})->columns.at("v"), "3");
  EXPECT_EQ(region.Get("c", ReadView{})->columns.at("v"), "4");
  EXPECT_EQ(region.EditLogSize(), 2u);  // the log outlives the replay
}

TEST_F(FailoverTest, CrashAfterFlushReplaysOnlyLaterEdits) {
  cluster_.MajorCompactAll();
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t0", "r2", {{"v", "r2"}}).ok());  // server 0
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  Rounds(config_.lease_missed_rounds + 2);

  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), 1u);
  ExpectEveryRowIntact();
  StatusOr<RowResult> got = cluster_.Get(s, "t0", "r2");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "r2");
}

/// Writes 1500 rows of 1 KiB to table t0, about 1.5 MiB of edit log, then
/// rewrites its row "r".
void WritePastOneFlush(Cluster& cluster) {
  Session s(&cluster);
  const std::string value(1024, 'x');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        cluster.Put(s, "t0", "k" + std::to_string(i), {{"v", value}}).ok());
  }
  ASSERT_TRUE(cluster.Put(s, "t0", "r", {{"v", "rewritten"}}).ok());
}

using Columns = std::vector<std::pair<std::string, std::string>>;

/// Every row of `region` under `view`, in key order.
std::vector<std::pair<std::string, Columns>> Rows(const Region& region,
                                                  const ReadView& view) {
  std::vector<std::pair<std::string, Columns>> out;
  for (const RowResult& row : region.ScanBatch("", "", SIZE_MAX, view).rows) {
    out.emplace_back(row.row_key,
                     Columns(row.columns.begin(), row.columns.end()));
  }
  return out;
}

// Replay rebuilds the store byte for byte from records that replace each
// other at equal timestamps (a put over a put, a tombstone over a put, a put
// over a tombstone), a Delete, and CheckAndPut and Increment results.
TEST(RegionWalTest, ReplayRestoresEqualTimestampRewritesByteForByte) {
  std::atomic<int64_t> clock{0};
  Region region(&clock, 0);
  region.Put("a", {{"v", "1"}, {"w", "x"}}, 10);
  region.Put("a", {{"v", "2"}}, 10);      // replaces v's "1"
  region.Delete("a", 11);                 // tombstones v and w at 11
  region.Put("a", {{"w", "back"}}, 11);   // replaces w's tombstone
  region.Put("b", {{"v", "old"}}, 12);
  region.Delete("b", 12);                 // replaces v's "old"
  region.Put("b", {{"v", "new"}}, 13);
  ASSERT_TRUE(region.CheckAndPut("c", "lock", std::nullopt, "1"));
  ASSERT_TRUE(region.CheckAndPut("c", "lock", "1", "0"));
  ASSERT_TRUE(region.Increment("c", "n", 5).ok());
  ASSERT_TRUE(region.Increment("c", "n", -2).ok());

  auto snapshot = [&region] {
    std::vector<std::vector<std::pair<std::string, Columns>>> views;
    for (int64_t ts : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4},
                       int64_t{10}, int64_t{11}, int64_t{12}, INT64_MAX}) {
      views.push_back(Rows(region, ReadView{.read_ts = ts}));
    }
    return std::tuple(views, region.ByteSize(), region.ApproxRowCount(),
                      region.RowCount());
  };
  const auto before = snapshot();
  EXPECT_EQ(region.Get("a", ReadView{.read_ts = 10})->columns.at("v"), "2");
  EXPECT_EQ(region.Get("a", ReadView{})->columns.size(), 1u);
  EXPECT_EQ(region.Get("a", ReadView{})->columns.at("w"), "back");

  region.DropStore();
  EXPECT_EQ(region.ApproxRowCount(), 0u);
  region.ReplayEdits();
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(region.Get("b", ReadView{})->columns.at("v"), "new");
  EXPECT_FALSE(region.Get("b", ReadView{.read_ts = 12}).has_value());
  EXPECT_EQ(region.Get("c", ReadView{})->columns.at("lock"), "0");
  EXPECT_EQ(region.Get("c", ReadView{})->columns.at("n"), "3");
}

TEST_F(FailoverTest, CrashAfterSizeFlushReplaysOnlyPostFlushEdits) {
  // A twin with the same tables and writes that never crashes.
  Cluster twin;
  {
    Session s(&twin);
    for (const char* table : kTables) {
      ASSERT_TRUE(twin.CreateTable({.name = table}).ok());
      ASSERT_TRUE(twin.Put(s, table, "r", {{"v", table}}).ok());
    }
  }
  WritePastOneFlush(cluster_);
  WritePastOneFlush(twin);
  Region* region = cluster_.AllRegions()[0];  // t0, on server 0
  const Region* twin_region = twin.AllRegions()[0];

  // The log flushed once, part way through: it names only later edits.
  const size_t post_flush = region->EditLogSize();
  ASSERT_GT(post_flush, 0u);
  ASSERT_LT(post_flush, 1000u);
  const size_t pre_flush = 1502 - post_flush;  // edits before the flush

  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  // The crash lost the post-flush versions only: every pre-flush row
  // survives, and "r" reads its value from before the rewrite.
  ASSERT_TRUE(region->store_lost());
  EXPECT_EQ(region->ApproxRowCount(), pre_flush);
  EXPECT_EQ(region->Get("r", ReadView{})->columns.at("v"), "t0");
  EXPECT_FALSE(region->Get("k1499", ReadView{}).has_value());

  Rounds(config_.lease_missed_rounds + 2);  // expire lease, replay, move
  ASSERT_FALSE(region->store_lost());
  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), post_flush);
  EXPECT_EQ(region->ByteSize(), twin_region->ByteSize());
  EXPECT_EQ(Rows(*region, ReadView{}), Rows(*twin_region, ReadView{}));
  // Older versions match too: a view that excludes the rewrite's timestamp
  // reads "r"'s first value on both.
  const int64_t rewrite_ts = twin.NextTimestamp() - 1;
  const std::vector<int64_t> exclude = {rewrite_ts};
  const ReadView before_rewrite{.exclude = &exclude};
  EXPECT_EQ(Rows(*region, before_rewrite), Rows(*twin_region, before_rewrite));
  EXPECT_EQ(region->Get("r", before_rewrite)->columns.at("v"), "t0");
}

}  // namespace
}  // namespace synergy::hbase
