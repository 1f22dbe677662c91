// Region-server failover: heartbeat-driven failure detection, WAL-backed
// region reassignment (crash = store lost + replay; fence = store intact,
// move without replay), degraded reads, and the client retry path riding
// through an outage.
#include "hbase/failover.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "hbase/cluster.h"
#include "hbase/region.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

// One row per region of the 5-way pre-split table; region i lands on
// server i (round-robin assignment starts at 0 for each table).
const char* const kSplits[] = {"d", "h", "m", "r"};
const char* const kRows[] = {"a1", "e1", "i1", "n1", "s1"};

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fast detection so tests drive whole failovers with a few pumps: a
    // heartbeat round every 4 ticks, dead after 2 missed rounds.
    config_.heartbeat_every_rpcs = 4;
    config_.lease_missed_rounds = 2;
    cluster_.ConfigureFailover(config_);
    ASSERT_TRUE(cluster_
                    .CreateTable({.name = "t"},
                                 {kSplits, kSplits + 4})
                    .ok());
    Session s(&cluster_);
    for (const char* row : kRows) {
      ASSERT_TRUE(cluster_.Put(s, "t", row, {{"v", row}}).ok());
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
  StatusOr<int> host = cluster_.RegionServerOf("t");
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(*host, 0);  // first region of a fresh table is on server 0
  EXPECT_EQ(cluster_.RegionServerOf("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FailoverTest, CrashedServerIsUnavailableUntilLeaseExpires) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  EXPECT_EQ(cluster_.failover().state(0), ServerState::kCrashed);
  EXPECT_FALSE(cluster_.failover().AllHealthy());

  // Row "a1" lives on server 0: its store is gone and the master has not
  // noticed yet, so the read fails retryably.
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t", "a1").status().code(),
            StatusCode::kUnavailable);
  // Rows on live servers are unaffected.
  EXPECT_TRUE(cluster_.Get(s, "t", "e1").ok());
}

TEST_F(FailoverTest, CrashReassignsAndReplaysWithoutLosingWrites) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  Rounds(config_.lease_missed_rounds + 2);  // expire lease + sweep

  EXPECT_EQ(cluster_.failover().state(0), ServerState::kDead);
  Session s(&cluster_);
  for (const char* row : kRows) {
    StatusOr<RowResult> got = cluster_.Get(s, "t", row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(got->columns.at("v"), row);
  }
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  EXPECT_GE(Count("hbase_failover_regions_reassigned_total"), 1u);
  // The crash lost the memstore, so the region's edits were replayed.
  EXPECT_GE(Count("hbase_failover_edits_replayed_total"), 1u);
  EXPECT_GT(cluster_.RegionServerOf("t").value(), 0);  // moved off server 0
}

TEST_F(FailoverTest, FencedServerMovesRegionsWithoutReplay) {
  cluster_.failover().FenceServer(1);
  Rounds(config_.lease_missed_rounds + 2);

  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  Session s(&cluster_);
  StatusOr<RowResult> got = cluster_.Get(s, "t", "e1");  // was on server 1
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "e1");
  EXPECT_EQ(Count("hbase_failover_fenced_total"), 1u);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 0u);
  EXPECT_GE(Count("hbase_failover_regions_reassigned_total"), 1u);
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
  StatusOr<RowResult> got = cluster_.Get(s, "t", "i1");  // server 2's region
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "i1");
  EXPECT_EQ(s.count(obs::OpCounter::kDegradedReads), 1u);
  EXPECT_EQ(Count("client_degraded_reads_total"), 1u);

  // Writes cannot be accepted mid-reassignment.
  EXPECT_EQ(cluster_.Put(s, "t", "i2", {{"v", "x"}}).code(),
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
  EXPECT_EQ(cluster_.Get(s, "t", "n1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(s.count(obs::OpCounter::kDegradedReads), 0u);
}

TEST_F(FailoverTest, RetryingClientRidesThroughCrash) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));

  // The client's backoffs pump virtual time: failure detection, lease
  // expiry and WAL replay all complete inside this one Get call.
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  StatusOr<RowResult> got = cluster_.Get(s, "t", "a1");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "a1");
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
  Session s(&cluster_);
  for (const char* row : kRows) {
    StatusOr<RowResult> got = cluster_.Get(s, "t", row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(got->columns.at("v"), row);
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
  // row hosted elsewhere so the reads themselves never fault.
  Session s(&cluster_);
  for (int i = 0; i < 16 * config_.heartbeat_every_rpcs; ++i) {
    ASSERT_TRUE(cluster_.Get(s, "t", "a1").ok());
  }
  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  StatusOr<RowResult> got = cluster_.Get(s, "t", "e1");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "e1");
}

TEST(RegionWalTest, SplitPartitionsEditLogByKey) {
  std::atomic<int64_t> clock{0};
  Region left("", "", &clock, /*server_id=*/0);
  left.Put("a", {{"v", "1"}});
  left.Put("m", {{"v", "2"}});
  left.Put("z", {{"v", "3"}});
  ASSERT_EQ(left.EditLogSize(), 3u);

  Region right("m", "", &clock, /*server_id=*/1);
  left.SplitInto("m", &right);
  EXPECT_EQ(left.EditLogSize(), 1u);
  EXPECT_EQ(right.EditLogSize(), 2u);

  // The daughter replays exactly its own half of the log.
  right.DropStore();
  EXPECT_TRUE(right.store_lost());
  EXPECT_FALSE(right.Get("z", ReadView{}).has_value());
  right.ReplayEdits();
  EXPECT_FALSE(right.store_lost());
  ASSERT_TRUE(right.Get("z", ReadView{}).has_value());
  EXPECT_EQ(right.Get("z", ReadView{})->columns.at("v"), "3");
  EXPECT_EQ(right.Get("m", ReadView{})->columns.at("v"), "2");
  // The parent kept its half untouched.
  ASSERT_TRUE(left.Get("a", ReadView{}).has_value());
  EXPECT_EQ(left.Get("a", ReadView{})->columns.at("v"), "1");
}

TEST(RegionWalTest, ReplayReproducesTombstonesAndRmwResults) {
  std::atomic<int64_t> clock{0};
  Region region("", "", &clock, 0);
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
  Region region("", "", &clock, 0);
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
  Region region("", "", &clock, 0);
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
  ASSERT_EQ(region.ApproxRowCount(), 2u);
  EXPECT_EQ(region.Get("a", ReadView{})->columns.at("v"), "1");
  EXPECT_EQ(region.Get("b", ReadView{})->columns.at("v"), "2");
  EXPECT_FALSE(region.Get("c", ReadView{}).has_value());
  // A lost store is not flushed: the log is the only copy of those edits.
  region.MajorCompact(3);
  EXPECT_EQ(region.EditLogSize(), 2u);

  region.ReplayEdits();
  EXPECT_EQ(region.ApproxRowCount(), 3u);
  EXPECT_EQ(region.ByteSize(), bytes);
  EXPECT_EQ(region.Get("b", ReadView{})->columns.at("v"), "3");
  EXPECT_EQ(region.Get("c", ReadView{})->columns.at("v"), "4");
  EXPECT_EQ(region.EditLogSize(), 2u);  // the log outlives the replay
}

TEST_F(FailoverTest, CrashAfterFlushReplaysOnlyLaterEdits) {
  cluster_.MajorCompactAll();
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "a2", {{"v", "a2"}}).ok());  // server 0
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  Rounds(config_.lease_missed_rounds + 2);

  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), 1u);
  for (const char* row : {"a1", "a2", "e1", "i1", "n1", "s1"}) {
    StatusOr<RowResult> got = cluster_.Get(s, "t", row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(got->columns.at("v"), row);
  }
}

}  // namespace
}  // namespace synergy::hbase
