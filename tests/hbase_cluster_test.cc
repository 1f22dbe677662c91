#include "hbase/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "t"}).ok());
  }
  Cluster cluster_;
};

TEST_F(ClusterTest, CreateTableTwiceFails) {
  EXPECT_EQ(cluster_.CreateTable({.name = "t"}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ClusterTest, DropTable) {
  EXPECT_TRUE(cluster_.DropTable("t").ok());
  EXPECT_FALSE(cluster_.HasTable("t"));
  EXPECT_EQ(cluster_.DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(ClusterTest, PutGetChargesVirtualTime) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "row1", {{"a", "1"}}).ok());
  const double after_put = s.meter().micros();
  EXPECT_GT(after_put, 0.0);
  auto row = cluster_.Get(s, "t", "row1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->columns.at("a"), "1");
  EXPECT_GT(s.meter().micros(), after_put);
}

TEST_F(ClusterTest, GetMissingRowIsNotFound) {
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ClusterTest, OpsOnMissingTableFail) {
  Session s(&cluster_);
  EXPECT_FALSE(cluster_.Put(s, "zz", "r", {{"a", "1"}}).ok());
  EXPECT_FALSE(cluster_.Get(s, "zz", "r").ok());
  EXPECT_FALSE(cluster_.OpenScanner(s, "zz").ok());
}

TEST_F(ClusterTest, DeleteRemovesRow) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  ASSERT_TRUE(cluster_.Delete(s, "t", "r").ok());
  EXPECT_FALSE(cluster_.Get(s, "t", "r").ok());
}

TEST_F(ClusterTest, ScannerIteratesInKeyOrder) {
  Session s(&cluster_);
  for (const char* k : {"c", "a", "b"}) {
    ASSERT_TRUE(cluster_.Put(s, "t", k, {{"v", k}}).ok());
  }
  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  RowResult row;
  while (scanner->Next(&row)) keys.push_back(row.row_key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(ClusterTest, ScannerHonorsRange) {
  Session s(&cluster_);
  for (const char* k : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(cluster_.Put(s, "t", k, {{"v", k}}).ok());
  }
  auto scanner = cluster_.OpenScanner(s, "t", "b", "d");
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  RowResult row;
  while (scanner->Next(&row)) keys.push_back(row.row_key);
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "c"}));
}

// A scan longer than one batch resumes each batch at the first key the last
// one did not examine; rows the read view hides are examined but never
// returned, and never end a batch early.
TEST(ClusterScanTest, ScanSpansBatchesThroughAReadView) {
  sim::CostModel model;
  model.scan_batch_rows = 2;
  Cluster cluster(model);
  ASSERT_TRUE(cluster.CreateTable({.name = "t"}).ok());
  Session writer(&cluster);
  for (int i = 1; i <= 7; ++i) {
    ASSERT_TRUE(
        cluster.Put(writer, "t", "k" + std::to_string(i), {{"v", "x"}}, i)
            .ok());
  }
  const std::vector<int64_t> exclude = {3, 4};
  auto scan = [&](const std::string& stop) {
    Session reader(&cluster);
    reader.SetReadView(ReadView{.read_ts = INT64_MAX, .exclude = &exclude});
    auto batches = [&] {
      return cluster.metrics().Snapshot().CounterValue(
          "hbase_scan_batches_total");
    };
    const uint64_t before = batches();
    std::vector<std::string> keys;
    StatusOr<Scanner> scanner = cluster.OpenScanner(reader, "t", "", stop);
    if (!scanner.ok()) return std::pair(keys, uint64_t{0});
    RowResult row;
    while (scanner->Next(&row)) keys.push_back(row.row_key);
    EXPECT_TRUE(scanner->status().ok());
    return std::pair(keys, batches() - before);
  };
  EXPECT_EQ(scan(""), std::pair(std::vector<std::string>{"k1", "k2", "k5",
                                                         "k6", "k7"},
                                uint64_t{3}));
  EXPECT_EQ(scan("k7"),
            std::pair(std::vector<std::string>{"k1", "k2", "k5", "k6"},
                      uint64_t{2}));
}

TEST_F(ClusterTest, ScanCostScalesWithRows) {
  Session s(&cluster_);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cluster_.Put(s, "t", "k" + std::to_string(1000 + i), {{"v", "x"}})
            .ok());
  }
  s.meter().Reset();
  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  RowResult row;
  while (scanner->Next(&row)) {
  }
  const double cost100 = s.meter().micros();

  Session s2(&cluster_);
  auto sc2 = cluster_.OpenScanner(s2, "t", "k1000", "k1010");
  ASSERT_TRUE(sc2.ok());
  while (sc2->Next(&row)) {
  }
  EXPECT_GT(cost100, s2.meter().micros());
}

TEST_F(ClusterTest, CheckAndPutAcquireRelease) {
  Session s(&cluster_);
  auto won = cluster_.CheckAndPut(s, "t", "lockrow", "lock", std::nullopt, "1");
  ASSERT_TRUE(won.ok());
  EXPECT_TRUE(*won);
  auto lost = cluster_.CheckAndPut(s, "t", "lockrow", "lock", std::nullopt, "1");
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  auto release = cluster_.CheckAndPut(s, "t", "lockrow", "lock", "1", "0");
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(*release);
}

TEST_F(ClusterTest, IncrementThroughCluster) {
  Session s(&cluster_);
  auto v = cluster_.Increment(s, "t", "ctr", "n", 7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
}

TEST_F(ClusterTest, MvccReadViewFiltersInFlightWrites) {
  Session writer(&cluster_);
  ASSERT_TRUE(cluster_.Put(writer, "t", "r", {{"a", "committed"}}, 100).ok());
  ASSERT_TRUE(cluster_.Put(writer, "t", "r", {{"a", "inflight"}}, 200).ok());

  Session reader(&cluster_);
  std::vector<int64_t> exclude = {200};
  reader.SetReadView(ReadView{.read_ts = INT64_MAX, .exclude = &exclude});
  auto row = cluster_.Get(reader, "t", "r");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->columns.at("a"), "committed");
}

TEST_F(ClusterTest, SizeReportTracksData) {
  Session s(&cluster_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_.Put(s, "t", "k" + std::to_string(i),
                             {{"v", "payload-data"}})
                    .ok());
  }
  auto report = cluster_.SizeReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].rows, 10u);
  EXPECT_GT(report[0].bytes, 100u);
  EXPECT_GT(cluster_.TotalBytes(), 0u);
}

// A table is one region, and the n-th table created lands on server
// n mod num_region_servers(), so tables spread over the servers.
TEST(ClusterPlacementTest, NthTableLandsOnServerNModServers) {
  for (int servers : {5, 3}) {
    SCOPED_TRACE(servers);
    Cluster cluster(sim::CostModel{}, servers);
    for (int n = 0; n < 12; ++n) {
      const std::string name = "t" + std::to_string(n);
      ASSERT_TRUE(cluster.CreateTable({.name = name}).ok());
      EXPECT_EQ(cluster.RegionServerOf(name).value(), n % servers) << name;
      // A refused create places nothing.
      EXPECT_FALSE(cluster.CreateTable({.name = name}).ok());
    }
  }
}

TEST_F(ClusterTest, ScannerErrorIsSurfacedViaStatus) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  fault::FaultInjector faults(7);
  faults.Arm(fault::FaultPoint::kRegionRpcFailure, /*skip_hits=*/0,
             /*max_fires=*/1);
  cluster_.SetFaultInjector(&faults);

  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  RowResult row;
  EXPECT_FALSE(scanner->Next(&row)) << "failed batch must stop the scan";
  EXPECT_EQ(scanner->status().code(), StatusCode::kUnavailable);
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ClusterTest, ScannerDroppedWithUncheckedErrorIsCountedOnce) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  fault::FaultInjector faults(7);
  cluster_.SetFaultInjector(&faults);
  auto dropped = [&] {
    return std::pair(s.count(obs::OpCounter::kScanErrorsDropped),
                     cluster_.metrics().Snapshot().CounterValue(
                         "client_scan_errors_dropped_total"));
  };

  // Dropping a scanner that hit an error without ever calling status() is
  // the silent-truncation bug: the drop is counted once, on the session and
  // in the registry, in every build type.
  {
    faults.Arm(fault::FaultPoint::kRegionRpcFailure, 0, 1);
    auto scanner = cluster_.OpenScanner(s, "t");
    ASSERT_TRUE(scanner.ok());
    RowResult row;
    EXPECT_FALSE(scanner->Next(&row));
  }
  EXPECT_EQ(dropped(), std::pair(uint64_t{1}, uint64_t{1}));

  // Moving a scanner transfers the checking responsibility: the moved-from
  // shell destructs without counting, and the destination still reports
  // the error.
  {
    faults.Arm(fault::FaultPoint::kRegionRpcFailure, 0, 1);
    auto scanner = cluster_.OpenScanner(s, "t");
    ASSERT_TRUE(scanner.ok());
    RowResult row;
    EXPECT_FALSE(scanner->Next(&row));
    Scanner moved = std::move(*scanner);
    EXPECT_EQ(moved.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(dropped(), std::pair(uint64_t{1}, uint64_t{1}));
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ClusterTest, MajorCompactionShrinksMultiVersionData) {
  Session s(&cluster_);
  for (int v = 0; v < 10; ++v) {
    ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", std::string(100, 'x')}}).ok());
  }
  const size_t before = cluster_.TotalBytes();
  cluster_.MajorCompactAll();
  EXPECT_LT(cluster_.TotalBytes(), before);
}

// MajorCompactAll compacts each table to its own VERSIONS: "t" (the
// default) keeps a cell's newest three versions, a table created with one
// keeps its newest only. A table cannot keep none.
TEST_F(ClusterTest, MajorCompactAllKeepsEachTablesVersions) {
  ASSERT_TRUE(cluster_.CreateTable({.name = "one", .max_versions = 1}).ok());
  EXPECT_EQ(cluster_.CreateTable({.name = "none", .max_versions = 0}).code(),
            StatusCode::kInvalidArgument);
  Session s(&cluster_);
  for (int64_t ts = 1; ts <= 5; ++ts) {
    for (const char* table : {"t", "one"}) {
      ASSERT_TRUE(
          cluster_.Put(s, table, "r", {{"a", std::to_string(ts)}}, ts).ok());
    }
  }
  // `table`'s row "r" as a read at `read_ts` sees it, or "-".
  auto at = [&](const char* table, int64_t read_ts) {
    s.SetReadView(ReadView{.read_ts = read_ts});
    StatusOr<RowResult> row = cluster_.Get(s, table, "r");
    s.ClearReadView();
    return row.ok() && row->columns.contains("a") ? row->columns.at("a")
                                                  : std::string("-");
  };
  ASSERT_EQ(at("one", 1), "1");  // nothing flushed yet: every version
  cluster_.MajorCompactAll();
  EXPECT_EQ(at("t", 5), "5");
  EXPECT_EQ(at("t", 3), "3");
  EXPECT_EQ(at("t", 2), "-");
  EXPECT_EQ(at("one", 5), "5");
  EXPECT_EQ(at("one", 4), "-");
}

// --- the per-op RPC attempt contract ---------------------------------------

// One store op against row "r" of `table`, as the contract test drives it.
struct RpcOpCase {
  const char* span;
  // Virtual cost charged before the access check, so a refused attempt
  // still pays it. Reads charge their response-sized cost only once served.
  double (*request_us)(const sim::CostModel& m);
  bool ack_can_be_lost;  // applied by the region before the ack fault
  bool scan;
  Status (*run)(Cluster& c, Session& s, const std::string& table);
};

Status ScanAll(Cluster& c, Session& s, const std::string& table) {
  SYNERGY_ASSIGN_OR_RETURN(scanner, c.OpenScanner(s, table));
  RowResult row;
  while (scanner.Next(&row)) {
  }
  return scanner.status();
}

const RpcOpCase kRpcOps[] = {
    {"rpc.put",
     [](const sim::CostModel& m) {
       return sim::RpcCost(m, 3) + m.server_seek_us;  // "r" + "a" + "2"
     },
     true, false,
     [](Cluster& c, Session& s, const std::string& table) {
       return c.Put(s, table, "r", {{"a", "2"}});
     }},
    {"rpc.get", [](const sim::CostModel&) { return 0.0; }, false, false,
     [](Cluster& c, Session& s, const std::string& table) {
       return c.Get(s, table, "r").status();
     }},
    {"rpc.delete",
     [](const sim::CostModel& m) {
       return sim::RpcCost(m, 1) + m.server_seek_us;
     },
     true, false,
     [](Cluster& c, Session& s, const std::string& table) {
       return c.Delete(s, table, "r");
     }},
    {"rpc.check_and_put",
     [](const sim::CostModel& m) { return m.lock_rpc_us; }, false, false,
     [](Cluster& c, Session& s, const std::string& table) {
       return c.CheckAndPut(s, table, "r", "lock", std::nullopt, "1").status();
     }},
    {"rpc.increment",
     [](const sim::CostModel& m) {
       return sim::RpcCost(m, 1 + 16) + m.server_seek_us;
     },
     false, false,
     [](Cluster& c, Session& s, const std::string& table) {
       return c.Increment(s, table, "r", "n", 5).status();
     }},
    {"rpc.scan_batch", [](const sim::CostModel&) { return 0.0; }, false, true,
     ScanAll},
};

// A fresh cluster whose table "t" holds one row, "r" = {a: 1}.
std::unique_ptr<Cluster> SeededCluster() {
  auto c = std::make_unique<Cluster>();
  EXPECT_TRUE(c->CreateTable({.name = "t"}).ok());
  Session seed(c.get());
  EXPECT_TRUE(c->Put(seed, "t", "r", {{"a", "1"}}).ok());
  return c;
}

// Row "r" as "qualifier=value;" pairs, read with fault injection detached.
std::string RowR(Cluster& c) {
  fault::FaultInjector* faults = c.fault_injector();
  c.SetFaultInjector(nullptr);
  Session s(&c);
  StatusOr<RowResult> row = c.Get(s, "t", "r");
  c.SetFaultInjector(faults);
  if (!row.ok()) return "<none>";
  std::string out;
  for (const auto& [qualifier, value] : row->columns) {
    out += qualifier + "=" + value + ";";
  }
  return out;
}

struct AttemptTallies {
  uint64_t rpcs = 0;
  uint64_t scan_batches = 0;
  uint64_t faults = 0;
  int64_t ticks = 0;
};

AttemptTallies TalliesOf(const Cluster& c) {
  const obs::RegistrySnapshot snap = c.metrics().Snapshot();
  return {snap.CounterValue("hbase_rpcs_total"),
          snap.CounterValue("hbase_scan_batches_total"),
          snap.CounterValue("hbase_faults_injected_total"),
          c.failover().ticks()};
}

TEST(ClusterRpcContractTest, EveryOpKeepsTheAttemptContract) {
  using fault::FaultPoint;
  for (const RpcOpCase& op : kRpcOps) {
    SCOPED_TRACE(op.span);

    // A lost or timed-out request fails the attempt before the region sees
    // it, after the attempt was counted and its request cost charged.
    for (FaultPoint point :
         {FaultPoint::kRegionRpcFailure, FaultPoint::kRpcTimeout}) {
      SCOPED_TRACE(fault::FaultPointName(point));
      auto c = SeededCluster();
      fault::FaultInjector faults(1);
      faults.Arm(point);
      c->SetFaultInjector(&faults);
      const AttemptTallies before = TalliesOf(*c);
      Session s(c.get());
      EXPECT_EQ(op.run(*c, s, "t").code(), StatusCode::kUnavailable);
      const AttemptTallies after = TalliesOf(*c);
      EXPECT_EQ(after.rpcs - before.rpcs, 1u);
      EXPECT_EQ(after.ticks - before.ticks, 1);
      EXPECT_EQ(after.scan_batches - before.scan_batches, op.scan ? 1u : 0u);
      EXPECT_EQ(after.faults - before.faults, 1u);
      EXPECT_DOUBLE_EQ(s.meter().micros(), op.request_us(c->cost_model()));
      // region-rpc-failure is consulted first, rpc-timeout only when the
      // request got past it, and ack-lost never.
      EXPECT_EQ(faults.HitCount(FaultPoint::kRegionRpcFailure), 1);
      EXPECT_EQ(faults.HitCount(FaultPoint::kRpcTimeout),
                point == FaultPoint::kRpcTimeout ? 1 : 0);
      EXPECT_EQ(faults.HitCount(FaultPoint::kRegionRpcAckLost), 0);
      EXPECT_EQ(RowR(*c), "a=1;");
    }

    // Ack-lost is consulted only after Put and Delete applied.
    {
      auto c = SeededCluster();
      fault::FaultInjector faults(1);
      faults.Arm(FaultPoint::kRegionRpcAckLost);
      c->SetFaultInjector(&faults);
      Session s(c.get());
      const Status st = op.run(*c, s, "t");
      if (op.ack_can_be_lost) {
        EXPECT_EQ(st.code(), StatusCode::kUnavailable);
        EXPECT_EQ(faults.FireCount(FaultPoint::kRegionRpcAckLost), 1);
        EXPECT_NE(RowR(*c), "a=1;") << "the mutation applied before its ack";
      } else {
        EXPECT_TRUE(st.ok()) << st;
        EXPECT_EQ(faults.HitCount(FaultPoint::kRegionRpcAckLost), 0);
      }
      EXPECT_EQ(faults.HitCount(FaultPoint::kRegionRpcFailure), 1);
      EXPECT_EQ(faults.HitCount(FaultPoint::kRpcTimeout), 1);
    }

    // A missing table fails after the attempt was counted, before any
    // charge. A scan resolves its table when the scanner opens, so it never
    // sends a batch.
    {
      auto c = SeededCluster();
      const AttemptTallies before = TalliesOf(*c);
      Session s(c.get());
      EXPECT_EQ(op.run(*c, s, "missing").code(), StatusCode::kNotFound);
      const AttemptTallies after = TalliesOf(*c);
      const uint64_t attempts = op.scan ? 0 : 1;
      EXPECT_EQ(after.rpcs - before.rpcs, attempts);
      EXPECT_EQ(after.ticks - before.ticks, static_cast<int64_t>(attempts));
      EXPECT_EQ(s.meter().micros(), 0.0);
    }

    // With RPC spans on, each attempt is one span noting its table, then
    // its server, and covering the whole charge.
    {
      auto c = SeededCluster();
      Session s(c.get());
      obs::TraceCollector trace(&s.meter());
      trace.set_rpc_spans(true);
      s.SetTrace(&trace);
      const Status st = op.run(*c, s, "t");
      EXPECT_TRUE(st.ok()) << st;
      ASSERT_EQ(trace.spans().size(), 1u);
      const obs::TraceSpan& span = trace.spans()[0];
      EXPECT_EQ(span.name, op.span);
      const StatusOr<int> server = c->RegionServerOf("t");
      ASSERT_TRUE(server.ok());
      EXPECT_EQ(span.notes,
                (std::vector<std::pair<std::string, std::string>>{
                    {"table", "t"}, {"server", std::to_string(*server)}}));
      EXPECT_GT(s.meter().micros(), 0.0);
      EXPECT_DOUBLE_EQ(span.duration_us(), s.meter().micros());
    }
  }
}

}  // namespace
}  // namespace synergy::hbase
