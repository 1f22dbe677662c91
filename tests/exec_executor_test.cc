// End-to-end executor tests over a small Customer/Orders/Order_line schema.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include "exec/write_binding.h"
#include "hbase/failover.h"
#include "sql/parser.h"
#include "testing/fault_injector.h"

namespace synergy::exec {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddRelation({.name = "Customer",
                                  .columns = {{"c_id", DataType::kInt},
                                              {"c_uname", DataType::kString},
                                              {"c_city", DataType::kString}},
                                  .primary_key = {"c_id"}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddRelation({.name = "Orders",
                                  .columns = {{"o_id", DataType::kInt},
                                              {"o_c_id", DataType::kInt},
                                              {"o_total", DataType::kDouble}},
                                  .primary_key = {"o_id"},
                                  .foreign_keys = {{{"o_c_id"}, "Customer"}}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddRelation({.name = "Order_line",
                                  .columns = {{"ol_id", DataType::kInt},
                                              {"ol_o_id", DataType::kInt},
                                              {"ol_qty", DataType::kInt}},
                                  .primary_key = {"ol_id"},
                                  .foreign_keys = {{{"ol_o_id"}, "Orders"}}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddIndex({.name = "ix_c_uname",
                               .relation = "Customer",
                               .indexed_columns = {"c_uname"},
                               .covered_columns = {"c_uname", "c_id", "c_city"},
                               .unique = true})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddIndex({.name = "ix_o_c_id",
                               .relation = "Orders",
                               .indexed_columns = {"o_c_id"},
                               .covered_columns = {"o_c_id", "o_id", "o_total"}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddIndex({.name = "ix_ol_o_id",
                               .relation = "Order_line",
                               .indexed_columns = {"ol_o_id"},
                               .covered_columns = {"ol_o_id", "ol_id", "ol_qty"}})
                    .ok());
    adapter_ = std::make_unique<TableAdapter>(&cluster_, &catalog_);
    for (const char* rel : {"Customer", "Orders", "Order_line"}) {
      ASSERT_TRUE(adapter_->CreateStorage(rel).ok());
    }
    executor_ = std::make_unique<Executor>(adapter_.get());
    Populate();
  }

  void Populate() {
    hbase::Session s(&cluster_);
    // 3 customers, 2 orders each, 2 lines per order.
    for (int c = 1; c <= 3; ++c) {
      ASSERT_TRUE(adapter_
                      ->Insert(s, "Customer",
                               {{"c_id", Value(c)},
                                {"c_uname", Value("user" + std::to_string(c))},
                                {"c_city", Value(c % 2 ? "NYC" : "SF")}})
                      .ok());
      for (int k = 0; k < 2; ++k) {
        const int o = c * 10 + k;
        ASSERT_TRUE(adapter_
                        ->Insert(s, "Orders",
                                 {{"o_id", Value(o)},
                                  {"o_c_id", Value(c)},
                                  {"o_total", Value(o * 1.5)}})
                        .ok());
        for (int j = 0; j < 2; ++j) {
          ASSERT_TRUE(adapter_
                          ->Insert(s, "Order_line",
                                   {{"ol_id", Value(o * 10 + j)},
                                    {"ol_o_id", Value(o)},
                                    {"ol_qty", Value(j + 1)}})
                          .ok());
        }
      }
    }
  }

  QueryResult Run(const std::string& sql, std::vector<Value> params = {},
                  ExecOptions options = {}) {
    stmts_.push_back(sql::MustParse(sql));
    const auto& sel = std::get<sql::SelectStatement>(stmts_.back());
    hbase::Session s(&cluster_);
    auto result = executor_->ExecuteSelect(s, sel, params, options);
    EXPECT_TRUE(result.ok()) << result.status() << " for " << sql;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::string ExplainSql(const std::string& sql, ExecOptions options = {}) {
    stmts_.push_back(sql::MustParse(sql));
    const auto& sel = std::get<sql::SelectStatement>(stmts_.back());
    auto e = executor_->Explain(sel, options);
    EXPECT_TRUE(e.ok()) << e.status();
    return e.ok() ? *e : "";
  }

  sql::Catalog catalog_;
  hbase::Cluster cluster_;
  std::unique_ptr<TableAdapter> adapter_;
  std::unique_ptr<Executor> executor_;
  std::vector<sql::Statement> stmts_;  // keep ASTs alive for the executor
};

TEST_F(ExecutorTest, FullScan) {
  auto r = Run("SELECT * FROM Customer");
  EXPECT_EQ(r.row_count, 3u);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0], "c_id");
}

TEST_F(ExecutorTest, PkGet) {
  EXPECT_NE(ExplainSql("SELECT * FROM Customer WHERE c_id = 2")
                .find("PK_GET"),
            std::string::npos);
  auto r = Run("SELECT * FROM Customer WHERE c_id = 2");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][1], Value("user2"));
}

TEST_F(ExecutorTest, PkGetWithParam) {
  auto r = Run("SELECT * FROM Customer WHERE c_id = ?", {Value(3)});
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][1], Value("user3"));
}

TEST_F(ExecutorTest, UniqueIndexLookup) {
  EXPECT_NE(ExplainSql("SELECT * FROM Customer WHERE c_uname = ?")
                .find("INDEX_SCAN(ix_c_uname)"),
            std::string::npos);
  auto r = Run("SELECT * FROM Customer WHERE c_uname = ?", {Value("user1")});
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][0], Value(1));
}

TEST_F(ExecutorTest, NullParameterMatchesNoRowThroughAnIndex) {
  // A row with no c_uname is stored under the NULL index key, but NULL
  // equals nothing: the index path must agree with a full scan's predicate.
  hbase::Session s(&cluster_);
  ASSERT_TRUE(adapter_->Insert(s, "Customer", {{"c_id", Value(4)}}).ok());
  const std::string sql = "SELECT c_id FROM Customer WHERE c_uname = ?";
  EXPECT_NE(ExplainSql(sql).find("INDEX_SCAN(ix_c_uname)"), std::string::npos);
  EXPECT_EQ(Run(sql, {Value()}).row_count, 0u);
}

TEST_F(ExecutorTest, NonKeyFilterScans) {
  auto r = Run("SELECT * FROM Customer WHERE c_city = 'NYC'");
  EXPECT_EQ(r.row_count, 2u);  // customers 1 and 3
}

TEST_F(ExecutorTest, RangePredicate) {
  auto r = Run("SELECT * FROM Orders WHERE o_total > 30.0");
  for (const auto& row : r.rows) {
    EXPECT_GT(row[2].as_double(), 30.0);
  }
  EXPECT_EQ(r.row_count, 3u);  // orders 21,30,31 -> totals 31.5,45,46.5
}

TEST_F(ExecutorTest, TwoWayJoinIndexNestedLoop) {
  const std::string sql =
      "SELECT * FROM Customer as c, Orders as o "
      "WHERE c.c_id = o.o_c_id and c.c_uname = ?";
  EXPECT_NE(ExplainSql(sql).find("INDEX_NESTED_LOOP"), std::string::npos);
  auto r = Run(sql, {Value("user2")});
  EXPECT_EQ(r.row_count, 2u);
  for (const auto& row : r.rows) {
    EXPECT_EQ(row[0], Value(2));  // c_id
    EXPECT_EQ(row[4], Value(2));  // o_c_id
  }
}

TEST_F(ExecutorTest, TwoWayJoinHashJoin) {
  const std::string sql =
      "SELECT * FROM Customer as c, Orders as o WHERE c.c_id = o.o_c_id";
  ExecOptions opts;
  opts.force_hash_join = true;
  EXPECT_NE(ExplainSql(sql, opts).find("HASH_JOIN"), std::string::npos);
  auto r = Run(sql, {}, opts);
  EXPECT_EQ(r.row_count, 6u);  // 3 customers x 2 orders
}

TEST_F(ExecutorTest, HashJoinAndInlAgree) {
  const std::string sql =
      "SELECT * FROM Customer as c, Orders as o "
      "WHERE c.c_id = o.o_c_id and c.c_id = 1";
  ExecOptions hash;
  hash.force_hash_join = true;
  auto a = Run(sql, {}, hash);
  auto b = Run(sql);
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.row_count, 2u);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  const std::string sql =
      "SELECT * FROM Customer as c, Orders as o, Order_line as ol "
      "WHERE c.c_id = o.o_c_id and o.o_id = ol.ol_o_id and c.c_id = ?";
  auto r = Run(sql, {Value(1)});
  EXPECT_EQ(r.row_count, 4u);  // 2 orders x 2 lines
}

TEST_F(ExecutorTest, ThreeWayJoinFullHash) {
  ExecOptions opts;
  opts.force_hash_join = true;
  auto r = Run(
      "SELECT * FROM Customer as c, Orders as o, Order_line as ol "
      "WHERE c.c_id = o.o_c_id and o.o_id = ol.ol_o_id",
      {}, opts);
  EXPECT_EQ(r.row_count, 12u);
}

TEST_F(ExecutorTest, SelfJoinWithAliases) {
  auto r = Run(
      "SELECT * FROM Order_line as a, Order_line as b "
      "WHERE a.ol_o_id = b.ol_o_id AND a.ol_id <> b.ol_id");
  EXPECT_EQ(r.row_count, 12u);  // per order: 2 lines -> 2 ordered pairs; 6 orders
}

TEST_F(ExecutorTest, NonEquiJoinPredicateAsResidual) {
  auto r = Run(
      "SELECT * FROM Customer as c, Orders as o "
      "WHERE c.c_id = o.o_c_id AND o.o_total < 20.0");
  for (const auto& row : r.rows) {
    EXPECT_LT(row[5].as_double(), 20.0);
  }
}

TEST_F(ExecutorTest, OrderByDescWithLimit) {
  auto r = Run("SELECT * FROM Orders ORDER BY o_total DESC LIMIT 2");
  ASSERT_EQ(r.row_count, 2u);
  EXPECT_EQ(r.rows[0][0], Value(31));
  EXPECT_EQ(r.rows[1][0], Value(30));
}

TEST_F(ExecutorTest, OrderByAscendingDefault) {
  auto r = Run("SELECT * FROM Orders ORDER BY o_id LIMIT 3");
  ASSERT_EQ(r.row_count, 3u);
  EXPECT_LT(r.rows[0][0].as_int(), r.rows[1][0].as_int());
}

TEST_F(ExecutorTest, LimitWithoutOrderStopsEarly) {
  auto r = Run("SELECT * FROM Order_line LIMIT 5");
  EXPECT_EQ(r.row_count, 5u);
}

TEST_F(ExecutorTest, ProjectionByName) {
  auto r = Run("SELECT c_uname FROM Customer WHERE c_id = 1");
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], "c_uname");
  EXPECT_EQ(r.rows[0][0], Value("user1"));
}

TEST_F(ExecutorTest, CountStar) {
  auto r = Run("SELECT COUNT(*) FROM Order_line");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][0], Value(12));
}

TEST_F(ExecutorTest, CountStarOnEmptyResult) {
  auto r = Run("SELECT COUNT(*) FROM Customer WHERE c_id = 999");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][0], Value(0));
}

TEST_F(ExecutorTest, GroupByWithSum) {
  auto r = Run(
      "SELECT ol_o_id, SUM(ol_qty) AS total FROM Order_line "
      "GROUP BY ol_o_id ORDER BY total DESC, ol_o_id LIMIT 3");
  ASSERT_EQ(r.row_count, 3u);
  // Every order has lines with qty 1+2 = 3.
  EXPECT_EQ(r.rows[0][1], Value(3.0));
}

TEST_F(ExecutorTest, GroupByJoin) {
  auto r = Run(
      "SELECT c.c_id, COUNT(o.o_id) AS n FROM Customer as c, Orders as o "
      "WHERE c.c_id = o.o_c_id GROUP BY c.c_id ORDER BY n DESC");
  EXPECT_EQ(r.row_count, 3u);
  EXPECT_EQ(r.rows[0][1], Value(2));
}

TEST_F(ExecutorTest, MinMaxAvg) {
  auto r = Run(
      "SELECT MIN(ol_qty) AS lo, MAX(ol_qty) AS hi, AVG(ol_qty) AS mid "
      "FROM Order_line");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][0], Value(1));
  EXPECT_EQ(r.rows[0][1], Value(2));
  EXPECT_EQ(r.rows[0][2], Value(1.5));
}

TEST_F(ExecutorTest, CountOnlyModeSkipsRows) {
  ExecOptions opts;
  opts.collect_rows = false;
  auto r = Run("SELECT * FROM Order_line", {}, opts);
  EXPECT_EQ(r.row_count, 12u);
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, JoinChargesMoreVirtualTimeThanScan) {
  hbase::Session s1(&cluster_);
  hbase::Session s2(&cluster_);
  auto scan_stmt = sql::MustParse("SELECT * FROM Orders");
  auto join_stmt = sql::MustParse(
      "SELECT * FROM Customer as c, Orders as o WHERE c.c_id = o.o_c_id");
  ExecOptions opts;
  opts.force_hash_join = true;
  ASSERT_TRUE(executor_
                  ->ExecuteSelect(s1, std::get<sql::SelectStatement>(scan_stmt),
                                  {}, opts)
                  .ok());
  ASSERT_TRUE(executor_
                  ->ExecuteSelect(s2, std::get<sql::SelectStatement>(join_stmt),
                                  {}, opts)
                  .ok());
  EXPECT_GT(s2.meter().micros(), s1.meter().micros());
}

TEST_F(ExecutorTest, DirtyRowAbortsWithoutRetryBudget) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(adapter_->MarkRow(s, "Customer", {Value(2)}, true).ok());
  auto stmt = sql::MustParse("SELECT * FROM Customer");
  ExecOptions opts;
  opts.detect_dirty = true;
  opts.max_dirty_retries = 2;
  auto r = executor_->ExecuteSelect(
      s, std::get<sql::SelectStatement>(stmt), {}, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
}

TEST_F(ExecutorTest, DirtyRowRecoversAfterUnmark) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(adapter_->MarkRow(s, "Customer", {Value(2)}, true).ok());
  ASSERT_TRUE(adapter_->MarkRow(s, "Customer", {Value(2)}, false).ok());
  auto stmt = sql::MustParse("SELECT * FROM Customer");
  ExecOptions opts;
  opts.detect_dirty = true;
  auto r = executor_->ExecuteSelect(
      s, std::get<sql::SelectStatement>(stmt), {}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count, 3u);
}

TEST_F(ExecutorTest, DirtyRestartLoopStopsAtItsBoundWithAborted) {
  // A persistently dirty scan must drive the §VIII-C restart loop to its
  // configured bound and then surface kAborted — not spin forever, and not
  // morph into a retryable error class that would re-enter the loop above.
  fault::FaultInjector faults(7);
  fault::FaultRule rule;
  rule.point = fault::FaultPoint::kDirtyReadRestart;
  rule.probability = 1.0;  // every attempt aborts on its first row
  faults.AddRule(rule);
  cluster_.SetFaultInjector(&faults);

  hbase::Session s(&cluster_);
  auto stmt = sql::MustParse("SELECT * FROM Customer");
  ExecOptions opts;
  opts.detect_dirty = true;
  opts.max_dirty_retries = 3;
  const double before_us = s.meter().micros();
  auto r = executor_->ExecuteSelect(s, std::get<sql::SelectStatement>(stmt),
                                    {}, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status();
  // Initial attempt plus exactly max_dirty_retries restarts ran.
  EXPECT_EQ(faults.FireCount(fault::FaultPoint::kDirtyReadRestart), 4);
  // Each restart backs off roughly one RPC of virtual time before
  // re-scanning; the bound keeps that cost finite.
  EXPECT_GE(s.meter().micros() - before_us,
            3 * cluster_.cost_model().rpc_base_us);
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ExecutorTest, DirtyRestartRecoversOnceTheDirtClears) {
  fault::FaultInjector faults(7);
  faults.Arm(fault::FaultPoint::kDirtyReadRestart, /*skip_hits=*/0,
             /*max_fires=*/2);
  cluster_.SetFaultInjector(&faults);

  hbase::Session s(&cluster_);
  auto stmt = sql::MustParse("SELECT * FROM Customer");
  ExecOptions opts;
  opts.detect_dirty = true;
  opts.max_dirty_retries = 5;
  auto r = executor_->ExecuteSelect(s, std::get<sql::SelectStatement>(stmt),
                                    {}, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->dirty_restarts, 2);
  EXPECT_EQ(r->row_count, 3u);
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ExecutorTest, DirtyRestartReachesIndexNestedLoopInnerRows) {
  // The fault point passes the source row (hit 1) and fires on the first
  // Orders row the INL join reads (hit 2), so the §VIII-C restart is forced
  // on the inner side; the rerun reads all three rows clean.
  const std::string sql =
      "SELECT * FROM Customer AS c, Orders AS o "
      "WHERE c.c_id = o.o_c_id AND c.c_id = 1";
  const std::string plan = ExplainSql(sql);
  EXPECT_NE(plan.find("0: Customer AS c SOURCE PK_GET"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("1: Orders AS o INDEX_NESTED_LOOP INDEX(ix_o_c_id)"),
            std::string::npos)
      << plan;
  fault::FaultInjector faults(7);
  faults.Arm(fault::FaultPoint::kDirtyReadRestart, /*skip_hits=*/1,
             /*max_fires=*/1);
  cluster_.SetFaultInjector(&faults);
  ExecOptions opts;
  opts.detect_dirty = true;
  auto r = Run(sql, {}, opts);
  cluster_.SetFaultInjector(nullptr);
  EXPECT_EQ(faults.FireCount(fault::FaultPoint::kDirtyReadRestart), 1);
  EXPECT_EQ(faults.HitCount(fault::FaultPoint::kDirtyReadRestart), 5);
  EXPECT_EQ(r.dirty_restarts, 1);
  EXPECT_EQ(r.row_count, 2u);
}

TEST_F(ExecutorTest, DirtyRestartBoundHoldsMidReassignment) {
  // The restart loop must keep its abort semantics while the hosting region
  // server is declared dead but its regions are not yet reassigned: reads
  // are served degraded during the window, and a dirty scan still exhausts
  // the bound with kAborted rather than escalating to kUnavailable.
  hbase::FailoverConfig fc;
  fc.heartbeat_every_rpcs = 4;
  fc.lease_missed_rounds = 2;
  fc.reassign_regions_per_round = 0;  // freeze the sweep in the window
  cluster_.ConfigureFailover(fc);
  StatusOr<int> host = cluster_.RegionServerOf("Customer");
  ASSERT_TRUE(host.ok());
  cluster_.failover().FenceServer(*host);
  for (int i = 0; i < fc.lease_missed_rounds + 2; ++i) {
    cluster_.failover().PumpVirtualTime(fc.heartbeat_every_rpcs *
                                        fc.us_per_tick);
  }
  ASSERT_EQ(cluster_.failover().state(*host), hbase::ServerState::kDead);

  fault::FaultInjector faults(7);
  fault::FaultRule rule;
  rule.point = fault::FaultPoint::kDirtyReadRestart;
  rule.probability = 1.0;
  faults.AddRule(rule);
  cluster_.SetFaultInjector(&faults);

  hbase::Session s(&cluster_);
  auto stmt = sql::MustParse("SELECT * FROM Customer");
  ExecOptions opts;
  opts.detect_dirty = true;
  opts.max_dirty_retries = 2;
  auto r = executor_->ExecuteSelect(s, std::get<sql::SelectStatement>(stmt),
                                    {}, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status();
  EXPECT_EQ(faults.FireCount(fault::FaultPoint::kDirtyReadRestart), 3);
  EXPECT_GT(s.count(obs::OpCounter::kDegradedReads), 0u)
      << "the scan must actually have run inside the reassignment window";
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  auto stmt = sql::MustParse("SELECT * FROM Nope");
  hbase::Session s(&cluster_);
  EXPECT_FALSE(
      executor_->ExecuteSelect(s, std::get<sql::SelectStatement>(stmt), {})
          .ok());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  auto stmt = sql::MustParse("SELECT * FROM Customer WHERE zzz = 1");
  hbase::Session s(&cluster_);
  EXPECT_FALSE(
      executor_->ExecuteSelect(s, std::get<sql::SelectStatement>(stmt), {})
          .ok());
}

TEST_F(ExecutorTest, AdapterUpdateMaintainsIndexes) {
  hbase::Session s(&cluster_);
  const int uname = catalog_.FindRelation("Customer")->ColumnIndex("c_uname");
  ASSERT_TRUE(adapter_
                  ->UpdateByPk(s, "Customer", {Value(1)},
                               {{uname, Value("renamed")}})
                  .ok());
  auto r = Run("SELECT * FROM Customer WHERE c_uname = ?", {Value("renamed")});
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0][0], Value(1));
  auto r2 = Run("SELECT * FROM Customer WHERE c_uname = ?", {Value("user1")});
  EXPECT_EQ(r2.row_count, 0u);
}

TEST_F(ExecutorTest, AdapterDeleteRemovesIndexRows) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(adapter_->DeleteByPk(s, "Customer", {Value(1)}).ok());
  EXPECT_EQ(Run("SELECT * FROM Customer").row_count, 2u);
  EXPECT_EQ(Run("SELECT * FROM Customer WHERE c_uname = ?", {Value("user1")})
                .row_count,
            0u);
}

// An UPDATE of a key column fails at bind, before any system runs it.
TEST_F(ExecutorTest, BindRejectsPkUpdate) {
  auto bound = BindWriteStatement(
      sql::MustParse("UPDATE Customer SET c_id = 99 WHERE c_id = 1"),
      catalog_);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
}

// The MVCC write-set key is the relation and the encoded row key, for an
// INSERT's row as for an UPDATE's or DELETE's key.
TEST_F(ExecutorTest, WriteKeyIsRelationAndRowKey) {
  const std::string key = "Customer/" + EncodePkKeyFromValues({Value(7)});
  for (const char* write :
       {"INSERT INTO Customer (c_id, c_uname) VALUES (7, 'u')",
        "UPDATE Customer SET c_uname = 'v' WHERE c_id = 7",
        "DELETE FROM Customer WHERE c_id = 7"}) {
    auto bound = BindWriteStatement(sql::MustParse(write), catalog_);
    ASSERT_TRUE(bound.ok()) << write << ": " << bound.status();
    EXPECT_EQ(bound->WriteKey(), key) << write;
  }
}

// Loads run InsertRow without a bind, so it keeps its own key check.
TEST_F(ExecutorTest, AdapterInsertRejectsNullPk) {
  hbase::Session s(&cluster_);
  std::vector<Value> row(catalog_.FindRelation("Customer")->columns.size());
  row[static_cast<size_t>(
      catalog_.FindRelation("Customer")->ColumnIndex("c_uname"))] =
      Value("nobody");
  Status inserted = adapter_->InsertRow(s, "Customer", row);
  EXPECT_EQ(inserted.code(), StatusCode::kInvalidArgument) << inserted;
  EXPECT_EQ(Run("SELECT * FROM Customer WHERE c_uname = ?", {Value("nobody")})
                .row_count,
            0u);
}

TEST_F(ExecutorTest, AdapterGetMissingReturnsEmpty) {
  hbase::Session s(&cluster_);
  SlotRow row;
  auto found = adapter_->GetByPkSlots(s, "Customer", {Value(42)}, &row);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
}

}  // namespace
}  // namespace synergy::exec
