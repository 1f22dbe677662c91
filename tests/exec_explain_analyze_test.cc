// EXPLAIN ANALYZE regression: the per-plan-node virtual-µs decomposition
// must reproduce the cost-meter total — exactly in the clean case, and
// still within the 1% acceptance budget when dirty-read restarts fold
// aborted attempts into their pseudo-node. Also checks the trace-span and
// registry sides of the same statement.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "company_fixture.h"
#include "obs/trace.h"
#include "synergy/synergy_system.h"
#include "testing/fault_injector.h"

namespace synergy::core {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<SynergySystem>(
        &cluster_, SynergyConfig{.roots = testing::CompanyRoots()});
    ASSERT_TRUE(
        system_->Build(testing::CompanyCatalog(), testing::CompanyWorkload())
            .ok());
    ASSERT_TRUE(system_->CreateStorage().ok());
    hbase::Session s(&cluster_);
    for (int a = 1; a <= 4; ++a) {
      ASSERT_TRUE(system_
                      ->Load(s, "Address",
                             {{"AID", Value(a)},
                              {"Street", Value("st" + std::to_string(a))},
                              {"City", Value("c")},
                              {"Zip", Value("z")}})
                      .ok());
    }
    for (int d = 1; d <= 2; ++d) {
      ASSERT_TRUE(system_
                      ->Load(s, "Department",
                             {{"DNo", Value(d)},
                              {"DName", Value("dept" + std::to_string(d))}})
                      .ok());
    }
    for (int e = 1; e <= 3; ++e) {
      ASSERT_TRUE(system_
                      ->Load(s, "Employee",
                             {{"EID", Value(e)},
                              {"EName", Value("emp" + std::to_string(e))},
                              {"EHome_AID", Value(e)},
                              {"EOffice_AID", Value(4)},
                              {"E_DNo", Value(e % 2 + 1)}})
                      .ok());
    }
    for (int e = 1; e <= 3; ++e) {
      for (int p = 1; p <= (e % 2) + 1; ++p) {
        ASSERT_TRUE(system_
                        ->Load(s, "Works_On",
                               {{"WO_EID", Value(e)},
                                {"WO_PNo", Value(p)},
                                {"Hours", Value(10 * e + p)}})
                        .ok());
      }
    }
  }

  const sql::SelectStatement& Stmt(const std::string& id) {
    const sql::WorkloadStatement* stmt = system_->workload().Find(id);
    EXPECT_NE(stmt, nullptr);
    return std::get<sql::SelectStatement>(stmt->ast);
  }

  hbase::Cluster cluster_;
  std::unique_ptr<SynergySystem> system_;
};

TEST_F(ExplainAnalyzeTest, NodeSumMatchesMeterTotalOnJoin) {
  // W2: three-way join (Department ⋈ Employee ⋈ Works_On) — exercises the
  // multi-stage pipeline, not just a single view scan.
  hbase::Session s(&cluster_);
  const std::vector<Value> params{Value(1)};
  auto r = system_->ExplainAnalyzeRead(s, Stmt("W2"), params);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_GT(r->total_virtual_us, 0.0);
  ASSERT_GE(r->nodes.size(), 2u);  // at least source stage + sink

  double node_sum = 0.0;
  uint64_t node_rpcs = 0;
  for (const exec::PlanNodeStats& n : r->nodes) {
    node_sum += n.virtual_us;
    node_rpcs += n.rpcs;
    EXPECT_FALSE(n.label.empty());
    EXPECT_GE(n.virtual_us, 0.0);
  }
  EXPECT_DOUBLE_EQ(node_sum, r->node_sum_us);
  // Acceptance bound is 1%; the interval partition makes it fp-exact.
  EXPECT_NEAR(r->node_sum_us, r->total_virtual_us,
              0.01 * r->total_virtual_us);
  EXPECT_NEAR(r->node_sum_us, r->total_virtual_us,
              1e-6 * r->total_virtual_us + 1e-6);

  // Every store RPC is attributed to exactly one node.
  EXPECT_GT(r->total_rpcs, 0u);
  EXPECT_EQ(node_rpcs, r->total_rpcs);

  // Rendered table mentions every node and the totals cross-check line.
  EXPECT_NE(r->text.find("virtual_us="), std::string::npos);
  EXPECT_NE(r->text.find("total:"), std::string::npos);
  for (const exec::PlanNodeStats& n : r->nodes) {
    EXPECT_NE(r->text.find(n.label), std::string::npos) << n.label;
  }

  // The query itself still returns its rows.
  EXPECT_GT(r->result.row_count, 0u);
}

TEST_F(ExplainAnalyzeTest, RegistryCountersTrackStatements) {
  hbase::Session s(&cluster_);
  const uint64_t before =
      cluster_.metrics().Snapshot().CounterValue("exec_statements_total");
  const std::vector<Value> params{Value(2)};
  ASSERT_TRUE(system_->ExplainAnalyzeRead(s, Stmt("W1"), params).ok());
  const obs::RegistrySnapshot snap = cluster_.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("exec_statements_total"), before + 1);
  EXPECT_GE(snap.CounterValue("synergy_reads_total"), 1u);
  EXPECT_GT(snap.CounterValue("hbase_rpcs_total"), 0u);
}

TEST_F(ExplainAnalyzeTest, DirtyRestartFoldsAbortedAttemptIntoPseudoNode) {
  fault::FaultInjector faults(/*seed=*/7);
  cluster_.SetFaultInjector(&faults);
  // First clean-row scan hit aborts the statement once; the restart runs
  // clean. ExplainAnalyzeRead enables dirty-read detection.
  faults.Arm(fault::FaultPoint::kDirtyReadRestart, /*skip_hits=*/0,
             /*max_fires=*/1);

  hbase::Session s(&cluster_);
  const std::vector<Value> params{Value(1)};
  auto r = system_->ExplainAnalyzeRead(s, Stmt("W2"), params);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(faults.FireCount(fault::FaultPoint::kDirtyReadRestart), 1);

  ASSERT_FALSE(r->nodes.empty());
  const exec::PlanNodeStats& restart = r->nodes.front();
  EXPECT_EQ(restart.label, "dirty restarts");
  EXPECT_EQ(restart.rows, 1u);  // one aborted attempt
  EXPECT_GT(restart.virtual_us, 0.0);

  // The aborted attempt plus backoff is charged to the pseudo-node, so the
  // decomposition still balances.
  double node_sum = 0.0;
  for (const exec::PlanNodeStats& n : r->nodes) node_sum += n.virtual_us;
  EXPECT_NEAR(node_sum, r->total_virtual_us, 0.01 * r->total_virtual_us);
  EXPECT_GE(
      cluster_.metrics().Snapshot().CounterValue("exec_dirty_restarts_total"),
      1u);
}

TEST_F(ExplainAnalyzeTest, TraceSpansDecomposeStatementCost) {
  hbase::Session s(&cluster_);
  obs::TraceCollector trace(&s.meter());
  s.SetTrace(&trace);

  const double before_us = s.meter().micros();
  const std::vector<Value> params{Value(1)};
  ASSERT_TRUE(
      system_->ExecuteRead(s, Stmt("W2"), params, /*collect_rows=*/false)
          .ok());
  const double charged_us = s.meter().micros() - before_us;
  s.SetTrace(nullptr);

  // Root spans account for the whole statement's virtual cost.
  EXPECT_GT(charged_us, 0.0);
  EXPECT_NEAR(trace.RootUs(), charged_us, 1e-6 * charged_us + 1e-6);

  bool saw_synergy_read = false, saw_exec_select = false;
  for (const obs::TraceSpan& span : trace.spans()) {
    EXPECT_FALSE(span.open);
    if (span.name == "synergy.read") saw_synergy_read = true;
    if (span.name == "exec.select") saw_exec_select = true;
  }
  EXPECT_TRUE(saw_synergy_read);
  EXPECT_TRUE(saw_exec_select);
  EXPECT_NE(trace.Render().find("synergy.read"), std::string::npos);
}

}  // namespace
}  // namespace synergy::core
