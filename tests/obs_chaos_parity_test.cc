// Fault-accounting parity: every fault the injector reports as fired must
// be visible in the metrics registry, and vice versa. The nightly chaos job
// runs this to catch instrumentation drift — a fault point that fires
// without publishing (or a counter that double-counts) breaks the equality
// exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "company_fixture.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "synergy/synergy_system.h"
#include "testing/fault_injector.h"

namespace synergy::core {
namespace {

using fault::FaultPoint;

class ObsChaosParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults_ = std::make_unique<fault::FaultInjector>(
        fault::TestSeedFromEnv(/*default_seed=*/20260808));
    system_ = std::make_unique<SynergySystem>(
        &cluster_, SynergyConfig{.roots = testing::CompanyRoots()});
    cluster_.SetFaultInjector(faults_.get());
    ASSERT_TRUE(
        system_->Build(testing::CompanyCatalog(), testing::CompanyWorkload())
            .ok());
    ASSERT_TRUE(system_->CreateStorage().ok());
    hbase::Session s(&cluster_);
    for (int a = 1; a <= 4; ++a) {
      ASSERT_TRUE(system_
                      ->Load(s, "Address",
                             {{"AID", Value(a)},
                              {"Street", Value("st")},
                              {"City", Value("c")},
                              {"Zip", Value("z")}})
                      .ok());
    }
    for (int d = 1; d <= 2; ++d) {
      ASSERT_TRUE(system_
                      ->Load(s, "Department",
                             {{"DNo", Value(d)}, {"DName", Value("dept")}})
                      .ok());
    }
    for (int e = 1; e <= 3; ++e) {
      ASSERT_TRUE(system_
                      ->Load(s, "Employee",
                             {{"EID", Value(e)},
                              {"EName", Value("emp")},
                              {"EHome_AID", Value(e)},
                              {"EOffice_AID", Value(4)},
                              {"E_DNo", Value(e % 2 + 1)}})
                      .ok());
    }
    // W2 reads through the Employee-Works_On view: it needs rows to scan,
    // or the dirty-read fault point is never reached.
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

  uint64_t Counter(const std::string& name) {
    return cluster_.metrics().Snapshot().CounterValue(name);
  }

  void AddRule(FaultPoint point, double probability, int max_fires) {
    fault::FaultRule rule;
    rule.point = point;
    rule.probability = probability;
    rule.max_fires = max_fires;
    faults_->AddRule(rule);
  }

  hbase::Cluster cluster_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<SynergySystem> system_;
};

TEST_F(ObsChaosParityTest, RpcFaultFiresMatchInjectedCounter) {
  // Probabilistic storm across the three RPC-level points the registry
  // rolls up into hbase_faults_injected_total.
  AddRule(FaultPoint::kRegionRpcFailure, 0.1, /*max_fires=*/20);
  AddRule(FaultPoint::kRpcTimeout, 0.05, /*max_fires=*/10);
  AddRule(FaultPoint::kRegionRpcAckLost, 0.1, /*max_fires=*/10);

  const sql::WorkloadStatement* w1 = system_->workload().Find("W1");
  ASSERT_NE(w1, nullptr);
  auto insert = sql::MustParse(
      "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)");
  hbase::Session s(&cluster_);
  for (int i = 0; i < 60; ++i) {
    // Statuses are irrelevant here: only the books have to balance.
    const std::vector<Value> read_params{Value(i % 3 + 1)};
    (void)system_->ExecuteRead(s, std::get<sql::SelectStatement>(w1->ast),
                               read_params);
    (void)system_->ExecuteWrite(
        s, insert, {Value(i % 3 + 1), Value(100 + i), Value(i)});
  }

  const int64_t injected = faults_->FireCount(FaultPoint::kRegionRpcFailure) +
                           faults_->FireCount(FaultPoint::kRpcTimeout) +
                           faults_->FireCount(FaultPoint::kRegionRpcAckLost);
  ASSERT_GT(injected, 0) << faults_->Report();
  EXPECT_EQ(Counter("hbase_faults_injected_total"),
            static_cast<uint64_t>(injected))
      << faults_->Report();
}

TEST_F(ObsChaosParityTest, WalFaultFiresMatchAppendFailureCounter) {
  AddRule(FaultPoint::kWalAppendFailure, 0.25, /*max_fires=*/8);

  auto insert = sql::MustParse(
      "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)");
  hbase::Session s(&cluster_);
  for (int i = 0; i < 40; ++i) {
    (void)system_->ExecuteWrite(
        s, insert, {Value(i % 3 + 1), Value(200 + i), Value(i)});
  }

  const int64_t injected = faults_->FireCount(FaultPoint::kWalAppendFailure);
  ASSERT_GT(injected, 0) << faults_->Report();
  EXPECT_EQ(Counter("txn_wal_append_failures_total"),
            static_cast<uint64_t>(injected))
      << faults_->Report();
}

TEST_F(ObsChaosParityTest, DirtyRestartFiresMatchExecutorCounter) {
  // One fire per statement: each aborts exactly one attempt, which the
  // executor restart loop retries and counts.
  const sql::WorkloadStatement* w2 = system_->workload().Find("W2");
  ASSERT_NE(w2, nullptr);
  hbase::Session s(&cluster_);
  for (int i = 0; i < 5; ++i) {
    faults_->Arm(FaultPoint::kDirtyReadRestart, /*skip_hits=*/0,
                 /*max_fires=*/1);
    const std::vector<Value> params{Value(i % 2 + 1)};
    auto r = system_->ExplainAnalyzeRead(
        s, std::get<sql::SelectStatement>(w2->ast), params);
    ASSERT_TRUE(r.ok()) << r.status();
    faults_->Disarm(FaultPoint::kDirtyReadRestart);
  }
  EXPECT_EQ(Counter("exec_dirty_restarts_total"),
            static_cast<uint64_t>(
                faults_->FireCount(FaultPoint::kDirtyReadRestart)));
  EXPECT_EQ(faults_->FireCount(FaultPoint::kDirtyReadRestart), 5);
}

}  // namespace
}  // namespace synergy::core
