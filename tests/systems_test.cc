// Integration tests across the five evaluated systems at small scale:
// every workload statement runs on every system, and the paper's headline
// orderings hold.
#include "systems/evaluated_system.h"

#include <gtest/gtest.h>

#include "hbase/retry_policy.h"
#include "systems/harness.h"
#include "systems/mvcc_system.h"
#include "systems/store_backed_system.h"
#include "testing/fault_injector.h"
#include "tpcw/workload.h"

namespace synergy::systems {
namespace {

class SystemsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scale_ = new tpcw::ScaleConfig();
    scale_->num_customers = 40;
    systems_ = new std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>();
    for (const SystemKind kind : AllSystemKinds()) {
      auto system = MakeSystem(kind);
      ASSERT_TRUE(system->Setup(*scale_).ok()) << SystemKindName(kind);
      systems_->emplace(kind, std::move(system));
    }
  }
  static void TearDownTestSuite() {
    delete systems_;
    delete scale_;
  }

  static EvaluatedSystem& System(SystemKind kind) {
    return *systems_->at(kind);
  }

  double RunMs(SystemKind kind, const std::string& id) {
    tpcw::ParamProvider params(*scale_, /*seed=*/99);
    Measurement m = MeasureStatement(System(kind), params, id, 2);
    EXPECT_TRUE(m.error.ok()) << SystemKindName(kind) << " " << id << ": "
                              << m.error;
    EXPECT_TRUE(m.supported);
    return m.rt_ms.mean();
  }

  static tpcw::ScaleConfig* scale_;
  static std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>* systems_;
};

tpcw::ScaleConfig* SystemsTest::scale_ = nullptr;
std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>* SystemsTest::systems_ =
    nullptr;

TEST_F(SystemsTest, EveryStatementRunsOnEveryHBaseSystem) {
  sql::Workload w = tpcw::BuildWorkload();
  for (const SystemKind kind : HBaseBackedKinds()) {
    tpcw::ParamProvider params(*scale_, /*seed=*/5);
    for (const sql::WorkloadStatement& stmt : w.statements) {
      Measurement m = MeasureStatement(System(kind), params, stmt.id, 1);
      EXPECT_TRUE(m.error.ok())
          << SystemKindName(kind) << " " << stmt.id << ": " << m.error;
    }
  }
}

TEST_F(SystemsTest, VoltDbRunsSupportedStatementsOnly) {
  tpcw::ParamProvider params(*scale_, /*seed=*/5);
  std::set<std::string> unsupported;
  for (const std::string& id : tpcw::JoinQueryIds()) {
    Measurement m = MeasureStatement(System(SystemKind::kVoltDb), params, id, 1);
    ASSERT_TRUE(m.error.ok()) << id << ": " << m.error;
    if (!m.supported) unsupported.insert(id);
  }
  EXPECT_EQ(unsupported,
            (std::set<std::string>{"Q3", "Q7", "Q9", "Q10"}));
}

TEST_F(SystemsTest, SynergyBeatsBaselineOnJoins) {
  for (const char* id : {"Q1", "Q2", "Q4", "Q8"}) {
    EXPECT_LT(RunMs(SystemKind::kSynergy, id),
              RunMs(SystemKind::kBaseline, id))
        << id;
  }
}

TEST_F(SystemsTest, SynergyBeatsMvccAOnJoins) {
  // Marginal on the scan itself; decisive via the absent MVCC tax.
  double synergy = 0, mvcc_a = 0;
  for (const char* id : {"Q1", "Q2", "Q4", "Q6"}) {
    synergy += RunMs(SystemKind::kSynergy, id);
    mvcc_a += RunMs(SystemKind::kMvccA, id);
  }
  EXPECT_LT(synergy, mvcc_a);
}

TEST_F(SystemsTest, VoltDbFastestOnSupportedJoins) {
  for (const char* id : {"Q1", "Q2", "Q4"}) {
    EXPECT_LT(RunMs(SystemKind::kVoltDb, id), RunMs(SystemKind::kSynergy, id))
        << id;
  }
}

TEST_F(SystemsTest, SynergyWritesCheaperThanMvccWrites) {
  for (const char* id : {"W1", "W3", "W6", "W13"}) {
    EXPECT_LT(RunMs(SystemKind::kSynergy, id),
              RunMs(SystemKind::kBaseline, id))
        << id;
    EXPECT_LT(RunMs(SystemKind::kSynergy, id), RunMs(SystemKind::kMvccA, id))
        << id;
  }
}

TEST_F(SystemsTest, VoltDbWritesCheapest) {
  EXPECT_LT(RunMs(SystemKind::kVoltDb, "W1"), RunMs(SystemKind::kSynergy, "W1"));
}

TEST_F(SystemsTest, ShoppingCartWritesAreCheapInSynergy) {
  // W6/W11 touch a relation outside every view (paper's observation).
  const double w6 = RunMs(SystemKind::kSynergy, "W6");
  const double w13 = RunMs(SystemKind::kSynergy, "W13");
  EXPECT_LT(w6, w13);
}

TEST_F(SystemsTest, DbSizeOrderingMatchesTableIII) {
  const double volt = System(SystemKind::kVoltDb).DbSizeBytes();
  const double baseline = System(SystemKind::kBaseline).DbSizeBytes();
  const double mvcc_ua = System(SystemKind::kMvccUA).DbSizeBytes();
  const double mvcc_a = System(SystemKind::kMvccA).DbSizeBytes();
  const double synergy = System(SystemKind::kSynergy).DbSizeBytes();
  EXPECT_LT(volt, baseline);
  EXPECT_LE(baseline, mvcc_ua);
  EXPECT_LT(mvcc_ua, mvcc_a);
  // Synergy ~ MVCC-A (same views; Synergy adds lock tables).
  EXPECT_GE(synergy, mvcc_a * 0.95);
  // Views roughly double the footprint (paper: 2.1x).
  EXPECT_GT(synergy, baseline * 1.3);
}

TEST_F(SystemsTest, SynergySelectsTheExpectedTpcwViews) {
  auto views = System(SystemKind::kSynergy).ViewNames();
  std::set<std::string> names(views.begin(), views.end());
  EXPECT_TRUE(names.contains("Customer-Orders"));
  EXPECT_TRUE(names.contains("Author-Item"));
  EXPECT_TRUE(names.contains("Item-Order_line"));
  EXPECT_TRUE(names.contains("Author-Item-Order_line"));
  EXPECT_TRUE(names.contains("Country-Address"));
}

TEST_F(SystemsTest, UnawareSelectorPicksFewSmallViews) {
  auto views = System(SystemKind::kMvccUA).ViewNames();
  EXPECT_GE(views.size(), 1u);
  EXPECT_LE(views.size(), 3u);
}

TEST_F(SystemsTest, BaselineHasNoViews) {
  EXPECT_TRUE(System(SystemKind::kBaseline).ViewNames().empty());
}

TEST_F(SystemsTest, MvccTaxDominatesShortStatements) {
  // Any baseline statement carries the ~800-900 ms Tephra overhead.
  EXPECT_GT(RunMs(SystemKind::kBaseline, "S1"), 500.0);
  EXPECT_LT(RunMs(SystemKind::kSynergy, "S1"), 100.0);
}

TEST_F(SystemsTest, QueryResultsAgreeAcrossSystems) {
  // Row counts for deterministic queries must match across systems.
  tpcw::ParamProvider p1(*scale_, 123), p2(*scale_, 123), p3(*scale_, 123);
  for (const char* id : {"Q1", "Q4", "Q6", "Q8", "S7"}) {
    auto params = p1.ParamsFor(id);
    ASSERT_TRUE(params.ok());
    auto a = System(SystemKind::kBaseline).Execute(id, *params);
    auto b = System(SystemKind::kSynergy).Execute(id, *params);
    auto c = System(SystemKind::kMvccA).Execute(id, *params);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << id;
    EXPECT_EQ(a->rows, b->rows) << id;
    EXPECT_EQ(a->rows, c->rows) << id;
  }
}

TEST_F(SystemsTest, PersistentClientMatchesFreshSessionExecute) {
  // One fixed read sequence, run through a persistent open-loop client and
  // through fresh-session Execute: the shared client path must attribute
  // the same per-op counters and virtual time to every statement.
  tpcw::ParamProvider provider(*scale_, /*seed=*/321);
  std::vector<std::pair<std::string, std::vector<Value>>> reads;
  for (const char* id : {"Q1", "Q4", "Q6", "Q8", "S1", "S7", "Q1"}) {
    StatusOr<std::vector<Value>> params = provider.ParamsFor(id);
    ASSERT_TRUE(params.ok()) << id;
    reads.emplace_back(id, *params);
  }
  for (const SystemKind kind : {SystemKind::kSynergy, SystemKind::kBaseline}) {
    auto& system = static_cast<StoreBackedSystem&>(System(kind));
    std::unique_ptr<hbase::Session> client = system.MakeClient();
    for (const auto& [id, params] : reads) {
      SCOPED_TRACE(std::string(SystemKindName(kind)) + " " + id);
      const StatementOutcome open = system.ExecuteOpen(*client, id, params);
      ASSERT_TRUE(open.status.ok()) << open.status;
      StatusOr<StatementResult> fresh = system.Execute(id, params);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_GT(fresh->counts[obs::OpCounter::kRpcs], 0u);
      EXPECT_EQ(open.result.counts, fresh->counts);
      EXPECT_EQ(open.result.rows, fresh->rows);
      EXPECT_NEAR(open.result.virtual_ms, fresh->virtual_ms,
                  1e-9 * fresh->virtual_ms);
    }
  }
}

TEST_F(SystemsTest, ClosedLoopReportCountsEveryAttemptOfAFailedOp) {
  // One client with the default RetryPolicy meets a region-RPC outage that
  // lasts exactly one op's attempts. Baseline's MVCC manager issues no RPCs
  // of its own, so every RPC and retry the registry saw over the run was
  // spent by an op in the report — the failed op's included.
  MvccSystem baseline("Baseline", MvccSystem::ViewMode::kNone);
  ASSERT_TRUE(baseline.Setup(*scale_).ok());
  baseline.cluster()->ResetMetrics();
  const hbase::RetryPolicy policy;
  baseline.SetRetryPolicy(policy);
  fault::FaultInjector faults(/*seed=*/5);
  faults.Arm(fault::FaultPoint::kRegionRpcFailure, /*skip_hits=*/20,
             /*max_fires=*/policy.max_attempts);
  baseline.cluster()->SetFaultInjector(&faults);
  const concurrent::WorkloadReport report =
      MeasureConcurrent(baseline, *scale_, concurrent::ReadOnlyMix(),
                        {.threads = 1, .ops_per_thread = 20});
  baseline.cluster()->SetFaultInjector(nullptr);

  ASSERT_EQ(faults.FireCount(fault::FaultPoint::kRegionRpcFailure),
            policy.max_attempts);
  EXPECT_EQ(report.tally.errors, 1u);
  EXPECT_EQ(report.tally.first_error.code(), StatusCode::kUnavailable)
      << report.tally.first_error;
  EXPECT_EQ(report.tally.ops, 19u);
  const obs::RegistrySnapshot snap = baseline.cluster()->metrics().Snapshot();
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRpcs],
            snap.CounterValue("hbase_rpcs_total"));
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRetries],
            snap.CounterValue("client_retries_total"));
  EXPECT_GE(report.tally.counts[obs::OpCounter::kRetries],
            static_cast<uint64_t>(policy.max_attempts - 1));
}

}  // namespace
}  // namespace synergy::systems
