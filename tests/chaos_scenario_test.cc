// Chaos scenario suite: write storms against hot rows under injected faults
// (slave crashes, dropped lock releases, region-RPC loss, region-server
// outages, WAL failures), asserting after every recovery that each
// materialized view equals the join of its base tables and no dirty marks
// or orphaned locks remain.
//
// Every scenario is deterministic in a single seed. A failing run prints
// the seed; replay it with SYNERGY_TEST_SEED=<n> (see docs/TESTING.md).
// SYNERGY_CHAOS_ITERS=<k> multiplies the round count (nightly CI).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "company_fixture.h"
#include "failover_drain.h"
#include "synergy/synergy_system.h"
#include "synergy/view_audit.h"
#include "systems/synergy_wrapper.h"
#include "testing/fault_injector.h"
#include "tpcw/generator.h"
#include "tpcw/workload.h"

namespace synergy::core {
namespace {

using fault::FaultPoint;

/// True for the errors a client legitimately sees during a fault storm:
/// crashed/unreachable slaves, lock-acquisition timeouts against locks a
/// dead slave still holds, and overload rejections (admission sheds, full
/// slave queues, open circuit breakers) while a burst drains.
bool TolerableStormError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kAborted ||
         status.code() == StatusCode::kResourceExhausted;
}

class ChaosScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<SynergySystem>(
        &cluster_, SynergyConfig{.roots = testing::CompanyRoots(),
                                 .txn_slaves = 2});
    ASSERT_TRUE(
        system_->Build(testing::CompanyCatalog(), testing::CompanyWorkload())
            .ok());
    ASSERT_TRUE(system_->CreateStorage().ok());
    hbase::Session s(&cluster_);
    for (int a = 1; a <= 6; ++a) {
      ASSERT_TRUE(system_
                      ->Load(s, "Address",
                             {{"AID", Value(a)},
                              {"Street", Value("s" + std::to_string(a))},
                              {"City", Value("c")},
                              {"Zip", Value("z")}})
                      .ok());
    }
    for (int d = 1; d <= 2; ++d) {
      ASSERT_TRUE(system_
                      ->Load(s, "Department",
                             {{"DNo", Value(d)}, {"DName", Value("d")}})
                      .ok());
    }
    for (int e = 1; e <= 4; ++e) {
      ASSERT_TRUE(system_
                      ->Load(s, "Employee",
                             {{"EID", Value(e)},
                              {"EName", Value("e" + std::to_string(e))},
                              {"EHome_AID", Value(e)},
                              {"EOffice_AID", Value(5)},
                              {"E_DNo", Value(e % 2 + 1)}})
                      .ok());
    }
  }

  /// One injector per scenario, seeded from SYNERGY_TEST_SEED (or the
  /// scenario default). Rounds scale with SYNERGY_CHAOS_ITERS.
  void InstallInjector(uint64_t default_seed) {
    seed_ = fault::TestSeedFromEnv(default_seed);
    faults_ = std::make_unique<fault::FaultInjector>(seed_);
    cluster_.SetFaultInjector(faults_.get());
    rng_ = std::make_unique<Rng>(seed_);
    rounds_ = 3 * fault::ChaosScaleFromEnv();
  }

  std::string ReplayHint() const {
    return "replay with SYNERGY_TEST_SEED=" + std::to_string(seed_) + "; " +
           faults_->Report();
  }

  /// Hot-row write storm: random inserts/deletes/updates on Works_On plus
  /// Employee renames, all against the same handful of rows. Crashed or
  /// lock-blocked writes are expected; any other failure is a bug.
  void Storm(int ops) {
    hbase::Session s(&cluster_);
    for (int op = 0; op < ops; ++op) {
      const int eid = static_cast<int>(rng_->Uniform(1, 4));
      const int pno = static_cast<int>(rng_->Uniform(1, 5));
      Status status = Status::Ok();
      switch (rng_->Next() % 4) {
        case 0:
          status = Write("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                         "VALUES (?, ?, ?)",
                         {Value(eid), Value(pno),
                          Value(static_cast<int>(rng_->Uniform(1, 99)))});
          break;
        case 1:
          status = Write("DELETE FROM Works_On WHERE WO_EID = ? AND "
                         "WO_PNo = ?",
                         {Value(eid), Value(pno)});
          break;
        case 2:
          status = Write("UPDATE Works_On SET Hours = ? WHERE WO_EID = ? "
                         "AND WO_PNo = ?",
                         {Value(static_cast<int>(rng_->Uniform(1, 99))),
                          Value(eid), Value(pno)});
          break;
        case 3:
          status = Write("UPDATE Employee SET EName = ? WHERE EID = ?",
                         {Value("r" + std::to_string(op)), Value(eid)});
          break;
      }
      ASSERT_TRUE(status.ok() || TolerableStormError(status))
          << status << "\n" << ReplayHint();
    }
  }

  Status Write(const std::string& sql, std::vector<Value> params) {
    hbase::Session s(&cluster_);
    if (storm_policy_.has_value()) s.SetRetryPolicy(*storm_policy_);
    return WriteOn(s, sql, std::move(params));
  }

  /// Workload read on a fresh session (dirty-read detection is on for
  /// SynergySystem reads, so kDirtyReadRestart faults land here).
  Status Read(const std::string& workload_id, std::vector<Value> params) {
    const sql::WorkloadStatement* stmt =
        system_->workload().Find(workload_id);
    if (stmt == nullptr) return Status::NotFound(workload_id);
    hbase::Session s(&cluster_);
    if (storm_policy_.has_value()) s.SetRetryPolicy(*storm_policy_);
    return system_
        ->ExecuteRead(s, std::get<sql::SelectStatement>(stmt->ast), params)
        .status();
  }

  /// Thread-safe write: parses into a stack-local statement and executes on
  /// the caller's session, so concurrent clients share no test state.
  Status WriteOn(hbase::Session& session, const std::string& sql,
                 std::vector<Value> params) {
    const sql::Statement stmt = sql::MustParse(sql);
    return system_->ExecuteWrite(session, stmt, params).status();
  }

  /// Multi-client storm: `clients` worker threads hammer the same hot
  /// Works_On / Employee rows (and thus race for the same root locks) while
  /// the armed faults fire. Each client gets its own session and its own
  /// RNG stream (seed_ ^ client), so the per-client workload replays from
  /// the scenario seed even though the interleaving varies; the assertions
  /// below are interleaving-independent invariants. gtest assertions are
  /// not thread-safe off the main thread, so workers collect intolerable
  /// statuses and the main thread reports them after the join.
  void ConcurrentStorm(int clients, int ops_per_client) {
    std::vector<std::vector<Status>> intolerable(clients);
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([this, c, ops_per_client, &intolerable] {
        Rng rng(seed_ ^ static_cast<uint64_t>(c + 1));
        hbase::Session session(&cluster_);
        for (int op = 0; op < ops_per_client; ++op) {
          const int eid = static_cast<int>(rng.Uniform(1, 4));
          const int pno = static_cast<int>(rng.Uniform(1, 5));
          Status status = Status::Ok();
          switch (rng.Next() % 4) {
            case 0:
              status = WriteOn(session,
                               "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                               "VALUES (?, ?, ?)",
                               {Value(eid), Value(pno),
                                Value(static_cast<int>(rng.Uniform(1, 99)))});
              break;
            case 1:
              status = WriteOn(session,
                               "DELETE FROM Works_On WHERE WO_EID = ? AND "
                               "WO_PNo = ?",
                               {Value(eid), Value(pno)});
              break;
            case 2:
              status = WriteOn(session,
                               "UPDATE Works_On SET Hours = ? WHERE WO_EID = ? "
                               "AND WO_PNo = ?",
                               {Value(static_cast<int>(rng.Uniform(1, 99))),
                                Value(eid), Value(pno)});
              break;
            case 3:
              status = WriteOn(session,
                               "UPDATE Employee SET EName = ? WHERE EID = ?",
                               {Value("c" + std::to_string(c) + "_" +
                                      std::to_string(op)),
                                Value(eid)});
              break;
          }
          if (!status.ok() && !TolerableStormError(status)) {
            intolerable[c].push_back(status);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int c = 0; c < clients; ++c) {
      for (const Status& status : intolerable[c]) {
        ADD_FAILURE() << "client " << c << ": " << status << "\n"
                      << ReplayHint();
      }
    }
  }

  /// After an overload storm, residual burst phantoms stay on a server's
  /// admission books until real ops drain them (one per completion or per
  /// shed decision). Quiesce the way an operator would — trickle cheap
  /// probes until the books are empty — so recovery and the audit run on a
  /// calm cluster instead of being shed themselves. Bounded: every probe
  /// drains at least one phantom, so the loop always terminates.
  void DrainOverloadBacklog() {
    if (cluster_.admission() == nullptr) return;
    for (int probe = 0; probe < 1024; ++probe) {
      bool busy = false;
      for (int sid = 0; sid < cluster_.num_region_servers(); ++sid) {
        if (cluster_.admission()->Occupancy(sid) > 0) {
          busy = true;
          break;
        }
      }
      if (!busy) return;
      hbase::Session s(&cluster_);
      (void)cluster_.Get(s, "Employee", "overload-drain-probe");
    }
  }

  /// Disarms all faults, runs master failover + WAL replay, then audits
  /// every view against its defining base join and checks that writes make
  /// progress again (no orphaned locks, live slaves).
  void RecoverAndAudit() {
    faults_->DisarmAll();
    DrainOverloadBacklog();
    testing::DrainFailover(cluster_);
    hbase::Session s(&cluster_);
    ASSERT_TRUE(system_->txn_layer()
                    ->DetectAndRecover(
                        s,
                        [&](hbase::Session& rs, const std::string& payload) {
                          return system_->ReplayPayload(rs, payload);
                        })
                    .ok())
        << ReplayHint();
    auto report = AuditViewConsistency(s, system_->adapter());
    ASSERT_TRUE(report.ok()) << report.status() << "\n" << ReplayHint();
    EXPECT_TRUE(report->consistent())
        << report->ToString() << ReplayHint();
    // Post-recovery progress: a write to the hottest root must succeed.
    const Status progress =
        Write("UPDATE Employee SET EName = ? WHERE EID = ?",
              {Value("recovered"), Value(1)});
    EXPECT_TRUE(progress.ok()) << progress << "\n" << ReplayHint();
  }

  /// Deterministic single-point scenario: each round lets a few writes
  /// pass, fires the fault, keeps storming, then recovers and audits.
  void RunDeterministicScenario(FaultPoint point, uint64_t default_seed) {
    InstallInjector(default_seed);
    for (int round = 0; round < rounds_; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      faults_->Arm(point, /*skip_hits=*/round, /*max_fires=*/2);
      Storm(30);
      RecoverAndAudit();
    }
  }

  /// Probabilistic scenario: every hit of `point` fires with `probability`
  /// (optionally filtered), drawn from the seeded RNG.
  void RunProbabilisticScenario(fault::FaultRule rule, uint64_t default_seed) {
    InstallInjector(default_seed);
    for (int round = 0; round < rounds_; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      faults_->AddRule(rule);
      Storm(30);
      RecoverAndAudit();
    }
  }

  hbase::Cluster cluster_;
  std::unique_ptr<SynergySystem> system_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<Rng> rng_;
  uint64_t seed_ = 0;
  int rounds_ = 1;
  /// When set, every storm session carries this retry policy (failover
  /// scenarios: clients are expected to ride out the outage).
  std::optional<hbase::RetryPolicy> storm_policy_;
};

// --- Scenario 1: slave dies holding the root lock, before the body runs.
TEST_F(ChaosScenarioTest, CrashBeforeExecuteStorm) {
  RunDeterministicScenario(FaultPoint::kCrashBeforeExecute, 101);
}

// --- Scenario 2: slave dies right after the WAL append (no lock held).
TEST_F(ChaosScenarioTest, CrashAfterWalAppendStorm) {
  RunDeterministicScenario(FaultPoint::kCrashAfterWalAppend, 102);
}

// --- Scenario 3: the lock-release RPC is lost after a successful body.
TEST_F(ChaosScenarioTest, DropLockReleaseStorm) {
  RunDeterministicScenario(FaultPoint::kDropLockRelease, 103);
}

// --- Scenario 4: WAL appends fail (writes rejected before any state
// change); the system must stay consistent and keep accepting writes.
TEST_F(ChaosScenarioTest, WalAppendFailureStorm) {
  RunDeterministicScenario(FaultPoint::kWalAppendFailure, 104);
}

// --- Scenario 5: store RPCs are randomly lost before reaching the region;
// mid-body losses kill the slave, which must heal via WAL replay.
TEST_F(ChaosScenarioTest, RegionRpcFailureStorm) {
  fault::FaultRule rule;
  rule.point = FaultPoint::kRegionRpcFailure;
  rule.probability = 0.03;
  RunProbabilisticScenario(rule, 105);
}

// --- Scenario 6: mutations are applied but their acknowledgements are
// lost; replay must be idempotent over the already-applied writes.
TEST_F(ChaosScenarioTest, RegionRpcAckLostStorm) {
  fault::FaultRule rule;
  rule.point = FaultPoint::kRegionRpcAckLost;
  rule.probability = 0.05;
  RunProbabilisticScenario(rule, 106);
}

// --- Scenario 7: a whole region server goes dark (every RPC to its regions
// fails) while writers hammer the hot rows; after the outage the views must
// equal their joins again.
TEST_F(ChaosScenarioTest, RegionServerOutage) {
  fault::FaultRule rule;
  rule.point = FaultPoint::kRegionRpcFailure;
  rule.server_id = 1;
  RunProbabilisticScenario(rule, 107);
}

// --- Scenario 8: faults aimed only at the lock tables (the hierarchical
// locking machinery itself is the failure domain).
TEST_F(ChaosScenarioTest, LockTableRpcFailureStorm) {
  fault::FaultRule rule;
  rule.point = FaultPoint::kRegionRpcFailure;
  rule.probability = 0.2;
  rule.table_prefix = "__lock_";
  RunProbabilisticScenario(rule, 108);
}

// --- Scenario 9: three clients race for the same root locks while slaves
// crash before executing the body (the lock is leaked on purpose) and after
// the WAL append; recovery must release the orphaned locks and restore view
// consistency no matter which client's write was in flight.
TEST_F(ChaosScenarioTest, MultiClientSlaveCrashStorm) {
  InstallInjector(109);
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const FaultPoint point :
         {FaultPoint::kCrashBeforeExecute, FaultPoint::kCrashAfterWalAppend}) {
      fault::FaultRule rule;
      rule.point = point;
      rule.probability = 0.04;
      faults_->AddRule(rule);
    }
    ConcurrentStorm(/*clients=*/3, /*ops_per_client=*/20);
    RecoverAndAudit();
  }
}

// --- Scenario 10: concurrent clients under request loss — store RPCs are
// randomly dropped while two sessions contend on the hot rows; mid-body
// losses kill the slave under one client while the other keeps writing.
TEST_F(ChaosScenarioTest, MultiClientRequestLostStorm) {
  InstallInjector(110);
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    fault::FaultRule rule;
    rule.point = FaultPoint::kRegionRpcFailure;
    rule.probability = 0.03;
    faults_->AddRule(rule);
    ConcurrentStorm(/*clients=*/2, /*ops_per_client=*/25);
    RecoverAndAudit();
  }
}

// --- Scenario 11: the lock-release RPC is dropped under concurrency: a
// client finishes its body but leaves the root lock held, blocking the
// other clients (they see tolerable lock timeouts) until recovery releases
// the orphans.
TEST_F(ChaosScenarioTest, MultiClientDropLockReleaseStorm) {
  InstallInjector(111);
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    fault::FaultRule rule;
    rule.point = FaultPoint::kDropLockRelease;
    rule.probability = 0.05;
    faults_->AddRule(rule);
    ConcurrentStorm(/*clients=*/3, /*ops_per_client=*/20);
    RecoverAndAudit();
  }
}

// --- Scenario 13: a region server crashes (store wiped) in the middle of
// the write storm. Clients carry a retry policy, so the outage must be
// absorbed: failure detection, lease expiry, region reassignment and WAL
// replay all run inside the clients' backoffs, and the audit proves no
// acknowledged write was lost.
TEST_F(ChaosScenarioTest, RegionServerCrashFailoverStorm) {
  InstallInjector(113);
  // Faster detection so one storm's RPC stream spans the whole failover.
  hbase::FailoverConfig fo;
  fo.heartbeat_every_rpcs = 8;
  fo.lease_missed_rounds = 2;
  cluster_.ConfigureFailover(fo);
  storm_policy_ = hbase::RetryPolicy{};
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    faults_->AddRule({.point = FaultPoint::kRegionServerCrash,
                      .probability = 1.0,
                      .skip_hits = round,
                      .max_fires = 1,
                      .table_prefix = "",
                      .server_id = round % 2 == 0 ? 1 : 2});
    Storm(40);
    RecoverAndAudit();
  }
}

// --- Scenario 14: heartbeat loss (server alive but silent). The lease
// expires, regions move *without* replay (store intact), and reads in the
// window are served degraded rather than failing.
TEST_F(ChaosScenarioTest, HeartbeatLossFencingStorm) {
  InstallInjector(114);
  hbase::FailoverConfig fo;
  fo.heartbeat_every_rpcs = 8;
  fo.lease_missed_rounds = 2;
  cluster_.ConfigureFailover(fo);
  storm_policy_ = hbase::RetryPolicy{};
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    fault::FaultRule rule;
    rule.point = FaultPoint::kHeartbeatLoss;
    rule.probability = 0.5;  // each live server misses ~half its beats
    faults_->AddRule(rule);
    Storm(40);
    RecoverAndAudit();
    EXPECT_EQ(cluster_.metrics().Snapshot().CounterValue(
                  "hbase_failover_crashes_total"),
              0u)
        << "heartbeat loss must fence, not crash\n" << ReplayHint();
  }
}

// --- Scenario 15: RPCs time out in flight (request never reached the
// region). Without retries a mid-body timeout kills the slave; with the
// storm policy the root-level SubmitWrite retry must absorb it, auto-
// recovering drained slaves between attempts.
TEST_F(ChaosScenarioTest, RpcTimeoutStorm) {
  storm_policy_ = hbase::RetryPolicy{};
  fault::FaultRule rule;
  rule.point = FaultPoint::kRpcTimeout;
  rule.probability = 0.03;
  RunProbabilisticScenario(rule, 115);
}

// --- Scenario 16: dirty-read restarts forced mid-failover: reads hit the
// MVCC restart loop (as if a concurrent root txn marked their rows) while a
// region server is down, so restarted scans also ride the retry path.
TEST_F(ChaosScenarioTest, DirtyReadRestartMidFailover) {
  InstallInjector(116);
  hbase::FailoverConfig fo;
  fo.heartbeat_every_rpcs = 8;
  fo.lease_missed_rounds = 2;
  cluster_.ConfigureFailover(fo);
  storm_policy_ = hbase::RetryPolicy{};
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    faults_->AddRule({.point = FaultPoint::kRegionServerCrash,
                      .probability = 1.0,
                      .skip_hits = round,
                      .max_fires = 1,
                      .table_prefix = "",
                      .server_id = 1});
    fault::FaultRule restart;
    restart.point = FaultPoint::kDirtyReadRestart;
    restart.probability = 0.2;
    faults_->AddRule(restart);
    for (int op = 0; op < 20; ++op) {
      // Interleave the hot-row writes with workload joins; the restart
      // fault only has teeth on the read path (detect_dirty scans).
      Storm(2);
      const Status read =
          Read("W2", {Value(static_cast<int>(rng_->Uniform(1, 2)))});
      ASSERT_TRUE(read.ok() || TolerableStormError(read))
          << read << "\n" << ReplayHint();
    }
    RecoverAndAudit();
  }
}

// --- Scenario 17: synthetic load bursts slam the serving region servers
// while clients hammer the hot rows. Admission control queues or sheds the
// overflow (tolerable kResourceExhausted — never retried), oversized bursts
// drain through completed ops and shed decisions instead of wedging a
// server, and after the storm the views are consistent and writes make
// progress: overload may degrade service, never correctness.
TEST_F(ChaosScenarioTest, OverloadBurstSheddingStorm) {
  InstallInjector(117);
  hbase::AdmissionConfig admission;
  admission.enabled = true;
  admission.max_inflight_per_server = 2;
  admission.max_queue_depth = 4;
  admission.est_service_us = 500.0;
  admission.burst_ops = 12;  // wider than inflight+queue: sheds must drain it
  cluster_.ConfigureAdmission(admission);
  storm_policy_ = hbase::RetryPolicy{};
  for (int round = 0; round < rounds_; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    fault::FaultRule rule;
    rule.point = FaultPoint::kOverloadBurst;
    rule.probability = 0.05;  // ~one burst per handful of admitted RPCs
    faults_->AddRule(rule);
    Storm(30);
    RecoverAndAudit();
  }
  const obs::RegistrySnapshot snap = cluster_.metrics().Snapshot();
  EXPECT_GT(snap.CounterValue("hbase_admission_burst_ops_total"), 0u)
      << ReplayHint();
  EXPECT_GT(snap.CounterValue("hbase_admission_queued_total") +
                snap.CounterValue("hbase_admission_shed_queue_full_total") +
                snap.CounterValue("hbase_admission_shed_deadline_total"),
            0u)
      << "the bursts must actually have displaced real traffic\n"
      << ReplayHint();
}

// --- Scenario 12: TPC-W write storm (W1-W13 hot-row traffic) under a mix of
// every fault point at once, on the full paper schema with views.
TEST(ChaosTpcwTest, MixedFaultWriteStorm) {
  systems::SynergyWrapper wrapper;
  tpcw::ScaleConfig scale;
  scale.num_customers = 20;
  ASSERT_TRUE(wrapper.Setup(scale).ok());

  const uint64_t seed = fault::TestSeedFromEnv(20170904);
  fault::FaultInjector faults(seed);
  wrapper.cluster()->SetFaultInjector(&faults);
  tpcw::ParamProvider params(scale, seed);
  const std::vector<std::string> writes = tpcw::WriteStatementIds();
  hbase::Session s(wrapper.system()->adapter()->cluster());
  const std::string hint = "replay with SYNERGY_TEST_SEED=" +
                           std::to_string(seed);

  const int rounds = 3 * fault::ChaosScaleFromEnv();
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const FaultPoint point :
         {FaultPoint::kCrashBeforeExecute, FaultPoint::kCrashAfterWalAppend,
          FaultPoint::kDropLockRelease, FaultPoint::kRegionRpcFailure,
          FaultPoint::kRegionRpcAckLost, FaultPoint::kWalAppendFailure}) {
      fault::FaultRule rule;
      rule.point = point;
      rule.probability = 0.02;
      faults.AddRule(rule);
    }
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::string& stmt_id : writes) {
        auto p = params.ParamsFor(stmt_id);
        ASSERT_TRUE(p.ok()) << stmt_id;
        auto result = wrapper.Execute(stmt_id, *p);
        ASSERT_TRUE(result.ok() || TolerableStormError(result.status()))
            << stmt_id << ": " << result.status() << "\n" << hint << "; "
            << faults.Report();
      }
    }
    faults.DisarmAll();
    ASSERT_TRUE(wrapper.system()
                    ->txn_layer()
                    ->DetectAndRecover(
                        s,
                        [&](hbase::Session& rs, const std::string& payload) {
                          return wrapper.system()->ReplayPayload(rs, payload);
                        })
                    .ok())
        << hint << "; " << faults.Report();
    auto report = AuditViewConsistency(s, wrapper.system()->adapter());
    ASSERT_TRUE(report.ok()) << report.status() << "\n" << hint;
    EXPECT_TRUE(report->consistent())
        << report->ToString() << hint << "; " << faults.Report();
  }
}

}  // namespace
}  // namespace synergy::core
