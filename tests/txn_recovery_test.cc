// Recovery regression tests for the failure modes of §VIII-C:
//
//  1. Orphaned CheckAndPut locks: a slave crashes holding a root lock;
//     other clients must stay blocked (read-committed) until master
//     failover releases the lock, after which they make progress.
//  2. WAL replay idempotency: replaying the same log twice leaves the base
//     tables and every materialized view byte-identical — replay after an
//     ack-lost or partially-applied write must be harmless.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "company_fixture.h"
#include "synergy/synergy_system.h"
#include "synergy/view_audit.h"
#include "testing/fault_injector.h"
#include "txn/txn_layer.h"

namespace synergy::core {
namespace {

// ---------------------------------------------------------------------------
// 1. Orphaned-lock recovery, at the txn-layer level for full control of the
//    LockSpec and the blocked second client.
// ---------------------------------------------------------------------------

TEST(OrphanedLockRecoveryTest, RecoveryFreesLockAndUnblocksSecondClient) {
  hbase::Cluster cluster;
  ASSERT_TRUE(cluster.CreateTable({.name = "data"}).ok());
  txn::LockManager locks(&cluster);
  ASSERT_TRUE(locks.CreateLockTable("Root").ok());
  txn::TxnLayer layer(&cluster, &locks, 2);
  fault::FaultInjector faults(17);
  cluster.SetFaultInjector(&faults);
  hbase::Session s(&cluster);

  // Client A crashes holding the root lock, before its body runs.
  faults.Arm(fault::FaultPoint::kCrashBeforeExecute);
  auto crashed = layer.SubmitWrite(
      s, "put a 1", txn::LockSpec{"Root", "rk"},
      [&](hbase::Session& bs) {
        return cluster.Put(bs, "data", "a", {{"v", "1"}});
      });
  ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable);

  // The CheckAndPut lock is orphaned: client B cannot acquire it and times
  // out (read-committed is preserved while the owner is dead).
  auto held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
  const Status blocked = locks.Acquire(s, "Root", "rk", /*max_attempts=*/3);
  EXPECT_EQ(blocked.code(), StatusCode::kAborted) << blocked;

  // Master failover replays the entry and releases the recorded lock.
  ASSERT_TRUE(layer
                  .DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string& payload) {
                        EXPECT_EQ(payload, "put a 1");
                        return cluster.Put(rs, "data", "a", {{"v", "1"}});
                      })
                  .ok());
  held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);

  // Client B now progresses: same lock, clean commit.
  auto ok = layer.SubmitWrite(
      s, "put b 2", txn::LockSpec{"Root", "rk"},
      [&](hbase::Session& bs) {
        return cluster.Put(bs, "data", "b", {{"v", "2"}});
      });
  ASSERT_TRUE(ok.ok()) << ok.status();
  held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

// ---------------------------------------------------------------------------
// 2. WAL double-replay idempotency, at the system level: replaying the full
//    log a second time must not change any base table or view.
// ---------------------------------------------------------------------------

class WalDoubleReplayTest : public ::testing::Test {
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
    for (int a = 1; a <= 4; ++a) {
      ASSERT_TRUE(system_
                      ->Load(s, "Address",
                             {{"AID", Value(a)},
                              {"Street", Value("s" + std::to_string(a))},
                              {"City", Value("c")},
                              {"Zip", Value("z")}})
                      .ok());
    }
    ASSERT_TRUE(system_
                    ->Load(s, "Department",
                           {{"DNo", Value(1)}, {"DName", Value("d")}})
                    .ok());
    for (int e = 1; e <= 3; ++e) {
      ASSERT_TRUE(system_
                      ->Load(s, "Employee",
                             {{"EID", Value(e)},
                              {"EName", Value("e" + std::to_string(e))},
                              {"EHome_AID", Value(e)},
                              {"EOffice_AID", Value(4)},
                              {"E_DNo", Value(1)}})
                      .ok());
    }
  }

  Status Write(const std::string& sql, std::vector<Value> params) {
    stmts_.push_back(sql::MustParse(sql));
    hbase::Session s(&cluster_);
    return system_->ExecuteWrite(s, stmts_.back(), params).status();
  }

  /// Sorted row fingerprints of every base table and view in the catalog.
  std::map<std::string, std::vector<std::string>> Snapshot() {
    std::map<std::string, std::vector<std::string>> tables;
    hbase::Session s(&cluster_);
    const sql::Catalog& catalog = system_->adapter()->catalog();
    std::vector<std::string> names;
    for (const sql::RelationDef* rel : catalog.Relations())
      names.push_back(rel->name);
    for (const sql::ViewDef* view : catalog.Views())
      names.push_back(view->name);
    for (const std::string& name : names) {
      auto scanner = system_->adapter()->ScanAll(s, name);
      EXPECT_TRUE(scanner.ok()) << name << ": " << scanner.status();
      if (!scanner.ok()) continue;
      std::vector<std::string> rows;
      exec::SlotRow row;
      while (true) {
        auto more = scanner->NextSlots(&row);
        EXPECT_TRUE(more.ok()) << name << ": " << more.status();
        if (!more.ok() || !*more) break;
        std::string fp;
        for (const Value& v : row.values) {
          fp += v.is_null() ? std::string(1, '\0') : v.ToString();
          fp += '\x1f';
        }
        rows.push_back(std::move(fp));
      }
      std::sort(rows.begin(), rows.end());
      tables[name] = std::move(rows);
    }
    return tables;
  }

  Status Recover() {
    hbase::Session s(&cluster_);
    return system_->txn_layer()->DetectAndRecover(
        s, [&](hbase::Session& rs, const std::string& payload) {
          return system_->ReplayPayload(rs, payload);
        });
  }

  hbase::Cluster cluster_;
  std::unique_ptr<SynergySystem> system_;
  std::vector<sql::Statement> stmts_;
};

TEST_F(WalDoubleReplayTest, ReplayingTheLogTwiceChangesNothing) {
  // A few committed writes (distinct keys, so replay order is immaterial).
  ASSERT_TRUE(Write("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                    "VALUES (?, ?, ?)",
                    {Value(1), Value(1), Value(10)})
                  .ok());
  ASSERT_TRUE(Write("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                    "VALUES (?, ?, ?)",
                    {Value(2), Value(2), Value(20)})
                  .ok());

  // Two more writes whose lock-release RPC is lost: the bodies applied, the
  // slaves died with the entries uncommitted.
  fault::FaultInjector faults(99);
  cluster_.SetFaultInjector(&faults);
  faults.Arm(fault::FaultPoint::kDropLockRelease, /*skip_hits=*/0,
             /*max_fires=*/2);
  // The two writes hit disjoint root rows so the second is not blocked on
  // the first crash's orphaned lock.
  EXPECT_EQ(Write("UPDATE Employee SET EName = ? WHERE EID = ?",
                  {Value("renamed"), Value(3)})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(Write("UPDATE Address SET Street = ? WHERE AID = ?",
                  {Value("relocated"), Value(2)})
                .code(),
            StatusCode::kUnavailable);
  faults.DisarmAll();

  // Capture the full log (all slaves) before failover marks it committed.
  std::vector<std::string> log;
  txn::TxnLayer* layer = system_->txn_layer();
  for (int i = 0; i < layer->num_slaves(); ++i) {
    for (const txn::WalEntry& e : layer->slave(i)->wal()->AllEntries()) {
      log.push_back(e.payload);
    }
  }
  ASSERT_EQ(log.size(), 4u);

  // First replay: failover re-applies the uncommitted suffix (the bodies'
  // second application) and releases the orphaned locks.
  ASSERT_TRUE(Recover().ok());
  hbase::Session audit_session(&cluster_);
  auto report = AuditViewConsistency(audit_session, system_->adapter());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->consistent()) << report->ToString();
  const auto before = Snapshot();
  EXPECT_EQ(before.at("Works_On").size(), 2u);
  // Both partially-failed bodies are durable after replay.
  EXPECT_NE(before.at("Employee")[2].find("renamed"), std::string::npos);
  EXPECT_NE(before.at("Address")[1].find("relocated"), std::string::npos);

  // Second replay of the *entire* log, committed entries included.
  hbase::Session s(&cluster_);
  for (const std::string& payload : log) {
    ASSERT_TRUE(system_->ReplayPayload(s, payload).ok()) << payload;
  }

  // Byte-identical base tables and views, and the §VII invariant holds.
  const auto after = Snapshot();
  EXPECT_EQ(before, after);
  report = AuditViewConsistency(s, system_->adapter());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->consistent()) << report->ToString();
}

}  // namespace
}  // namespace synergy::core
