// Concurrency demo: the read-committed machinery of Section VIII in action.
//   1. Dirty-read detection — a reader restarts when it sees marked rows.
//   2. Hierarchical lock contention — concurrent writers to the same root
//      serialize on a single lock.
//   3. Slave failure + WAL replay — the lock stays held across the crash,
//      preserving read-committed semantics, and failover completes the
//      transaction.
#include <cstdio>

#include <thread>

#include "synergy/synergy_system.h"
#include "testing/fault_injector.h"

using namespace synergy;

namespace {

void Must(Status s) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::abort();
  }
}

}  // namespace

int main() {
  // Schema: Account (root) -> Entry, with an Account-Entry view.
  sql::Catalog catalog;
  Must(catalog.AddRelation({.name = "Account",
                            .columns = {{"a_id", DataType::kInt},
                                        {"a_owner", DataType::kString}},
                            .primary_key = {"a_id"}}));
  Must(catalog.AddRelation({.name = "Entry",
                            .columns = {{"e_id", DataType::kInt},
                                        {"e_a_id", DataType::kInt},
                                        {"e_amount", DataType::kInt}},
                            .primary_key = {"e_id"},
                            .foreign_keys = {{{"e_a_id"}, "Account"}}}));
  sql::Workload workload;
  Must(workload.Add("ledger",
                    "SELECT * FROM Account as a, Entry as e "
                    "WHERE a.a_id = e.e_a_id AND a.a_id = ?"));

  hbase::Cluster cluster;
  core::SynergySystem system(&cluster, {.roots = {"Account"}, .txn_slaves = 2});
  Must(system.Build(catalog, workload));
  Must(system.CreateStorage());

  hbase::Session s(&cluster);
  Must(system.Load(s, "Account", {{"a_id", Value(1)}, {"a_owner", "alice"}}));
  for (int e = 1; e <= 5; ++e) {
    Must(system.Load(s, "Entry", {{"e_id", Value(e)},
                                  {"e_a_id", Value(1)},
                                  {"e_amount", Value(100 * e)}}));
  }

  // --- 1. Dirty-read detection ---------------------------------------
  std::printf("1) Dirty-read detection\n");
  Must(system.adapter()->SetMarkWithIndexes(s, "Account-Entry", {Value(3)},
                                            true));
  const auto& q = std::get<sql::SelectStatement>(
      system.workload().Find("ledger")->ast);
  std::vector<Value> params = {Value(1)};
  auto dirty = system.ExecuteRead(s, q, params);
  std::printf("   read with a marked view row: %s\n",
              dirty.ok() ? "returned (unexpected)"
                         : dirty.status().ToString().c_str());
  Must(system.adapter()->SetMarkWithIndexes(s, "Account-Entry", {Value(3)},
                                            false));
  auto clean = system.ExecuteRead(s, q, params);
  Must(clean.status());
  std::printf("   after un-marking: %zu rows (read restarts succeeded)\n\n",
              clean->row_count);

  // --- 2. Lock contention --------------------------------------------
  std::printf("2) Hierarchical lock contention (8 writers, one root)\n");
  std::vector<std::thread> writers;
  std::atomic<int> committed{0};
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&, t] {
      hbase::Session ws(&cluster);
      auto stmt = sql::MustParse(
          "INSERT INTO Entry (e_id, e_a_id, e_amount) VALUES (?, ?, ?)");
      auto result = system.ExecuteWrite(
          ws, stmt, {Value(100 + t), Value(1), Value(7)});
      if (result.ok()) committed.fetch_add(1);
    });
  }
  for (auto& t : writers) t.join();
  auto after = system.ExecuteRead(s, q, params);
  Must(after.status());
  std::printf("   %d/8 writers committed; ledger now has %zu rows\n\n",
              committed.load(), after->row_count);

  // --- 3. Failure + WAL replay ----------------------------------------
  std::printf("3) Slave crash and WAL failover\n");
  fault::FaultInjector faults(1);
  cluster.SetFaultInjector(&faults);
  faults.Arm(fault::FaultPoint::kCrashBeforeExecute);
  hbase::Session ws(&cluster);
  auto stmt = sql::MustParse(
      "INSERT INTO Entry (e_id, e_a_id, e_amount) VALUES (?, ?, ?)");
  auto crashed = system.ExecuteWrite(ws, stmt,
                                     {Value(999), Value(1), Value(1)});
  std::printf("   write during crash: %s\n",
              crashed.ok() ? "committed (unexpected)"
                           : crashed.status().ToString().c_str());
  cluster.SetFaultInjector(nullptr);
  Must(system.txn_layer()->DetectAndRecover(
      ws, [&](hbase::Session& rs, const std::string& payload) {
        return system.ReplayPayload(rs, payload);
      }));
  auto recovered = system.ExecuteRead(s, q, params);
  Must(recovered.status());
  std::printf("   after failover+replay the ledger has %zu rows — the WAL'd "
              "write survived.\n",
              recovered->row_count);
  return 0;
}
