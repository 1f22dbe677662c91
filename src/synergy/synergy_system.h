// The Synergy system facade (§IV, §VIII): wires together candidate-view
// generation, view selection, query rewriting, view/maintenance indexes,
// the transaction layer with hierarchical locking, and the executor with
// dirty-read restarts.
//
// Usage:
//   SynergySystem sys(&cluster, {.roots = {"Author", "Customer", "Country"}});
//   sys.Build(base_catalog, workload);    // selects views, rewrites workload
//   sys.CreateStorage();                  // tables, views, indexes, locks
//   sys.Load(session, relation, tuple);   // bulk load (views maintained)
//   sys.Execute(session, statement_ast, params);
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/write_binding.h"
#include "sql/workload.h"
#include "synergy/query_rewrite.h"
#include "synergy/view_index.h"
#include "synergy/view_maintenance.h"
#include "txn/txn_layer.h"

namespace synergy::core {

struct SynergyConfig {
  std::vector<std::string> roots;
  int txn_slaves = 1;
  int max_dirty_retries = 10;
};

/// Output of the offline design pipeline (§V + §VI): catalog with views and
/// all recommended indexes, rewritten workload, and the rooted trees.
struct SynergyDesign {
  sql::Catalog catalog;
  sql::Workload workload;
  std::vector<RootedTree> trees;
  std::vector<std::string> rewritten_ids;
};

/// Runs candidate generation, view selection, query rewriting, and
/// view/maintenance index recommendation. Shared by SynergySystem and the
/// MVCC-A comparator (which uses the same views with MVCC instead of the
/// specialized concurrency control, §IX-D2).
StatusOr<SynergyDesign> DesignSynergySchema(
    const sql::Catalog& base_catalog, const sql::Workload& workload,
    const std::vector<std::string>& roots);

struct WriteResult {
  int64_t txn_id = 0;
  size_t base_rows_affected = 0;
};

class SynergySystem {
 public:
  SynergySystem(hbase::Cluster* cluster, SynergyConfig config);

  /// Runs the §V/§VI pipeline: candidate views, selection, rewriting,
  /// view-indexes and maintenance indexes. The input catalog must contain
  /// base relations and base indexes only.
  Status Build(const sql::Catalog& base_catalog, const sql::Workload& workload);

  /// Creates every store table: base relations, base indexes, views,
  /// view-indexes and lock tables.
  Status CreateStorage();

  const sql::Catalog& catalog() const { return catalog_; }
  const sql::Workload& workload() const { return workload_; }
  const std::vector<RootedTree>& trees() const { return trees_; }
  const std::vector<std::string>& rewritten_ids() const {
    return rewritten_ids_;
  }
  exec::TableAdapter* adapter() { return adapter_.get(); }
  txn::TxnLayer* txn_layer() { return txn_layer_.get(); }

  /// Bulk load one base tuple: inserts base row, index rows, view rows and
  /// the lock entry (for roots) — no WAL/locking (offline load path).
  Status Load(hbase::Session& s, const std::string& relation,
              const exec::Tuple& tuple);

  /// Executes any statement: reads run with dirty-read restarts; writes run
  /// as single-statement transactions through the transaction layer with a
  /// single hierarchical lock.
  StatusOr<exec::QueryResult> ExecuteRead(hbase::Session& s,
                                          const sql::SelectStatement& stmt,
                                          exec::BoundParams params,
                                          bool collect_rows = true);
  StatusOr<WriteResult> ExecuteWrite(hbase::Session& s,
                                     const sql::Statement& stmt,
                                     const std::vector<Value>& params);

  /// EXPLAIN ANALYZE under the read protocol (dirty-read restarts on, rows
  /// not materialized): runs the statement and returns the per-plan-node
  /// virtual cost decomposition.
  StatusOr<exec::AnalyzeResult> ExplainAnalyzeRead(
      hbase::Session& s, const sql::SelectStatement& stmt,
      exec::BoundParams params);

  /// Root lock this write must take, derived by walking the FK chain from
  /// the written row up to its rooted tree's root (§VIII-A). nullopt when
  /// the relation is not in any rooted tree.
  StatusOr<std::optional<txn::LockSpec>> DeriveLockSpec(
      hbase::Session& s, const std::string& relation, const exec::Tuple& tuple);

  /// Replays a WAL payload after failover (parses the bound statement and
  /// re-executes the write body without WAL re-append).
  Status ReplayPayload(hbase::Session& s, const std::string& payload);

 private:
  Status WriteBodyFor(hbase::Session& s, const exec::BoundWrite& write);
  Status RunInsert(hbase::Session& s, const exec::BoundWrite& write);
  Status RunDelete(hbase::Session& s, const exec::BoundWrite& write);
  Status RunUpdate(hbase::Session& s, const exec::BoundWrite& write);

  hbase::Cluster* cluster_;
  SynergyConfig config_;
  sql::Catalog catalog_;
  sql::Workload workload_;
  std::vector<RootedTree> trees_;
  std::vector<std::string> rewritten_ids_;
  std::unique_ptr<exec::TableAdapter> adapter_;
  std::unique_ptr<exec::Executor> executor_;
  std::unique_ptr<ViewMaintainer> maintainer_;
  std::unique_ptr<txn::LockManager> locks_;
  std::unique_ptr<txn::TxnLayer> txn_layer_;
  bool built_ = false;
  // Registry handles (cluster->metrics()), resolved at construction.
  obs::Counter* c_reads_;
  obs::Counter* c_writes_;
  obs::Counter* c_view_marks_;
  obs::Counter* c_view_rows_updated_;
};

}  // namespace synergy::core
