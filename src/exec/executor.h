// Query executor: runs SelectPlans against the store, Phoenix-style
// (client-coordinated scans, hash joins and index nested-loop joins),
// charging join/sort/aggregation CPU to the session's virtual meter.
//
// Also implements the dirty-read detection protocol of §VIII-C: when
// ExecOptions.detect_dirty is set and any plan step reads a marked row, the
// whole statement is restarted (bounded retries).
//
// EXPLAIN ANALYZE (ExplainAnalyze) runs a statement and attributes its
// virtual cost to plan nodes: each node's virtual-µs is measured as a
// meter-delta interval exclusive of the other nodes, so the per-node sum
// equals the statement's total meter charge (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expression.h"
#include "exec/planner.h"
#include "exec/table_adapter.h"

namespace synergy::exec {

struct ExecOptions {
  /// Materialize result rows (false = count + cost only; used by benches
  /// over multi-million-row results).
  bool collect_rows = true;
  /// Restart on dirty-marked rows (Synergy read protocol).
  bool detect_dirty = false;
  int max_dirty_retries = 10;
  /// Force client hash joins (micro-benchmark "join algorithm" mode).
  bool force_hash_join = false;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;  // empty when !collect_rows
  size_t row_count = 0;
  int dirty_restarts = 0;
};

/// Runtime stats for one plan node of an analyzed statement. The virtual-µs
/// intervals of a statement's nodes partition its meter charge: each node's
/// time excludes the time attributed to other nodes (sink time accrued
/// while a stage was driving rows is charged to the sink node, not the
/// stage), so summing nodes reproduces the statement total exactly.
struct PlanNodeStats {
  std::string label;
  size_t rows = 0;        // rows the node produced
  uint64_t rpcs = 0;      // store RPCs issued while the node was active
  double virtual_us = 0;  // exclusive virtual time
};

/// EXPLAIN ANALYZE output: the query result plus the per-node cost
/// decomposition and the cross-check totals (`node_sum_us` vs
/// `total_virtual_us` — equal up to floating-point rounding).
struct AnalyzeResult {
  QueryResult result;
  std::vector<PlanNodeStats> nodes;
  double total_virtual_us = 0;  // meter delta across the whole statement
  double node_sum_us = 0;       // sum of per-node exclusive times
  uint64_t total_rpcs = 0;
  std::string text;  // rendered table (one line per node + totals)
};

class Executor {
 public:
  /// Resolves the executor's metric handles from the adapter's cluster
  /// registry (exec_statements_total, exec_dirty_restarts_total,
  /// exec_statement_virtual_us).
  explicit Executor(TableAdapter* adapter);

  /// Plans and executes a SELECT. The statement must outlive the call.
  StatusOr<QueryResult> ExecuteSelect(hbase::Session& s,
                                      const sql::SelectStatement& stmt,
                                      BoundParams params,
                                      const ExecOptions& options = {});

  /// Runs the statement and decomposes its virtual cost into plan nodes.
  /// Dirty restarts (detect_dirty) fold the aborted attempts into a
  /// `dirty restarts` pseudo-node so the totals still balance.
  StatusOr<AnalyzeResult> ExplainAnalyze(hbase::Session& s,
                                         const sql::SelectStatement& stmt,
                                         BoundParams params,
                                         const ExecOptions& options = {});

  /// Explain the plan that would be chosen (for tests and ablations).
  StatusOr<std::string> Explain(const sql::SelectStatement& stmt,
                                const ExecOptions& options = {});

 private:
  /// ExecuteSelect's restart loop; when `nodes` is non-null, per-node stats
  /// are collected (cleared on each restart, pseudo-node prepended).
  StatusOr<QueryResult> RunStatement(hbase::Session& s,
                                     const sql::SelectStatement& stmt,
                                     BoundParams params,
                                     const ExecOptions& options,
                                     std::vector<PlanNodeStats>* nodes);
  StatusOr<QueryResult> ExecuteOnce(hbase::Session& s,
                                    const sql::SelectStatement& stmt,
                                    BoundParams params,
                                    const ExecOptions& options,
                                    std::vector<PlanNodeStats>* nodes);

  TableAdapter* adapter_;
  // Registry handles (cluster->metrics()), resolved at construction.
  obs::Counter* statements_;
  obs::Counter* dirty_restarts_;
  obs::Histogram* statement_us_;
};

}  // namespace synergy::exec
