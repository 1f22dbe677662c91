// Query planner: turns a SELECT into a left-deep pipeline of access paths
// and join methods, the way Phoenix compiles SQL onto HBase scans.
//
// Join order follows the FROM clause (the paper's workloads are written
// parent-first). Each step is either the pipeline source, a client-side hash
// join (build on the accumulated intermediate, stream the new table), or an
// index nested-loop join (per-outer-row Get / index-prefix scan).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace synergy::exec {

struct AccessPath {
  enum class Kind { kPkGet, kPkPrefixScan, kIndexPrefixScan, kFullScan };
  Kind kind = Kind::kFullScan;
  std::string index_name;                      // kIndexPrefixScan
  /// kIndexPrefixScan: the index's layout in the catalog the plan was made
  /// against, which the executor scans through.
  const sql::WriteLayout::Index* index = nullptr;
  std::vector<std::string> key_columns;        // consumed equality columns
  /// Aligned with key_columns: the operand each key column equals, pointing
  /// into the statement. A literal or parameter, except on an index
  /// nested-loop step, where it is a column of the outer row.
  std::vector<const sql::Operand*> key_values;
  std::vector<const sql::Predicate*> key_preds;  // aligned with key_columns

  std::string Describe() const;
};

struct PlanStep {
  enum class Method { kSource, kHashJoin, kIndexNestedLoop };

  sql::TableRef table;
  const sql::RelationDef* rel = nullptr;
  Method method = Method::kSource;
  /// How this table is read: once for a source or hash-join step, once per
  /// outer row for an index nested-loop step.
  AccessPath path;
  std::vector<const sql::Predicate*> equi_joins;  // to prior aliases
  std::vector<const sql::Predicate*> residual;    // filters + non-equi joins
  double estimated_rows = 0;  // cardinality estimate after this step

  /// "<i>: <table>[ AS <alias>] <method> <path>", the node label shared by
  /// SelectPlan::Explain and EXPLAIN ANALYZE.
  std::string Label(size_t i) const;
};

struct SelectPlan {
  const sql::SelectStatement* stmt = nullptr;
  std::vector<PlanStep> steps;
  std::string Explain() const;
};

struct PlannerOptions {
  /// Disable index nested-loop (the micro-benchmark's "join algorithm"
  /// measurement uses full client-side joins).
  bool force_hash_join = false;
};

/// Row-count oracle for cardinality estimation.
using RowCountFn = std::function<size_t(const std::string& relation)>;

StatusOr<SelectPlan> PlanSelect(const sql::SelectStatement& stmt,
                                const sql::Catalog& catalog,
                                const RowCountFn& row_count,
                                const PlannerOptions& options = {});

}  // namespace synergy::exec
