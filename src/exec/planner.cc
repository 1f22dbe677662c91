#include "exec/planner.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace synergy::exec {
namespace {

/// Max estimated outer rows for which an index nested-loop join is chosen.
constexpr double kInlMaxOuterRows = 2000.0;

/// Index of the FROM alias a column reference resolves to; -1 if it cannot
/// be resolved unambiguously.
int ResolveAlias(const std::vector<sql::TableRef>& from,
                 const sql::Catalog& catalog, const sql::ColumnRef& ref) {
  if (!ref.qualifier.empty()) {
    for (size_t i = 0; i < from.size(); ++i) {
      if (from[i].alias == ref.qualifier) return static_cast<int>(i);
    }
    return -1;
  }
  int found = -1;
  for (size_t i = 0; i < from.size(); ++i) {
    const sql::RelationDef* rel = catalog.FindRelation(from[i].table);
    if (rel != nullptr && rel->HasColumn(ref.column)) {
      if (found >= 0) return -1;  // ambiguous
      found = static_cast<int>(i);
    }
  }
  return found;
}

int OperandAlias(const std::vector<sql::TableRef>& from,
                 const sql::Catalog& catalog, const sql::Operand& op) {
  if (op.kind != sql::Operand::Kind::kColumn) return -1;
  return ResolveAlias(from, catalog, op.column);
}

/// An equality that can key a read of one alias: `*column = *value`.
struct KeyValue {
  const std::string* column;
  const sql::Operand* value;
  const sql::Predicate* pred;
};

struct ClassifiedPred {
  const sql::Predicate* pred;
  int lhs_alias;
  int rhs_alias;
  bool IsEquiJoin() const {
    return pred->op == sql::CompareOp::kEq && lhs_alias >= 0 &&
           rhs_alias >= 0 && lhs_alias != rhs_alias;
  }
  bool IsConstEquality(int alias) const {
    return pred->op == sql::CompareOp::kEq &&
           ((lhs_alias == alias && rhs_alias < 0 &&
             pred->rhs.kind != sql::Operand::Kind::kColumn) ||
            (rhs_alias == alias && lhs_alias < 0 &&
             pred->lhs.kind != sql::Operand::Kind::kColumn));
  }
  /// For an equality with one side on `alias`: that column, equal to the
  /// other side.
  KeyValue KeyFor(int alias) const {
    return lhs_alias == alias
               ? KeyValue{&pred->lhs.column.column, &pred->rhs, pred}
               : KeyValue{&pred->rhs.column.column, &pred->lhs, pred};
  }
};

/// Columns this alias must supply (for covered-index eligibility).
std::set<std::string> NeededColumns(const sql::SelectStatement& stmt,
                                    const sql::Catalog& catalog,
                                    const std::vector<sql::TableRef>& from,
                                    int alias) {
  const sql::RelationDef* rel = catalog.FindRelation(from[alias].table);
  std::set<std::string> needed;
  auto add_ref = [&](const sql::ColumnRef& ref) {
    if (ResolveAlias(from, catalog, ref) == alias) needed.insert(ref.column);
  };
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      for (const sql::Column& c : rel->columns) needed.insert(c.name);
    } else if (!item.count_star) {
      add_ref(item.column);
    }
  }
  for (const sql::Predicate& p : stmt.where) {
    if (p.lhs.kind == sql::Operand::Kind::kColumn) add_ref(p.lhs.column);
    if (p.rhs.kind == sql::Operand::Kind::kColumn) add_ref(p.rhs.column);
  }
  for (const sql::ColumnRef& c : stmt.group_by) add_ref(c);
  for (const sql::OrderItem& o : stmt.order_by) add_ref(o.column);
  return needed;
}

bool Covers(const sql::IndexDef& ix, const std::set<std::string>& needed) {
  for (const std::string& col : needed) {
    if (std::find(ix.covered_columns.begin(), ix.covered_columns.end(), col) ==
        ix.covered_columns.end()) {
      return false;
    }
  }
  return true;
}

/// Chooses how to read `rel` given the equalities `values` that can key
/// the read: constants for a step's own read, outer-row columns for an index
/// nested-loop lookup. A full primary key is a point get; otherwise the
/// longest covered-index prefix, unless the PK prefix is longer; otherwise a
/// full scan. `rel`'s indexes and their layouts are the catalog's
/// IndexesFor and WriteLayout::indexes, which list them in the same order.
AccessPath ChoosePath(const sql::RelationDef& rel,
                      const sql::Catalog& catalog,
                      const std::set<std::string>& needed,
                      const std::vector<KeyValue>& values) {
  auto find = [&](const std::string& col) -> const KeyValue* {
    for (const KeyValue& v : values) {
      if (*v.column == col) return &v;
    }
    return nullptr;
  };
  auto prefix_len = [&](const std::vector<std::string>& cols) {
    size_t len = 0;
    while (len < cols.size() && find(cols[len]) != nullptr) ++len;
    return len;
  };

  AccessPath path;
  const std::vector<std::string>* key = &rel.primary_key;
  size_t len = prefix_len(rel.primary_key);
  if (len > 0 && len == rel.primary_key.size()) {
    path.kind = AccessPath::Kind::kPkGet;
  } else {
    const std::vector<const sql::IndexDef*> indexes =
        catalog.IndexesFor(rel.name);
    size_t best_len = 0;
    size_t best = 0;
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (!Covers(*indexes[i], needed)) continue;
      const size_t ix_len = prefix_len(indexes[i]->indexed_columns);
      if (ix_len > best_len) {
        best_len = ix_len;
        best = i;
      }
    }
    if (best_len > 0 && best_len >= len) {
      path.kind = AccessPath::Kind::kIndexPrefixScan;
      path.index_name = indexes[best]->name;
      path.index = &catalog.FindWriteLayout(rel.name)->indexes[best];
      key = &indexes[best]->indexed_columns;
      len = best_len;
    } else if (len > 0) {
      path.kind = AccessPath::Kind::kPkPrefixScan;
    }
  }
  for (size_t k = 0; k < len; ++k) {
    const KeyValue* v = find((*key)[k]);
    path.key_columns.push_back(*v->column);
    path.key_values.push_back(v->value);
    path.key_preds.push_back(v->pred);
  }
  return path;
}

double EstimateSourceRows(const AccessPath& path, const sql::Catalog& catalog,
                          size_t table_rows) {
  switch (path.kind) {
    case AccessPath::Kind::kPkGet:
      return 1.0;
    case AccessPath::Kind::kIndexPrefixScan: {
      const sql::IndexDef* ix = catalog.FindIndex(path.index_name);
      if (ix != nullptr && ix->unique &&
          path.key_columns.size() == ix->indexed_columns.size()) {
        return 1.0;
      }
      double divisor = 100.0;
      if (ix != nullptr) {
        switch (ix->cardinality) {
          case sql::IndexCardinality::kLow: divisor = 20.0; break;
          case sql::IndexCardinality::kHigh: divisor = 1000.0; break;
          case sql::IndexCardinality::kUnknown: break;
        }
      }
      return std::max(1.0, static_cast<double>(table_rows) / divisor);
    }
    case AccessPath::Kind::kPkPrefixScan:
      return std::max(1.0, static_cast<double>(table_rows) / 100.0);
    case AccessPath::Kind::kFullScan:
      return static_cast<double>(table_rows);
  }
  return static_cast<double>(table_rows);
}

}  // namespace

std::string AccessPath::Describe() const {
  switch (kind) {
    case Kind::kPkGet: return "PK_GET";
    case Kind::kPkPrefixScan: return "PK_PREFIX_SCAN";
    case Kind::kIndexPrefixScan: return "INDEX_SCAN(" + index_name + ")";
    case Kind::kFullScan: return "FULL_SCAN";
  }
  return "?";
}

std::string PlanStep::Label(size_t i) const {
  std::string label = std::to_string(i) + ": " + table.table;
  if (table.alias != table.table) label += " AS " + table.alias;
  switch (method) {
    case Method::kSource:
      return label + " SOURCE " + path.Describe();
    case Method::kHashJoin:
      return label + " HASH_JOIN " + path.Describe();
    case Method::kIndexNestedLoop:
      break;
  }
  label += " INDEX_NESTED_LOOP ";
  switch (path.kind) {
    case AccessPath::Kind::kPkGet: return label + "PK_GET";
    case AccessPath::Kind::kPkPrefixScan: return label + "PK_PREFIX";
    case AccessPath::Kind::kIndexPrefixScan:
      return label + "INDEX(" + path.index_name + ")";
    case AccessPath::Kind::kFullScan: break;
  }
  return label + "?";
}

std::string SelectPlan::Explain() const {
  std::ostringstream os;
  for (size_t i = 0; i < steps.size(); ++i) {
    os << steps[i].Label(i) << " residual=" << steps[i].residual.size()
       << " est=" << static_cast<long long>(steps[i].estimated_rows) << "\n";
  }
  return os.str();
}

StatusOr<SelectPlan> PlanSelect(const sql::SelectStatement& stmt,
                                const sql::Catalog& catalog,
                                const RowCountFn& row_count,
                                const PlannerOptions& options) {
  SelectPlan plan;
  plan.stmt = &stmt;
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM");
  }
  for (const sql::TableRef& ref : stmt.from) {
    if (catalog.FindRelation(ref.table) == nullptr) {
      return Status::NotFound("relation " + ref.table);
    }
  }
  // Classify predicates.
  std::vector<ClassifiedPred> preds;
  preds.reserve(stmt.where.size());
  for (const sql::Predicate& p : stmt.where) {
    ClassifiedPred cp;
    cp.pred = &p;
    cp.lhs_alias = OperandAlias(stmt.from, catalog, p.lhs);
    cp.rhs_alias = OperandAlias(stmt.from, catalog, p.rhs);
    if (p.lhs.kind == sql::Operand::Kind::kColumn && cp.lhs_alias < 0) {
      return Status::InvalidArgument("cannot resolve column " +
                                     p.lhs.column.ToString());
    }
    if (p.rhs.kind == sql::Operand::Kind::kColumn && cp.rhs_alias < 0) {
      return Status::InvalidArgument("cannot resolve column " +
                                     p.rhs.column.ToString());
    }
    preds.push_back(cp);
  }

  // Pre-compute per-alias access paths and source estimates.
  const size_t n = stmt.from.size();
  std::vector<AccessPath> alias_paths(n);
  std::vector<double> alias_est(n);
  std::vector<std::set<std::string>> alias_needed(n);
  for (size_t i = 0; i < n; ++i) {
    const int alias = static_cast<int>(i);
    alias_needed[i] = NeededColumns(stmt, catalog, stmt.from, alias);
    std::vector<KeyValue> const_eqs;
    for (const ClassifiedPred& cp : preds) {
      if (cp.IsConstEquality(alias)) const_eqs.push_back(cp.KeyFor(alias));
    }
    const sql::RelationDef* rel = catalog.FindRelation(stmt.from[i].table);
    alias_paths[i] = ChoosePath(*rel, catalog, alias_needed[i], const_eqs);
    const size_t table_rows =
        row_count ? row_count(stmt.from[i].table) : 0;
    alias_est[i] = EstimateSourceRows(alias_paths[i], catalog, table_rows);
  }

  // Greedy join order: start at the most selective source; repeatedly add
  // the most selective table that joins the bound set (avoiding cross joins
  // whenever connectivity allows).
  std::vector<int> order;
  std::set<int> bound;
  {
    size_t first = 0;
    for (size_t i = 1; i < n; ++i) {
      if (alias_est[i] < alias_est[first]) first = i;
    }
    order.push_back(static_cast<int>(first));
    bound.insert(static_cast<int>(first));
    while (order.size() < n) {
      int best = -1;
      bool best_connected = false;
      for (size_t i = 0; i < n; ++i) {
        const int alias = static_cast<int>(i);
        if (bound.contains(alias)) continue;
        bool connected = false;
        for (const ClassifiedPred& cp : preds) {
          if (!cp.IsEquiJoin()) continue;
          if ((cp.lhs_alias == alias && bound.contains(cp.rhs_alias)) ||
              (cp.rhs_alias == alias && bound.contains(cp.lhs_alias))) {
            connected = true;
            break;
          }
        }
        if (best < 0 || (connected && !best_connected) ||
            (connected == best_connected &&
             alias_est[i] < alias_est[static_cast<size_t>(best)])) {
          best = alias;
          best_connected = connected;
        }
      }
      order.push_back(best);
      bound.insert(best);
    }
  }

  double est = 0;
  std::set<int> done;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const int alias = order[pos];
    const size_t i = static_cast<size_t>(alias);
    PlanStep step;
    step.table = stmt.from[i];
    step.rel = catalog.FindRelation(step.table.table);
    done.insert(alias);

    std::vector<KeyValue> join_keys;  // this alias's side of each equi join
    for (const ClassifiedPred& cp : preds) {
      if (cp.IsEquiJoin() && (cp.lhs_alias == alias || cp.rhs_alias == alias) &&
          done.contains(cp.lhs_alias) && done.contains(cp.rhs_alias)) {
        step.equi_joins.push_back(cp.pred);
        join_keys.push_back(cp.KeyFor(alias));
      }
    }
    // Residual: every predicate that becomes fully bound at this step and is
    // not consumed by the access path / hash keys.
    step.path = std::move(alias_paths[i]);
    auto becomes_bound_here = [&](const ClassifiedPred& cp) {
      const bool lhs_ok = cp.lhs_alias < 0 || done.contains(cp.lhs_alias);
      const bool rhs_ok = cp.rhs_alias < 0 || done.contains(cp.rhs_alias);
      if (!lhs_ok || !rhs_ok) return false;
      if (cp.lhs_alias == alias || cp.rhs_alias == alias) return true;
      // Constant-only predicates attach to the first step.
      return cp.lhs_alias < 0 && cp.rhs_alias < 0 && pos == 0;
    };
    for (const ClassifiedPred& cp : preds) {
      if (!becomes_bound_here(cp)) continue;
      const bool consumed_by_path =
          std::find(step.path.key_preds.begin(), step.path.key_preds.end(),
                    cp.pred) != step.path.key_preds.end();
      const bool is_hash_key =
          std::find(step.equi_joins.begin(), step.equi_joins.end(),
                    cp.pred) != step.equi_joins.end();
      if (!consumed_by_path && !is_hash_key) step.residual.push_back(cp.pred);
    }

    if (pos == 0) {
      step.method = PlanStep::Method::kSource;
      est = alias_est[i];
    } else {
      // An index nested-loop lookup keyed on the join columns, if one has a
      // key and the outer side is small enough.
      AccessPath lookup;
      if (!options.force_hash_join && !join_keys.empty() &&
          est <= kInlMaxOuterRows) {
        lookup = ChoosePath(*step.rel, catalog, alias_needed[i], join_keys);
      }
      if (lookup.kind != AccessPath::Kind::kFullScan) {
        step.method = PlanStep::Method::kIndexNestedLoop;
        // The lookup replaces the table's own access path, so constant
        // predicates consumed into that path must be evaluated as residuals
        // instead. All equi joins must still hold on the combined row (those
        // consumed by the lookup are trivially true).
        step.residual.insert(step.residual.end(), step.path.key_preds.begin(),
                             step.path.key_preds.end());
        step.residual.insert(step.residual.end(), step.equi_joins.begin(),
                             step.equi_joins.end());
        step.path = std::move(lookup);
        est = std::max(
            1.0, est * (step.path.kind == AccessPath::Kind::kPkGet ? 1.0
                                                                    : 10.0));
      } else {
        step.method = PlanStep::Method::kHashJoin;
        est = std::max(1.0, std::max(est, alias_est[i]));
      }
    }
    step.estimated_rows = est;
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace synergy::exec
