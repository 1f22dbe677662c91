#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "exec/value_key.h"
#include "testing/fault_injector.h"

namespace synergy::exec {
namespace {

Status DirtyRead() { return Status::Aborted("dirty row encountered"); }

std::string RenderAnalyze(const AnalyzeResult& a) {
  std::ostringstream os;
  size_t width = 24;
  for (const PlanNodeStats& node : a.nodes) {
    width = std::max(width, node.label.size());
  }
  char buf[160];
  for (const PlanNodeStats& node : a.nodes) {
    std::snprintf(buf, sizeof(buf),
                  "%-*s  rows=%-8zu rpcs=%-6llu virtual_us=%.1f",
                  static_cast<int>(width), node.label.c_str(), node.rows,
                  static_cast<unsigned long long>(node.rpcs),
                  node.virtual_us);
    os << buf << "\n";
  }
  const double drift =
      a.total_virtual_us > 0.0
          ? 100.0 * (a.node_sum_us - a.total_virtual_us) / a.total_virtual_us
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "total: rows=%zu rpcs=%llu virtual_us=%.1f "
                "(node sum %.1f, drift %.3f%%)",
                a.result.row_count,
                static_cast<unsigned long long>(a.total_rpcs),
                a.total_virtual_us, a.node_sum_us, drift);
  os << buf << "\n";
  return os.str();
}

std::shared_ptr<RowSchema> AliasSchema(const sql::TableRef& ref,
                                       const sql::RelationDef& rel) {
  std::vector<std::string> names;
  names.reserve(rel.columns.size());
  for (const sql::Column& c : rel.columns) {
    names.push_back(ref.alias + "." + c.name);
  }
  return RowSchema::Make(std::move(names));
}

/// Coerces a byte-key lookup value to the declared column type so encoded
/// point/prefix lookups agree with Value::Compare's numeric equality (int 5
/// must find a row stored under double 5.0 and vice versa, exactly as the
/// hash-join/predicate paths treat them). Returns false when no stored
/// value could match (NULL, which equals nothing, or a fractional or
/// out-of-range double against an INT column), i.e. the lookup is a
/// guaranteed miss.
bool CoerceKeyValue(DataType declared, Value* v) {
  if (v->is_null()) return false;
  if (declared == DataType::kInt && v->type() == DataType::kDouble) {
    const double d = v->as_double();
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
      return false;
    }
    const int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) != d) return false;  // fractional: no match
    *v = Value(i);
  } else if (declared == DataType::kDouble && v->type() == DataType::kInt) {
    const int64_t i = v->as_int();
    const double d = static_cast<double>(i);
    // Ints not exactly representable as a double (beyond 2^53) equal no
    // stored double under Value::Compare; the rounded key must not match.
    if (d >= 9223372036854775808.0 || static_cast<int64_t>(d) != i) {
      return false;
    }
    *v = Value(d);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Slot-bound predicates
//
// Residual predicates and join-key operands are resolved to row slots (or
// pre-evaluated constants) once per statement, so the per-row path is a
// vector index plus Value::Compare — no schema lookups, no Value copies.
// ---------------------------------------------------------------------------

struct BoundOperand {
  int slot = -1;   // >= 0: index into the combined row
  Value constant;  // used when slot < 0 (literal/param, resolved at bind)
};

struct BoundPredicate {
  sql::CompareOp op = sql::CompareOp::kEq;
  BoundOperand lhs, rhs;
};

StatusOr<BoundOperand> BindOperand(const sql::Operand& op,
                                   const RowSchema& schema,
                                   BoundParams params) {
  BoundOperand bound;
  if (op.kind == sql::Operand::Kind::kColumn) {
    bound.slot = schema.Find(op.column);
    if (bound.slot < 0) {
      return Status::InvalidArgument("unknown column " + op.column.ToString());
    }
    return bound;
  }
  SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(op, params));
  bound.constant = std::move(v);
  return bound;
}

StatusOr<std::vector<BoundPredicate>> BindPredicates(
    const std::vector<const sql::Predicate*>& preds, const RowSchema& schema,
    BoundParams params) {
  std::vector<BoundPredicate> bound;
  bound.reserve(preds.size());
  for (const sql::Predicate* p : preds) {
    BoundPredicate bp;
    bp.op = p->op;
    SYNERGY_ASSIGN_OR_RETURN(lhs, BindOperand(p->lhs, schema, params));
    SYNERGY_ASSIGN_OR_RETURN(rhs, BindOperand(p->rhs, schema, params));
    bp.lhs = std::move(lhs);
    bp.rhs = std::move(rhs);
    bound.push_back(std::move(bp));
  }
  return bound;
}

/// One column of an access-path key: the operand it equals, bound, and the
/// column's declared type (for CoerceKeyValue).
struct BoundKeyPart {
  BoundOperand value;
  DataType type = DataType::kString;
};

inline const Value& OperandValue(const BoundOperand& op,
                                 const std::vector<Value>& row) {
  return op.slot >= 0 ? row[static_cast<size_t>(op.slot)] : op.constant;
}

/// Conjunction with SQL NULL-collapses-to-false semantics (as EvalAll).
inline bool EvalBound(const std::vector<BoundPredicate>& preds,
                      const std::vector<Value>& row) {
  for (const BoundPredicate& p : preds) {
    if (!CompareValues(p.op, OperandValue(p.lhs, row),
                       OperandValue(p.rhs, row))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Result sinks
// ---------------------------------------------------------------------------

class Sink {
 public:
  virtual ~Sink() = default;
  /// Consumes one combined pipeline row (slots per the final schema).
  /// Returns false to stop the pipeline early.
  virtual StatusOr<bool> Process(const std::vector<Value>& row) = 0;
  virtual Status Finish(QueryResult* out) = 0;
};

struct SortSpec {
  std::vector<int> slots;  // into the output row
  std::vector<bool> descending;
};

/// Output-order comparison on projected rows: sort keys, no tie-break.
int CompareSorted(const SortSpec& sort, const std::vector<Value>& a,
                  const std::vector<Value>& b) {
  for (size_t k = 0; k < sort.slots.size(); ++k) {
    const size_t slot = static_cast<size_t>(sort.slots[k]);
    const int c = a[slot].Compare(b[slot]);
    if (c != 0) return sort.descending[k] ? -c : c;
  }
  return 0;
}

void SortAndLimit(std::vector<std::vector<Value>>* rows, const SortSpec& sort,
                  int64_t limit, hbase::Session& s,
                  const sim::CostModel& model) {
  if (!sort.slots.empty() && rows->size() > 1) {
    const double n = static_cast<double>(rows->size());
    s.meter().Charge(model.sort_row_log_us * n * std::log2(n));
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                       return CompareSorted(sort, a, b) < 0;
                     });
  }
  if (limit >= 0 && rows->size() > static_cast<size_t>(limit)) {
    rows->resize(static_cast<size_t>(limit));
  }
}

/// Non-aggregating sink: project, optionally sort, limit, collect/count.
///
/// ORDER BY + LIMIT k keeps a bounded k-row heap (top-N) instead of
/// materializing and stable-sorting the whole input; ties preserve input
/// order via a sequence number, so results match stable_sort exactly.
class PlainSink : public Sink {
 public:
  static StatusOr<std::unique_ptr<PlainSink>> Make(
      const sql::SelectStatement& stmt, const RowSchema& final_schema,
      hbase::Session& s, const sim::CostModel& model,
      const ExecOptions& options) {
    auto sink = std::make_unique<PlainSink>();
    sink->session_ = &s;
    sink->model_ = &model;
    sink->collect_ = options.collect_rows;
    sink->limit_ = stmt.limit;
    // Projection slots.
    for (const sql::SelectItem& item : stmt.items) {
      if (item.star) {
        for (size_t i = 0; i < final_schema.size(); ++i) {
          sink->slots_.push_back(static_cast<int>(i));
          const std::string& qname = final_schema.names()[i];
          const size_t dot = qname.find('.');
          sink->columns_.push_back(
              dot == std::string::npos ? qname : qname.substr(dot + 1));
        }
        continue;
      }
      const int slot = final_schema.Find(item.column);
      if (slot < 0) {
        return Status::InvalidArgument("unknown select column " +
                                       item.column.ToString());
      }
      sink->slots_.push_back(slot);
      sink->columns_.push_back(item.output_name);
    }
    // ORDER BY: prefer an output column, else a source slot.
    for (const sql::OrderItem& o : stmt.order_by) {
      int out_slot = -1;
      for (size_t i = 0; i < sink->columns_.size(); ++i) {
        if (sink->columns_[i] == o.column.column &&
            (o.column.qualifier.empty())) {
          out_slot = static_cast<int>(i);
          break;
        }
      }
      if (out_slot < 0) {
        const int src = final_schema.Find(o.column);
        if (src < 0) {
          return Status::InvalidArgument("unknown ORDER BY column " +
                                         o.column.ToString());
        }
        // Append as a hidden sort column.
        sink->slots_.push_back(src);
        sink->hidden_tail_ = true;
        out_slot = static_cast<int>(sink->slots_.size()) - 1;
      }
      sink->sort_.slots.push_back(out_slot);
      sink->sort_.descending.push_back(o.descending);
    }
    sink->needs_materialize_ = !sink->sort_.slots.empty();
    sink->top_n_ = sink->needs_materialize_ && sink->limit_ >= 0;
    return sink;
  }

  StatusOr<bool> Process(const std::vector<Value>& row) override {
    if (top_n_) {
      ++seen_;
      if (limit_ == 0) return false;  // LIMIT 0: nothing can qualify
      ProcessTopN(row);
      return true;
    }
    if (!needs_materialize_ && limit_ >= 0 &&
        count_ >= static_cast<size_t>(limit_)) {
      return false;
    }
    if (needs_materialize_ || collect_) {
      rows_.push_back(Project(row));
    }
    ++count_;
    if (!needs_materialize_ && limit_ >= 0 &&
        count_ >= static_cast<size_t>(limit_)) {
      return false;  // early stop: no ordering requested
    }
    return true;
  }

  Status Finish(QueryResult* result) override {
    if (top_n_) {
      FinishTopN();
    } else {
      SortAndLimit(&rows_, sort_, limit_, *session_, *model_);
    }
    const size_t visible_cols =
        columns_.size();  // hidden sort columns are dropped below
    if (hidden_tail_) {
      for (std::vector<Value>& row : rows_) row.resize(visible_cols);
    }
    result->columns = columns_;
    result->row_count = needs_materialize_ ? rows_.size() : count_;
    if (limit_ >= 0) {
      result->row_count = std::min(result->row_count,
                                   static_cast<size_t>(limit_));
    }
    if (collect_) {
      result->rows = std::move(rows_);
    }
    return Status::Ok();
  }

 private:
  struct HeapEntry {
    std::vector<Value> row;  // projected (incl. hidden sort tail)
    size_t seq = 0;          // input order, for stable ties
  };

  std::vector<Value> Project(const std::vector<Value>& row) const {
    std::vector<Value> out;
    out.reserve(slots_.size());
    for (const int slot : slots_) {
      out.push_back(row[static_cast<size_t>(slot)]);
    }
    return out;
  }

  /// True when `a` is output strictly before `b`.
  bool OutputBefore(const HeapEntry& a, const HeapEntry& b) const {
    const int c = CompareSorted(sort_, a.row, b.row);
    if (c != 0) return c < 0;
    return a.seq < b.seq;  // stable: earlier input first
  }

  /// True when the (unprojected) source row would be output strictly before
  /// the worst kept entry. Ties lose: the earlier row is already in the heap.
  bool BeatsWorst(const std::vector<Value>& row) const {
    for (size_t k = 0; k < sort_.slots.size(); ++k) {
      const size_t out_slot = static_cast<size_t>(sort_.slots[k]);
      const size_t src_slot = static_cast<size_t>(slots_[out_slot]);
      const int c = row[src_slot].Compare(heap_.front().row[out_slot]);
      if (c != 0) return sort_.descending[k] ? c > 0 : c < 0;
    }
    return false;
  }

  void ProcessTopN(const std::vector<Value>& row) {
    const size_t k = static_cast<size_t>(limit_);
    auto later = [this](const HeapEntry& a, const HeapEntry& b) {
      return OutputBefore(a, b);  // max-heap: worst kept entry on top
    };
    if (heap_.size() < k) {
      heap_.push_back(HeapEntry{Project(row), seen_});
      std::push_heap(heap_.begin(), heap_.end(), later);
      return;
    }
    // Compare against the current worst before paying for a projection;
    // with a full heap most rows are rejected right here.
    if (BeatsWorst(row)) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.back() = HeapEntry{Project(row), seen_};
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }

  void FinishTopN() {
    if (seen_ > 1 && !heap_.empty()) {
      // Bounded-heap cost: n rows through a k-sized heap.
      const double n = static_cast<double>(seen_);
      const double k = static_cast<double>(heap_.size());
      session_->meter().Charge(model_->sort_row_log_us * n *
                               std::log2(std::max(2.0, k)));
    }
    std::sort(heap_.begin(), heap_.end(),
              [this](const HeapEntry& a, const HeapEntry& b) {
                return OutputBefore(a, b);
              });
    rows_.reserve(heap_.size());
    for (HeapEntry& e : heap_) rows_.push_back(std::move(e.row));
    heap_.clear();
    count_ = seen_;
  }

  hbase::Session* session_ = nullptr;
  const sim::CostModel* model_ = nullptr;
  bool collect_ = true;
  bool needs_materialize_ = false;
  bool top_n_ = false;
  bool hidden_tail_ = false;
  int64_t limit_ = -1;
  size_t count_ = 0;
  size_t seen_ = 0;
  std::vector<int> slots_;
  std::vector<std::string> columns_;
  SortSpec sort_;
  std::vector<std::vector<Value>> rows_;
  std::vector<HeapEntry> heap_;
};

/// Hash-aggregation sink (GROUP BY + aggregate select items). Groups are
/// keyed on the group-column Values directly (ValueKey, cached hash) — the
/// per-row probe gathers pointers into the row, so no key encoding or
/// allocation happens for rows of already-seen groups.
class AggSink : public Sink {
 public:
  static StatusOr<std::unique_ptr<AggSink>> Make(
      const sql::SelectStatement& stmt, const RowSchema& final_schema,
      hbase::Session& s, const sim::CostModel& model,
      const ExecOptions& options) {
    auto sink = std::make_unique<AggSink>();
    sink->session_ = &s;
    sink->model_ = &model;
    sink->collect_ = options.collect_rows;
    sink->limit_ = stmt.limit;
    for (const sql::ColumnRef& g : stmt.group_by) {
      const int slot = final_schema.Find(g);
      if (slot < 0) {
        return Status::InvalidArgument("unknown GROUP BY column " +
                                       g.ToString());
      }
      sink->group_slots_.push_back(slot);
    }
    for (const sql::SelectItem& item : stmt.items) {
      if (item.star) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      ItemSpec spec;
      spec.agg = item.agg;
      if (item.count_star) {
        spec.slot = -1;
      } else {
        spec.slot = final_schema.Find(item.column);
        if (spec.slot < 0) {
          return Status::InvalidArgument("unknown select column " +
                                         item.column.ToString());
        }
      }
      sink->items_.push_back(spec);
      sink->columns_.push_back(item.output_name);
    }
    for (const sql::OrderItem& o : stmt.order_by) {
      int out_slot = -1;
      for (size_t i = 0; i < sink->columns_.size(); ++i) {
        if (sink->columns_[i] == o.column.column) {
          out_slot = static_cast<int>(i);
          break;
        }
      }
      if (out_slot < 0) {
        return Status::InvalidArgument(
            "ORDER BY over aggregation must name an output column: " +
            o.column.ToString());
      }
      sink->sort_.slots.push_back(out_slot);
      sink->sort_.descending.push_back(o.descending);
    }
    return sink;
  }

  StatusOr<bool> Process(const std::vector<Value>& row) override {
    session_->meter().Charge(model_->agg_row_us);
    key_ptrs_.clear();
    for (const int slot : group_slots_) {
      key_ptrs_.push_back(&row[static_cast<size_t>(slot)]);
    }
    const ValueKeyRef ref(key_ptrs_);
    auto it = groups_.find(ref);
    if (it == groups_.end()) {
      it = groups_.emplace(MaterializeKey(ref), GroupState{}).first;
      GroupState& state = it->second;
      state.order = groups_.size() - 1;
      state.accums.resize(items_.size());
      state.first_row.reserve(items_.size());
      for (const ItemSpec& item : items_) {
        state.first_row.push_back(
            item.slot >= 0 ? row[static_cast<size_t>(item.slot)] : Value());
      }
    }
    GroupState& state = it->second;
    for (size_t i = 0; i < items_.size(); ++i) {
      Accum& acc = state.accums[i];
      const ItemSpec& item = items_[i];
      if (item.agg == sql::AggFunc::kNone) continue;
      const Value* v = item.slot >= 0
                           ? &row[static_cast<size_t>(item.slot)]
                           : nullptr;  // COUNT(*)
      if (item.agg == sql::AggFunc::kCount) {
        if (v == nullptr || !v->is_null()) acc.count += 1;
        continue;
      }
      if (v == nullptr || v->is_null()) continue;
      acc.count += 1;
      acc.sum += v->numeric();
      if (acc.count == 1 || *v < acc.min) acc.min = *v;
      if (acc.count == 1 || *v > acc.max) acc.max = *v;
    }
    return true;
  }

  Status Finish(QueryResult* result) override {
    if (groups_.empty() && group_slots_.empty()) {
      // Aggregates over an empty input still produce one row (COUNT = 0).
      GroupState& state = groups_.emplace(ValueKey{}, GroupState{})
                              .first->second;
      state.order = 0;
      state.accums.resize(items_.size());
      state.first_row.resize(items_.size());
    }
    std::vector<std::pair<size_t, std::vector<Value>>> ordered;
    ordered.reserve(groups_.size());
    for (auto& [key, state] : groups_) {
      std::vector<Value> row;
      row.reserve(items_.size());
      for (size_t i = 0; i < items_.size(); ++i) {
        const ItemSpec& item = items_[i];
        const Accum& acc = state.accums[i];
        switch (item.agg) {
          case sql::AggFunc::kNone:
            row.push_back(state.first_row[i]);
            break;
          case sql::AggFunc::kCount:
            row.push_back(Value(static_cast<int64_t>(acc.count)));
            break;
          case sql::AggFunc::kSum:
            row.push_back(acc.count == 0 ? Value() : Value(acc.sum));
            break;
          case sql::AggFunc::kAvg:
            row.push_back(acc.count == 0
                              ? Value()
                              : Value(acc.sum /
                                      static_cast<double>(acc.count)));
            break;
          case sql::AggFunc::kMin:
            row.push_back(acc.count == 0 ? Value() : acc.min);
            break;
          case sql::AggFunc::kMax:
            row.push_back(acc.count == 0 ? Value() : acc.max);
            break;
        }
      }
      ordered.emplace_back(state.order, std::move(row));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::vector<Value>> rows;
    rows.reserve(ordered.size());
    for (auto& [order, row] : ordered) rows.push_back(std::move(row));
    SortAndLimit(&rows, sort_, limit_, *session_, *model_);
    result->columns = columns_;
    result->row_count = rows.size();
    if (collect_) result->rows = std::move(rows);
    return Status::Ok();
  }

 private:
  struct ItemSpec {
    sql::AggFunc agg = sql::AggFunc::kNone;
    int slot = -1;  // -1 == COUNT(*)
  };
  struct Accum {
    size_t count = 0;
    double sum = 0.0;
    Value min, max;
  };
  struct GroupState {
    size_t order = 0;
    std::vector<Accum> accums;
    std::vector<Value> first_row;
  };

  hbase::Session* session_ = nullptr;
  const sim::CostModel* model_ = nullptr;
  bool collect_ = true;
  int64_t limit_ = -1;
  std::vector<int> group_slots_;
  std::vector<ItemSpec> items_;
  std::vector<std::string> columns_;
  SortSpec sort_;
  std::vector<const Value*> key_ptrs_;  // per-row probe scratch
  std::unordered_map<ValueKey, GroupState, ValueKeyHash, ValueKeyEq> groups_;
};

}  // namespace

Executor::Executor(TableAdapter* adapter) : adapter_(adapter) {
  obs::MetricsRegistry& r = adapter_->cluster()->metrics();
  statements_ = r.GetCounter("exec_statements_total",
                             "SELECT statements executed");
  dirty_restarts_ = r.GetCounter(
      "exec_dirty_restarts_total",
      "statement restarts after observing a dirty-marked row");
  statement_us_ = r.GetHistogram("exec_statement_virtual_us",
                                 "virtual time per SELECT statement");
}

StatusOr<std::string> Executor::Explain(const sql::SelectStatement& stmt,
                                        const ExecOptions& options) {
  PlannerOptions popts;
  popts.force_hash_join = options.force_hash_join;
  SYNERGY_ASSIGN_OR_RETURN(
      plan, PlanSelect(stmt, adapter_->catalog(),
                       [this](const std::string& r) {
                         return adapter_->RowCount(r);
                       },
                       popts));
  return plan.Explain();
}

StatusOr<QueryResult> Executor::ExecuteSelect(hbase::Session& s,
                                              const sql::SelectStatement& stmt,
                                              BoundParams params,
                                              const ExecOptions& options) {
  return RunStatement(s, stmt, params, options, /*nodes=*/nullptr);
}

StatusOr<AnalyzeResult> Executor::ExplainAnalyze(
    hbase::Session& s, const sql::SelectStatement& stmt, BoundParams params,
    const ExecOptions& options) {
  AnalyzeResult out;
  const double start_us = s.meter().micros();
  const uint64_t start_rpcs = s.count(obs::OpCounter::kRpcs);
  SYNERGY_ASSIGN_OR_RETURN(result,
                           RunStatement(s, stmt, params, options, &out.nodes));
  out.result = std::move(result);
  out.total_virtual_us = s.meter().Since(start_us);
  out.total_rpcs = s.count(obs::OpCounter::kRpcs) - start_rpcs;
  for (const PlanNodeStats& node : out.nodes) {
    out.node_sum_us += node.virtual_us;
  }
  out.text = RenderAnalyze(out);
  return out;
}

StatusOr<QueryResult> Executor::RunStatement(hbase::Session& s,
                                             const sql::SelectStatement& stmt,
                                             BoundParams params,
                                             const ExecOptions& options,
                                             std::vector<PlanNodeStats>* nodes) {
  statements_->Inc();
  obs::ScopedSpan span(s.trace(), "exec.select");
  const double start_us = s.meter().micros();
  // Virtual time and RPCs burned by attempts that aborted on a dirty row
  // (including the per-restart backoff charge); surfaced as a pseudo-node so
  // the analyzed totals still balance.
  PlanNodeStats restart_node;
  restart_node.label = "dirty restarts";
  int restarts = 0;
  while (true) {
    if (nodes != nullptr) nodes->clear();
    const double attempt_us = s.meter().micros();
    const uint64_t attempt_rpcs = s.count(obs::OpCounter::kRpcs);
    StatusOr<QueryResult> result = ExecuteOnce(s, stmt, params, options, nodes);
    if (result.ok()) {
      result->dirty_restarts = restarts;
      if (restarts > 0) {
        dirty_restarts_->Inc(static_cast<uint64_t>(restarts));
        span.Note("dirty_restarts", std::to_string(restarts));
        if (nodes != nullptr) {
          // rows = aborted attempts, by analogy with rows-produced.
          restart_node.rows = static_cast<size_t>(restarts);
          nodes->insert(nodes->begin(), restart_node);
        }
      }
      statement_us_->Observe(s.meter().Since(start_us));
      return result;
    }
    if (result.status().code() == StatusCode::kAborted &&
        options.detect_dirty && restarts < options.max_dirty_retries) {
      ++restarts;
      // Back off for roughly one RPC before re-scanning.
      s.meter().Charge(
          adapter_->cluster()->cost_model().rpc_base_us);
      restart_node.virtual_us += s.meter().Since(attempt_us);
      restart_node.rpcs += s.count(obs::OpCounter::kRpcs) - attempt_rpcs;
      continue;
    }
    statement_us_->Observe(s.meter().Since(start_us));
    return result;
  }
}

StatusOr<QueryResult> Executor::ExecuteOnce(hbase::Session& s,
                                            const sql::SelectStatement& stmt,
                                            BoundParams params,
                                            const ExecOptions& options,
                                            std::vector<PlanNodeStats>* nodes) {
  const bool analyze = nodes != nullptr;
  const double exec_start_us = s.meter().micros();
  const uint64_t exec_start_rpcs = s.count(obs::OpCounter::kRpcs);
  const sql::Catalog& catalog = adapter_->catalog();
  const sim::CostModel& model = adapter_->cluster()->cost_model();
  PlannerOptions popts;
  popts.force_hash_join = options.force_hash_join;
  SYNERGY_ASSIGN_OR_RETURN(
      plan, PlanSelect(stmt, catalog,
                       [this](const std::string& r) {
                         return adapter_->RowCount(r);
                       },
                       popts));

  // Cumulative schemas: cum_schemas[i] covers the combined row after step i.
  // The final row schema is the concatenation of all alias schemas; slots
  // are stable across steps (each step appends to the right).
  const size_t n = plan.steps.size();
  std::vector<std::shared_ptr<RowSchema>> cum_schemas;
  cum_schemas.reserve(n);
  std::shared_ptr<RowSchema> acc;
  for (const PlanStep& step : plan.steps) {
    auto schema = AliasSchema(step.table, *step.rel);
    acc = acc ? RowSchema::Concat(*acc, *schema) : std::move(schema);
    cum_schemas.push_back(acc);
  }
  const RowSchema& final_schema = *cum_schemas.back();

  // Bind residual predicates to slots once per statement (they reference
  // only columns available at their step, i.e. slots of cum_schemas[i]).
  std::vector<std::vector<BoundPredicate>> residuals(n);
  for (size_t i = 0; i < n; ++i) {
    SYNERGY_ASSIGN_OR_RETURN(
        bound, BindPredicates(plan.steps[i].residual, *cum_schemas[i],
                              params));
    residuals[i] = std::move(bound);
  }

  std::unique_ptr<Sink> sink;
  if (stmt.HasAggregates() || !stmt.group_by.empty()) {
    SYNERGY_ASSIGN_OR_RETURN(
        agg, AggSink::Make(stmt, final_schema, s, model, options));
    sink = std::move(agg);
  } else {
    SYNERGY_ASSIGN_OR_RETURN(
        plain, PlainSink::Make(stmt, final_schema, s, model, options));
    sink = std::move(plain);
  }

  // EXPLAIN ANALYZE accounting: every sink->Process call goes through this
  // wrapper so sink time (aggregation/top-N charges) accrued while a stage
  // is driving rows is attributed to the sink node, not the stage. Stage
  // nodes then measure their meter/RPC interval minus the sink accrual, so
  // the node intervals partition the statement's total charge exactly.
  double sink_us = 0.0;
  uint64_t sink_rpcs = 0;
  auto sink_process = [&](const std::vector<Value>& row) -> StatusOr<bool> {
    if (!analyze) return sink->Process(row);
    const double m0 = s.meter().micros();
    const uint64_t r0 = s.count(obs::OpCounter::kRpcs);
    StatusOr<bool> keep = sink->Process(row);
    sink_us += s.meter().Since(m0);
    sink_rpcs += s.count(obs::OpCounter::kRpcs) - r0;
    return keep;
  };
  if (analyze) {
    PlanNodeStats bind;
    bind.label = "plan+bind";
    bind.virtual_us = s.meter().Since(exec_start_us);
    bind.rpcs = s.count(obs::OpCounter::kRpcs) - exec_start_rpcs;
    nodes->push_back(bind);
  }

  // The one key builder and the one table reader, shared by every step.
  // `key_parts` holds the current step's bound key operands; `key` and
  // `scratch` are buffers reused across steps and outer rows.
  std::vector<BoundKeyPart> key_parts;
  std::vector<Value> key;
  SlotRow scratch;
  // Fills `key` from the key operands over `outer` (a source or hash-join
  // step's are constants, so it passes no row). False when the read can
  // match nothing: a NULL value, or e.g. a fractional double against an INT
  // column.
  auto build_key = [&](const std::vector<Value>& outer) {
    key.clear();
    for (const BoundKeyPart& part : key_parts) {
      Value v = OperandValue(part.value, outer);
      if (!CoerceKeyValue(part.type, &v)) return false;
      key.push_back(std::move(v));
    }
    return true;
  };
  // Reads the rows of `step`'s table that match `key` along its access path
  // into `scratch` and hands each to `fn`, which returns false to stop. Under
  // detect_dirty every row read is checked for its dirty mark, and passes
  // the dirty-read-restart fault point, which treats a clean row as marked
  // so the §VIII-C restart loop in RunStatement runs under test control.
  auto read_rows = [&](const PlanStep& step, auto&& fn) -> Status {
    auto deliver = [&]() -> StatusOr<bool> {
      if (options.detect_dirty) {
        if (scratch.marked) return DirtyRead();
        fault::FaultInjector* faults = adapter_->cluster()->fault_injector();
        if (faults != nullptr &&
            faults->ShouldFire(fault::FaultPoint::kDirtyReadRestart)) {
          return faults->InjectedFault(fault::FaultPoint::kDirtyReadRestart);
        }
      }
      return fn(scratch);
    };
    const std::string& table = step.table.table;
    if (step.path.kind == AccessPath::Kind::kPkGet) {
      SYNERGY_ASSIGN_OR_RETURN(found,
                               adapter_->GetByPkSlots(s, table, key, &scratch));
      return found ? deliver().status() : Status::Ok();
    }
    StatusOr<TupleScanner> scanner =
        step.path.kind == AccessPath::Kind::kIndexPrefixScan
            ? adapter_->ScanIndexPrefix(s, *step.rel, *step.path.index, key)
        : step.path.kind == AccessPath::Kind::kPkPrefixScan
            ? adapter_->ScanPkPrefix(s, table, key)
            : adapter_->ScanAll(s, table);
    SYNERGY_RETURN_IF_ERROR(scanner.status());
    while (true) {
      SYNERGY_ASSIGN_OR_RETURN(more, scanner->NextSlots(&scratch));
      if (!more) return Status::Ok();
      SYNERGY_ASSIGN_OR_RETURN(keep, deliver());
      if (!keep) return Status::Ok();
    }
  };

  // --- pipeline ---
  // Intermediate rows are plain slot vectors; schemas live on the side and
  // everything row-referencing was pre-bound to slots above.
  std::vector<std::vector<Value>> current;
  bool stopped = false;
  for (size_t i = 0; i < n && !stopped; ++i) {
    const PlanStep& step = plan.steps[i];
    const bool last = (i == n - 1);
    // Step 0 has no outer row; its key operands are constants, which bind
    // against any schema.
    const RowSchema& outer_schema = *cum_schemas[i > 0 ? i - 1 : 0];
    const std::vector<BoundPredicate>& residual = residuals[i];
    const double stage_us = s.meter().micros();
    const uint64_t stage_rpcs = s.count(obs::OpCounter::kRpcs);
    const double stage_sink_us = sink_us;
    const uint64_t stage_sink_rpcs = sink_rpcs;
    size_t stage_rows = 0;
    std::vector<std::vector<Value>> next;
    std::vector<Value> combined;  // reused when feeding the sink

    key_parts.clear();
    for (size_t j = 0; j < step.path.key_values.size(); ++j) {
      SYNERGY_ASSIGN_OR_RETURN(
          value, BindOperand(*step.path.key_values[j], outer_schema, params));
      key_parts.push_back(BoundKeyPart{
          std::move(value), step.rel->ColumnType(step.path.key_columns[j])
                                .value_or(DataType::kString)});
    }

    // Passes a row this step produced on: into the sink from the last step,
    // else into the next step's input.
    auto emit = [&](std::vector<Value>&& out) -> StatusOr<bool> {
      ++stage_rows;
      if (!last) {
        next.push_back(std::move(out));
        return true;
      }
      SYNERGY_ASSIGN_OR_RETURN(keep, sink_process(out));
      stopped = !keep;
      return keep;
    };
    auto emit_combined = [&](const std::vector<Value>& left,
                             const std::vector<Value>& right)
        -> StatusOr<bool> {
      combined.clear();
      combined.reserve(left.size() + right.size());
      combined.insert(combined.end(), left.begin(), left.end());
      combined.insert(combined.end(), right.begin(), right.end());
      if (!EvalBound(residual, combined)) return true;
      s.meter().Charge(model.join_emit_row_us);
      return emit(std::move(combined));
    };

    if (step.method == PlanStep::Method::kSource) {
      if (build_key({})) {
        SYNERGY_RETURN_IF_ERROR(
            read_rows(step, [&](SlotRow& row) -> StatusOr<bool> {
              if (!EvalBound(residual, row.values)) return true;
              return emit(std::move(row.values));
            }));
      }
    } else if (step.method == PlanStep::Method::kIndexNestedLoop) {
      for (const std::vector<Value>& outer : current) {
        if (stopped) break;
        if (!build_key(outer)) continue;
        s.meter().Charge(model.join_probe_row_us + model.join_row_overhead_us);
        SYNERGY_RETURN_IF_ERROR(read_rows(step, [&](SlotRow& inner) {
          return emit_combined(outer, inner.values);
        }));
      }
    } else {
      // Client-side hash join: build on the accumulated intermediate,
      // stream this step's table. The table is keyed on the join-key Values
      // (cached hash), not on encoded byte strings.
      struct JoinSide {
        const sql::Operand* outer;
        std::string inner_column;
      };
      std::vector<JoinSide> keys;
      for (const sql::Predicate* p : step.equi_joins) {
        // Exactly one side belongs to this alias; the planner guaranteed it.
        const bool lhs_inner =
            p->lhs.kind == sql::Operand::Kind::kColumn &&
            (p->lhs.column.qualifier == step.table.alias ||
             (p->lhs.column.qualifier.empty() &&
              step.rel->HasColumn(p->lhs.column.column) &&
              outer_schema.Find(p->lhs.column) < 0));
        if (lhs_inner) {
          keys.push_back(JoinSide{&p->rhs, p->lhs.column.column});
        } else {
          keys.push_back(JoinSide{&p->lhs, p->rhs.column.column});
        }
      }
      // Pre-bind both sides: build-side operands to outer-row slots,
      // probe-side columns to this relation's slots.
      std::vector<BoundOperand> build_ops;
      std::vector<int> probe_slots;
      build_ops.reserve(keys.size());
      probe_slots.reserve(keys.size());
      for (const JoinSide& k : keys) {
        SYNERGY_ASSIGN_OR_RETURN(bound,
                                 BindOperand(*k.outer, outer_schema, params));
        build_ops.push_back(std::move(bound));
        probe_slots.push_back(step.rel->ColumnIndex(k.inner_column));
      }
      std::unordered_map<ValueKey, std::vector<size_t>, ValueKeyHash,
                         ValueKeyEq>
          table;
      table.reserve(current.size() * 2);
      // Build sides beyond client memory spill to a grace hash join: both
      // sides pay an extra partitioning pass per row.
      const bool spilled = current.size() > model.hash_join_spill_rows;
      std::vector<const Value*> key_ptrs;
      key_ptrs.reserve(keys.size());
      for (size_t row_idx = 0; row_idx < current.size(); ++row_idx) {
        const std::vector<Value>& row = current[row_idx];
        key_ptrs.clear();
        bool has_null = false;
        for (const BoundOperand& op : build_ops) {
          const Value& v = OperandValue(op, row);
          if (v.is_null()) has_null = true;
          key_ptrs.push_back(&v);
        }
        s.meter().Charge(model.join_build_row_us + model.join_row_overhead_us +
                         (spilled ? model.join_spill_row_us : 0.0));
        if (has_null) continue;
        const ValueKeyRef ref(key_ptrs);
        auto it = table.find(ref);
        if (it == table.end()) {
          it = table.emplace(MaterializeKey(ref), std::vector<size_t>())
                   .first;
        }
        it->second.push_back(row_idx);
      }
      auto consume = [&](SlotRow& row) -> StatusOr<bool> {
        s.meter().Charge(model.join_probe_row_us + model.join_row_overhead_us +
                         (spilled ? model.join_spill_row_us : 0.0));
        key_ptrs.clear();
        for (const int slot : probe_slots) {
          if (slot < 0) return true;  // column not stored: NULL, no match
          const Value& v = row.values[static_cast<size_t>(slot)];
          if (v.is_null()) return true;  // NULL join key: no match
          key_ptrs.push_back(&v);
        }
        const auto bucket = table.find(ValueKeyRef(key_ptrs));
        if (bucket == table.end()) return true;
        for (const size_t left_idx : bucket->second) {
          SYNERGY_ASSIGN_OR_RETURN(
              keep, emit_combined(current[left_idx], row.values));
          if (!keep) return false;
        }
        return true;
      };
      if (build_key({})) {
        SYNERGY_RETURN_IF_ERROR(read_rows(step, consume));
      }
    }
    if (analyze) {
      PlanNodeStats node;
      node.label = step.Label(i);
      node.rows = stage_rows;
      node.virtual_us = s.meter().Since(stage_us) - (sink_us - stage_sink_us);
      node.rpcs = s.count(obs::OpCounter::kRpcs) - stage_rpcs -
                  (sink_rpcs - stage_sink_rpcs);
      nodes->push_back(node);
    }
    current = std::move(next);
  }

  QueryResult result;
  const double finish_us = s.meter().micros();
  const uint64_t finish_rpcs = s.count(obs::OpCounter::kRpcs);
  SYNERGY_RETURN_IF_ERROR(sink->Finish(&result));
  if (analyze) {
    sink_us += s.meter().Since(finish_us);
    sink_rpcs += s.count(obs::OpCounter::kRpcs) - finish_rpcs;
    PlanNodeStats node;
    node.label = (stmt.HasAggregates() || !stmt.group_by.empty())
                     ? "sink: aggregate"
                     : "sink: project/sort/limit";
    node.rows = result.row_count;
    node.virtual_us = sink_us;
    node.rpcs = sink_rpcs;
    nodes->push_back(node);
  }
  return result;
}

}  // namespace synergy::exec
