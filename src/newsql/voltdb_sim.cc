#include "newsql/voltdb_sim.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "exec/write_binding.h"

namespace synergy::newsql {

sim::CostModel VoltCostModel() {
  sim::CostModel m;
  // In-memory stored-procedure engine: no per-RPC network hop per scan
  // batch, sub-microsecond row work, no HBase framing.
  m.rpc_base_us = 2.0;         // local data access inside the partition
  m.rpc_per_kb_us = 2.5;
  m.server_seek_us = 0.8;
  m.server_scan_row_us = 0.35;
  m.client_row_us = 0.05;
  m.scan_batch_rows = 100000;
  m.join_build_row_us = 0.4;
  m.join_probe_row_us = 0.3;
  m.join_emit_row_us = 0.4;
  m.join_row_overhead_us = 0.0;  // no client-coordinated join machinery
  m.sort_row_log_us = 0.15;
  m.agg_row_us = 0.2;
  m.lock_rpc_us = 0.0;
  m.hbase_overhead_per_cell = 0.0;
  m.volt_replicated_round_us = 300.0;  // intra-cluster MP coordination
  return m;
}

std::vector<PartitionScheme> TpcwSchemes() {
  std::vector<PartitionScheme> schemes;
  // P1 "customer-centric": order history and carts by owner chain.
  schemes.push_back(PartitionScheme{
      "P1-customer",
      {{"Customer", "c_id"},
       {"Orders", "o_c_id"},
       {"Order_line", "ol_o_id"},
       {"CC_Xacts", "cx_o_id"},
       {"Address", "addr_id"},
       {"Item", "i_id"},
       {"Author", "a_id"},
       {"Shopping_cart", "sc_id"},
       {"Shopping_cart_line", "scl_sc_id"}}});
  // P2 "item-centric": lines co-partitioned with items.
  schemes.push_back(PartitionScheme{
      "P2-item",
      {{"Customer", "c_id"},
       {"Orders", "o_id"},
       {"Order_line", "ol_i_id"},
       {"CC_Xacts", "cx_o_id"},
       {"Address", "addr_id"},
       {"Item", "i_id"},
       {"Author", "a_id"},
       {"Shopping_cart", "sc_id"},
       {"Shopping_cart_line", "scl_i_id"}}});
  // P3 "author-centric": items co-partitioned with authors.
  schemes.push_back(PartitionScheme{
      "P3-author",
      {{"Customer", "c_id"},
       {"Orders", "o_id"},
       {"Order_line", "ol_o_id"},
       {"CC_Xacts", "cx_o_id"},
       {"Address", "addr_id"},
       {"Item", "i_a_id"},
       {"Author", "a_id"},
       {"Shopping_cart", "sc_id"},
       {"Shopping_cart_line", "scl_sc_id"}}});
  return schemes;
}

namespace {

/// Union-find over (alias index, column) pairs.
class ColumnClasses {
 public:
  int Id(int alias, const std::string& column) {
    const std::string key = std::to_string(alias) + "." + column;
    auto [it, inserted] = ids_.try_emplace(key, static_cast<int>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      x = parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }

 private:
  std::map<std::string, int> ids_;
  std::vector<int> parent_;
};

int AliasOf(const sql::SelectStatement& stmt, const sql::Catalog& catalog,
            const sql::ColumnRef& ref) {
  if (!ref.qualifier.empty()) {
    for (size_t i = 0; i < stmt.from.size(); ++i) {
      if (stmt.from[i].alias == ref.qualifier) return static_cast<int>(i);
    }
    return -1;
  }
  int found = -1;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const sql::RelationDef* rel = catalog.FindRelation(stmt.from[i].table);
    if (rel != nullptr && rel->HasColumn(ref.column)) {
      if (found >= 0) return -1;
      found = static_cast<int>(i);
    }
  }
  return found;
}

}  // namespace

bool IsSupported(const sql::SelectStatement& stmt, const sql::Catalog& catalog,
                 const PartitionScheme& scheme) {
  ColumnClasses classes;
  std::set<int> const_classes;  // classes pinned by a constant equality
  for (const sql::Predicate& p : stmt.where) {
    if (p.op != sql::CompareOp::kEq) continue;
    const bool lhs_col = p.lhs.kind == sql::Operand::Kind::kColumn;
    const bool rhs_col = p.rhs.kind == sql::Operand::Kind::kColumn;
    if (lhs_col && rhs_col) {
      const int la = AliasOf(stmt, catalog, p.lhs.column);
      const int ra = AliasOf(stmt, catalog, p.rhs.column);
      if (la < 0 || ra < 0) continue;
      classes.Union(classes.Id(la, p.lhs.column.column),
                    classes.Id(ra, p.rhs.column.column));
    } else if (lhs_col || rhs_col) {
      const sql::ColumnRef& ref = lhs_col ? p.lhs.column : p.rhs.column;
      const int a = AliasOf(stmt, catalog, ref);
      if (a >= 0) const_classes.insert(classes.Id(a, ref.column));
    }
  }
  // Collect each partitioned alias's partition-column class.
  std::vector<int> part_classes;
  std::vector<bool> pinned;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const std::string& table = stmt.from[i].table;
    if (scheme.IsReplicated(table)) continue;
    const std::string& col = scheme.partition_column.at(table);
    part_classes.push_back(classes.Id(static_cast<int>(i), col));
  }
  if (part_classes.size() <= 1) return true;
  // Re-resolve const pins after all unions.
  std::set<int> pinned_roots;
  for (const int c : const_classes) pinned_roots.insert(classes.Find(c));
  // All partitioned tables joined on partition columns (same class), or
  // each independently pinned to a constant.
  const int first_root = classes.Find(part_classes.front());
  bool all_same = true;
  bool all_pinned = true;
  for (const int c : part_classes) {
    if (classes.Find(c) != first_root) all_same = false;
    if (!pinned_roots.contains(classes.Find(c))) all_pinned = false;
  }
  return all_same || all_pinned;
}

VoltDb::VoltDb(std::vector<PartitionScheme> schemes)
    : schemes_(std::move(schemes)),
      cluster_(std::make_unique<hbase::Cluster>(VoltCostModel())) {}

Status VoltDb::Init(const sql::Catalog& base_catalog) {
  for (const sql::RelationDef* rel : base_catalog.Relations()) {
    if (base_catalog.IsView(rel->name)) continue;
    SYNERGY_RETURN_IF_ERROR(catalog_.AddRelation(*rel));
    for (const sql::IndexDef* ix : base_catalog.IndexesFor(rel->name)) {
      SYNERGY_RETURN_IF_ERROR(catalog_.AddIndex(*ix));
    }
  }
  adapter_ = std::make_unique<exec::TableAdapter>(cluster_.get(), &catalog_);
  executor_ = std::make_unique<exec::Executor>(adapter_.get());
  for (const sql::RelationDef* rel : catalog_.Relations()) {
    SYNERGY_RETURN_IF_ERROR(adapter_->CreateStorage(rel->name));
  }
  return Status::Ok();
}

Status VoltDb::Load(const std::string& relation, const exec::Tuple& tuple) {
  hbase::Session s(cluster_.get());
  return adapter_->Insert(s, relation, tuple);
}

StatusOr<VoltDb::ExecResult> VoltDb::Execute(
    const sql::Statement& stmt, const std::vector<Value>& params) {
  if (const auto* sel = std::get_if<sql::SelectStatement>(&stmt)) {
    return ExecuteSelect(*sel, params);
  }
  return ExecuteWrite(stmt, params);
}

StatusOr<VoltDb::ExecResult> VoltDb::ExecuteSelect(
    const sql::SelectStatement& stmt, const std::vector<Value>& params) {
  const PartitionScheme* chosen = nullptr;
  for (const PartitionScheme& scheme : schemes_) {
    if (IsSupported(stmt, catalog_, scheme)) {
      chosen = &scheme;
      break;
    }
  }
  if (chosen == nullptr) {
    return Status::Unimplemented(
        "join not expressible under any VoltDB partitioning scheme");
  }
  hbase::Session s(cluster_.get());
  const sim::CostModel& m = cluster_->cost_model();
  s.meter().Charge(m.volt_dispatch_us);
  // Multi-partition coordination when no partition column is pinned.
  bool pinned = false;
  for (const sql::Predicate& p : stmt.where) {
    if (p.op != sql::CompareOp::kEq || p.IsColumnColumn()) continue;
    const sql::ColumnRef& ref = p.lhs.kind == sql::Operand::Kind::kColumn
                                    ? p.lhs.column
                                    : p.rhs.column;
    for (const auto& [table, col] : chosen->partition_column) {
      if (ref.column == col) pinned = true;
    }
  }
  if (!pinned) s.meter().Charge(m.volt_replicated_round_us);
  exec::ExecOptions options;
  options.collect_rows = false;
  SYNERGY_ASSIGN_OR_RETURN(result,
                           executor_->ExecuteSelect(s, stmt, params, options));
  ExecResult out;
  out.virtual_ms = s.meter().millis();
  out.rows = result.row_count;
  out.scheme = chosen->name;
  return out;
}

StatusOr<VoltDb::ExecResult> VoltDb::ExecuteWrite(
    const sql::Statement& stmt, const std::vector<Value>& params) {
  hbase::Session s(cluster_.get());
  const sim::CostModel& m = cluster_->cost_model();
  s.meter().Charge(m.volt_dispatch_us + m.volt_write_sync_us);
  SYNERGY_ASSIGN_OR_RETURN(
      write,
      exec::BindWriteStatement(sql::BindParams(stmt, params), catalog_));
  switch (write.kind) {
    case exec::BoundWrite::Kind::kInsert:
      SYNERGY_RETURN_IF_ERROR(
          adapter_->InsertRow(s, write.relation, write.row));
      break;
    case exec::BoundWrite::Kind::kUpdate:
      SYNERGY_RETURN_IF_ERROR(adapter_->UpdateByPk(
          s, write.relation, write.PkValues(), write.sets));
      break;
    case exec::BoundWrite::Kind::kDelete:
      SYNERGY_RETURN_IF_ERROR(
          adapter_->DeleteByPk(s, write.relation, write.PkValues()));
      break;
  }
  ExecResult out;
  out.virtual_ms = s.meter().millis();
  out.rows = 1;
  return out;
}

double VoltDb::DbSizeBytes() const {
  double total = 0;
  for (const hbase::TableSizeInfo& info : cluster_->SizeReport()) {
    total += static_cast<double>(info.bytes) +
             cluster_->cost_model().volt_overhead_per_row *
                 static_cast<double>(info.rows);
  }
  return total;
}

}  // namespace synergy::newsql
