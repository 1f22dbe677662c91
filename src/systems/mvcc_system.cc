#include "systems/mvcc_system.h"

#include <map>

#include "synergy/query_rewrite.h"
#include "synergy/view_index.h"

namespace synergy::systems {
namespace {

/// Planned cardinalities for the unaware selector's estimates (selection
/// happens before population, as a tuning advisor would use statistics).
std::map<std::string, size_t> PlannedRowCounts(const tpcw::ScaleConfig& s) {
  return {{"Customer", static_cast<size_t>(s.num_customers)},
          {"Item", static_cast<size_t>(s.num_items())},
          {"Author", static_cast<size_t>(s.num_authors())},
          {"Address", static_cast<size_t>(s.num_addresses())},
          {"Country", static_cast<size_t>(s.num_countries())},
          {"Orders", static_cast<size_t>(s.num_orders())},
          {"Order_line", static_cast<size_t>(s.num_orders() * 3)},
          {"CC_Xacts", static_cast<size_t>(s.num_orders())},
          {"Shopping_cart", static_cast<size_t>(s.num_carts())},
          {"Shopping_cart_line", static_cast<size_t>(s.num_carts() * 2)},
          {"Orders_tmp", static_cast<size_t>(s.num_orders_tmp())}};
}

}  // namespace

Status MvccSystem::Setup(const tpcw::ScaleConfig& scale) {
  const sql::Catalog base = tpcw::BuildCatalog();
  const sql::Workload base_workload = tpcw::BuildWorkload();

  switch (mode_) {
    case ViewMode::kNone: {
      SYNERGY_RETURN_IF_ERROR(catalog_.AddBaseSchema(base));
      workload_ = base_workload;
      break;
    }
    case ViewMode::kAware: {
      // Exactly the Synergy design (views, rewrites, view-indexes) but run
      // under MVCC (§IX-D2 "MVCC-A").
      SYNERGY_ASSIGN_OR_RETURN(
          design,
          core::DesignSynergySchema(base, base_workload, tpcw::Roots()));
      catalog_ = std::move(design.catalog);
      workload_ = std::move(design.workload);
      break;
    }
    case ViewMode::kUnaware: {
      SYNERGY_RETURN_IF_ERROR(catalog_.AddBaseSchema(base));
      workload_ = base_workload;
      const auto counts = PlannedRowCounts(scale);
      auto rows = [&counts](const std::string& rel) -> size_t {
        auto it = counts.find(rel);
        return it == counts.end() ? 0 : it->second;
      };
      const std::vector<core::SelectedView> views =
          core::SelectViewsUnaware(workload_, catalog_, rows);
      for (const core::SelectedView& view : views) {
        SYNERGY_ASSIGN_OR_RETURN(defs,
                                 core::MaterializeViewDef(view, catalog_));
        SYNERGY_RETURN_IF_ERROR(catalog_.AddView(defs.first, defs.second));
      }
      // Rewrite queries whose FROM covers a selected view.
      for (sql::WorkloadStatement& stmt : workload_.statements) {
        auto* sel = std::get_if<sql::SelectStatement>(&stmt.ast);
        if (sel == nullptr) continue;
        SYNERGY_ASSIGN_OR_RETURN(rw,
                                 core::RewriteQuery(*sel, catalog_, views));
        if (rw.changed) {
          stmt.ast = sql::Statement(std::move(rw.stmt));
          stmt.sql = sql::StatementToString(stmt.ast);
        }
      }
      for (sql::IndexDef& ix :
           core::RecommendViewIndexes(workload_, catalog_)) {
        SYNERGY_RETURN_IF_ERROR(catalog_.AddIndex(std::move(ix)));
      }
      for (sql::IndexDef& ix :
           core::RecommendMaintenanceIndexes(workload_, catalog_)) {
        SYNERGY_RETURN_IF_ERROR(catalog_.AddIndex(std::move(ix)));
      }
      break;
    }
  }

  cluster_ = std::make_unique<hbase::Cluster>();
  adapter_ = std::make_unique<exec::TableAdapter>(cluster_.get(), &catalog_);
  executor_ = std::make_unique<exec::Executor>(adapter_.get());
  maintainer_ = std::make_unique<core::ViewMaintainer>(adapter_.get());
  mvcc_ = std::make_unique<txn::MvccManager>(cluster_.get());
  for (const sql::RelationDef* rel : catalog_.Relations()) {
    SYNERGY_RETURN_IF_ERROR(adapter_->CreateStorage(rel->name));
  }
  hbase::Session load(cluster_.get());
  SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabase(
      scale, [&](const std::string& relation, const exec::Tuple& tuple) {
        return maintainer_->InsertWithViews(load, relation, tuple);
      }));
  cluster_->MajorCompactAll();
  return Status::Ok();
}

Status MvccSystem::ExecuteWriteBody(hbase::Session& s,
                                    const exec::BoundWrite& write) {
  if (write.kind == exec::BoundWrite::Kind::kInsert) {
    SYNERGY_RETURN_IF_ERROR(adapter_->InsertRow(s, write.relation, write.row));
    return maintainer_->ApplyInsert(s, write.relation, write.row);
  }
  const std::vector<Value> pk = write.PkValues();
  if (write.kind == exec::BoundWrite::Kind::kDelete) {
    SYNERGY_RETURN_IF_ERROR(maintainer_->ApplyDelete(s, write.relation, pk));
    return adapter_->DeleteByPk(s, write.relation, pk);
  }
  // No mark/unmark protocol: MVCC snapshots provide the isolation.
  SYNERGY_ASSIGN_OR_RETURN(affected,
                           maintainer_->FindAffected(s, *write.layout, pk));
  SYNERGY_RETURN_IF_ERROR(
      adapter_->UpdateByPk(s, write.relation, pk, write.sets));
  for (const core::ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          maintainer_->UpdateViewRow(s, *rows.view, vpk, write.sets));
    }
  }
  return Status::Ok();
}

Status MvccSystem::RunStatement(hbase::Session& s, const std::string& stmt_id,
                                const std::vector<Value>& params,
                                size_t* rows) {
  const sql::WorkloadStatement* stmt = workload_.Find(stmt_id);
  if (stmt == nullptr) return Status::NotFound("statement " + stmt_id);
  // Every statement runs as a Tephra-style transaction: start + commit
  // round trips plus per-row snapshot filtering on reads. Write versions
  // are tagged by the store's logical clock; the transaction's write set
  // drives conflict detection (single-client benches never conflict).
  SYNERGY_ASSIGN_OR_RETURN(txn, mvcc_->Start(s));
  if (const auto* sel = std::get_if<sql::SelectStatement>(&stmt->ast)) {
    hbase::ReadView view;
    view.read_ts = INT64_MAX;  // reads observe the loaded, committed state
    view.exclude = &txn.exclude;
    s.SetReadView(view);
    exec::ExecOptions options;
    options.collect_rows = false;
    auto query = executor_->ExecuteSelect(s, *sel, params, options);
    s.ClearReadView();
    if (!query.ok()) {
      (void)mvcc_->Abort(s, txn);
      return query.status();
    }
    *rows = query->row_count;
  } else {
    const sql::Statement bound = sql::BindParams(stmt->ast, params);
    SYNERGY_ASSIGN_OR_RETURN(write,
                             exec::BindWriteStatement(bound, catalog_));
    txn.write_set.push_back(write.WriteKey());
    Status body = ExecuteWriteBody(s, write);
    if (!body.ok()) {
      (void)mvcc_->Abort(s, txn);
      return body;
    }
    *rows = 1;
  }
  return mvcc_->Commit(s, txn);
}

std::string MvccSystem::Description() const {
  switch (mode_) {
    case ViewMode::kNone:
      return "no materialized views; MVCC (Phoenix+Tephra)";
    case ViewMode::kAware:
      return "schema-relationships-aware views (Synergy's); MVCC";
    case ViewMode::kUnaware:
      return "schema-relationships-unaware views (tuning advisor); MVCC";
  }
  return "?";
}

std::vector<std::string> MvccSystem::ViewNames() const {
  std::vector<std::string> names;
  for (const sql::ViewDef* v : catalog_.Views()) names.push_back(v->name);
  return names;
}

}  // namespace synergy::systems
