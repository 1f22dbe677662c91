#include "synergy/synergy_system.h"

#include <algorithm>

#include "sql/parser.h"

namespace synergy::core {

SynergySystem::SynergySystem(hbase::Cluster* cluster, SynergyConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  obs::MetricsRegistry& r = cluster_->metrics();
  c_reads_ = r.GetCounter("synergy_reads_total",
                          "read statements run under the dirty-read protocol");
  c_writes_ = r.GetCounter("synergy_writes_total",
                           "write transactions submitted to the txn layer");
  c_view_marks_ = r.GetCounter(
      "synergy_view_marks_total",
      "view rows marked dirty during §VIII-B update maintenance");
  c_view_rows_updated_ = r.GetCounter("synergy_view_rows_updated_total",
                                      "materialized-view rows rewritten");
}

StatusOr<SynergyDesign> DesignSynergySchema(
    const sql::Catalog& base_catalog, const sql::Workload& workload,
    const std::vector<std::string>& roots) {
  SynergyDesign design;
  // Copy base relations and indexes.
  for (const sql::RelationDef* rel : base_catalog.Relations()) {
    SYNERGY_RETURN_IF_ERROR(design.catalog.AddRelation(*rel));
  }
  for (const sql::RelationDef* rel : base_catalog.Relations()) {
    for (const sql::IndexDef* ix : base_catalog.IndexesFor(rel->name)) {
      SYNERGY_RETURN_IF_ERROR(design.catalog.AddIndex(*ix));
    }
  }
  design.workload = workload;

  // §V: candidate views from the schema's rooted trees.
  const SchemaGraph graph = SchemaGraph::FromCatalog(design.catalog);
  SYNERGY_ASSIGN_OR_RETURN(
      candidates,
      GenerateCandidateViews(graph, design.workload, design.catalog, roots));
  design.trees = std::move(candidates.trees);

  // §VI-A: workload-driven selection.
  const std::vector<SelectedView> views =
      SelectViews(design.workload, design.catalog, design.trees);
  for (const SelectedView& view : views) {
    SYNERGY_ASSIGN_OR_RETURN(defs, MaterializeViewDef(view, design.catalog));
    SYNERGY_RETURN_IF_ERROR(design.catalog.AddView(defs.first, defs.second));
  }

  // §VI-B: rewrite the workload's equi-join queries over the views.
  SYNERGY_ASSIGN_OR_RETURN(
      rewritten,
      RewriteWorkload(&design.workload, design.catalog, design.trees));
  design.rewritten_ids = std::move(rewritten);

  // §VI-C + §VII-C: view-indexes for query filters, maintenance indexes for
  // updates to mid-path members.
  for (sql::IndexDef& ix :
       RecommendViewIndexes(design.workload, design.catalog)) {
    SYNERGY_RETURN_IF_ERROR(design.catalog.AddIndex(std::move(ix)));
  }
  for (sql::IndexDef& ix :
       RecommendMaintenanceIndexes(design.workload, design.catalog)) {
    SYNERGY_RETURN_IF_ERROR(design.catalog.AddIndex(std::move(ix)));
  }
  return design;
}

Status SynergySystem::Build(const sql::Catalog& base_catalog,
                            const sql::Workload& workload) {
  if (built_) return Status::FailedPrecondition("Build called twice");
  SYNERGY_ASSIGN_OR_RETURN(
      design, DesignSynergySchema(base_catalog, workload, config_.roots));
  catalog_ = std::move(design.catalog);
  workload_ = std::move(design.workload);
  trees_ = std::move(design.trees);
  rewritten_ids_ = std::move(design.rewritten_ids);

  adapter_ = std::make_unique<exec::TableAdapter>(cluster_, &catalog_);
  executor_ = std::make_unique<exec::Executor>(adapter_.get());
  maintainer_ = std::make_unique<ViewMaintainer>(adapter_.get());
  locks_ = std::make_unique<txn::LockManager>(cluster_);
  txn_layer_ = std::make_unique<txn::TxnLayer>(cluster_, locks_.get(),
                                               config_.txn_slaves);
  // Lets SubmitWrite's retry loop heal a drained slave pool on its own:
  // under region-server failover every in-flight write body sees
  // kUnavailable and kills its slave, so without auto-recovery the pool
  // would empty long before the lease even expires.
  txn_layer_->SetReplayFn([this](hbase::Session& s,
                                 const std::string& payload) {
    return ReplayPayload(s, payload);
  });
  built_ = true;
  return Status::Ok();
}

Status SynergySystem::CreateStorage() {
  if (!built_) return Status::FailedPrecondition("Build first");
  for (const sql::RelationDef* rel : catalog_.Relations()) {
    SYNERGY_RETURN_IF_ERROR(adapter_->CreateStorage(rel->name));
  }
  for (const std::string& root : config_.roots) {
    SYNERGY_RETURN_IF_ERROR(locks_->CreateLockTable(root));
  }
  return Status::Ok();
}

Status SynergySystem::Load(hbase::Session& s, const std::string& relation,
                           const exec::Tuple& tuple) {
  SYNERGY_RETURN_IF_ERROR(adapter_->Insert(s, relation, tuple));
  SYNERGY_RETURN_IF_ERROR(maintainer_->ApplyInsert(s, relation, tuple));
  if (std::find(config_.roots.begin(), config_.roots.end(), relation) !=
      config_.roots.end()) {
    const sql::RelationDef* rel = catalog_.FindRelation(relation);
    SYNERGY_ASSIGN_OR_RETURN(key, exec::EncodePkKey(*rel, tuple));
    SYNERGY_RETURN_IF_ERROR(locks_->CreateLockEntry(s, relation, key));
  }
  return Status::Ok();
}

StatusOr<exec::QueryResult> SynergySystem::ExecuteRead(
    hbase::Session& s, const sql::SelectStatement& stmt,
    exec::BoundParams params, bool collect_rows) {
  exec::ExecOptions options;
  options.detect_dirty = true;
  options.max_dirty_retries = config_.max_dirty_retries;
  options.collect_rows = collect_rows;
  c_reads_->Inc();
  obs::ScopedSpan span(s.trace(), "synergy.read");
  return executor_->ExecuteSelect(s, stmt, params, options);
}

StatusOr<exec::AnalyzeResult> SynergySystem::ExplainAnalyzeRead(
    hbase::Session& s, const sql::SelectStatement& stmt,
    exec::BoundParams params) {
  exec::ExecOptions options;
  options.detect_dirty = true;
  options.max_dirty_retries = config_.max_dirty_retries;
  options.collect_rows = false;
  c_reads_->Inc();
  obs::ScopedSpan span(s.trace(), "synergy.read");
  return executor_->ExplainAnalyze(s, stmt, params, options);
}

StatusOr<std::optional<txn::LockSpec>> SynergySystem::DeriveLockSpec(
    hbase::Session& s, const std::string& relation, const exec::Tuple& tuple) {
  const RootedTree* tree = nullptr;
  for (const RootedTree& t : trees_) {
    if (t.Contains(relation)) {
      tree = &t;
      break;
    }
  }
  if (tree == nullptr) return std::optional<txn::LockSpec>();

  // Walk up the FK chain reading ancestors until the root's PK is known.
  const std::vector<std::string> path = tree->PathFromRoot(relation);
  exec::Tuple current = tuple;
  for (size_t i = path.size() - 1; i >= 1; --i) {
    const TreeEdge* edge = tree->EdgeTo(path[i]);
    if (edge == nullptr) return Status::Internal("broken tree edge");
    std::vector<Value> parent_pk;
    for (const std::string& col : edge->fk.columns) {
      auto it = current.find(col);
      if (it == current.end() || it->second.is_null()) {
        // Dangling FK: no root row to lock (FKs are not enforced, §IV);
        // fall back to locking nothing.
        return std::optional<txn::LockSpec>();
      }
      parent_pk.push_back(it->second);
    }
    if (i == 1) {
      return std::optional<txn::LockSpec>(txn::LockSpec{
          tree->root(), exec::EncodePkKeyFromValues(parent_pk)});
    }
    SYNERGY_ASSIGN_OR_RETURN(parent,
                             adapter_->GetByPk(s, path[i - 1], parent_pk));
    if (!parent.has_value()) return std::optional<txn::LockSpec>();
    current = parent->tuple;
  }
  // relation itself is the root.
  const sql::RelationDef* rel = catalog_.FindRelation(relation);
  SYNERGY_ASSIGN_OR_RETURN(key, exec::EncodePkKey(*rel, tuple));
  return std::optional<txn::LockSpec>(txn::LockSpec{relation, key});
}

Status SynergySystem::RunInsert(hbase::Session& s,
                                const exec::BoundWrite& write) {
  SYNERGY_RETURN_IF_ERROR(adapter_->Insert(s, write.relation, write.tuple));
  if (std::find(config_.roots.begin(), config_.roots.end(), write.relation) !=
      config_.roots.end()) {
    const sql::RelationDef* rel = catalog_.FindRelation(write.relation);
    SYNERGY_ASSIGN_OR_RETURN(key, exec::EncodePkKey(*rel, write.tuple));
    SYNERGY_RETURN_IF_ERROR(
        locks_->CreateLockEntry(s, write.relation, key));
  }
  return maintainer_->ApplyInsert(s, write.relation, write.tuple);
}

Status SynergySystem::RunDelete(hbase::Session& s,
                                const exec::BoundWrite& write) {
  SYNERGY_RETURN_IF_ERROR(
      maintainer_->ApplyDelete(s, write.relation, write.pk_values));
  return adapter_->DeleteByPk(s, write.relation, write.pk_values);
}

Status SynergySystem::RunUpdate(hbase::Session& s,
                                const exec::BoundWrite& write) {
  // The 6-step procedure of §VIII-B (the lock is already held):
  // (2) read the rows that need to be updated.
  SYNERGY_ASSIGN_OR_RETURN(
      affected, maintainer_->FindAffected(s, write.relation, write.pk_values));
  // (3) mark them (views and their indexes).
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          adapter_->SetMarkWithIndexes(s, rows.view, vpk, true));
      c_view_marks_->Inc();
    }
  }
  // (4) issue the updates (base row first, then view rows).
  SYNERGY_RETURN_IF_ERROR(
      adapter_->UpdateByPk(s, write.relation, write.pk_values, write.sets));
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          maintainer_->UpdateViewRow(s, rows.view, vpk, write.sets));
      c_view_rows_updated_->Inc();
    }
  }
  // (5) un-mark.
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          adapter_->SetMarkWithIndexes(s, rows.view, vpk, false));
    }
  }
  return Status::Ok();
}

Status SynergySystem::WriteBodyFor(hbase::Session& s,
                                   const exec::BoundWrite& write) {
  switch (write.kind) {
    case exec::BoundWrite::Kind::kInsert: return RunInsert(s, write);
    case exec::BoundWrite::Kind::kDelete: return RunDelete(s, write);
    case exec::BoundWrite::Kind::kUpdate: return RunUpdate(s, write);
  }
  return Status::Internal("bad write kind");
}

StatusOr<WriteResult> SynergySystem::ExecuteWrite(
    hbase::Session& s, const sql::Statement& stmt,
    const std::vector<Value>& params) {
  c_writes_->Inc();
  obs::ScopedSpan span(s.trace(), "synergy.write");
  const sql::Statement bound = sql::BindParams(stmt, params);
  SYNERGY_ASSIGN_OR_RETURN(write, exec::BindWriteStatement(bound, catalog_));

  // Derive the single root lock (reads ancestor rows as needed). For
  // update/delete the FK chain starts from the current base row.
  obs::ScopedSpan lock_span(s.trace(), "synergy.derive_lock");
  exec::Tuple chain_tuple = write.tuple;
  if (write.kind != exec::BoundWrite::Kind::kInsert) {
    SYNERGY_ASSIGN_OR_RETURN(
        existing, adapter_->GetByPk(s, write.relation, write.pk_values));
    if (existing.has_value()) chain_tuple = existing->tuple;
  }
  SYNERGY_ASSIGN_OR_RETURN(lock,
                           DeriveLockSpec(s, write.relation, chain_tuple));
  lock_span.Close();

  const std::string payload = sql::StatementToString(bound);
  SYNERGY_ASSIGN_OR_RETURN(
      txn_id, txn_layer_->SubmitWrite(s, payload, lock, [&](hbase::Session& ts) {
        return WriteBodyFor(ts, write);
      }));
  WriteResult result;
  result.txn_id = txn_id;
  result.base_rows_affected = 1;
  return result;
}

Status SynergySystem::ReplayPayload(hbase::Session& s,
                                    const std::string& payload) {
  SYNERGY_ASSIGN_OR_RETURN(stmt, sql::Parse(payload));
  SYNERGY_ASSIGN_OR_RETURN(write, exec::BindWriteStatement(stmt, catalog_));
  return WriteBodyFor(s, write);
}

}  // namespace synergy::core
