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
  // The first tree holding a relation is the one its writes lock. A root's
  // own PK slots hold its key; each FK up a member's chain its parent's.
  for (const RootedTree& tree : trees_) {
    std::vector<std::string> members = {tree.root()};
    for (const TreeEdge& edge : tree.edges()) members.push_back(edge.child);
    for (const std::string& member : members) {
      if (lock_paths_.contains(member)) continue;
      LockPath& path = lock_paths_[member];
      path.root = tree.root();
      const std::vector<std::string> chain = tree.PathFromRoot(member);
      for (size_t i = chain.size(); i-- > 1;) {
        path.hops.push_back(
            {.parent = chain[i - 1],
             .fk_slots = catalog_.FindRelation(chain[i])->ColumnIndexes(
                 tree.EdgeTo(chain[i])->fk.columns)});
      }
      if (path.hops.empty()) {
        path.hops.push_back(
            {.parent = member,
             .fk_slots = catalog_.FindWriteLayout(member)->pk_slots});
      }
    }
  }

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
  // Every Synergy read takes a cell's newest version: statements, the
  // §VIII-C mark check and the lock CheckAndPuts read no snapshot, and WAL
  // replay rewrites whole rows. So base tables, views and indexes keep one
  // version of a cell, as the lock tables do.
  for (const sql::RelationDef* rel : catalog_.Relations()) {
    SYNERGY_RETURN_IF_ERROR(adapter_->CreateStorage(rel->name,
                                                    /*max_versions=*/1));
  }
  for (const std::string& root : config_.roots) {
    SYNERGY_RETURN_IF_ERROR(locks_->CreateLockTable(root));
  }
  return Status::Ok();
}

Status SynergySystem::Load(hbase::Session& s, const std::string& relation,
                           const exec::Tuple& tuple) {
  const sql::RelationDef* rel = catalog_.FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  return InsertRow(s, relation, exec::SessionSlots(s, *rel, tuple));
}

namespace {

/// The read protocol: statements restart on dirty-marked rows (§VIII-C).
exec::ExecOptions ReadOptions(bool collect_rows) {
  return exec::ExecOptions{.collect_rows = collect_rows, .detect_dirty = true};
}

}  // namespace

StatusOr<exec::QueryResult> SynergySystem::ExecuteRead(
    hbase::Session& s, const sql::SelectStatement& stmt,
    exec::BoundParams params, bool collect_rows) {
  c_reads_->Inc();
  obs::ScopedSpan span(s.trace(), "synergy.read");
  return executor_->ExecuteSelect(s, stmt, params, ReadOptions(collect_rows));
}

StatusOr<exec::AnalyzeResult> SynergySystem::ExplainAnalyzeRead(
    hbase::Session& s, const sql::SelectStatement& stmt,
    exec::BoundParams params) {
  c_reads_->Inc();
  obs::ScopedSpan span(s.trace(), "synergy.read");
  return executor_->ExplainAnalyze(s, stmt, params,
                                   ReadOptions(/*collect_rows=*/false));
}

StatusOr<std::optional<txn::LockSpec>> SynergySystem::DeriveLockSpec(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& row) {
  auto path = lock_paths_.find(relation);
  if (path == lock_paths_.end()) return std::optional<txn::LockSpec>();
  // Walk up the FK chain reading ancestors until the root's PK is known.
  const std::vector<LockPath::Hop>& hops = path->second.hops;
  const std::vector<Value>* child = &row;
  exec::SlotRow parent;
  std::vector<Value> key;
  for (size_t i = 0;; ++i) {
    key.clear();
    for (const int slot : hops[i].fk_slots) {
      if (slot < 0 || (*child)[static_cast<size_t>(slot)].is_null()) {
        // Dangling FK: no root row to lock (FKs are not enforced, §IV);
        // fall back to locking nothing.
        return std::optional<txn::LockSpec>();
      }
      key.push_back((*child)[static_cast<size_t>(slot)]);
    }
    if (i + 1 == hops.size()) {
      return std::optional<txn::LockSpec>(txn::LockSpec{
          path->second.root, exec::EncodePkKeyFromValues(key)});
    }
    SYNERGY_ASSIGN_OR_RETURN(
        found, adapter_->GetByPkSlots(s, hops[i].parent, key, &parent));
    if (!found) return std::optional<txn::LockSpec>();
    child = &parent.values;
  }
}

Status SynergySystem::InsertRow(hbase::Session& s,
                                const std::string& relation,
                                const std::vector<Value>& row) {
  SYNERGY_RETURN_IF_ERROR(adapter_->InsertRow(s, relation, row));
  if (std::find(config_.roots.begin(), config_.roots.end(), relation) !=
      config_.roots.end()) {
    std::string key;
    exec::EncodeSlots(row, catalog_.FindWriteLayout(relation)->pk_slots, &key);
    SYNERGY_RETURN_IF_ERROR(locks_->CreateLockEntry(s, relation, key));
  }
  return maintainer_->ApplyInsert(s, relation, row);
}

Status SynergySystem::RunDelete(hbase::Session& s,
                                const exec::BoundWrite& write) {
  const std::vector<Value> pk = write.PkValues();
  SYNERGY_RETURN_IF_ERROR(maintainer_->ApplyDelete(s, write.relation, pk));
  return adapter_->DeleteByPk(s, write.relation, pk);
}

Status SynergySystem::RunUpdate(hbase::Session& s,
                                const exec::BoundWrite& write) {
  const std::vector<Value> pk = write.PkValues();
  // The 6-step procedure of §VIII-B (the lock is already held):
  // (2) read the rows that need to be updated.
  SYNERGY_ASSIGN_OR_RETURN(affected,
                           maintainer_->FindAffected(s, *write.layout, pk));
  // (3) mark them (views and their indexes).
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          adapter_->SetMarkWithIndexes(s, rows.view->name, vpk, true));
      c_view_marks_->Inc();
    }
  }
  // (4) issue the updates (base row first, then view rows).
  SYNERGY_RETURN_IF_ERROR(
      adapter_->UpdateByPk(s, write.relation, pk, write.sets));
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          maintainer_->UpdateViewRow(s, *rows.view, vpk, write.sets));
      c_view_rows_updated_->Inc();
    }
  }
  // (5) un-mark.
  for (const ViewMaintainer::AffectedRows& rows : affected) {
    for (const std::vector<Value>& vpk : rows.view_pks) {
      SYNERGY_RETURN_IF_ERROR(
          adapter_->SetMarkWithIndexes(s, rows.view->name, vpk, false));
    }
  }
  return Status::Ok();
}

Status SynergySystem::WriteBodyFor(hbase::Session& s,
                                   const exec::BoundWrite& write) {
  switch (write.kind) {
    case exec::BoundWrite::Kind::kInsert:
      return InsertRow(s, write.relation, write.row);
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
  // update/delete the FK chain starts from the current base row, or from
  // the statement's key when the row is absent: a concurrent INSERT of that
  // row takes the same lock, so the two cannot interleave.
  obs::ScopedSpan lock_span(s.trace(), "synergy.derive_lock");
  exec::SlotRow existing;
  const std::vector<Value>* chain = &write.row;
  if (write.kind != exec::BoundWrite::Kind::kInsert) {
    SYNERGY_ASSIGN_OR_RETURN(found,
                             adapter_->GetByPkSlots(s, write.relation,
                                                    write.PkValues(),
                                                    &existing));
    if (found) chain = &existing.values;
  }
  SYNERGY_ASSIGN_OR_RETURN(lock, DeriveLockSpec(s, write.relation, *chain));
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
