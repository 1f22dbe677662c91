#include "systems/synergy_wrapper.h"

namespace synergy::systems {

Status SynergyWrapper::Setup(const tpcw::ScaleConfig& scale) {
  cluster_ = std::make_unique<hbase::Cluster>();
  system_ = std::make_unique<core::SynergySystem>(
      cluster_.get(),
      core::SynergyConfig{.roots = roots_, .txn_slaves = txn_slaves_});
  SYNERGY_RETURN_IF_ERROR(
      system_->Build(tpcw::BuildCatalog(), tpcw::BuildWorkload()));
  SYNERGY_RETURN_IF_ERROR(system_->CreateStorage());
  if (scale.load_threads > 1) {
    std::vector<std::unique_ptr<hbase::Session>> sessions;
    for (int i = 0; i < scale.load_threads; ++i) {
      sessions.push_back(std::make_unique<hbase::Session>(cluster_.get()));
    }
    SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabaseParallel(
        scale, [&](int tid, const std::string& relation,
                   const exec::Tuple& tuple) {
          return system_->Load(*sessions[static_cast<size_t>(tid)], relation,
                               tuple);
        }));
  } else {
    hbase::Session load(cluster_.get());
    SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabase(
        scale, [&](const std::string& relation, const exec::Tuple& tuple) {
          return system_->Load(load, relation, tuple);
        }));
  }
  cluster_->MajorCompactAll();
  return Status::Ok();
}

Status SynergyWrapper::RunStatement(hbase::Session& s,
                                    const std::string& stmt_id,
                                    const std::vector<Value>& params,
                                    size_t* rows) {
  const sql::WorkloadStatement* stmt = system_->workload().Find(stmt_id);
  if (stmt == nullptr) return Status::NotFound("statement " + stmt_id);
  if (const auto* sel = std::get_if<sql::SelectStatement>(&stmt->ast)) {
    SYNERGY_ASSIGN_OR_RETURN(
        query, system_->ExecuteRead(s, *sel, params, /*collect_rows=*/false));
    *rows = query.row_count;
  } else {
    SYNERGY_ASSIGN_OR_RETURN(write,
                             system_->ExecuteWrite(s, stmt->ast, params));
    *rows = write.base_rows_affected;
  }
  return Status::Ok();
}

std::vector<std::string> SynergyWrapper::ViewNames() const {
  std::vector<std::string> names;
  for (const sql::ViewDef* v : system_->catalog().Views()) {
    names.push_back(v->name);
  }
  return names;
}

}  // namespace synergy::systems
