#include "systems/store_backed_system.h"

namespace synergy::systems {

StatusOr<StatementResult> StoreBackedSystem::Execute(
    const std::string& stmt_id, const std::vector<Value>& params) {
  hbase::Session s(cluster_.get());
  if (retry_policy_.has_value()) s.SetRetryPolicy(*retry_policy_);
  StatementOutcome out = ExecuteOpen(s, stmt_id, params);
  SYNERGY_RETURN_IF_ERROR(out.status);
  return out.result;
}

std::unique_ptr<hbase::Session> StoreBackedSystem::MakeClient() {
  auto s = std::make_unique<hbase::Session>(cluster_.get());
  if (retry_policy_.has_value()) s->SetRetryPolicy(*retry_policy_);
  return s;
}

StatementOutcome StoreBackedSystem::ExecuteOpen(
    hbase::Session& client, const std::string& stmt_id,
    const std::vector<Value>& params) {
  const double start_ms = client.meter().millis();
  const obs::OpCounts start = client.counts();
  StatementOutcome out;
  out.status = RunStatement(client, stmt_id, params, &out.result.rows);
  out.result.virtual_ms = client.meter().millis() - start_ms;
  out.result.counts = client.counts() - start;
  return out;
}

double StoreBackedSystem::DbSizeBytes() const {
  return static_cast<double>(cluster_->TotalBytes());
}

std::string StoreBackedSystem::MetricsJson() const {
  return cluster_ != nullptr ? cluster_->metrics().Snapshot().ToJson() : "";
}

}  // namespace synergy::systems
