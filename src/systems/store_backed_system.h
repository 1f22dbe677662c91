// The client path shared by every system that runs on the simulated HBase
// cluster (Synergy, MVCC-A, MVCC-UA, Baseline): sessions, retry policy,
// per-statement cost and counters, registry snapshots and size. Subclasses
// build the cluster in Setup and supply only the statement body.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hbase/cluster.h"
#include "hbase/retry_policy.h"
#include "systems/evaluated_system.h"

namespace synergy::systems {

/// One statement execution with the cost-even-on-error semantics the
/// concurrent driver's accounting needs: `result` (virtual time spent,
/// per-op counters) is valid whether or not `status` is OK, because a failed
/// statement still occupied the client while it failed.
struct StatementOutcome {
  Status status;
  StatementResult result;
};

class StoreBackedSystem : public EvaluatedSystem {
 public:
  /// Runs the statement on a fresh session (single-statement measurement).
  StatusOr<StatementResult> Execute(
      const std::string& stmt_id, const std::vector<Value>& params) override;
  double DbSizeBytes() const override;

  /// JSON snapshot of the cluster's metrics registry, embedded into
  /// committed bench-result rows.
  std::string MetricsJson() const;

  /// The store cluster (null before Setup). Benches reset its metrics after
  /// Setup so snapshots cover measured work.
  hbase::Cluster* cluster() { return cluster_.get(); }

  /// Installed on every session made afterwards, fresh (Execute) or
  /// persistent (MakeClient), so RPC and root-txn retries engage for all
  /// statements.
  void SetRetryPolicy(const hbase::RetryPolicy& policy) {
    retry_policy_ = policy;
  }

  /// A persistent client: one Session whose meter, retry budget and
  /// circuit breaker survive across statements (a breaker that resets every
  /// statement could never trip).
  std::unique_ptr<hbase::Session> MakeClient();

  /// Runs one statement on `client`. The session's meter and counters only
  /// grow, so the statement's figures are the differences across the call.
  StatementOutcome ExecuteOpen(hbase::Session& client,
                               const std::string& stmt_id,
                               const std::vector<Value>& params);

 protected:
  /// The statement body: costs and counters accrue on `s`.
  virtual Status RunStatement(hbase::Session& s, const std::string& stmt_id,
                              const std::vector<Value>& params,
                              size_t* rows) = 0;

  std::unique_ptr<hbase::Cluster> cluster_;

 private:
  std::optional<hbase::RetryPolicy> retry_policy_;
};

}  // namespace synergy::systems
