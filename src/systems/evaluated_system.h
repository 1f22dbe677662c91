// The five systems of the paper's evaluation (§IX-D2, Fig. 13) behind one
// interface: VoltDB, Synergy, MVCC-A, MVCC-UA and Baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "obs/op_counts.h"
#include "tpcw/generator.h"

namespace synergy::systems {

struct StatementResult {
  double virtual_ms = 0;
  size_t rows = 0;
  bool supported = true;  // false: join not expressible (VoltDB)
  obs::OpCounts counts;   // per-op counters the statement consumed (store-
                          // backed systems; zero for VoltDB's model)
};

class EvaluatedSystem {
 public:
  virtual ~EvaluatedSystem() = default;

  virtual const std::string& name() const = 0;

  /// Builds schema (+ views where applicable), creates storage, populates
  /// the TPC-W database and major-compacts.
  virtual Status Setup(const tpcw::ScaleConfig& scale) = 0;

  /// Executes one workload statement by id with bound parameters and
  /// returns its simulated response time.
  virtual StatusOr<StatementResult> Execute(
      const std::string& stmt_id, const std::vector<Value>& params) = 0;

  /// Total storage footprint (Table III).
  virtual double DbSizeBytes() const = 0;

  /// One-line description of the views + concurrency mechanisms (Fig. 13).
  virtual std::string Description() const = 0;

  /// Names of materialized views the system created (diagnostics).
  virtual std::vector<std::string> ViewNames() const { return {}; }
};

enum class SystemKind { kVoltDb, kSynergy, kMvccA, kMvccUA, kBaseline };

const char* SystemKindName(SystemKind kind);
std::unique_ptr<EvaluatedSystem> MakeSystem(SystemKind kind);

/// All five, in the paper's figure order.
std::vector<SystemKind> AllSystemKinds();
/// The four HBase-backed systems (VoltDB excluded, as in Table II).
std::vector<SystemKind> HBaseBackedKinds();

}  // namespace synergy::systems
