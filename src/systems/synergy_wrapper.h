// EvaluatedSystem adapter around the core Synergy system.
#pragma once

#include <memory>

#include "synergy/synergy_system.h"
#include "systems/store_backed_system.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace synergy::systems {

class SynergyWrapper : public StoreBackedSystem {
 public:
  /// `roots` defaults to the paper's Q_TPC-W; ablation benches pass
  /// alternative root sets to probe the sensitivity of root selection.
  /// `txn_slaves` sizes the transaction layer's slave pool (the concurrent
  /// bench raises it so writes from different clients overlap).
  explicit SynergyWrapper(std::vector<std::string> roots = tpcw::Roots(),
                          std::string name = "Synergy", int txn_slaves = 1)
      : name_(std::move(name)), roots_(std::move(roots)),
        txn_slaves_(txn_slaves) {}

  const std::string& name() const override { return name_; }
  Status Setup(const tpcw::ScaleConfig& scale) override;
  std::string Description() const override {
    return "schema-based workload-driven views; hierarchical locking";
  }
  std::vector<std::string> ViewNames() const override;

  core::SynergySystem* system() { return system_.get(); }

 protected:
  Status RunStatement(hbase::Session& s, const std::string& stmt_id,
                      const std::vector<Value>& params,
                      size_t* rows) override;

 private:
  std::string name_;
  std::vector<std::string> roots_;
  int txn_slaves_ = 1;
  std::unique_ptr<core::SynergySystem> system_;
};

}  // namespace synergy::systems
