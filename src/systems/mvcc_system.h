// The three Phoenix+Tephra-style systems: Baseline (no views), MVCC-A
// (Synergy's views) and MVCC-UA (tuning-advisor views) — all using MVCC
// concurrency control instead of Synergy's hierarchical locking.
#pragma once

#include <memory>

#include "exec/executor.h"
#include "exec/write_binding.h"
#include "synergy/synergy_system.h"
#include "synergy/unaware_selector.h"
#include "systems/store_backed_system.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"
#include "txn/mvcc.h"

namespace synergy::systems {

class MvccSystem : public StoreBackedSystem {
 public:
  enum class ViewMode { kNone, kAware, kUnaware };

  MvccSystem(std::string name, ViewMode mode)
      : name_(std::move(name)), mode_(mode) {}

  const std::string& name() const override { return name_; }
  Status Setup(const tpcw::ScaleConfig& scale) override;
  std::string Description() const override;
  std::vector<std::string> ViewNames() const override;

  const sql::Workload& workload() const { return workload_; }
  const sql::Catalog& catalog() const { return catalog_; }

 protected:
  /// One Tephra-style transaction (start, read-or-write, commit/abort)
  /// charged to `s`.
  Status RunStatement(hbase::Session& s, const std::string& stmt_id,
                      const std::vector<Value>& params,
                      size_t* rows) override;

 private:
  Status ExecuteWriteBody(hbase::Session& s, const exec::BoundWrite& write);

  std::string name_;
  ViewMode mode_;
  sql::Catalog catalog_;
  sql::Workload workload_;
  std::unique_ptr<exec::TableAdapter> adapter_;
  std::unique_ptr<exec::Executor> executor_;
  std::unique_ptr<core::ViewMaintainer> maintainer_;
  std::unique_ptr<txn::MvccManager> mvcc_;
};

}  // namespace synergy::systems
