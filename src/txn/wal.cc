#include "txn/wal.h"

#include "testing/fault_injector.h"

namespace synergy::txn {

StatusOr<int64_t> Wal::Append(hbase::Session& s, const std::string& payload,
                              std::optional<LockSpec> lock_spec) {
  fault::FaultInjector* faults = cluster_->fault_injector();
  if (faults != nullptr &&
      faults->ShouldFire(fault::FaultPoint::kWalAppendFailure)) {
    append_failures_->Inc();
    return faults->InjectedFault(fault::FaultPoint::kWalAppendFailure);
  }
  s.meter().Charge(cluster_->cost_model().wal_append_us);
  appends_->Inc();
  std::lock_guard lock(mutex_);
  const int64_t id = next_id_++;
  entries_.push_back(
      WalEntry{id, payload, std::move(lock_spec), /*committed=*/false});
  return id;
}

void Wal::MarkCommitted(int64_t txn_id) {
  std::lock_guard lock(mutex_);
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->txn_id == txn_id) {
      it->committed = true;
      return;
    }
  }
}

std::vector<WalEntry> Wal::UncommittedEntries() const {
  std::lock_guard lock(mutex_);
  std::vector<WalEntry> out;
  for (const WalEntry& e : entries_) {
    if (!e.committed) out.push_back(e);
  }
  return out;
}

size_t Wal::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<WalEntry> Wal::AllEntries() const {
  std::lock_guard lock(mutex_);
  return entries_;
}

}  // namespace synergy::txn
