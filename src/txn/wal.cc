#include "txn/wal.h"

#include <iterator>

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
  entries_.push_back(WalEntry{id, payload, std::move(lock_spec)});
  return id;
}

void Wal::MarkCommitted(int64_t txn_id) {
  std::lock_guard lock(mutex_);
  // Newest first: a slave commits the write it appended last.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->txn_id == txn_id) {
      entries_.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<WalEntry> Wal::UncommittedEntries() const {
  std::lock_guard lock(mutex_);
  return entries_;
}

size_t Wal::size() const {
  std::lock_guard lock(mutex_);
  return static_cast<size_t>(next_id_ - 1);
}

}  // namespace synergy::txn
