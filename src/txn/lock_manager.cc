#include "txn/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "testing/fault_injector.h"

namespace synergy::txn {

namespace {
constexpr char kLockColumn[] = "l";
constexpr char kFree[] = "0";
constexpr char kHeld[] = "1";
}  // namespace

LockManager::LockManager(hbase::Cluster* cluster) : cluster_(cluster) {
  obs::MetricsRegistry& r = cluster_->metrics();
  acquire_attempts_ = r.GetCounter("txn_lock_acquire_attempts_total",
                                   "lock CheckAndPut attempts");
  acquires_ = r.GetCounter("txn_lock_acquires_total",
                           "hierarchical locks acquired");
  acquire_timeouts_ = r.GetCounter("txn_lock_acquire_timeouts_total",
                                   "Acquire calls that hit max_attempts");
  releases_ = r.GetCounter("txn_lock_releases_total",
                           "hierarchical locks released");
  release_drops_ = r.GetCounter(
      "txn_lock_release_drops_total",
      "release RPCs lost by the drop-lock-release fault");
  lock_wait_us_ = r.GetHistogram(
      "txn_lock_wait_us", "virtual wait per lock acquisition (contention)");
}

Status LockManager::CreateLockTable(const std::string& root_relation) {
  return cluster_->CreateTable(
      {.name = LockTableName(root_relation), .max_versions = 1});
}

Status LockManager::CreateLockEntry(hbase::Session& s,
                                    const std::string& root_relation,
                                    const std::string& root_key) {
  // CheckAndPut(absent -> free): never clobbers an existing entry, in
  // particular not the lock the inserting transaction itself holds.
  SYNERGY_ASSIGN_OR_RETURN(
      created, cluster_->CheckAndPut(s, LockTableName(root_relation), root_key,
                                     kLockColumn, std::nullopt, kFree));
  (void)created;  // already-present entries are fine (idempotent)
  return Status::Ok();
}

StatusOr<bool> LockManager::TryAcquire(hbase::Session& s,
                                       const std::string& root_relation,
                                       const std::string& root_key) {
  const std::string table = LockTableName(root_relation);
  SYNERGY_ASSIGN_OR_RETURN(
      won, cluster_->CheckAndPut(s, table, root_key, kLockColumn,
                                 std::string(kFree), kHeld));
  if (won) return true;
  // The entry may not exist yet (root row being inserted right now).
  return cluster_->CheckAndPut(s, table, root_key, kLockColumn, std::nullopt,
                               kHeld);
}

Status LockManager::Acquire(hbase::Session& s,
                            const std::string& root_relation,
                            const std::string& root_key, int max_attempts,
                            int* attempts_out) {
  const double start_us = s.meter().micros();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    acquire_attempts_->Inc();
    if (attempts_out != nullptr) *attempts_out = attempt + 1;
    SYNERGY_ASSIGN_OR_RETURN(won, TryAcquire(s, root_relation, root_key));
    if (won) {
      acquires_->Inc();
      lock_wait_us_->Observe(s.meter().Since(start_us));
      return Status::Ok();
    }
    // Virtual backoff before the next CheckAndPut; the charge is what makes
    // contention visible in reported latencies.
    s.meter().Charge(cluster_->cost_model().lock_rpc_us);
    // Real backoff so the owner thread actually gets the CPU: spin-yield for
    // the first few attempts, then exponential sleep capped at 64us.
    if (attempt < 4) {
      std::this_thread::yield();
    } else {
      const int shift = std::min(attempt - 4, 6);
      std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
    }
  }
  acquire_timeouts_->Inc();
  return Status::Aborted("lock acquisition timed out on " + root_relation);
}

Status LockManager::Release(hbase::Session& s,
                            const std::string& root_relation,
                            const std::string& root_key) {
  if (fault::FaultInjector* faults = cluster_->fault_injector();
      faults != nullptr) {
    const std::string lock_table = LockTableName(root_relation);
    const fault::FaultSite site{lock_table, -1};
    if (faults->ShouldFire(fault::FaultPoint::kDropLockRelease, site)) {
      // Release RPC lost in flight: the lock stays held in the store.
      release_drops_->Inc();
      return faults->InjectedFault(fault::FaultPoint::kDropLockRelease);
    }
  }
  SYNERGY_ASSIGN_OR_RETURN(
      ok, cluster_->CheckAndPut(s, LockTableName(root_relation), root_key,
                                kLockColumn, std::string(kHeld), kFree));
  if (!ok) {
    return Status::FailedPrecondition("releasing a lock that is not held");
  }
  releases_->Inc();
  return Status::Ok();
}

StatusOr<bool> LockManager::IsHeld(hbase::Session& s,
                                   const std::string& root_relation,
                                   const std::string& root_key) {
  StatusOr<hbase::RowResult> row =
      cluster_->Get(s, LockTableName(root_relation), root_key);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) return false;
    return row.status();
  }
  auto it = row->columns.find(kLockColumn);
  return it != row->columns.end() && it->second == kHeld;
}

}  // namespace synergy::txn
