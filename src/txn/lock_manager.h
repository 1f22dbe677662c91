// Hierarchical lock manager (§VIII-A).
//
// One lock table per root relation, stored in the cluster itself. A lock-
// table row has the same key as the root row plus a boolean column; locks
// are acquired/released with atomic CheckAndPut, exactly as the paper does
// with HBase's checkAndPut. Because every relation belongs to at most one
// rooted tree, a write transaction holds a single lock: the one on its
// root-relation row key.
#pragma once

#include <string>

#include "common/status.h"
#include "hbase/cluster.h"

namespace synergy::txn {

/// Names the single hierarchical lock a write transaction holds: the row of
/// the root relation whose tree the write touches.
struct LockSpec {
  std::string root_relation;
  std::string root_key;  // encoded row key in the root's lock table

  bool operator==(const LockSpec&) const = default;
};

class LockManager {
 public:
  explicit LockManager(hbase::Cluster* cluster);

  static std::string LockTableName(const std::string& root_relation) {
    return "__lock_" + root_relation;
  }

  /// Creates the lock table for a root relation.
  Status CreateLockTable(const std::string& root_relation);

  /// Creates the lock entry when a tuple is inserted into the root table.
  Status CreateLockEntry(hbase::Session& s, const std::string& root_relation,
                         const std::string& root_key);

  /// Single CheckAndPut attempt; true if the lock was acquired.
  StatusOr<bool> TryAcquire(hbase::Session& s,
                            const std::string& root_relation,
                            const std::string& root_key);

  /// Acquires with bounded retries. Each retry charges a virtual lock RPC
  /// (contention shows up in reported latency) and backs off the OS thread
  /// (yield, then capped exponential sleep) so concurrent owners progress.
  /// `attempts_out`, when non-null, receives the number of CheckAndPut
  /// attempts made (1 = uncontended) — trace spans report retries from it.
  Status Acquire(hbase::Session& s, const std::string& root_relation,
                 const std::string& root_key, int max_attempts = 1000,
                 int* attempts_out = nullptr);

  /// Releases a held lock; fails if the lock was not held. A fired
  /// drop-lock-release fault (the cluster's injector) loses the release
  /// RPC, leaving the lock held: the caller is expected to treat this as
  /// its own crash.
  Status Release(hbase::Session& s, const std::string& root_relation,
                 const std::string& root_key);

  /// Whether the lock is currently held (diagnostics/tests).
  StatusOr<bool> IsHeld(hbase::Session& s, const std::string& root_relation,
                        const std::string& root_key);

 private:
  hbase::Cluster* cluster_;
  // Registry handles (cluster->metrics()), resolved at construction.
  obs::Counter* acquire_attempts_;
  obs::Counter* acquires_;
  obs::Counter* acquire_timeouts_;
  obs::Counter* releases_;
  obs::Counter* release_drops_;
  obs::Histogram* lock_wait_us_;
};

/// RAII guard: releases on destruction if still held.
class LockGuard {
 public:
  LockGuard() = default;
  LockGuard(LockManager* manager, hbase::Session* session, std::string root,
            std::string key)
      : manager_(manager), session_(session), root_(std::move(root)),
        key_(std::move(key)) {}
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;
  LockGuard(LockGuard&& other) noexcept { *this = std::move(other); }
  LockGuard& operator=(LockGuard&& other) noexcept {
    ReleaseNow();
    manager_ = other.manager_;
    session_ = other.session_;
    root_ = std::move(other.root_);
    key_ = std::move(other.key_);
    other.manager_ = nullptr;
    return *this;
  }
  ~LockGuard() { ReleaseNow(); }

  Status ReleaseNow() {
    if (manager_ == nullptr) return Status::Ok();
    Status s = manager_->Release(*session_, root_, key_);
    manager_ = nullptr;
    return s;
  }

  /// Abandon without releasing (simulated slave crash: lock stays held).
  void Leak() { manager_ = nullptr; }

 private:
  LockManager* manager_ = nullptr;
  hbase::Session* session_ = nullptr;
  std::string root_;
  std::string key_;
};

}  // namespace synergy::txn
