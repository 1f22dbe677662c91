// Write-ahead log for the Synergy transaction layer (§VIII).
//
// Each slave appends the statement payload with its transaction id before
// executing, and marks the entry committed afterwards. On slave failure the
// master replays the uncommitted suffix on a fresh slave. The log is
// in-memory (the simulated HDFS) with a per-append sync cost; thread-safe.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hbase/cluster.h"
#include "txn/lock_manager.h"

namespace synergy::txn {

struct WalEntry {
  int64_t txn_id = 0;
  std::string payload;  // statement text + encoded params
  // Root lock the transaction holds while executing. Recorded so failover
  // can release orphaned locks without re-deriving them from the payload
  // (which is impossible for deletes: the root row may already be gone).
  std::optional<LockSpec> lock;
  bool committed = false;
};

class Wal {
 public:
  /// Charges the cluster's cost model and publishes the append/failure
  /// counters into its registry.
  explicit Wal(hbase::Cluster* cluster)
      : cluster_(cluster),
        appends_(cluster->metrics().GetCounter(
            "txn_wal_appends_total", "WAL entries appended (synced)")),
        append_failures_(cluster->metrics().GetCounter(
            "txn_wal_append_failures_total",
            "WAL appends failed by the wal-append-failure fault")) {}

  /// Appends an entry (charging the WAL sync cost) and returns its id. A
  /// fired wal-append-failure fault (the cluster's injector) fails the
  /// append before anything is logged.
  StatusOr<int64_t> Append(hbase::Session& s, const std::string& payload,
                           std::optional<LockSpec> lock = std::nullopt);

  /// Marks a transaction committed. Unknown ids are ignored (idempotent).
  void MarkCommitted(int64_t txn_id);

  /// Uncommitted entries in append order (what a failover must replay).
  std::vector<WalEntry> UncommittedEntries() const;

  size_t size() const;
  std::vector<WalEntry> AllEntries() const;

 private:
  hbase::Cluster* cluster_;
  obs::Counter* appends_;
  obs::Counter* append_failures_;
  mutable std::mutex mutex_;
  std::vector<WalEntry> entries_;
  int64_t next_id_ = 1;
};

}  // namespace synergy::txn
