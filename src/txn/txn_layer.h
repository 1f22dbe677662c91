// The Synergy transaction layer (§VIII): master + slave nodes, WAL-backed
// write transaction procedures, hierarchical locking, failover.
//
// A client submits a write request to a slave. The slave assigns a
// transaction id, appends the payload to its WAL, acquires the single root
// lock (if the write touches a rooted tree), runs the transaction body
// (base table + views + indexes updates, supplied by the caller), releases
// the lock and acknowledges. The master detects slave failures and starts a
// replacement slave that replays the failed slave's uncommitted WAL suffix;
// the root lock stays held across the failure, preserving read-committed
// semantics (§VIII-C).
//
// Fault behaviour (driven by testing/fault_injector.h):
//  - crash-after-wal-append / crash-before-execute kill the slave at the
//    corresponding point of ProcessWrite (the latter while holding the lock).
//  - A body that fails with kUnavailable (e.g. an injected region-RPC fault)
//    or kResourceExhausted (an RPC shed under overload) is treated as the
//    slave dying mid-transaction: the lock leaks and the WAL entry stays
//    uncommitted for failover replay. Other body errors are application
//    failures — the lock is released and the error propagated. Recovery
//    likewise stops, leaving the entry for a later attempt, when a replay
//    fails with either code.
//  - A root-lock acquire that fails applied nothing and holds no lock, so
//    its WAL entry is settled and the error propagated; failover never
//    replays it.
//  - A lost lock release (drop-lock-release) after a successful body also
//    kills the slave: the entry stays uncommitted so replay (idempotent)
//    re-applies it and frees the orphaned lock.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hbase/cluster.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace synergy::fault {
enum class FaultPoint : int;
}  // namespace synergy::fault

namespace synergy::txn {

/// The transaction body: performs the actual store updates. Invoked while
/// the root lock is held.
using WriteBody = std::function<Status(hbase::Session&)>;

/// Rebuilds and executes the body for a WAL payload during replay.
using ReplayFn = std::function<Status(hbase::Session&, const std::string&)>;

/// A slave node executes each write on the caller's thread under its own
/// mutex, so writes routed to different slaves overlap while each slave
/// still applies its writes one at a time, in WAL order.
class SlaveNode {
 public:
  SlaveNode(hbase::Cluster* cluster, LockManager* locks, int id);

  int id() const { return id_; }
  bool failed() const { return failed_.load(); }
  std::shared_ptr<Wal> wal() const { return wal_; }

  /// Runs the write (WAL append, lock acquire, body, release) once the
  /// slave is free. Backpressure: when kQueueCapacity callers already wait
  /// behind the one executing, the write is rejected at once with
  /// kResourceExhausted; a crashed slave rejects with kUnavailable so the
  /// root retry loop routes around it.
  StatusOr<int64_t> ProcessWrite(hbase::Session& s, const std::string& payload,
                                 const std::optional<LockSpec>& lock,
                                 const WriteBody& body);

  static constexpr size_t kQueueCapacity = 8;

  /// Callers waiting for the slave, excluding the one executing. Lets tests
  /// wait for a known backlog before probing the backpressure path.
  size_t QueueDepth() const {
    const size_t callers = callers_.load();
    return callers > 0 ? callers - 1 : 0;
  }

 private:
  /// WAL append, lock acquire, body, release; runs under exec_mutex_.
  StatusOr<int64_t> ExecuteWrite(hbase::Session& s, const std::string& payload,
                                 const std::optional<LockSpec>& lock,
                                 const WriteBody& body);

  /// Marks the slave dead and returns the Unavailable status the client sees.
  Status Crash(const std::string& reason);
  /// Whether the cluster's fault injector fires `point` (a crash point).
  bool Fire(fault::FaultPoint point);

  hbase::Cluster* cluster_;
  LockManager* locks_;
  int id_;
  std::shared_ptr<Wal> wal_;
  std::atomic<bool> failed_{false};
  // Registry handles (cluster->metrics()), resolved at construction.
  obs::Counter* c_commits_;
  obs::Counter* c_crashes_;
  obs::Counter* c_backpressure_;

  // Held across ExecuteWrite: one write at a time, applied in WAL order.
  std::mutex exec_mutex_;
  // Callers inside ProcessWrite: the one executing plus those waiting.
  std::atomic<size_t> callers_{0};
};

/// Master: owns the slave pool, routes writes, performs failover.
class TxnLayer {
 public:
  TxnLayer(hbase::Cluster* cluster, LockManager* locks, int num_slaves = 1);

  LockManager* lock_manager() const { return locks_; }

  /// Client entry point: forwards to a live slave (round robin). When the
  /// session carries a RetryPolicy, root-level retries run *here* — one
  /// controller owning one deadline per submitted write — while RPC retries
  /// inside the slave's write body are suppressed (a kUnavailable there must
  /// surface as a slave crash, and nesting both loops would stack their
  /// budgets unboundedly). Between attempts, if a replay fn is registered
  /// (SetReplayFn), the master auto-recovers failed slaves so a drained pool
  /// heals instead of failing every retry with "no live slaves".
  StatusOr<int64_t> SubmitWrite(hbase::Session& s, const std::string& payload,
                                const std::optional<LockSpec>& lock,
                                const WriteBody& body);

  /// Registers the WAL replay function used for *automatic* recovery from
  /// inside SubmitWrite's retry loop (the explicit DetectAndRecover API is
  /// unchanged). Call before concurrent traffic; not synchronized.
  void SetReplayFn(ReplayFn replay) { replay_fn_ = std::move(replay); }

  SlaveNode* slave(int i) {
    std::shared_lock lock(slaves_mutex_);
    return slaves_[static_cast<size_t>(i)].get();
  }
  int num_slaves() const {
    std::shared_lock lock(slaves_mutex_);
    return static_cast<int>(slaves_.size());
  }

  /// Master failure detection + recovery: replaces failed slaves with fresh
  /// ones that replay the uncommitted WAL suffix via `replay` (which must be
  /// idempotent), then release the root lock each entry recorded if it is
  /// still held by the dead slave.
  Status DetectAndRecover(hbase::Session& s, const ReplayFn& replay);

 private:
  StatusOr<int64_t> SubmitWriteOnce(hbase::Session& s,
                                    const std::string& payload,
                                    const std::optional<LockSpec>& lock,
                                    const WriteBody& body);
  /// Runs DetectAndRecover with an internal session iff any slave failed
  /// and a replay fn is registered. Replay refusals (store unreachable
  /// mid-failover) are left for a later attempt.
  void MaybeAutoRecover();

  hbase::Cluster* cluster_;
  LockManager* locks_;
  ReplayFn replay_fn_;
  // Guards the pool: SubmitWrite routes under a shared lock (held across the
  // write so a slave is never destroyed under an in-flight client);
  // DetectAndRecover swaps failed slaves under an exclusive lock, i.e. after
  // all in-flight writes drained.
  mutable std::shared_mutex slaves_mutex_;
  std::vector<std::unique_ptr<SlaveNode>> slaves_;
  std::atomic<size_t> next_slave_{0};
  int next_slave_id_ = 0;
};

}  // namespace synergy::txn
