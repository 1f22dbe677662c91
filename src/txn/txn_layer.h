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
//  - A lost lock release (drop-lock-release) after a successful body also
//    kills the slave: the entry stays uncommitted so replay (idempotent)
//    re-applies it and frees the orphaned lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
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

/// A slave node runs its own worker thread: clients enqueue write tasks into
/// a bounded queue and block on a future, so writes routed to different
/// slaves overlap while each slave still executes its own WAL order
/// serially. Single-client behaviour is unchanged (the client waits for its
/// future before issuing the next statement).
class SlaveNode {
 public:
  SlaveNode(hbase::Cluster* cluster, LockManager* locks, int id);
  ~SlaveNode();

  int id() const { return id_; }
  bool failed() const { return failed_.load(); }
  std::shared_ptr<Wal> wal() const { return wal_; }

  /// Enqueues the write for the worker thread and blocks until it commits
  /// or fails. The caller's stack (payload/lock/body) stays valid for the
  /// duration, so the task only carries pointers. Backpressure: when the
  /// bounded queue stays full past the enqueue wait (saturated or stuck
  /// worker), the write is rejected with kResourceExhausted instead of
  /// blocking the producer indefinitely; a crashed slave rejects with
  /// kUnavailable so the root retry loop routes around it.
  StatusOr<int64_t> ProcessWrite(hbase::Session& s, const std::string& payload,
                                 const std::optional<LockSpec>& lock,
                                 const WriteBody& body);

  static constexpr size_t kQueueCapacity = 8;

  /// Host-time bound on how long an enqueue may wait for queue room before
  /// rejecting with backpressure (liveness guard, not modeled time). Tests
  /// shrink it to keep the queue-full regression fast.
  void SetEnqueueWaitMs(int ms) { enqueue_wait_ms_.store(ms); }

  /// Tasks waiting in the bounded queue, excluding the one the worker is
  /// executing. Lets tests wait for a known backlog before probing the
  /// backpressure path.
  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
  }

 private:
  struct WriteTask {
    hbase::Session* session;
    const std::string* payload;
    const std::optional<LockSpec>* lock;
    const WriteBody* body;
    std::promise<StatusOr<int64_t>> done;
  };

  /// Runs on the worker thread: WAL append, lock acquire, body, release.
  StatusOr<int64_t> ExecuteWrite(hbase::Session& s, const std::string& payload,
                                 const std::optional<LockSpec>& lock,
                                 const WriteBody& body);
  void WorkerLoop();

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

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<WriteTask> queue_;
  bool stopping_ = false;
  std::atomic<int> enqueue_wait_ms_{100};
  std::thread worker_;
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
