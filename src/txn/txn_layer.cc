#include "txn/txn_layer.h"

#include <chrono>

#include "testing/fault_injector.h"

namespace synergy::txn {

SlaveNode::SlaveNode(hbase::Cluster* cluster, LockManager* locks, int id)
    : cluster_(cluster), locks_(locks), id_(id),
      wal_(std::make_shared<Wal>(cluster)) {
  obs::MetricsRegistry& r = cluster_->metrics();
  c_commits_ = r.GetCounter("txn_slave_commits_total",
                            "write transactions committed by slaves");
  c_crashes_ = r.GetCounter("txn_slave_crashes_total",
                            "slave nodes that died (fault or lost release)");
  c_backpressure_ = r.GetCounter(
      "txn_slave_backpressure_rejected_total",
      "writes rejected because a slave work queue stayed full");
  worker_ = std::thread([this] { WorkerLoop(); });
}

SlaveNode::~SlaveNode() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Every enqueued task has a client blocked on its future, so the queue is
  // necessarily empty by the time the last client reference drops; fail any
  // stragglers defensively anyway.
  for (WriteTask& task : queue_) {
    task.done.set_value(Status::Unavailable("slave shut down"));
  }
}

void SlaveNode::WorkerLoop() {
  for (;;) {
    WriteTask task;
    {
      std::unique_lock lock(queue_mutex_);
      queue_not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with no work left
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    task.done.set_value(
        ExecuteWrite(*task.session, *task.payload, *task.lock, *task.body));
  }
}

StatusOr<int64_t> SlaveNode::ProcessWrite(hbase::Session& s,
                                          const std::string& payload,
                                          const std::optional<LockSpec>& lock,
                                          const WriteBody& body) {
  std::future<StatusOr<int64_t>> done;
  {
    std::unique_lock qlock(queue_mutex_);
    // Bounded wait: a queue that stays full (saturated worker, or a worker
    // wedged mid-body) must reject with backpressure, not block the
    // producer forever — the client's retry/deadline machinery can only act
    // on an error it actually receives.
    const bool has_room = queue_not_full_.wait_for(
        qlock, std::chrono::milliseconds(enqueue_wait_ms_.load()), [this] {
          return stopping_ || failed_.load() ||
                 queue_.size() < kQueueCapacity;
        });
    if (stopping_) return Status::Unavailable("slave shut down");
    if (failed_.load()) {
      // Crashed slave: retryable, so the root loop routes to a live slave
      // (or waits out recovery) instead of queueing work nobody will run.
      return Status::Unavailable("slave " + std::to_string(id_) + " is down");
    }
    if (!has_room) {
      c_backpressure_->Inc();
      return Status::ResourceExhausted("slave " + std::to_string(id_) +
                                       " work queue full (overloaded)");
    }
    WriteTask task{&s, &payload, &lock, &body, {}};
    done = task.done.get_future();
    queue_.push_back(std::move(task));
  }
  queue_not_empty_.notify_one();
  return done.get();
}

Status SlaveNode::Crash(const std::string& reason) {
  c_crashes_->Inc();
  failed_.store(true);
  // Wake producers waiting for queue room: the slave is dead, they should
  // take the kUnavailable exit instead of sitting out the bounded wait.
  queue_not_full_.notify_all();
  return Status::Unavailable("slave " + std::to_string(id_) +
                             " crashed: " + reason);
}

bool SlaveNode::Fire(fault::FaultPoint point) {
  fault::FaultInjector* faults = cluster_->fault_injector();
  return faults != nullptr && faults->ShouldFire(point);
}

namespace {

/// The store refused part of a write (unreachable, or shed under overload):
/// how much of it applied is unknown, so only a WAL replay can settle it.
bool StoreRefused(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kResourceExhausted;
}

/// Disables session-level RPC retries for the extent of the slave write
/// protocol: mid-body kUnavailable must reach the slave (it is the crash
/// signal that leaks the lock for failover), and the root-level retry in
/// TxnLayer::SubmitWrite already owns the operation's deadline. The worker
/// thread toggles the client's session here; the client is blocked on the
/// submit future, so access is serialized by the queue handoff.
class SuppressRetriesScope {
 public:
  explicit SuppressRetriesScope(hbase::Session& s)
      : session_(&s), prev_(s.retries_suppressed()) {
    s.SuppressRetries(true);
  }
  ~SuppressRetriesScope() { session_->SuppressRetries(prev_); }

 private:
  hbase::Session* session_;
  bool prev_;
};

}  // namespace

StatusOr<int64_t> SlaveNode::ExecuteWrite(hbase::Session& s,
                                          const std::string& payload,
                                          const std::optional<LockSpec>& lock,
                                          const WriteBody& body) {
  if (failed_.load()) return Status::Unavailable("slave is down");
  SuppressRetriesScope no_rpc_retries(s);
  // The collector travels with the session through the queue handoff, so
  // slave-side work shows up in the client's trace. Closed on every exit
  // path by the RAII dtors.
  obs::ScopedSpan slave_span(s.trace(), "txn.slave");
  slave_span.Note("slave", std::to_string(id_));
  s.meter().Charge(cluster_->cost_model().txn_layer_dispatch_us);
  obs::ScopedSpan wal_span(s.trace(), "txn.wal_append");
  SYNERGY_ASSIGN_OR_RETURN(txn_id, wal_->Append(s, payload, lock));
  wal_span.Close();

  if (Fire(fault::FaultPoint::kCrashAfterWalAppend)) {
    // Died before acquiring the lock: nothing leaks, but the logged entry
    // stays uncommitted, so failover re-applies the statement.
    return Crash("after WAL append");
  }

  LockGuard guard;
  if (lock.has_value()) {
    obs::ScopedSpan lock_span(s.trace(), "txn.lock_acquire");
    int attempts = 0;
    SYNERGY_RETURN_IF_ERROR(locks_->Acquire(s, lock->root_relation,
                                            lock->root_key,
                                            /*max_attempts=*/1000, &attempts));
    if (attempts > 1) {
      lock_span.Note("lock_retries", std::to_string(attempts - 1));
    }
    lock_span.Close();
    guard = LockGuard(locks_, &s, lock->root_relation, lock->root_key);
  }

  if (Fire(fault::FaultPoint::kCrashBeforeExecute)) {
    // The slave dies holding the lock: readers keep read-committed semantics
    // because writers cannot sneak in before recovery (§VIII-C).
    guard.Leak();
    return Crash("before execute (lock leaked)");
  }

  obs::ScopedSpan body_span(s.trace(), "txn.body");
  Status body_status = body(s);
  body_span.Close();
  if (!body_status.ok()) {
    if (StoreRefused(body_status)) {
      // The store became unreachable mid-transaction (e.g. an injected
      // region fault) or shed one of the body's RPCs under overload: the
      // slave cannot tell how much of the body applied (view rows may be
      // left marked), so it dies with the lock held and lets failover
      // replay the entry.
      guard.Leak();
      return Crash("mid-transaction: " + body_status.message());
    }
    // Application-level failure: the write is rejected cleanly, the lock is
    // released and the WAL entry stays uncommitted (replay is a no-op for
    // invalid statements, which fail the same way again).
    Status released = guard.ReleaseNow();
    if (!released.ok()) {
      return Crash("lock release lost: " + released.message());
    }
    return body_status;
  }

  obs::ScopedSpan release_span(s.trace(), "txn.lock_release");
  Status released = guard.ReleaseNow();
  release_span.Close();
  if (!released.ok()) {
    // The release RPC was lost: the slave dies holding the lock, with the
    // entry uncommitted. Replay re-applies the (idempotent) body and frees
    // the orphaned lock.
    return Crash("lock release lost: " + released.message());
  }
  wal_->MarkCommitted(txn_id);
  c_commits_->Inc();
  return txn_id;
}

TxnLayer::TxnLayer(hbase::Cluster* cluster, LockManager* locks, int num_slaves)
    : cluster_(cluster), locks_(locks) {
  for (int i = 0; i < num_slaves; ++i) {
    slaves_.push_back(
        std::make_unique<SlaveNode>(cluster_, locks_, next_slave_id_++));
  }
}

StatusOr<int64_t> TxnLayer::SubmitWrite(hbase::Session& s,
                                        const std::string& payload,
                                        const std::optional<LockSpec>& lock,
                                        const WriteBody& body) {
  // Same protected loop as the Cluster entry points (breaker gate, retry
  // budget, overload rejections surfaced unretried); between backoffs the
  // master auto-recovers failed slaves so a drained pool heals instead of
  // failing every retry with "no live slaves".
  return hbase::RunWithRetryProtection(
      *cluster_, s, [&] { return SubmitWriteOnce(s, payload, lock, body); },
      [this] { MaybeAutoRecover(); });
}

StatusOr<int64_t> TxnLayer::SubmitWriteOnce(hbase::Session& s,
                                            const std::string& payload,
                                            const std::optional<LockSpec>& lock,
                                            const WriteBody& body) {
  // Shared lock held across the write: DetectAndRecover cannot destroy the
  // slave out from under us.
  std::shared_lock pool_lock(slaves_mutex_);
  for (size_t attempt = 0; attempt < slaves_.size(); ++attempt) {
    SlaveNode* slave =
        slaves_[next_slave_.fetch_add(1) % slaves_.size()].get();
    if (slave->failed()) continue;
    return slave->ProcessWrite(s, payload, lock, body);
  }
  return Status::Unavailable("no live slaves");
}

void TxnLayer::MaybeAutoRecover() {
  if (!replay_fn_) return;
  {
    std::shared_lock pool_lock(slaves_mutex_);
    bool any_failed = false;
    for (const auto& slave : slaves_) {
      if (slave->failed()) {
        any_failed = true;
        break;
      }
    }
    if (!any_failed) return;
  }
  // Recovery runs on the master's own session: its replay cost is not the
  // retrying client's virtual time. A replay the store refuses (regions
  // still mid-reassignment, or shed under overload) leaves WAL state
  // untouched; the next backoff simply tries again.
  hbase::Session recovery_session(cluster_);
  (void)DetectAndRecover(recovery_session, replay_fn_);
}

Status TxnLayer::DetectAndRecover(hbase::Session& s, const ReplayFn& replay) {
  std::unique_lock pool_lock(slaves_mutex_);
  for (auto& slave : slaves_) {
    if (!slave->failed()) continue;
    // Start a replacement slave and replay the failed slave's uncommitted
    // WAL suffix. Locks recorded by the dead slave's entries are released
    // after replay.
    auto replacement =
        std::make_unique<SlaveNode>(cluster_, locks_, next_slave_id_++);
    for (const WalEntry& entry : slave->wal()->UncommittedEntries()) {
      const Status replayed = replay(s, entry.payload);
      if (!replayed.ok()) {
        // kUnavailable/kResourceExhausted mean the store is unreachable or
        // shedding load — recovery cannot proceed now and the entry stays
        // for the next attempt. Anything else is an application-level
        // rejection: the statement failed the same way at original
        // execution, so the entry is dropped (its lock still gets released
        // below).
        if (StoreRefused(replayed)) return replayed;
      }
      if (entry.lock.has_value()) {
        SYNERGY_ASSIGN_OR_RETURN(
            held,
            locks_->IsHeld(s, entry.lock->root_relation, entry.lock->root_key));
        if (held) {
          SYNERGY_RETURN_IF_ERROR(locks_->Release(s, entry.lock->root_relation,
                                                  entry.lock->root_key));
        }
      }
      slave->wal()->MarkCommitted(entry.txn_id);
    }
    slave = std::move(replacement);
  }
  return Status::Ok();
}

}  // namespace synergy::txn
