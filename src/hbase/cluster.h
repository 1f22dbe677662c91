// The simulated HBase cluster: table catalog, region-server inventory, and
// the client API (Get/Put/Scan/Delete/Increment/CheckAndPut).
//
// Every operation goes through a Session, which carries the client's virtual
// CostMeter and optional MVCC read view. The store itself is thread-safe;
// sessions are not (one per logical client).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hbase/admission.h"
#include "hbase/failover.h"
#include "hbase/retry_policy.h"
#include "hbase/table.h"
#include "obs/metrics.h"
#include "obs/op_counts.h"
#include "obs/trace.h"
#include "sim/cost_model.h"

namespace synergy::fault {
class FaultInjector;
}  // namespace synergy::fault

namespace synergy::hbase {

class Cluster;

/// Registry handles for the cluster-wide tallies published at the RPC
/// boundary and by the client retry stack, resolved once per Cluster so the
/// hot path pays one relaxed add per event. `per_op` backs the sessions'
/// per-op counters (Session::Count bumps both).
struct ClusterOpCounters {
  obs::OpCounterHandles per_op{};
  obs::Counter* scan_batches = nullptr;
  obs::Counter* faults_injected = nullptr;
  obs::Counter* breaker_fastfail = nullptr;
  obs::Counter* retry_budget_exhausted = nullptr;
  obs::Histogram* admission_queue_wait_us = nullptr;

  static ClusterOpCounters Resolve(obs::MetricsRegistry& registry);
};

/// A logical client connection: owns the virtual-time meter and read view.
class Session {
 public:
  explicit Session(Cluster* cluster) : cluster_(cluster) {}

  Cluster* cluster() const { return cluster_; }
  sim::CostMeter& meter() { return meter_; }
  const sim::CostMeter& meter() const { return meter_; }

  /// MVCC visibility: read timestamp + excluded (in-flight/invalid) txn ids.
  void SetReadView(ReadView view) { view_ = view; }
  void ClearReadView() { view_ = ReadView{}; }
  const ReadView& read_view() const { return view_; }

  /// Opt-in retries: with a policy installed, every Cluster entry point
  /// (Get/Put/Delete/CheckAndPut/Increment/scan batches) retries retryable
  /// errors with backoff charged as virtual time. Default: no retries, so
  /// deterministic fault schedules see every error exactly once. Policies
  /// with overload-protection knobs enabled also instantiate the session's
  /// retry budget and circuit breaker.
  void SetRetryPolicy(const RetryPolicy& policy) {
    retry_policy_ = policy;
    retry_budget_ = policy.retry_budget_max > 0.0
                        ? std::make_unique<RetryBudget>(policy)
                        : nullptr;
    breaker_ = policy.breaker_trip_overloads > 0
                   ? std::make_unique<CircuitBreaker>(policy)
                   : nullptr;
  }
  void ClearRetryPolicy() {
    retry_policy_.reset();
    retry_budget_.reset();
    breaker_.reset();
  }
  const std::optional<RetryPolicy>& retry_policy() const {
    return retry_policy_;
  }
  /// Null unless the installed policy enables the corresponding knob. Same
  /// single-driver threading contract as SuppressRetries.
  RetryBudget* retry_budget() { return retry_budget_.get(); }
  CircuitBreaker* circuit_breaker() { return breaker_.get(); }

  /// Absolute virtual-time deadline of the op currently in flight (0 =
  /// none). Set by the retry loop at op start and read by the admission
  /// controller for deadline-aware shedding — including from the slave
  /// worker thread, which inherits it through the queue handoff (same
  /// contract as SuppressRetries).
  void SetOpDeadline(double abs_us) { op_deadline_us_ = abs_us; }
  void ClearOpDeadline() { op_deadline_us_ = 0.0; }
  double OpDeadlineRemaining() const {
    if (op_deadline_us_ <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    return op_deadline_us_ - meter_.micros();
  }

  /// While suppressed, entry points skip their retry loops even with a
  /// policy installed. The txn layer sets this around root-write bodies:
  /// a kUnavailable there must surface as a slave crash (§VIII), and the
  /// root-level retry in TxnLayer::SubmitWrite already owns the deadline —
  /// nested RPC retries would stack unboundedly. Not synchronized: only
  /// the thread currently driving the session may toggle it (the slave
  /// worker is handed the session via the queue's happens-before).
  void SuppressRetries(bool on) { retry_suppressed_ = on; }
  bool retries_suppressed() const { return retry_suppressed_; }

  /// Attaches (or detaches, with nullptr) a trace collector: layers below
  /// emit spans/annotations for this session's ops. Same single-driver
  /// threading contract as SuppressRetries — the slave worker inherits the
  /// collector through the queue handoff.
  void SetTrace(obs::TraceCollector* trace) { trace_ = trace; }
  obs::TraceCollector* trace() const { return trace_; }
  /// Non-null only when per-RPC leaf spans were opted into (they can run
  /// into the thousands for scan-heavy statements).
  obs::TraceCollector* rpc_trace() const {
    return trace_ != nullptr && trace_->rpc_spans() ? trace_ : nullptr;
  }

  /// Bumps one per-op counter (obs/op_counts.h): this session's slot and
  /// the cluster registry's family of the same index. Atomic because
  /// txn-slave workers execute write bodies against the client's session
  /// from another thread (same contract as CostMeter: commuting adds, read
  /// after the submit future resolves). Body follows the Cluster definition.
  void Count(obs::OpCounter c);
  uint64_t count(obs::OpCounter c) const {
    return counts_[obs::OpCounts::Index(c)].load(std::memory_order_relaxed);
  }
  /// This session's running totals; one statement's share is the
  /// difference of the snapshots taken around it.
  obs::OpCounts counts() const {
    obs::OpCounts out;
    for (size_t i = 0; i < obs::kNumOpCounters; ++i) {
      out[static_cast<obs::OpCounter>(i)] =
          counts_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  Cluster* cluster_;
  sim::CostMeter meter_;
  ReadView view_;
  std::optional<RetryPolicy> retry_policy_;
  std::unique_ptr<RetryBudget> retry_budget_;
  std::unique_ptr<CircuitBreaker> breaker_;
  obs::TraceCollector* trace_ = nullptr;
  bool retry_suppressed_ = false;
  double op_deadline_us_ = 0.0;
  std::array<std::atomic<uint64_t>, obs::kNumOpCounters> counts_{};
};

/// Streaming scanner with per-batch RPC cost accounting. Obtain via
/// Cluster::OpenScanner; iterate with Next until it returns false.
class Scanner {
 public:
  /// Advances to the next row; returns false when the scan is exhausted.
  /// A false return can also mean a failed batch RPC — check status().
  bool Next(RowResult* out);

  /// Non-OK when the scan terminated on a batch-RPC error (e.g. an injected
  /// region fault) rather than genuine exhaustion. Every consumer must call
  /// this before dropping a scanner: destroying one that hit an error
  /// without looking is the silent-truncation bug PR 6's error channel was
  /// built to kill. A drop without a check counts one
  /// OpCounter::kScanErrorsDropped on the session, in every build type.
  const Status& status() const {
    status_checked_ = true;
    return status_;
  }

  size_t rows_returned() const { return rows_returned_; }

  Scanner(const Scanner&) = delete;
  Scanner& operator=(const Scanner&) = delete;
  Scanner(Scanner&& other) noexcept { *this = std::move(other); }
  Scanner& operator=(Scanner&& other) noexcept {
    cluster_ = other.cluster_;
    session_ = other.session_;
    table_ = std::move(other.table_);
    next_start_ = std::move(other.next_start_);
    stop_ = std::move(other.stop_);
    batch_rows_ = other.batch_rows_;
    buffer_ = std::move(other.buffer_);
    buffer_pos_ = other.buffer_pos_;
    exhausted_ = other.exhausted_;
    rows_returned_ = other.rows_returned_;
    status_ = std::move(other.status_);
    status_checked_ = other.status_checked_;
    other.status_checked_ = true;  // responsibility moved with the status
    return *this;
  }
  ~Scanner() {
    if (!status_.ok() && !status_checked_ && session_ != nullptr) {
      session_->Count(obs::OpCounter::kScanErrorsDropped);
    }
  }

 private:
  friend class Cluster;
  Scanner(Cluster* cluster, Session* session, std::string table,
          std::string start, std::string stop, size_t batch_rows)
      : cluster_(cluster),
        session_(session),
        table_(std::move(table)),
        next_start_(std::move(start)),
        stop_(std::move(stop)),
        batch_rows_(batch_rows) {}

  bool FetchBatch();

  Cluster* cluster_;
  Session* session_;
  std::string table_;
  std::string next_start_;
  std::string stop_;
  size_t batch_rows_;
  std::vector<RowResult> buffer_;
  size_t buffer_pos_ = 0;
  bool exhausted_ = false;
  size_t rows_returned_ = 0;
  Status status_ = Status::Ok();
  mutable bool status_checked_ = false;
};

struct TableSizeInfo {
  std::string name;
  size_t rows = 0;
  size_t bytes = 0;  // includes per-cell HBase framing overhead
  size_t regions = 0;
};

class Cluster {
 public:
  explicit Cluster(sim::CostModel model = sim::CostModel::Ec2Like(),
                   int num_region_servers = 5)
      : model_(model), num_region_servers_(num_region_servers),
        counters_(ClusterOpCounters::Resolve(metrics_)),
        failover_(std::make_unique<FailoverManager>(this,
                                                    num_region_servers)) {}

  const sim::CostModel& cost_model() const { return model_; }
  int num_region_servers() const { return num_region_servers_; }

  /// The cluster-wide metrics registry. Every layer touching this cluster
  /// (admission, failover, txn WAL/locks/slaves, executor, view maintenance)
  /// publishes its tallies here; Snapshot() renders them all at once.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Pre-resolved handles for the RPC-boundary and client-retry counters.
  const ClusterOpCounters& counters() const { return counters_; }
  /// Zeroes every counter/histogram in the registry — the one reset that
  /// cannot desynchronize admission/failover/client tallies, since they all
  /// read through the registry.
  void ResetMetrics() { metrics_.ResetAll(); }

  /// Membership/failure-detection layer. Always on; heartbeat rounds are
  /// driven by RPC ticks, so a healthy idle cluster does no work.
  FailoverManager& failover() { return *failover_; }
  const FailoverManager& failover() const { return *failover_; }

  /// Replaces the failover manager with one using `config` (tests tune the
  /// heartbeat cadence / lease length). Not thread-safe: call before any
  /// concurrent traffic.
  void ConfigureFailover(FailoverConfig config) {
    failover_ =
        std::make_unique<FailoverManager>(this, num_region_servers_, config);
  }

  /// Installs per-region-server admission control (config.enabled == false
  /// removes it). Off by default: every op is admitted and the hot path
  /// costs one pointer check. Not thread-safe: call before concurrent
  /// traffic, like ConfigureFailover.
  void ConfigureAdmission(AdmissionConfig config) {
    admission_ = config.enabled
                     ? std::make_unique<AdmissionController>(
                           num_region_servers_, config, metrics_)
                     : nullptr;
  }
  AdmissionController* admission() { return admission_.get(); }

  /// Stable pointers to every region of every table (failover sweeps).
  std::vector<Region*> AllRegions() const;

  /// Installs (or clears, with nullptr) the one fault injector every
  /// injection site on this cluster consults: the RPC boundary of every
  /// store operation, failover, and the txn layer's lock releases, WAL
  /// appends and slave crash points. Injected request-lost faults fail the
  /// RPC before it reaches the region; ack-lost faults apply the mutation
  /// and fail the acknowledgement. The injector must outlive its
  /// installation, and installing must not race in-flight work; injection
  /// sites are read-only for the cluster state.
  void SetFaultInjector(fault::FaultInjector* faults) { faults_ = faults; }
  fault::FaultInjector* fault_injector() const { return faults_; }

  /// Monotonic logical timestamp source (shared by all writers).
  int64_t NextTimestamp() { return clock_.fetch_add(1) + 1; }

  // --- DDL ---
  Status CreateTable(const TableDescriptor& desc,
                     const std::vector<std::string>& split_keys = {});
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // --- DML (all charge virtual time to the session) ---
  Status Put(Session& s, const std::string& table, const std::string& row_key,
             const std::vector<std::pair<std::string, std::string>>& columns,
             std::optional<int64_t> ts = std::nullopt);

  StatusOr<RowResult> Get(Session& s, const std::string& table,
                          const std::string& row_key);

  Status Delete(Session& s, const std::string& table,
                const std::string& row_key,
                std::optional<int64_t> ts = std::nullopt);

  StatusOr<bool> CheckAndPut(Session& s, const std::string& table,
                             const std::string& row_key,
                             const std::string& qualifier,
                             const std::optional<std::string>& expected,
                             const std::string& new_value);

  StatusOr<int64_t> Increment(Session& s, const std::string& table,
                              const std::string& row_key,
                              const std::string& qualifier, int64_t delta);

  /// Scan rows with key in [start, stop); empty stop = to end of table.
  StatusOr<Scanner> OpenScanner(Session& s, const std::string& table,
                                const std::string& start = "",
                                const std::string& stop = "");

  // --- admin ---
  void MajorCompactAll();
  void MaybeSplitAll();
  std::vector<TableSizeInfo> SizeReport() const;
  size_t TotalBytes() const;
  /// Cheap per-table row count for planner estimates (O(#regions)).
  size_t ApproxRowCount(const std::string& table) const;
  /// Server hosting the table's first region (failover benches/tests pick
  /// their crash victim by the table they intend to disrupt).
  StatusOr<int> RegionServerOf(const std::string& table) const;

 private:
  friend class Scanner;

  StatusOr<Table*> FindTable(const std::string& name) const;

  /// Fault hook before an RPC touches `region`: non-OK = request lost
  /// (region-rpc-failure) or timed out in flight (rpc-timeout). Either way
  /// nothing was applied, so the error is retry-safe.
  Status InjectRequestFault(const std::string& table, const Region* region);
  /// Fault hook after a mutation applied: non-OK = acknowledgement lost.
  Status InjectAckFault(const std::string& table, const Region* region);

  /// Admission gate for one RPC against `region`'s server. No-op without a
  /// configured controller. May shed (kResourceExhausted), charge a virtual
  /// queue wait, and fire the overload-burst fault point. On OK, `slot`
  /// holds the in-flight budget unit until the op completes.
  Status AdmitOp(Session& s, const std::string& table, const Region* region,
                 AdmissionSlot* slot);

  /// Runs `fn` (one RPC attempt returning Status or StatusOr<T>) under the
  /// session's retry policy, charging backoff as virtual time and pumping
  /// failover heartbeats through the waits.
  template <typename Fn>
  auto RunWithRetries(Session& s, Fn&& fn) -> decltype(fn());

  // Single-attempt bodies of the public entry points.
  Status PutOnce(Session& s, const std::string& table,
                 const std::string& row_key,
                 const std::vector<std::pair<std::string, std::string>>&
                     columns,
                 std::optional<int64_t> ts);
  StatusOr<RowResult> GetOnce(Session& s, const std::string& table,
                              const std::string& row_key);
  Status DeleteOnce(Session& s, const std::string& table,
                    const std::string& row_key, std::optional<int64_t> ts);
  StatusOr<bool> CheckAndPutOnce(Session& s, const std::string& table,
                                 const std::string& row_key,
                                 const std::string& qualifier,
                                 const std::optional<std::string>& expected,
                                 const std::string& new_value);
  StatusOr<int64_t> IncrementOnce(Session& s, const std::string& table,
                                  const std::string& row_key,
                                  const std::string& qualifier, int64_t delta);

  /// One scan RPC: fetch up to `limit` visible rows starting at `from`.
  /// Retries per batch under the session policy (a failed batch applied
  /// nothing, so the resume key is still valid).
  StatusOr<ScanBatchResult> ScanBatchRpc(Session& s, const std::string& table,
                                         const std::string& from,
                                         const std::string& stop,
                                         size_t limit);
  StatusOr<ScanBatchResult> ScanBatchRpcOnce(Session& s,
                                             const std::string& table,
                                             const std::string& from,
                                             const std::string& stop,
                                             size_t limit);

  sim::CostModel model_;
  int num_region_servers_;
  // Registry + resolved handles are declared (and thus initialized) before
  // failover_: the FailoverManager constructor resolves its own counters
  // from cluster->metrics().
  obs::MetricsRegistry metrics_;
  ClusterOpCounters counters_;
  fault::FaultInjector* faults_ = nullptr;
  std::unique_ptr<FailoverManager> failover_;
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<int64_t> clock_{0};
  // Reader-writer latch on the table catalog: every DML op resolves its
  // table here, so concurrent sessions take it shared; only DDL is exclusive.
  mutable std::shared_mutex tables_mutex_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

// Below Cluster because it mirrors into the cluster-wide registry handles.
inline void Session::Count(obs::OpCounter c) {
  const size_t i = obs::OpCounts::Index(c);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  cluster_->counters().per_op[i]->Inc();
}

namespace detail {

// Uniform status access over Status and StatusOr<T> attempt results.
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
inline const Status& StatusOf(const StatusOr<T>& s) {
  return s.status();
}

// Clears the session's op deadline on every exit path of the retry loop.
class OpDeadlineScope {
 public:
  OpDeadlineScope(Session& s, double deadline_us) : session_(&s) {
    if (deadline_us > 0.0) {
      s.SetOpDeadline(s.meter().micros() + deadline_us);
    }
  }
  ~OpDeadlineScope() { session_->ClearOpDeadline(); }

 private:
  Session* session_;
};

}  // namespace detail

/// The one retry loop shared by Cluster entry points and TxnLayer root
/// submits: runs `fn` (a single attempt returning Status or StatusOr<T>)
/// under the session's RetryPolicy with the full overload-protection stack:
///  - circuit breaker gate: fails fast while the breaker is open;
///  - op deadline published on the session for deadline-aware shedding;
///  - overload rejections (kResourceExhausted) are surfaced, never retried,
///    and trip the breaker;
///  - each granted retry must also clear the token-bucket retry budget;
///  - backoffs are charged as virtual time and pump failover heartbeats,
///    then `on_backoff` runs (TxnLayer hooks slave auto-recovery there).
template <typename Fn, typename OnBackoff>
auto RunWithRetryProtection(Cluster& cluster, Session& s, Fn&& fn,
                            OnBackoff&& on_backoff) -> decltype(fn()) {
  using Result = decltype(fn());
  if (!s.retry_policy().has_value() || s.retries_suppressed()) return fn();
  if (CircuitBreaker* breaker = s.circuit_breaker()) {
    Status gate = breaker->Admit(s.meter().micros());
    if (!gate.ok()) {
      s.Count(obs::OpCounter::kOverloadRejected);
      cluster.counters().breaker_fastfail->Inc();
      return Result(std::move(gate));
    }
  }
  const RetryPolicy& policy = *s.retry_policy();
  RetryController retry(policy, s.meter().micros());
  detail::OpDeadlineScope deadline_scope(s, policy.deadline_us);
  for (;;) {
    Result result = fn();
    const Status& st = detail::StatusOf(result);
    if (st.ok()) {
      if (RetryBudget* budget = s.retry_budget()) budget->OnSuccess();
      if (CircuitBreaker* breaker = s.circuit_breaker()) breaker->OnSuccess();
      return result;
    }
    if (IsOverloaded(st)) {
      // Overload rejections are terminal here: retrying against a saturated
      // server amplifies the overload (the opposite of what the rejection
      // asked for). The breaker counts the streak and eventually fails fast.
      s.Count(obs::OpCounter::kOverloadRejected);
      if (CircuitBreaker* breaker = s.circuit_breaker()) {
        breaker->OnOverload(s.meter().micros());
      }
      return result;
    }
    const RetryController::Decision d =
        retry.OnFailure(st, s.meter().micros());
    if (!d.retry) {
      if (d.final_status.code() == StatusCode::kDeadlineExceeded) {
        s.Count(obs::OpCounter::kDeadlineExceeded);
        return Result(d.final_status);
      }
      return result;
    }
    if (RetryBudget* budget = s.retry_budget();
        budget != nullptr && !budget->TrySpend()) {
      // Budget empty: the recent success rate no longer pays for retries,
      // so surface the error instead of adding retry load to a brown-out.
      cluster.counters().retry_budget_exhausted->Inc();
      return result;
    }
    s.Count(obs::OpCounter::kRetries);
    // The backoff is virtual wait: the client's clock advances, and so does
    // the cluster's — heartbeat rounds keep running while we sleep, which
    // is what lets a lone blocked client ride out failure detection plus
    // region reassignment instead of livelocking.
    s.meter().Charge(d.backoff_us);
    cluster.failover().PumpVirtualTime(d.backoff_us);
    on_backoff();
  }
}

}  // namespace synergy::hbase
