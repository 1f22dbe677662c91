#include "hbase/cluster.h"

#include <algorithm>
#include <cmath>

#include "testing/fault_injector.h"

namespace synergy::hbase {

ClusterOpCounters ClusterOpCounters::Resolve(obs::MetricsRegistry& registry) {
  ClusterOpCounters c;
  c.per_op = obs::ResolveOpCounters(registry);
  c.scan_batches = registry.GetCounter(
      "hbase_scan_batches_total", "scan batch RPCs (subset of hbase_rpcs)");
  c.faults_injected = registry.GetCounter(
      "hbase_faults_injected_total",
      "injected RPC faults (request-lost, timeout, ack-lost)");
  c.breaker_fastfail = registry.GetCounter(
      "client_breaker_fastfail_total",
      "ops failed fast by an open circuit breaker");
  c.retry_budget_exhausted = registry.GetCounter(
      "client_retry_budget_exhausted_total",
      "retries denied by an empty token-bucket budget");
  c.admission_queue_wait_us = registry.GetHistogram(
      "hbase_admission_queue_wait_us",
      "virtual queueing delay charged per admitted RPC");
  return c;
}

size_t Session::NextScratchSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <typename Fn>
auto Cluster::RunWithRetries(Session& s, Fn&& fn) -> decltype(fn()) {
  return RunWithRetryProtection(*this, s, std::forward<Fn>(fn), [] {});
}

Status Cluster::CreateTable(const TableDescriptor& desc) {
  if (desc.max_versions < 1) {
    return Status::InvalidArgument("table " + desc.name +
                                   " keeps no version");
  }
  std::unique_lock lock(tables_mutex_);
  if (tables_.contains(desc.name)) {
    return Status::AlreadyExists("table " + desc.name);
  }
  tables_.emplace(desc.name,
                  std::make_unique<Region>(
                      &clock_,
                      tables_created_++ % std::max(num_region_servers_, 1),
                      desc.max_versions));
  return Status::Ok();
}

Status Cluster::InjectFault(fault::FaultPoint point, const std::string& table,
                            const Region* region) {
  if (faults_ == nullptr ||
      !faults_->ShouldFire(point, {table, region->server_id()})) {
    return Status::Ok();
  }
  counters_.faults_injected->Inc();
  return faults_->InjectedFault(point);
}

Status Cluster::AdmitOp(Session& s, const std::string& table,
                        const Region* region, AdmissionSlot* slot) {
  if (admission_ == nullptr) return Status::Ok();
  const int server = region->server_id();
  // The overload-burst fault slams this server with phantom load *before*
  // the admission decision, so the triggering op already feels the burst.
  if (faults_ != nullptr &&
      faults_->ShouldFire(fault::FaultPoint::kOverloadBurst,
                          fault::FaultSite{table, server})) {
    admission_->InjectBurst(server, admission_->config().burst_ops);
  }
  AdmissionDecision d = admission_->Admit(server, s.OpDeadlineRemaining());
  SYNERGY_RETURN_IF_ERROR(d.status);
  counters_.admission_queue_wait_us->Observe(d.queue_wait_us);
  if (d.queue_wait_us > 0.0) {
    // Queueing delay is modeled time like any other cost, and it advances
    // failure detection the same way retry backoffs do.
    s.meter().Charge(d.queue_wait_us);
    failover_->PumpVirtualTime(d.queue_wait_us);
    if (obs::TraceCollector* trace = s.trace()) {
      trace->NoteCurrent("queue_wait_us", std::to_string(d.queue_wait_us));
    }
  }
  *slot = AdmissionSlot(admission_.get(), server);
  return Status::Ok();
}

Status Cluster::DropTable(const std::string& name) {
  std::unique_lock lock(tables_mutex_);
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::Ok();
}

bool Cluster::HasTable(const std::string& name) const {
  std::shared_lock lock(tables_mutex_);
  return tables_.contains(name);
}

StatusOr<Region*> Cluster::FindRegion(const std::string& table) const {
  std::shared_lock lock(tables_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  return it->second.get();
}

template <typename Body>
auto Cluster::RpcAttempt(Session& s, const char* span_name,
                         const std::string& table, bool is_write,
                         double request_us, Body&& body)
    -> std::invoke_result_t<Body&, Region*> {
  failover_->OnRpc();
  s.Count(obs::OpCounter::kRpcs);
  obs::TraceCollector* trace = s.rpc_trace();
  obs::ScopedSpan rpc_span(trace, span_name);
  if (trace != nullptr) rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(region, FindRegion(table));
  // Writes pay for their request before the server sees it, so a refused
  // write still costs its round trip; reads pay a response-sized cost in
  // their body.
  if (request_us > 0.0) s.meter().Charge(request_us);
  if (trace != nullptr) {
    rpc_span.Note("server", std::to_string(region->server_id()));
  }
  const RegionAccess access = failover_->CheckAccess(region, is_write);
  SYNERGY_RETURN_IF_ERROR(access.status);
  if (access.degraded) {
    s.Count(obs::OpCounter::kDegradedReads);
    rpc_span.Note("degraded", "1");
  }
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  // A lost or timed-out request never reached the region, so it applied
  // nothing and is safe to retry.
  SYNERGY_RETURN_IF_ERROR(
      InjectFault(fault::FaultPoint::kRegionRpcFailure, table, region));
  SYNERGY_RETURN_IF_ERROR(
      InjectFault(fault::FaultPoint::kRpcTimeout, table, region));
  return body(region);
}

Status Cluster::Put(Session& s, const std::string& table,
                    const std::string& row_key,
                    std::span<const ColumnValue> columns,
                    std::optional<int64_t> ts) {
  size_t payload = row_key.size();
  for (const ColumnValue& c : columns) {
    payload += c.qualifier.size() + c.value.size();
  }
  const double request_us =
      sim::RpcCost(model_, payload) + model_.server_seek_us;
  return RunWithRetries(s, [&] {
    return RpcAttempt(s, "rpc.put", table, /*is_write=*/true, request_us,
                      [&](Region* region) {
                        region->Put(row_key, columns, ts);
                        return InjectFault(fault::FaultPoint::kRegionRpcAckLost,
                                           table, region);
                      });
  });
}

Status Cluster::Get(Session& s, const std::string& table,
                    const std::string& row_key, RowResult* out) {
  return RunWithRetries(s, [&] {
    return RpcAttempt(
        s, "rpc.get", table, /*is_write=*/false, 0.0,
        [&](Region* region) -> Status {
          const bool found = region->Get(row_key, s.read_view(), out);
          const size_t payload = found ? out->PayloadBytes() : 0;
          s.meter().Charge(sim::RpcCost(model_, payload) +
                           model_.server_seek_us);
          if (!found) return Status::NotFound("row in " + table);
          return Status::Ok();
        });
  });
}

Status Cluster::Delete(Session& s, const std::string& table,
                       const std::string& row_key, std::optional<int64_t> ts) {
  const double request_us =
      sim::RpcCost(model_, row_key.size()) + model_.server_seek_us;
  return RunWithRetries(s, [&] {
    return RpcAttempt(s, "rpc.delete", table, /*is_write=*/true, request_us,
                      [&](Region* region) {
                        region->Delete(row_key, ts);
                        return InjectFault(fault::FaultPoint::kRegionRpcAckLost,
                                           table, region);
                      });
  });
}

StatusOr<bool> Cluster::CheckAndPut(Session& s, const std::string& table,
                                    const std::string& row_key,
                                    const std::string& qualifier,
                                    const std::optional<std::string>& expected,
                                    const std::string& new_value) {
  // No ack-lost fault here: a CAS that applies but reports failure leaves
  // its caller an ambiguity it cannot resolve. Every refusal before the
  // body applies nothing, so retrying stays safe.
  return RunWithRetries(s, [&] {
    return RpcAttempt(s, "rpc.check_and_put", table, /*is_write=*/true,
                      model_.lock_rpc_us,
                      [&](Region* region) -> StatusOr<bool> {
                        return region->CheckAndPut(row_key, qualifier,
                                                   expected, new_value);
                      });
  });
}

StatusOr<int64_t> Cluster::Increment(Session& s, const std::string& table,
                                     const std::string& row_key,
                                     const std::string& qualifier,
                                     int64_t delta) {
  const double request_us =
      sim::RpcCost(model_, row_key.size() + 16) + model_.server_seek_us;
  return RunWithRetries(s, [&] {
    return RpcAttempt(s, "rpc.increment", table, /*is_write=*/true,
                      request_us, [&](Region* region) {
                        return region->Increment(row_key, qualifier, delta);
                      });
  });
}

StatusOr<Scanner> Cluster::OpenScanner(Session& s, const std::string& table,
                                       const std::string& start,
                                       const std::string& stop) {
  SYNERGY_RETURN_IF_ERROR(FindRegion(table).status());
  return Scanner(this, &s, table, start, stop,
                 static_cast<size_t>(model_.scan_batch_rows));
}

StatusOr<ScanBatchResult> Cluster::ScanBatchRpc(Session& s,
                                                const std::string& table,
                                                const std::string& from,
                                                const std::string& stop,
                                                size_t limit) {
  return RunWithRetries(s, [&] {
    counters_.scan_batches->Inc();  // every attempt, refused ones included
    return RpcAttempt(
        s, "rpc.scan_batch", table, /*is_write=*/false, 0.0,
        [&](Region* region) -> StatusOr<ScanBatchResult> {
          ScanBatchResult batch =
              region->ScanBatch(from, stop, limit, s.read_view());
          size_t payload = 0;
          for (const RowResult& row : batch.rows) payload += row.PayloadBytes();
          double cost = sim::RpcCost(model_, payload) +
                        model_.server_scan_row_us *
                            static_cast<double>(batch.rows_examined) +
                        model_.client_row_us *
                            static_cast<double>(batch.rows.size());
          if (s.read_view().exclude != nullptr) {
            // MVCC visibility filtering work per examined row.
            cost += model_.mvcc_read_filter_row_us *
                    static_cast<double>(batch.rows_examined);
          }
          s.meter().Charge(cost);
          return batch;
        });
  });
}

bool Scanner::FetchBatch() {
  if (exhausted_) return false;
  StatusOr<ScanBatchResult> batch = cluster_->ScanBatchRpc(
      *session_, table_, next_start_, stop_, batch_rows_);
  if (!batch.ok()) {
    status_ = batch.status();
    exhausted_ = true;
    return false;
  }
  // Only the last batch can come back empty: any other stopped at its row
  // limit, and resumes at the first key it did not examine.
  buffer_ = std::move(batch->rows);
  buffer_pos_ = 0;
  exhausted_ = batch->exhausted;
  next_start_ = std::move(batch->next_start_key);
  return !buffer_.empty();
}

bool Scanner::Next(RowResult* out) {
  if (buffer_pos_ >= buffer_.size() && !FetchBatch()) return false;
  *out = std::move(buffer_[buffer_pos_++]);
  ++rows_returned_;
  return true;
}

std::vector<Region*> Cluster::AllRegions() const {
  std::shared_lock lock(tables_mutex_);
  std::vector<Region*> out;
  out.reserve(tables_.size());
  for (const auto& [name, region] : tables_) out.push_back(region.get());
  return out;
}

void Cluster::MajorCompactAll() {
  std::shared_lock lock(tables_mutex_);
  for (auto& [name, region] : tables_) {
    region->MajorCompact(region->max_versions());
  }
}

std::vector<TableSizeInfo> Cluster::SizeReport() const {
  std::shared_lock lock(tables_mutex_);
  std::vector<TableSizeInfo> out;
  out.reserve(tables_.size());
  for (const auto& [name, region] : tables_) {
    TableSizeInfo info;
    info.name = name;
    info.rows = region->RowCount();
    const size_t raw = region->ByteSize();
    // Approximate HFile framing: per-cell key/cf/qualifier/timestamp overhead.
    info.bytes = raw + static_cast<size_t>(
                           model_.hbase_overhead_per_cell *
                           static_cast<double>(info.rows) * 4.0);
    out.push_back(info);
  }
  return out;
}

size_t Cluster::ApproxRowCount(const std::string& table) const {
  StatusOr<Region*> region = FindRegion(table);
  if (!region.ok()) return 0;
  return (*region)->ApproxRowCount();
}

StatusOr<int> Cluster::RegionServerOf(const std::string& table) const {
  SYNERGY_ASSIGN_OR_RETURN(region, FindRegion(table));
  return region->server_id();
}

size_t Cluster::TotalBytes() const {
  size_t total = 0;
  for (const TableSizeInfo& info : SizeReport()) total += info.bytes;
  return total;
}

}  // namespace synergy::hbase
