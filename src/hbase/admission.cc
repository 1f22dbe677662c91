#include "hbase/admission.h"

#include <algorithm>
#include <string>

namespace synergy::hbase {

AdmissionController::AdmissionController(int num_servers,
                                         AdmissionConfig config,
                                         obs::MetricsRegistry& r)
    : config_(config),
      servers_(static_cast<size_t>(std::max(num_servers, 1))) {
  admitted_ = r.GetCounter("hbase_admission_admitted_total",
                           "ops admitted (incl. queued)");
  queued_ = r.GetCounter("hbase_admission_queued_total",
                         "ops admitted after a virtual queue wait");
  shed_queue_full_ = r.GetCounter("hbase_admission_shed_queue_full_total",
                                  "ops shed: backlog at max_queue_depth");
  shed_deadline_ = r.GetCounter("hbase_admission_shed_deadline_total",
                                "ops shed: deadline already hopeless");
  burst_ops_injected_ =
      r.GetCounter("hbase_admission_burst_ops_total",
                   "phantom ops injected by overload-burst faults");
}

AdmissionDecision AdmissionController::Admit(int server_id,
                                             double deadline_remaining_us) {
  std::lock_guard lock(mutex_);
  ServerLoad& server = servers_.at(static_cast<size_t>(server_id));
  const int occupancy = server.inflight + server.burst;
  if (occupancy < config_.max_inflight_per_server) {
    ++server.inflight;
    admitted_->Inc();
    return {Status::Ok(), 0.0};
  }
  const int queue_len = occupancy - config_.max_inflight_per_server;
  if (queue_len >= config_.max_queue_depth) {
    shed_queue_full_->Inc();
    // A shed also drains one phantom burst op: the server spent that slot of
    // attention serving the stampede. Without this, a burst larger than
    // inflight+queue would wedge the server forever — nothing could be
    // admitted, so nothing would ever Release and drain the phantoms.
    if (server.burst > 0) --server.burst;
    return {Status::ResourceExhausted(
                "server " + std::to_string(server_id) +
                " admission queue full (" + std::to_string(queue_len) +
                " waiting)"),
            0.0};
  }
  // Position in queue -> estimated wait. Shedding the op whose deadline the
  // wait already blows is the cheapest point to fail it: no server capacity
  // spent, and the client learns immediately instead of at its deadline.
  const double est_wait_us =
      static_cast<double>(queue_len + 1) * config_.est_service_us;
  if (est_wait_us > deadline_remaining_us) {
    shed_deadline_->Inc();
    if (server.burst > 0) --server.burst;  // see queue-full shed above
    return {Status::ResourceExhausted(
                "server " + std::to_string(server_id) +
                " overloaded: estimated queue wait " +
                std::to_string(static_cast<int64_t>(est_wait_us)) +
                "us exceeds remaining deadline"),
            0.0};
  }
  ++server.inflight;
  admitted_->Inc();
  queued_->Inc();
  return {Status::Ok(), est_wait_us};
}

void AdmissionController::Release(int server_id) {
  std::lock_guard lock(mutex_);
  ServerLoad& server = servers_.at(static_cast<size_t>(server_id));
  if (server.inflight > 0) --server.inflight;
  if (server.burst > 0) --server.burst;
}

void AdmissionController::InjectBurst(int server_id, int ops) {
  if (ops <= 0) return;
  std::lock_guard lock(mutex_);
  servers_.at(static_cast<size_t>(server_id)).burst += ops;
  burst_ops_injected_->Inc(static_cast<uint64_t>(ops));
}

int AdmissionController::Occupancy(int server_id) const {
  std::lock_guard lock(mutex_);
  const ServerLoad& server = servers_.at(static_cast<size_t>(server_id));
  return server.inflight + server.burst;
}

}  // namespace synergy::hbase
