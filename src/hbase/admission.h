// Per-region-server admission control with deadline-aware load shedding.
//
// Each region server gets a bounded budget of in-flight operations. An op
// that arrives while the budget is full joins a (virtual) queue: the
// controller estimates its queue wait from the backlog depth and the mean
// service time, charges that wait to the client's CostMeter, and admits it —
// unless the backlog already exceeds `max_queue_depth` (queue-full shed) or
// the estimated wait overshoots what is left of the op's deadline
// (deadline-aware shed: an op whose deadline is already hopeless is rejected
// *now*, before it wastes server capacity and then times out anyway). Both
// sheds surface kResourceExhausted, which the client retry layer treats as
// "back off, do not retry" — see hbase/retry_policy.h.
//
// The queue is virtual on purpose: the simulated cluster has no real server
// threads to saturate, so queueing delay is modeled the same way every other
// cost is — as virtual microseconds — which keeps bench results
// host-independent while still producing the goodput/latency curves of a
// real admission queue.
//
// The overload-burst fault point injects `burst_ops` phantom in-flight ops
// against one server; they drain one per completed real op — or one per shed
// decision, so a burst wider than inflight+queue still clears instead of
// wedging the server — making a burst behave like a transient stampede from
// elsewhere in the cluster.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace synergy::hbase {

struct AdmissionConfig {
  bool enabled = false;            // Cluster::ConfigureAdmission gates on this
  int max_inflight_per_server = 8; // concurrent ops served without queueing
  int max_queue_depth = 16;        // backlog beyond which ops are shed
  double est_service_us = 1200.0;  // mean per-op service estimate (queue wait)
  int burst_ops = 12;              // phantom ops per overload-burst fire
};

/// Verdict for one op: OK (possibly with a virtual queue wait to charge) or
/// kResourceExhausted when shed.
struct AdmissionDecision {
  Status status;
  double queue_wait_us = 0.0;  // meaningful only when status is OK
};

class AdmissionController {
 public:
  /// Publishes the `hbase_admission_*` counters into `registry` (the owning
  /// Cluster's), which must outlive the controller.
  AdmissionController(int num_servers, AdmissionConfig config,
                      obs::MetricsRegistry& registry);

  const AdmissionConfig& config() const { return config_; }

  /// Decide whether the op may proceed against `server_id`.
  /// `deadline_remaining_us` is the op's remaining virtual-time budget
  /// (+infinity when the op has no deadline). On OK the caller owns one
  /// in-flight slot and must Release it (use AdmissionSlot).
  AdmissionDecision Admit(int server_id, double deadline_remaining_us);

  /// Returns the in-flight slot taken by Admit and drains one phantom
  /// burst op, if any. (Shed decisions inside Admit also drain a phantom,
  /// so a burst clears even while every arrival is being rejected.)
  void Release(int server_id);

  /// Adds `ops` phantom in-flight ops to the server (overload-burst fault).
  void InjectBurst(int server_id, int ops);

  /// Current occupancy (in-flight + phantom burst) of one server.
  int Occupancy(int server_id) const;

 private:
  struct ServerLoad {
    int inflight = 0;  // real admitted ops not yet released
    int burst = 0;     // phantom ops injected by overload-burst
  };

  AdmissionConfig config_;
  obs::Counter* admitted_;
  obs::Counter* queued_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_deadline_;
  obs::Counter* burst_ops_injected_;
  mutable std::mutex mutex_;
  std::vector<ServerLoad> servers_;
};

/// RAII in-flight slot: releases on destruction. Default-constructed slots
/// own nothing (op was not admitted through a controller).
class AdmissionSlot {
 public:
  AdmissionSlot() = default;
  AdmissionSlot(AdmissionController* controller, int server_id)
      : controller_(controller), server_id_(server_id) {}

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  AdmissionSlot(AdmissionSlot&& other) noexcept { *this = std::move(other); }
  AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
    Release();
    controller_ = other.controller_;
    server_id_ = other.server_id_;
    other.controller_ = nullptr;
    return *this;
  }
  ~AdmissionSlot() { Release(); }

  void Release() {
    if (controller_ != nullptr) {
      controller_->Release(server_id_);
      controller_ = nullptr;
    }
  }

 private:
  AdmissionController* controller_ = nullptr;
  int server_id_ = -1;
};

}  // namespace synergy::hbase
