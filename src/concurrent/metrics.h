// Metrics collection for concurrent workload runs.
//
// Each worker thread owns a ThreadMetrics instance exclusively while its
// closed loop runs — no shared state, no locks, no atomics on the op path.
// After the workers join, the driver merges them into a WorkloadReport.
//
// Throughput is reported in *virtual* time: the run's duration is the
// maximum over threads of per-thread virtual busy time (the slowest client
// determines when the run "ends", exactly as wall-clock would on real
// hardware). On this repo's cost model that makes scaling curves
// host-independent: threads that contend on the same root lock accumulate
// retry charges, so contention lowers virtual throughput the same way it
// would on a real cluster. Wall-clock throughput is also recorded, but on a
// single-vCPU host it measures the simulator, not the modeled system.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "obs/op_counts.h"

namespace synergy::concurrent {

/// Result of one client operation: its virtual cost plus the per-op
/// counters it consumed.
struct OpOutcome {
  double virtual_us = 0.0;  // simulated cost of the op
  obs::OpCounts counts{};   // RPCs, retries, degraded reads, ... (incl.
                            // retried attempts)
};

/// Per-worker-thread counters; exclusively owned by one thread during the
/// run, merged after join.
struct ThreadMetrics {
  LatencyHistogram latency_us;  // virtual µs per completed operation
  size_t offered = 0;           // operations issued (closed) / arrived (open)
  size_t ops = 0;               // completed (successful) operations
  size_t errors = 0;            // failed operations
  size_t degraded_ops = 0;      // ops that read degraded (stale-bounded) data
  size_t deadline_errors = 0;   // errors that were deadline expirations
  size_t shed_errors = 0;       // errors that were overload rejections
  size_t abandoned = 0;         // open loop: ops dropped by the client after
                                // waiting out max_queue_delay_us unstarted
  obs::OpCounts counts;         // per-op counters: closed loop sums the
                                // successful ops, open loop every attempt
  double busy_virtual_us = 0.0; // sum of per-op virtual time on this thread
  double span_virtual_us = 0.0; // open loop: thread clock when the run ended
                                // (arrival horizon plus backlog drain)
  Status first_error = Status::Ok();
};

/// Aggregate view of one concurrent run.
struct WorkloadReport {
  int threads = 0;
  size_t total_offered = 0;
  size_t total_ops = 0;
  size_t total_errors = 0;
  size_t total_degraded_ops = 0;   // ops served from a degraded region
  size_t total_deadline_errors = 0;  // errors that were deadline expirations
  size_t total_shed_errors = 0;      // errors that were overload rejections
  size_t total_abandoned = 0;        // open loop: client-abandoned arrivals
  obs::OpCounts counts;              // per-op counters across all threads
  double wall_seconds = 0.0;
  double virtual_seconds = 0.0;  // open loop: max thread span; closed loop:
                                 // max busy virtual time
  double offered_duration_seconds = 0.0;  // open loop: arrival horizon
  LatencyHistogram latency_us;   // merged across all threads
  Status first_error = Status::Ok();

  /// Operations per simulated second (the primary, host-independent figure).
  double virtual_throughput() const {
    return virtual_seconds > 0.0
               ? static_cast<double>(total_ops) / virtual_seconds
               : 0.0;
  }
  /// Open loop: arrival rate actually generated over the horizon.
  double offered_rate() const {
    return offered_duration_seconds > 0.0
               ? static_cast<double>(total_offered) / offered_duration_seconds
               : 0.0;
  }
  /// Successfully completed ops per simulated second — under overload this
  /// plateaus (graceful degradation) or collapses (retry storms), which is
  /// the curve bench_overload plots against offered_rate().
  double goodput() const { return virtual_throughput(); }
  /// Store RPCs per completed op — the client-coordination overhead figure
  /// benches report next to latency (retried attempts included).
  double rpcs_per_op() const {
    return total_ops > 0
               ? static_cast<double>(counts[obs::OpCounter::kRpcs]) /
                     static_cast<double>(total_ops)
               : 0.0;
  }
  double p50_ms() const { return latency_us.Percentile(50) / 1000.0; }
  double p95_ms() const { return latency_us.Percentile(95) / 1000.0; }
  double p99_ms() const { return latency_us.Percentile(99) / 1000.0; }
  double mean_ms() const { return latency_us.mean() / 1000.0; }
};

/// Merges per-thread metrics into a run report.
WorkloadReport Aggregate(const std::vector<ThreadMetrics>& per_thread,
                         double wall_seconds);

}  // namespace synergy::concurrent
