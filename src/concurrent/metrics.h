// Metrics of a concurrent workload run.
//
// Each worker thread owns one Tally exclusively while it serves its
// schedule — no shared state, no locks, no atomics on the op path. After the
// workers join, the driver merges the tallies into the run's WorkloadReport.
//
// Throughput is reported in *virtual* time: the run lasts until the slowest
// client's virtual clock stops (the slowest client determines when the run
// "ends", exactly as wall-clock would on real hardware). On this repo's cost
// model that makes scaling curves host-independent: threads that contend on
// the same root lock accumulate retry charges, so contention lowers virtual
// throughput the same way it would on a real cluster.
#pragma once

#include <cstddef>

#include "common/stats.h"
#include "common/status.h"
#include "obs/op_counts.h"

namespace synergy::concurrent {

/// Result of one client operation. `virtual_us` and `counts` are valid
/// whether or not `status` is OK: failed work still occupied the client.
struct OpOutcome {
  double virtual_us = 0.0;       // simulated cost of the op
  obs::OpCounts counts{};        // RPCs, retries, degraded reads, ... (incl.
                                 // retried attempts)
  Status status = Status::Ok();  // or why the op failed
};

/// Per-op tallies of one worker thread or, merged, of a whole run.
struct Tally {
  LatencyHistogram latency_us;  // virtual µs per completed op, queue delay
                                // included
  size_t offered = 0;           // arrivals (closed loop: ops issued)
  size_t ops = 0;               // completed (successful) operations
  size_t errors = 0;            // failed operations
  size_t degraded_ops = 0;      // ops that read degraded (stale-bounded) data
  size_t deadline_errors = 0;   // errors that were deadline expirations
  size_t shed_errors = 0;       // errors that were overload rejections
  size_t abandoned = 0;         // arrivals the client dropped unstarted after
                                // waiting out max_queue_delay_us
  obs::OpCounts counts;         // every attempt's per-op counters
  double clock_us = 0.0;        // the client's virtual clock when its run
                                // ended (merged: the latest)
  Status first_error;

  /// Counts one served op that waited `queue_delay_us` before it started.
  void Record(const OpOutcome& op, double queue_delay_us);
  /// Merges another tally into this one.
  Tally& operator+=(const Tally& other);
};

/// Aggregate view of one concurrent run.
struct WorkloadReport {
  int threads = 0;
  Tally tally;                            // merged across all threads
  double offered_duration_seconds = 0.0;  // open loop: arrival horizon

  /// The run's length in simulated seconds: the slowest client's clock.
  double virtual_seconds() const { return tally.clock_us / 1e6; }
  /// Open loop: arrival rate actually generated over the horizon.
  double offered_rate() const {
    return offered_duration_seconds > 0.0
               ? static_cast<double>(tally.offered) / offered_duration_seconds
               : 0.0;
  }
  /// Successfully completed ops per simulated second (the primary,
  /// host-independent figure). Under overload this plateaus (graceful
  /// degradation) or collapses (retry storms), which is the curve
  /// bench_overload plots against offered_rate().
  double goodput() const {
    return tally.clock_us > 0.0
               ? static_cast<double>(tally.ops) / virtual_seconds()
               : 0.0;
  }
  /// Store RPCs per completed op — the client-coordination overhead figure
  /// benches report next to latency (retried and failed attempts included).
  double rpcs_per_op() const {
    return tally.ops > 0
               ? static_cast<double>(tally.counts[obs::OpCounter::kRpcs]) /
                     static_cast<double>(tally.ops)
               : 0.0;
  }
  double p50_ms() const { return tally.latency_us.Percentile(50) / 1000.0; }
  double p95_ms() const { return tally.latency_us.Percentile(95) / 1000.0; }
  double p99_ms() const { return tally.latency_us.Percentile(99) / 1000.0; }
  double mean_ms() const { return tally.latency_us.mean() / 1000.0; }
};

}  // namespace synergy::concurrent
