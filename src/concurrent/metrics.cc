#include "concurrent/metrics.h"

#include <algorithm>

namespace synergy::concurrent {

WorkloadReport Aggregate(const std::vector<ThreadMetrics>& per_thread,
                         double wall_seconds) {
  WorkloadReport report;
  report.threads = static_cast<int>(per_thread.size());
  report.wall_seconds = wall_seconds;
  double max_busy_us = 0.0;
  double max_span_us = 0.0;
  for (const ThreadMetrics& t : per_thread) {
    report.total_offered += t.offered;
    report.total_ops += t.ops;
    report.total_errors += t.errors;
    report.total_degraded_ops += t.degraded_ops;
    report.total_deadline_errors += t.deadline_errors;
    report.total_shed_errors += t.shed_errors;
    report.total_abandoned += t.abandoned;
    report.counts += t.counts;
    report.latency_us.Merge(t.latency_us);
    max_busy_us = std::max(max_busy_us, t.busy_virtual_us);
    max_span_us = std::max(max_span_us, t.span_virtual_us);
    if (report.first_error.ok() && !t.first_error.ok()) {
      report.first_error = t.first_error;
    }
  }
  // Open-loop threads report a span (arrival horizon + backlog drain);
  // closed-loop threads only accumulate busy time.
  report.virtual_seconds =
      (max_span_us > 0.0 ? max_span_us : max_busy_us) / 1e6;
  return report;
}

}  // namespace synergy::concurrent
