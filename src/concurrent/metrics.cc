#include "concurrent/metrics.h"

#include <algorithm>

namespace synergy::concurrent {

void Tally::Record(const OpOutcome& op, double queue_delay_us) {
  counts += op.counts;
  if (!op.status.ok()) {
    ++errors;
    if (op.status.code() == StatusCode::kDeadlineExceeded) ++deadline_errors;
    if (op.status.code() == StatusCode::kResourceExhausted) ++shed_errors;
    if (first_error.ok()) first_error = op.status;
    return;
  }
  ++ops;
  if (op.counts[obs::OpCounter::kDegradedReads] > 0) ++degraded_ops;
  latency_us.Add(queue_delay_us + op.virtual_us);
}

Tally& Tally::operator+=(const Tally& other) {
  latency_us.Merge(other.latency_us);
  offered += other.offered;
  ops += other.ops;
  errors += other.errors;
  degraded_ops += other.degraded_ops;
  deadline_errors += other.deadline_errors;
  shed_errors += other.shed_errors;
  abandoned += other.abandoned;
  counts += other.counts;
  clock_us = std::max(clock_us, other.clock_us);
  if (first_error.ok()) first_error = other.first_error;
  return *this;
}

}  // namespace synergy::concurrent
