#include "concurrent/session_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace synergy::concurrent {

WorkloadReport RunClosedLoop(const DriverConfig& config,
                             const SessionFactory& factory) {
  const int n = config.threads > 0 ? config.threads : 1;
  std::vector<ThreadMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));

  const auto wall_start = std::chrono::steady_clock::now();
  for (int tid = 0; tid < n; ++tid) {
    workers.emplace_back([&, tid] {
      ThreadMetrics& m = metrics[static_cast<size_t>(tid)];
      const uint64_t seed = config.base_seed ^ static_cast<uint64_t>(tid);
      SessionOp op = factory(tid, seed);
      for (size_t i = 0; i < config.ops_per_thread; ++i) {
        ++m.offered;
        StatusOr<OpOutcome> outcome = op(i);
        if (!outcome.ok()) {
          ++m.errors;
          if (outcome.status().code() == StatusCode::kDeadlineExceeded) {
            ++m.deadline_errors;
          }
          if (outcome.status().code() == StatusCode::kResourceExhausted) {
            ++m.shed_errors;
          }
          if (m.first_error.ok()) m.first_error = outcome.status();
          continue;
        }
        ++m.ops;
        if (outcome->counts[obs::OpCounter::kDegradedReads] > 0) {
          ++m.degraded_ops;
        }
        m.counts += outcome->counts;
        m.busy_virtual_us += outcome->virtual_us;
        m.latency_us.Add(outcome->virtual_us);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  return Aggregate(metrics, wall_seconds);
}

WorkloadReport RunOpenLoop(const OpenLoopConfig& config,
                           const OpenLoopFactory& factory) {
  const int n = config.threads > 0 ? config.threads : 1;
  const double per_thread_rate =
      config.offered_rate_per_sec / static_cast<double>(n);
  const double mean_gap_us =
      per_thread_rate > 0.0 ? 1e6 / per_thread_rate : 1e9;
  const double horizon_us = config.duration_virtual_sec * 1e6;

  std::vector<ThreadMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));

  const auto wall_start = std::chrono::steady_clock::now();
  for (int tid = 0; tid < n; ++tid) {
    workers.emplace_back([&, tid] {
      ThreadMetrics& m = metrics[static_cast<size_t>(tid)];
      const uint64_t seed = config.base_seed ^ static_cast<uint64_t>(tid);
      OpenLoopOp op = factory(tid, seed);
      // Arrival schedule RNG, decorrelated from the op stream the factory
      // seeds (same constant convention as tpcw_mix's mix RNG).
      Rng arrivals(seed * 0x9E3779B97F4A7C15ULL + 2);
      double clock_us = 0.0;    // the client's virtual clock
      double arrival_us = 0.0;  // next scheduled arrival
      size_t op_index = 0;
      for (;;) {
        const double gap_us =
            config.arrival == ArrivalDist::kPoisson
                ? -std::log(1.0 - arrivals.UniformReal(0.0, 1.0)) *
                      mean_gap_us
                : mean_gap_us;
        arrival_us += gap_us;
        if (arrival_us > horizon_us) break;
        ++m.offered;
        // The client serves arrivals in order; an op that arrives while the
        // previous one is still running waits in queue. Queued-start
        // accounting: its latency includes that wait.
        if (clock_us < arrival_us) clock_us = arrival_us;
        const double queue_delay_us = clock_us - arrival_us;
        if (config.max_queue_delay_us > 0.0 &&
            queue_delay_us > config.max_queue_delay_us) {
          // Client-side shed: the op is already so stale that issuing it
          // would spend capacity on work nobody is waiting for.
          ++m.abandoned;
          continue;
        }
        const OpResult r = op(op_index++);
        // Failed attempts still consumed the client: their cost advances
        // the clock and deepens the backlog behind them.
        clock_us += r.outcome.virtual_us;
        m.busy_virtual_us += r.outcome.virtual_us;
        m.counts += r.outcome.counts;
        if (!r.status.ok()) {
          ++m.errors;
          if (r.status.code() == StatusCode::kDeadlineExceeded) {
            ++m.deadline_errors;
          }
          if (r.status.code() == StatusCode::kResourceExhausted) {
            ++m.shed_errors;
          }
          if (m.first_error.ok()) m.first_error = r.status;
          continue;
        }
        ++m.ops;
        if (r.outcome.counts[obs::OpCounter::kDegradedReads] > 0) {
          ++m.degraded_ops;
        }
        m.latency_us.Add(queue_delay_us + r.outcome.virtual_us);
      }
      // The run spans the arrival horizon plus whatever backlog drained
      // past it — goodput divides by this, so a system that limps through
      // a long drain tail is charged for it.
      m.span_virtual_us = std::max(clock_us, horizon_us);
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  WorkloadReport report = Aggregate(metrics, wall_seconds);
  report.offered_duration_seconds = config.duration_virtual_sec;
  return report;
}

}  // namespace synergy::concurrent
