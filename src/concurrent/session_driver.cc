#include "concurrent/session_driver.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace synergy::concurrent {

WorkloadReport RunClients(const DriverConfig& config,
                          const ClientFactory& factory) {
  const int n = config.threads > 0 ? config.threads : 1;
  const bool closed = config.arrival == ArrivalDist::kClosed;
  const double per_thread_rate =
      config.offered_rate_per_sec / static_cast<double>(n);
  const double mean_gap_us =
      per_thread_rate > 0.0 ? 1e6 / per_thread_rate : 1e9;
  const double horizon_us = closed ? 0.0 : config.duration_virtual_sec * 1e6;

  std::vector<Tally> tallies(static_cast<size_t>(n));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    workers.emplace_back([&, tid] {
      Tally& t = tallies[static_cast<size_t>(tid)];
      const uint64_t seed = config.base_seed ^ static_cast<uint64_t>(tid);
      ClientOp op = factory(tid, seed);
      // Arrival schedule RNG, decorrelated from the op stream the factory
      // seeds (same constant convention as tpcw_mix's mix RNG).
      Rng arrivals(seed * 0x9E3779B97F4A7C15ULL + 2);
      double clock_us = 0.0;    // the client's virtual clock
      double arrival_us = 0.0;  // the op's scheduled arrival
      size_t op_index = 0;
      for (;;) {
        if (closed) {
          if (t.offered == config.ops_per_thread) break;
          arrival_us = clock_us;
        } else {
          arrival_us += config.arrival == ArrivalDist::kPoisson
                            ? -std::log(1.0 - arrivals.UniformReal(0.0, 1.0)) *
                                  mean_gap_us
                            : mean_gap_us;
          if (arrival_us > horizon_us) break;
        }
        ++t.offered;
        // The client serves arrivals in order; an op that arrives while the
        // previous one is still running waits in queue. Queued-start
        // accounting: its latency includes that wait.
        clock_us = std::max(clock_us, arrival_us);
        const double queue_delay_us = clock_us - arrival_us;
        if (config.max_queue_delay_us > 0.0 &&
            queue_delay_us > config.max_queue_delay_us) {
          // Client-side shed: the op is already so stale that issuing it
          // would spend capacity on work nobody is waiting for.
          ++t.abandoned;
          continue;
        }
        const OpOutcome outcome = op(op_index++);
        // Failed attempts still consumed the client: their cost advances
        // the clock and deepens the backlog behind them.
        clock_us += outcome.virtual_us;
        t.Record(outcome, queue_delay_us);
      }
      // The run spans the arrival horizon plus whatever backlog drained
      // past it — goodput divides by this, so a system that limps through
      // a long drain tail is charged for it.
      t.clock_us = std::max(clock_us, horizon_us);
    });
  }
  for (std::thread& w : workers) w.join();

  WorkloadReport report;
  report.threads = n;
  for (const Tally& t : tallies) report.tally += t;
  report.offered_duration_seconds = closed ? 0.0 : config.duration_virtual_sec;
  return report;
}

}  // namespace synergy::concurrent
