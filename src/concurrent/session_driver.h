// Worker-thread driver for concurrent client sessions.
//
// RunClients spawns N OS threads, one client each. Each thread asks the
// factory for its own op closure (the factory runs *on the worker thread*,
// so any state it builds — RNG, parameter provider, session — is
// thread-local by construction), then serves its arrivals in order on its
// own virtual clock. The closed and the open loop are one system that
// differs only in its arrival process (Schroeder, Wierman and
// Harchol-Balter, "Open Versus Closed: A Cautionary Tale", NSDI 2006):
//
//  - closed: the next op arrives when the client is free (zero think time,
//    so zero queue delay), for a fixed number of ops;
//  - open: arrivals follow a Poisson or uniform virtual-time schedule at an
//    offered rate, up to a horizon, whatever the system's progress.
//
// In both, every attempt's cost advances the client's clock and every
// attempt's counters reach the report, failed ops included. Per-thread
// determinism comes from the seed convention: everything a thread
// randomizes must derive from `base_seed ^ thread_id`, so a run is
// replayable at any thread count.
//
// The driver deliberately knows nothing about SQL, TPC-W, or the systems
// under test: an operation is just a callback returning its outcome.
// tpcw_mix.h builds TPC-W mixes on top; systems/harness.cc drives the
// store-backed systems through it. This keeps the driver's dependencies to
// common/ and the obs/ counter schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "concurrent/metrics.h"

namespace synergy::concurrent {

/// Arrival process of each client's schedule.
enum class ArrivalDist {
  kClosed,   // next arrival = the client's clock (closed loop)
  kPoisson,  // exponential gaps (memoryless arrivals; the realistic default
             // of the open loop)
  kUniform,  // constant gaps (isolates queueing from arrival burstiness)
};

/// One run of N clients. Open-loop latency is accounted from the *scheduled
/// arrival*, not from when the op actually started (queued-start
/// accounting): an op that sat behind a backlog reports queue delay +
/// service time. This avoids coordinated omission — a driver that only
/// times service would silently under-report exactly when the system is
/// slowest.
struct DriverConfig {
  int threads = 1;
  /// Per-thread seed = base_seed ^ thread_id (thread ids are 0..N-1).
  uint64_t base_seed = 7;
  ArrivalDist arrival = ArrivalDist::kClosed;
  /// Closed loop: ops each client issues.
  size_t ops_per_thread = 100;
  /// Open loop: aggregate offered arrival rate, ops per virtual second,
  /// split evenly across threads (each thread is an independent arrival
  /// process).
  double offered_rate_per_sec = 100.0;
  /// Open loop: arrival horizon per thread, virtual seconds. Threads keep
  /// draining their backlog past the horizon; the drain tail counts toward
  /// the run's virtual duration.
  double duration_virtual_sec = 10.0;
  /// > 0: client-side shedding — an op whose queue delay already exceeds
  /// this is abandoned without being issued (counted, not an error). 0
  /// disables (every arrival is executed no matter how stale).
  double max_queue_delay_us = 0.0;
};

/// One client operation; runs on a worker thread, `op_index` counts that
/// thread's issued ops from 0.
using ClientOp = std::function<OpOutcome(size_t op_index)>;

/// Builds the op closure for one worker thread; invoked on the worker
/// thread itself. Receives the thread id and the thread's seed
/// (base_seed ^ thread_id).
using ClientFactory = std::function<ClientOp(int thread_id, uint64_t seed)>;

/// Runs the clients and merges their tallies. Operation errors are counted
/// (first one retained in the report), not fatal: a contended run where
/// some writes abort still reports the goodput it achieved.
WorkloadReport RunClients(const DriverConfig& config,
                          const ClientFactory& factory);

}  // namespace synergy::concurrent
