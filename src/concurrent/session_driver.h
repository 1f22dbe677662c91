// Closed-loop worker-thread driver for concurrent sessions.
//
// RunClosedLoop spawns N OS threads. Each thread asks the factory for its
// own op closure (the factory runs *on the worker thread*, so any state it
// builds — RNG, parameter provider, session — is thread-local by
// construction), then executes a fixed number of operations back-to-back
// with zero think time. Per-thread determinism comes from the seed
// convention: everything a thread randomizes must derive from
// `base_seed ^ thread_id`, so a run is replayable at any thread count.
//
// The driver deliberately knows nothing about SQL, TPC-W, or the systems
// under test: an operation is just a callback returning the op's virtual
// cost in microseconds and its per-op counters (or an error). tpcw_mix.h
// builds TPC-W mixes on top; systems/harness.cc adapts EvaluatedSystem.
// This keeps the driver's dependencies to common/ and the obs/ counter
// schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/status.h"
#include "concurrent/metrics.h"

namespace synergy::concurrent {

struct DriverConfig {
  int threads = 1;
  size_t ops_per_thread = 100;
  /// Per-thread seed = base_seed ^ thread_id (thread ids are 0..N-1).
  uint64_t base_seed = 7;
};

/// One client operation; returns the op's outcome (virtual µs cost plus its
/// per-op counters; ops without counters return `OpOutcome{cost_us}`).
/// Runs on a worker thread, `op_index` counts that thread's ops from 0.
using SessionOp = std::function<StatusOr<OpOutcome>(size_t op_index)>;

/// Builds the op closure for one worker thread; invoked on the worker
/// thread itself. Receives the thread id and the thread's seed
/// (base_seed ^ thread_id).
using SessionFactory = std::function<SessionOp(int thread_id, uint64_t seed)>;

/// Runs the closed loop and aggregates per-thread metrics. Operation errors
/// are counted (first one retained in the report), not fatal: a contended
/// run where some writes abort still reports the throughput it achieved.
WorkloadReport RunClosedLoop(const DriverConfig& config,
                             const SessionFactory& factory);

// ---------------------------------------------------------- open loop ----

/// Inter-arrival distribution of the open-loop schedule.
enum class ArrivalDist {
  kPoisson,  // exponential gaps (memoryless arrivals; the realistic default)
  kUniform,  // constant gaps (isolates queueing from arrival burstiness)
};

/// Open-loop (arrival-rate) load generation. Unlike the closed loop — where
/// a slow system implicitly throttles its own clients — arrivals here follow
/// a fixed virtual-time schedule that does not care how the system is doing,
/// which is how production traffic behaves and what exposes the goodput
/// cliff past saturation.
///
/// Latency is accounted from the *scheduled arrival*, not from when the op
/// actually started (queued-start accounting): an op that sat behind a
/// backlog reports queue delay + service time. This avoids coordinated
/// omission — a driver that only times service would silently under-report
/// exactly when the system is slowest.
struct OpenLoopConfig {
  int threads = 1;
  /// Aggregate offered arrival rate, ops per virtual second, split evenly
  /// across threads (each thread is an independent arrival process).
  double offered_rate_per_sec = 100.0;
  /// Arrival horizon per thread, virtual seconds. Threads keep draining
  /// their backlog past the horizon; the drain tail counts toward the
  /// run's virtual duration (span).
  double duration_virtual_sec = 10.0;
  ArrivalDist arrival = ArrivalDist::kPoisson;
  /// Per-thread seed = base_seed ^ thread_id, as in the closed loop.
  uint64_t base_seed = 7;
  /// > 0: client-side shedding — an op whose queue delay already exceeds
  /// this is abandoned without being issued (counted, not an error). 0
  /// disables (every arrival is executed no matter how stale).
  double max_queue_delay_us = 0.0;
};

/// One open-loop attempt: the status plus the virtual cost consumed *even
/// when the op failed* — failed work still occupies the client, which is
/// exactly what makes retry storms eat goodput.
struct OpResult {
  OpResult(Status s, OpOutcome o) : status(std::move(s)), outcome(o) {}
  OpResult(OpOutcome o) : outcome(o) {}  // NOLINT: implicit success
  Status status;
  OpOutcome outcome;
};

using OpenLoopOp = std::function<OpResult(size_t op_index)>;
using OpenLoopFactory = std::function<OpenLoopOp(int thread_id, uint64_t seed)>;

/// Runs the open-loop schedule and aggregates per-thread metrics. Reported
/// latencies are queue delay + service time for successful ops; offered,
/// abandoned, shed and error counts are tracked separately so goodput can
/// be compared against the offered rate.
WorkloadReport RunOpenLoop(const OpenLoopConfig& config,
                           const OpenLoopFactory& factory);

}  // namespace synergy::concurrent
