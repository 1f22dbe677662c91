// Closed-loop TPC-W mix driver: N concurrent clients drawing reads/writes
// from the workload's statement pool.
//
// Each worker thread owns a deterministically seeded ParamProvider
// (seed = base_seed ^ thread_id, fresh-id stream partitioned by thread) and
// an independent mix RNG, so a run at any thread count is replayable and
// concurrent inserts never collide on generated keys. The system under test
// is abstracted behind StatementExecFn; systems/harness.cc adapts
// EvaluatedSystem so every system (Synergy, Baseline, MVCC-*) can be driven
// without this module depending on them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "concurrent/session_driver.h"
#include "tpcw/generator.h"

namespace synergy::concurrent {

/// A read/write statement mix: an op is a read with probability
/// `read_fraction`, and the statement is drawn uniformly from the
/// corresponding pool.
struct MixConfig {
  std::string name;
  double read_fraction = 1.0;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

/// The three standard mixes of the concurrent bench. Reads span cheap
/// single-table lookups and the order-display / cart joins; writes center
/// on the ordering path (Orders/Order_line/Shopping_cart inserts, Customer
/// and cart updates) so concurrent clients contend on root locks.
MixConfig ReadOnlyMix();
MixConfig MixedMix(double read_fraction = 0.8);
MixConfig WriteHeavyMix();
std::vector<MixConfig> StandardMixes();

/// Executes one bound statement for a client thread; returns the op outcome
/// (virtual µs plus per-op counters).
using StatementExecFn = std::function<StatusOr<OpOutcome>(
    int thread_id, const std::string& stmt_id,
    const std::vector<Value>& params)>;

/// Runs the closed-loop mix with `driver.threads` concurrent clients.
WorkloadReport RunTpcwMix(const DriverConfig& driver,
                          const tpcw::ScaleConfig& scale,
                          const MixConfig& mix, const StatementExecFn& exec);

/// Executes one bound statement for an open-loop client; the outcome's cost
/// must be valid even on error (failed work still occupies the client).
using OpenStatementExecFn = std::function<OpResult(
    const std::string& stmt_id, const std::vector<Value>& params)>;

/// Builds the per-thread statement executor for the open loop; runs on the
/// worker thread, so persistent client state (a session whose retry budget
/// and circuit breaker survive across statements) is thread-local by
/// construction.
using OpenExecFactory = std::function<OpenStatementExecFn(int thread_id)>;

/// Runs the open-loop (arrival-rate) mix: same statement/parameter draw as
/// the closed loop, driven by RunOpenLoop's virtual-time arrival schedule.
WorkloadReport RunTpcwMixOpenLoop(const OpenLoopConfig& config,
                                  const tpcw::ScaleConfig& scale,
                                  const MixConfig& mix,
                                  const OpenExecFactory& make_exec);

}  // namespace synergy::concurrent
