// TPC-W mix driver: N concurrent clients drawing reads/writes from the
// workload's statement pool, on either arrival schedule of RunClients.
//
// Each worker thread owns a deterministically seeded ParamProvider
// (seed = base_seed ^ thread_id, fresh-id stream partitioned by thread) and
// an independent mix RNG, so a run at any thread count is replayable and
// concurrent inserts never collide on generated keys. The system under test
// is abstracted behind StatementFn; systems/harness.cc adapts the
// store-backed systems (Synergy, Baseline, MVCC-*) without this module
// depending on them.
#pragma once

#include <functional>
#include <string>
#include <vector>

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

/// Executes one bound statement on a worker's client; the outcome's cost
/// must be valid even on error (failed work still occupies the client).
using StatementFn = std::function<OpOutcome(
    const std::string& stmt_id, const std::vector<Value>& params)>;

/// Builds a worker's statement executor; runs on the worker thread, so
/// persistent client state (a session whose meter, retry budget and circuit
/// breaker survive across statements) is thread-local by construction.
using StatementFnFactory = std::function<StatementFn(int thread_id)>;

/// Runs the mix with `config.threads` concurrent clients on the configured
/// arrival schedule.
WorkloadReport RunTpcwMix(const DriverConfig& config,
                          const tpcw::ScaleConfig& scale, const MixConfig& mix,
                          const StatementFnFactory& make_exec);

}  // namespace synergy::concurrent
