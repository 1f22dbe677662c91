#include "concurrent/tpcw_mix.h"

#include "common/rng.h"

namespace synergy::concurrent {

MixConfig ReadOnlyMix() {
  return MixConfig{
      .name = "read",
      .read_fraction = 1.0,
      .reads = {"S1", "S2", "S6", "S7", "Q1", "Q8"},
      .writes = {},
  };
}

MixConfig MixedMix(double read_fraction) {
  return MixConfig{
      .name = "mixed",
      .read_fraction = read_fraction,
      .reads = {"S1", "S2", "S6", "S7", "Q1", "Q8"},
      .writes = {"W1", "W3", "W6", "W7", "W11", "W13"},
  };
}

MixConfig WriteHeavyMix() {
  return MixConfig{
      .name = "write",
      .read_fraction = 0.2,
      .reads = {"S1", "S2", "S7"},
      .writes = {"W1", "W3", "W6", "W7", "W11", "W13"},
  };
}

std::vector<MixConfig> StandardMixes() {
  return {ReadOnlyMix(), MixedMix(), WriteHeavyMix()};
}

WorkloadReport RunTpcwMix(const DriverConfig& config,
                          const tpcw::ScaleConfig& scale, const MixConfig& mix,
                          const StatementFnFactory& make_exec) {
  return RunClients(config, [&](int thread_id, uint64_t seed) -> ClientOp {
    // All thread-local state lives in the op closure; the factory runs on
    // the worker thread itself.
    tpcw::ParamProvider params(scale, seed);
    params.PartitionFreshIds(thread_id, config.threads);
    // Decorrelate the mix RNG from the parameter RNG (same base seed would
    // replay the same stream).
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    return [&mix, params, rng,
            exec = make_exec(thread_id)](size_t) mutable -> OpOutcome {
      const bool is_read =
          mix.writes.empty() ||
          (!mix.reads.empty() && rng.UniformReal(0.0, 1.0) < mix.read_fraction);
      const std::vector<std::string>& pool = is_read ? mix.reads : mix.writes;
      const std::string& stmt_id = pool[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
      StatusOr<std::vector<Value>> bound = params.ParamsFor(stmt_id);
      if (!bound.ok()) return OpOutcome{.status = bound.status()};
      return exec(stmt_id, *bound);
    };
  });
}

}  // namespace synergy::concurrent
