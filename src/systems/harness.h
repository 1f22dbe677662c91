// Benchmark harness helpers: repetition/measurement (mean + standard error
// over N runs, as the paper reports) and fixed-width table printing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "concurrent/tpcw_mix.h"
#include "systems/evaluated_system.h"
#include "systems/store_backed_system.h"
#include "tpcw/generator.h"

namespace synergy::systems {

struct Measurement {
  RunningStats rt_ms;
  size_t rows = 0;
  bool supported = true;
  Status error;  // first error, if any
};

/// Runs `stmt_id` `reps` times with freshly drawn parameters and collects
/// response-time statistics.
Measurement MeasureStatement(EvaluatedSystem& system,
                             tpcw::ParamProvider& params,
                             const std::string& stmt_id, int reps);

/// Runs `mix` on the driver's schedule (closed or open loop). Each worker
/// thread gets one persistent client from system.MakeClient(), so its
/// meter is the client's virtual clock and its retry budget and circuit
/// breaker accumulate state across statements.
concurrent::WorkloadReport MeasureConcurrent(
    StoreBackedSystem& system, const tpcw::ScaleConfig& scale,
    const concurrent::MixConfig& mix, const concurrent::DriverConfig& config);

/// One run object of a committed bench trajectory
/// (bench-results/BENCH_<name>.json).
struct TrajectoryRun {
  /// Run-level fields after timestamp/git_rev/label, as rendered JSON
  /// values (numbers bare, strings quoted).
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::string> results;  // one rendered JSON object per row
  /// Registry snapshot (rendered JSON) per system name.
  std::vector<std::pair<std::string, std::string>> metrics;
};

/// Appends `run`, stamped with the UTC time, SYNERGY_GIT_REV and
/// SYNERGY_BENCH_LABEL, to the `runs` array of `file` in the directory
/// SYNERGY_BENCH_RESULTS_DIR names; with the variable unset it appends
/// nothing and says so. A missing file is created with `description`.
/// Prints where the datapoint went, or a warning if it could not be written.
void AppendTrajectoryRun(const std::string& file,
                         const std::string& description,
                         const TrajectoryRun& run);

/// "123.4" / "1.2e+04"-style compact ms formatting for table cells.
std::string FormatMs(double ms);

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 12);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int col_width_;
};

/// Environment knobs shared by every bench binary.
int64_t EnvCustomers(int64_t default_value);   // SYNERGY_TPCW_CUSTOMERS
int EnvReps(int default_value);                // SYNERGY_BENCH_REPS
int EnvThreads(int default_value);             // SYNERGY_BENCH_THREADS

}  // namespace synergy::systems
