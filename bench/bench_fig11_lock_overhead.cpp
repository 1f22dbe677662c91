// Figure 11: overhead of two-phase row locking in HBase.
//
// One lock table with an id + boolean lock-status column; locks are
// acquired and released with checkAndPut from the client, increasing the
// number of locks in multiples of 10 starting at 10 (paper: 342 ms at 10,
// 571 ms at 100, 2182 ms at 1000 — a fixed client/HTable setup term plus a
// per-lock round-trip pair).
#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "systems/harness.h"
#include "txn/lock_manager.h"

int main() {
  using namespace synergy;
  const int reps = systems::EnvReps(10);
  std::printf(
      "=== Figure 11: two-phase row locking overhead in HBase ===\n"
      "Simulated ms to acquire + release N row locks via checkAndPut "
      "(mean over %d reps).\nPaper: 10 -> 342 ms, 100 -> 571 ms, "
      "1000 -> 2182 ms.\n\n",
      reps);
  systems::TablePrinter table({"locks", "overhead_ms", "paper_ms"});
  const double paper[] = {342, 571, 2182};
  double mean_ms[3] = {};
  int row = 0;
  for (int locks = 10; locks <= 1000; locks *= 10, ++row) {
    RunningStats overhead;
    for (int r = 0; r < reps; ++r) {
      hbase::Cluster cluster;
      txn::LockManager manager(&cluster);
      if (!manager.CreateLockTable("bench").ok()) return 1;
      hbase::Session s(&cluster);
      for (int i = 0; i < locks; ++i) {
        if (!manager.CreateLockEntry(s, "bench", "k" + std::to_string(i)).ok())
          return 1;
      }
      s.meter().Reset();
      // Client-side connection/HTable setup for the locking batch (the
      // fixed term visible at 10 locks in the paper).
      s.meter().Charge(cluster.cost_model().lock_client_setup_us);
      for (int i = 0; i < locks; ++i) {
        const std::string key = "k" + std::to_string(i);
        if (!manager.Acquire(s, "bench", key).ok()) return 1;
      }
      for (int i = 0; i < locks; ++i) {
        const std::string key = "k" + std::to_string(i);
        if (!manager.Release(s, "bench", key).ok()) return 1;
      }
      overhead.Add(s.meter().millis());
    }
    mean_ms[row] = overhead.mean();
    table.AddRow({std::to_string(locks),
                  systems::FormatMs(overhead.mean()),
                  systems::FormatMs(paper[row])});
  }
  table.Print();

  // The paper's shape, each part checked on the means printed above.
  auto verdict = [](bool holds) { return holds ? "HOLDS" : "VIOLATED"; };
  const double setup_ms = sim::CostModel().lock_client_setup_us / 1000.0;
  const double slope_low = (mean_ms[1] - mean_ms[0]) / 90.0;
  const double slope_high = (mean_ms[2] - mean_ms[1]) / 900.0;
  std::printf(
      "\nShape check: the fixed setup term (%.0f ms) is over half the "
      "10-lock overhead: %s\n",
      setup_ms, verdict(setup_ms > mean_ms[0] / 2.0));
  std::printf(
      "Shape check: growth is linear in the lock count (%.2f ms per lock "
      "from 10 to 100, %.2f from 100 to 1000, within 5%%): %s\n",
      slope_low, slope_high,
      verdict(std::abs(slope_high / slope_low - 1.0) <= 0.05));
  return 0;
}
