// Concurrent TPC-W closed loop: N client threads per system x mix, virtual
// throughput + latency percentiles.
//
// This is the contention companion to Fig. 11/Fig. 14: single-session
// benches reproduce lock overhead as an isolated cost, here concurrent
// sessions race for the same root locks (lock retries charge virtual time,
// so contention shows up in p95/p99 and in lost throughput). Throughput is
// reported in *virtual* time — run duration is the slowest client's virtual
// clock, failed ops included — which keeps the scaling curves
// host-independent. Each client thread keeps one session for its whole run,
// so the session's meter is the client's clock. Host-time
// throughput is not reported: runs this short measure only timer noise
// (perfbench/ measures the simulator's own speed).
//
// Knobs: SYNERGY_BENCH_THREADS (max client threads, default 8; the sweep is
// {1,2,4,8} capped by it), SYNERGY_TPCW_CUSTOMERS, SYNERGY_BENCH_REPS (ops
// per thread), SYNERGY_BENCH_RESULTS_DIR / SYNERGY_BENCH_LABEL /
// SYNERGY_GIT_REV for the JSON trajectory appended to
// BENCH_concurrent_tpcw.json in SYNERGY_BENCH_RESULTS_DIR (nothing is
// appended when it is unset).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "concurrent/tpcw_mix.h"
#include "hbase/retry_policy.h"
#include "systems/harness.h"
#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "testing/fault_injector.h"

namespace {

using namespace synergy;

struct ResultRow {
  std::string system;
  std::string mix;
  int threads = 0;
  concurrent::WorkloadReport report;
};

/// One `results` entry of the trajectory row.
std::string RenderRow(const ResultRow& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"system\": \"%s\", \"mix\": \"%s\", \"threads\": %d, "
      "\"vthroughput_ops_s\": %.1f, \"p50_ms\": %.2f, \"p95_ms\": %.2f, "
      "\"p99_ms\": %.2f, \"mean_ms\": %.2f, \"errors\": %zu, "
      "\"retries\": %zu, \"degraded_ops\": %zu, \"deadline_errors\": %zu, "
      "\"rpcs_per_op\": %.1f}",
      r.system.c_str(), r.mix.c_str(), r.threads,
      r.report.goodput(), r.report.p50_ms(), r.report.p95_ms(),
      r.report.p99_ms(), r.report.mean_ms(), r.report.tally.errors,
      static_cast<size_t>(r.report.tally.counts[obs::OpCounter::kRetries]),
      r.report.tally.degraded_ops, r.report.tally.deadline_errors,
      r.report.rpcs_per_op());
  return buf;
}

}  // namespace

int main() {
  using systems::FormatMs;
  tpcw::ScaleConfig scale;
  scale.num_customers = systems::EnvCustomers(300);
  const int max_threads = systems::EnvThreads(8);
  const size_t ops_per_thread = static_cast<size_t>(systems::EnvReps(80));

  std::vector<int> sweep;
  for (const int t : {1, 2, 4, 8}) {
    if (t <= max_threads) sweep.push_back(t);
  }

  std::printf(
      "=== Concurrent TPC-W closed loop (virtual-time throughput) ===\n"
      "NUM_CUST=%lld, ops/thread=%zu, threads in {",
      static_cast<long long>(scale.num_customers), ops_per_thread);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%d", i > 0 ? "," : "", sweep[i]);
  }
  std::printf("}.\n\n");

  // Synergy gets a txn slave per client pair so distributed writes
  // overlap; Baseline (no views, Phoenix+Tephra MVCC) is the comparator.
  std::vector<std::unique_ptr<systems::StoreBackedSystem>> evaluated;
  evaluated.push_back(std::make_unique<systems::SynergyWrapper>(
      tpcw::Roots(), "Synergy", std::max(1, max_threads / 2)));
  evaluated.push_back(std::make_unique<systems::MvccSystem>(
      "Baseline", systems::MvccSystem::ViewMode::kNone));
  for (const auto& system : evaluated) {
    const Status setup = system->Setup(scale);
    if (!setup.ok()) {
      std::fprintf(stderr, "%s setup failed: %s\n", system->name().c_str(),
                   setup.ToString().c_str());
      return 1;
    }
    // Registry snapshots embedded in the row cover measured work only.
    system->cluster()->ResetMetrics();
  }

  std::vector<ResultRow> rows;
  systems::TrajectoryRun run;
  double synergy_read_t1 = 0.0, synergy_read_t4 = 0.0;
  for (const concurrent::MixConfig& mix : concurrent::StandardMixes()) {
    std::printf("--- mix: %s (read fraction %.0f%%) ---\n", mix.name.c_str(),
                mix.read_fraction * 100.0);
    systems::TablePrinter table({"system", "threads", "ops/vsec", "p50 ms",
                                 "p95 ms", "p99 ms", "mean ms", "errors",
                                 "retries", "degraded", "rpc/op"});
    for (const auto& system : evaluated) {
      for (const int threads : sweep) {
        const concurrent::WorkloadReport report = systems::MeasureConcurrent(
            *system, scale, mix,
            {.threads = threads,
             .base_seed = scale.seed ^ 0xC0FFEE,
             .ops_per_thread = ops_per_thread});
        if (report.tally.ops == 0) {
          std::fprintf(stderr, "%s/%s/%d: no op completed: %s\n",
                       system->name().c_str(), mix.name.c_str(), threads,
                       report.tally.first_error.ToString().c_str());
          return 1;
        }
        rows.push_back({system->name(), mix.name, threads, report});
        if (system->name() == "Synergy" && mix.name == "read") {
          if (threads == 1) synergy_read_t1 = report.goodput();
          if (threads == 4) synergy_read_t4 = report.goodput();
        }
        table.AddRow({system->name(), std::to_string(threads),
                      FormatMs(report.goodput()), FormatMs(report.p50_ms()),
                      FormatMs(report.p95_ms()), FormatMs(report.p99_ms()),
                      FormatMs(report.mean_ms()),
                      std::to_string(report.tally.errors),
                      std::to_string(
                          report.tally.counts[obs::OpCounter::kRetries]),
                      std::to_string(report.tally.degraded_ops),
                      FormatMs(report.rpcs_per_op())});
      }
    }
    table.Print();
    std::printf("\n");
  }

  if (synergy_read_t1 > 0.0 && synergy_read_t4 > 0.0) {
    const double scaling = synergy_read_t4 / synergy_read_t1;
    std::printf(
        "Read-mix virtual throughput scaling, Synergy 1 -> 4 threads: %.2fx "
        "(readers share the region latch; >1x expected)\n",
        scaling);
    if (scaling <= 1.0) {
      std::fprintf(stderr, "FAIL: read-mix scaling %.2fx is not > 1x\n",
                   scaling);
      return 1;
    }
  }

  // --- failover: region-server crash under the write-heavy mix ----------
  //
  // A fresh Synergy instance takes a server crash a few heartbeat rounds
  // into a write storm. Clients run with the default RetryPolicy, so RPCs
  // that land on the dead server's regions back off while the lease
  // expires, regions reassign and their WALs replay; the run must keep
  // nonzero goodput with a degraded (but finite) p99.
  {
    auto failover_sys = std::make_unique<systems::SynergyWrapper>(
        tpcw::Roots(), "Synergy", std::max(1, max_threads / 2));
    const Status setup = failover_sys->Setup(scale);
    if (!setup.ok()) {
      std::fprintf(stderr, "failover setup failed: %s\n",
                   setup.ToString().c_str());
      return 1;
    }
    failover_sys->cluster()->ResetMetrics();
    // Crash the server hosting Orders — the write mix's hottest insert
    // target — so the outage is on the critical path, not a cold shard.
    int victim = 1;
    if (StatusOr<int> host = failover_sys->cluster()->RegionServerOf("Orders");
        host.ok()) {
      victim = *host;
    }
    std::printf("--- failover: server-%d crash (hosts Orders), %s mix, "
                "%d threads ---\n",
                victim, concurrent::WriteHeavyMix().name.c_str(), max_threads);
    // Installed after load so the crash lands mid-run, not mid-population:
    // the victim dies on its third heartbeat round under client traffic.
    fault::FaultInjector faults(static_cast<uint64_t>(scale.seed) ^ 0xFA11);
    faults.AddRule({.point = fault::FaultPoint::kRegionServerCrash,
                    .probability = 1.0,
                    .skip_hits = 2,
                    .max_fires = 1,
                    .table_prefix = "",
                    .server_id = victim});
    failover_sys->cluster()->SetFaultInjector(&faults);
    failover_sys->SetRetryPolicy(hbase::RetryPolicy{});

    const concurrent::WorkloadReport report = systems::MeasureConcurrent(
        *failover_sys, scale, concurrent::WriteHeavyMix(),
        {.threads = max_threads,
         .base_seed = scale.seed ^ 0xFA11CAFE,
         .ops_per_thread = ops_per_thread});
    const obs::RegistrySnapshot snap =
        failover_sys->cluster()->metrics().Snapshot();
    std::printf(
        "goodput %.1f ops/vsec, p99 %s ms, errors %zu (deadline %zu), "
        "retries %llu, degraded reads %zu\n"
        "cluster: crashes %llu, regions reassigned %llu, WAL edits replayed "
        "%llu, writes rejected mid-reassignment %llu\n\n",
        report.goodput(), FormatMs(report.p99_ms()).c_str(),
        report.tally.errors, report.tally.deadline_errors,
        static_cast<unsigned long long>(
            report.tally.counts[obs::OpCounter::kRetries]),
        report.tally.degraded_ops,
        static_cast<unsigned long long>(
            snap.CounterValue("hbase_failover_crashes_total")),
        static_cast<unsigned long long>(
            snap.CounterValue("hbase_failover_regions_reassigned_total")),
        static_cast<unsigned long long>(
            snap.CounterValue("hbase_failover_edits_replayed_total")),
        static_cast<unsigned long long>(
            snap.CounterValue("hbase_failover_writes_rejected_total")));
    if (report.tally.ops == 0) {
      std::fprintf(stderr, "FAIL: no goodput through the server crash: %s\n",
                   report.tally.first_error.ToString().c_str());
      return 1;
    }
    rows.push_back({"Synergy+crash", "failover-write", max_threads, report});
    run.metrics.emplace_back("Synergy+crash", failover_sys->MetricsJson());
  }

  for (const auto& system : evaluated) {
    run.metrics.emplace_back(system->name(), system->MetricsJson());
  }
  run.fields = {{"num_customers", std::to_string(scale.num_customers)},
                {"ops_per_thread", std::to_string(ops_per_thread)}};
  for (const ResultRow& row : rows) run.results.push_back(RenderRow(row));
  systems::AppendTrajectoryRun(
      "BENCH_concurrent_tpcw.json",
      "Concurrent TPC-W closed-loop trajectory (see docs/BENCHMARKS.md)", run);
  return 0;
}
