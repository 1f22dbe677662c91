// Overload robustness: open-loop arrival-rate sweep under -> past saturation,
// with the protection stack (admission control + load shedding + retry
// budgets + circuit breaker + client abandon) on vs off.
//
// The closed-loop benches cannot see the overload cliff: a slow system
// throttles its own clients, so offered load never exceeds capacity. Here
// each client thread follows a fixed virtual-time arrival schedule
// (Poisson by default) that does not care how the system is doing, and
// latency is accounted from the scheduled arrival (queued-start), so queue
// delay past saturation shows up instead of being coordinated-omitted away.
//
// Each system is first calibrated with a short closed-loop run of the same
// driver to estimate its saturation throughput; the sweep offers multiples
// of that estimate.
// Every point runs under a light rpc-timeout drizzle plus overload-burst
// fires (same fault seed in both configs), so the unprotected config can
// amplify transient faults into retry storms while the protected config
// sheds, bounds retries and fails fast:
//
//   unprotected: default retry policy (unlimited budget, 10s deadline),
//                no admission control, clients never abandon.
//   protected:   admission control with deadline-aware shedding on every
//                region server, token-bucket retry budget, circuit breaker,
//                2s op deadline, client abandon past 2s queue delay.
//
// At >= 1.5x saturation the protected config must keep goodput at least as
// high as the unprotected one with a strictly lower p99 for admitted ops —
// the bench exits nonzero otherwise.
//
// Knobs: SYNERGY_TPCW_CUSTOMERS, SYNERGY_BENCH_THREADS (open-loop client
// threads), SYNERGY_BENCH_RATE (comma-separated multipliers of the measured
// saturation rate, default "0.7,1.0,1.5,2.0"), SYNERGY_OVERLOAD_ARRIVAL
// (poisson|uniform), SYNERGY_OVERLOAD_SHED (on|off|both: which protection
// configs to run), SYNERGY_OVERLOAD_DURATION (virtual seconds of arrivals
// per point), SYNERGY_BENCH_RESULTS_DIR / SYNERGY_BENCH_LABEL /
// SYNERGY_GIT_REV for the JSON trajectory appended to
// bench-results/BENCH_overload.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "concurrent/tpcw_mix.h"
#include "hbase/admission.h"
#include "hbase/retry_policy.h"
#include "systems/harness.h"
#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "testing/fault_injector.h"

namespace {

using namespace synergy;

struct ResultRow {
  std::string system;
  std::string config;  // "protected" | "unprotected"
  double rate_multiplier = 0.0;
  double offered_rate = 0.0;
  concurrent::WorkloadReport report;
};

std::vector<double> RateMultipliers() {
  const char* env = std::getenv("SYNERGY_BENCH_RATE");
  const std::string spec = env != nullptr ? env : "0.7,1.0,1.5,2.0";
  std::vector<double> out;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const double v = std::atof(tok.c_str());
    if (v > 0.0) out.push_back(v);
  }
  if (out.empty()) out = {0.7, 1.0, 1.5, 2.0};
  return out;
}

concurrent::ArrivalDist ArrivalFromEnv() {
  const char* env = std::getenv("SYNERGY_OVERLOAD_ARRIVAL");
  if (env != nullptr && std::strcmp(env, "uniform") == 0) {
    return concurrent::ArrivalDist::kUniform;
  }
  return concurrent::ArrivalDist::kPoisson;
}

/// Which protection configs to run: {"unprotected"}, {"protected"}, or both.
std::vector<bool> ShedConfigsFromEnv() {
  const char* env = std::getenv("SYNERGY_OVERLOAD_SHED");
  if (env != nullptr && std::strcmp(env, "on") == 0) return {true};
  if (env != nullptr && std::strcmp(env, "off") == 0) return {false};
  return {false, true};
}

double DurationFromEnv() {
  const char* env = std::getenv("SYNERGY_OVERLOAD_DURATION");
  if (env == nullptr) return 2.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 2.0;
}

/// Arms the shared fault drizzle: a light rpc-timeout storm (the transient
/// the unprotected retry loop amplifies) plus periodic overload bursts (the
/// stampede the admission controller absorbs). Fresh injector per run, same
/// seed everywhere, so both configs face the identical schedule.
std::unique_ptr<fault::FaultInjector> MakeDrizzle(uint64_t seed) {
  auto faults = std::make_unique<fault::FaultInjector>(seed);
  faults->AddRule({.point = fault::FaultPoint::kRpcTimeout,
                   .probability = 0.05,
                   .skip_hits = 0,
                   .max_fires = -1,
                   .table_prefix = "",
                   .server_id = -1});
  // Three deterministic stampedes at increasing depths into the run, so
  // every config faces the same bursts at the same points of its schedule.
  for (const int skip : {500, 2500, 5000}) {
    faults->AddRule({.point = fault::FaultPoint::kOverloadBurst,
                     .probability = 1.0,
                     .skip_hits = skip,
                     .max_fires = 1,
                     .table_prefix = "",
                     .server_id = -1});
  }
  return faults;
}

/// Applies one protection config to a system. The retry policy keeps the
/// same backoff/jitter schedule in both configs — only the protection knobs
/// (budget, breaker, deadline, admission, abandon) differ.
void ApplyConfig(systems::StoreBackedSystem& system, bool protected_mode) {
  hbase::RetryPolicy policy;
  hbase::AdmissionConfig admission;
  if (protected_mode) {
    policy.deadline_us = 2000000;     // 2s op budget
    policy.retry_budget_max = 12.0;   // bounded retry amplification
    policy.retry_budget_refill = 0.2;
    policy.breaker_trip_overloads = 8;
    policy.breaker_cooldown_us = 250000;
    admission.enabled = true;
    admission.max_inflight_per_server = 8;
    admission.max_queue_depth = 32;
    // Mean statement service is tens of ms (scan-heavy mix), so a stampede
    // of phantom ops produces queue-wait estimates that overshoot the 2s op
    // deadline — exercising the deadline-aware shed, not just queue-full.
    admission.est_service_us = 20000.0;
    admission.burst_ops = 80;
  }
  system.SetRetryPolicy(policy);
  system.cluster()->ConfigureAdmission(admission);
}

/// One `results` entry of the trajectory row.
std::string RenderRow(const ResultRow& r) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"system\": \"%s\", \"config\": \"%s\", "
      "\"rate_multiplier\": %.2f, \"offered_rate\": %.1f, "
      "\"goodput_ops_s\": %.1f, \"p50_ms\": %.2f, \"p95_ms\": %.2f, "
      "\"p99_ms\": %.2f, \"offered\": %zu, \"completed\": %zu, "
      "\"errors\": %zu, \"shed\": %zu, \"abandoned\": %zu, "
      "\"deadline_errors\": %zu, \"retries\": %zu, "
      "\"scan_errors_dropped\": %zu, \"rpcs_per_op\": %.1f}",
      r.system.c_str(), r.config.c_str(), r.rate_multiplier, r.offered_rate,
      r.report.goodput(), r.report.p50_ms(), r.report.p95_ms(),
      r.report.p99_ms(), r.report.tally.offered, r.report.tally.ops,
      r.report.tally.errors, r.report.tally.shed_errors,
      r.report.tally.abandoned, r.report.tally.deadline_errors,
      static_cast<size_t>(r.report.tally.counts[obs::OpCounter::kRetries]),
      static_cast<size_t>(
          r.report.tally.counts[obs::OpCounter::kScanErrorsDropped]),
      r.report.rpcs_per_op());
  return buf;
}

}  // namespace

int main() {
  using systems::FormatMs;
  tpcw::ScaleConfig scale;
  scale.num_customers = systems::EnvCustomers(200);
  const int threads = systems::EnvThreads(4);
  const double duration_vsec = DurationFromEnv();
  const concurrent::ArrivalDist arrival = ArrivalFromEnv();
  const char* arrival_name =
      arrival == concurrent::ArrivalDist::kUniform ? "uniform" : "poisson";
  const std::vector<double> multipliers = RateMultipliers();
  const std::vector<bool> configs = ShedConfigsFromEnv();
  const concurrent::MixConfig mix = concurrent::MixedMix();

  std::printf(
      "=== Open-loop overload sweep (%s arrivals, %d client threads, "
      "%.1f vsec/point) ===\n\n",
      arrival_name, threads, duration_vsec);

  struct SystemUnderTest {
    std::unique_ptr<systems::StoreBackedSystem> system;
    double saturation = 0.0;  // closed-loop ops/vsec estimate
  };
  std::vector<SystemUnderTest> suts;
  {
    auto synergy_sys = std::make_unique<systems::SynergyWrapper>(
        tpcw::Roots(), "Synergy", std::max(1, threads / 2));
    auto baseline = std::make_unique<systems::MvccSystem>(
        "Baseline", systems::MvccSystem::ViewMode::kNone);
    suts.push_back({std::move(synergy_sys)});
    suts.push_back({std::move(baseline)});
  }
  for (SystemUnderTest& sut : suts) {
    const Status setup = sut.system->Setup(scale);
    if (!setup.ok()) {
      std::fprintf(stderr, "%s setup failed: %s\n",
                   sut.system->name().c_str(), setup.ToString().c_str());
      return 1;
    }
    // Snapshots cover measured work only.
    sut.system->cluster()->ResetMetrics();
    // Calibrate: a fault-free closed loop at the same concurrency saturates
    // the system by construction; its virtual throughput is the saturation
    // estimate the sweep's offered rates are multiples of.
    const concurrent::WorkloadReport cal = systems::MeasureConcurrent(
        *sut.system, scale, mix,
        {.threads = threads,
         .base_seed = scale.seed ^ 0xCA11B,
         .ops_per_thread = 120});
    sut.saturation = cal.goodput();
    if (sut.saturation <= 0.0) {
      std::fprintf(stderr, "%s calibration produced no throughput: %s\n",
                   sut.system->name().c_str(),
                   cal.tally.first_error.ToString().c_str());
      return 1;
    }
    std::printf("%-10s saturation estimate: %.1f ops/vsec\n",
                sut.system->name().c_str(), sut.saturation);
  }
  std::printf("\n");

  std::vector<ResultRow> rows;
  // Highest-multiplier Synergy reports, for the protection acceptance check
  // (copies — `rows` reallocates as it grows).
  concurrent::WorkloadReport synergy_hot_protected;
  concurrent::WorkloadReport synergy_hot_unprotected;
  bool have_hot_protected = false, have_hot_unprotected = false;
  double hot_multiplier = 0.0;
  for (const double m : multipliers) hot_multiplier = std::max(hot_multiplier, m);

  for (SystemUnderTest& sut : suts) {
    systems::TablePrinter table({"config", "xsat", "offered/s", "goodput/s",
                                 "p50 ms", "p99 ms", "shed", "abandoned",
                                 "errors", "retries"});
    for (const bool protected_mode : configs) {
      for (const double mult : multipliers) {
        const double rate = mult * sut.saturation;
        // Cap the per-point op count so far-past-saturation points stay
        // affordable: shorten the horizon, never the rate.
        double horizon = duration_vsec;
        const double max_ops = 6000.0;
        if (rate * horizon > max_ops) horizon = max_ops / rate;

        ApplyConfig(*sut.system, protected_mode);
        std::unique_ptr<fault::FaultInjector> faults =
            MakeDrizzle(static_cast<uint64_t>(scale.seed) ^ 0x0E11);
        sut.system->cluster()->SetFaultInjector(faults.get());
        const concurrent::WorkloadReport report = systems::MeasureConcurrent(
            *sut.system, scale, mix,
            {.threads = threads,
             .base_seed = scale.seed ^ 0x0FFE12ED,
             .arrival = arrival,
             .offered_rate_per_sec = rate,
             .duration_virtual_sec = horizon,
             .max_queue_delay_us = protected_mode ? 2000000.0 : 0.0});
        sut.system->cluster()->SetFaultInjector(nullptr);
        if (report.tally.offered == 0) {
          std::fprintf(stderr, "%s/%s/%.2fx: no op offered\n",
                       sut.system->name().c_str(),
                       protected_mode ? "protected" : "unprotected", mult);
          return 1;
        }

        rows.push_back({sut.system->name(),
                        protected_mode ? "protected" : "unprotected", mult,
                        rate, report});
        const ResultRow& row = rows.back();
        table.AddRow({row.config, FormatMs(mult), FormatMs(rate),
                      FormatMs(report.goodput()), FormatMs(report.p50_ms()),
                      FormatMs(report.p99_ms()),
                      std::to_string(report.tally.shed_errors),
                      std::to_string(report.tally.abandoned),
                      std::to_string(report.tally.errors),
                      std::to_string(
                          report.tally.counts[obs::OpCounter::kRetries])});
        if (sut.system->name() == "Synergy" && mult == hot_multiplier) {
          if (protected_mode) {
            synergy_hot_protected = report;
            have_hot_protected = true;
          } else {
            synergy_hot_unprotected = report;
            have_hot_unprotected = true;
          }
        }
      }
    }
    std::printf("--- %s (saturation %.1f ops/vsec) ---\n",
                sut.system->name().c_str(), sut.saturation);
    table.Print();
    std::printf("\n");
  }

  // Acceptance: past saturation, the protection stack must not cost goodput
  // and must bound the admitted-op tail.
  if (have_hot_protected && have_hot_unprotected && hot_multiplier >= 1.5) {
    const double g_prot = synergy_hot_protected.goodput();
    const double g_unprot = synergy_hot_unprotected.goodput();
    const double p99_prot = synergy_hot_protected.p99_ms();
    const double p99_unprot = synergy_hot_unprotected.p99_ms();
    std::printf(
        "Synergy @ %.1fx saturation: goodput %s -> %s ops/vsec, "
        "p99 %s -> %s ms (unprotected -> protected)\n",
        hot_multiplier, FormatMs(g_unprot).c_str(), FormatMs(g_prot).c_str(),
        FormatMs(p99_unprot).c_str(), FormatMs(p99_prot).c_str());
    if (g_prot < g_unprot) {
      std::fprintf(stderr,
                   "FAIL: protection cost goodput past saturation "
                   "(%.1f < %.1f ops/vsec)\n",
                   g_prot, g_unprot);
      return 1;
    }
    if (p99_prot >= p99_unprot) {
      std::fprintf(stderr,
                   "FAIL: protected p99 (%.1f ms) not below unprotected "
                   "(%.1f ms) past saturation\n",
                   p99_prot, p99_unprot);
      return 1;
    }
  }

  systems::TrajectoryRun run;
  char duration[32];
  std::snprintf(duration, sizeof(duration), "%g", duration_vsec);
  run.fields = {{"num_customers", std::to_string(scale.num_customers)},
                {"threads", std::to_string(threads)},
                {"duration_vsec", duration},
                {"arrival", std::string("\"") + arrival_name + "\""}};
  for (const ResultRow& row : rows) run.results.push_back(RenderRow(row));
  // Registry snapshots embedded into the committed run row (cumulative over
  // the whole sweep — calibration plus every rate point).
  for (const SystemUnderTest& sut : suts) {
    run.metrics.emplace_back(sut.system->name(), sut.system->MetricsJson());
  }
  systems::AppendTrajectoryRun(
      "BENCH_overload.json",
      "Open-loop overload sweep trajectory (see docs/BENCHMARKS.md)", run);
  return 0;
}
