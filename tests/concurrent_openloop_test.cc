// Open-loop (arrival-rate) driver: schedule generation, queued-start latency
// accounting (coordinated-omission avoidance), client abandonment, error and
// shed classification, span/goodput bookkeeping, determinism.
#include "concurrent/session_driver.h"

#include <gtest/gtest.h>

#include <memory>

#include "concurrent/metrics.h"

namespace synergy::concurrent {
namespace {

OpenLoopConfig UniformConfig(double rate, double horizon_sec) {
  OpenLoopConfig config;
  config.threads = 1;
  config.offered_rate_per_sec = rate;
  config.duration_virtual_sec = horizon_sec;
  config.arrival = ArrivalDist::kUniform;
  config.base_seed = 11;
  return config;
}

/// Factory for an op with a fixed virtual cost and optional failure status.
OpenLoopFactory FixedCostOp(double cost_us) {
  return [cost_us](int, uint64_t) -> OpenLoopOp {
    return [cost_us](size_t) { return OpResult(OpOutcome{cost_us}); };
  };
}

TEST(OpenLoopDriverTest, UniformScheduleOffersRateTimesHorizon) {
  // 1000 ops/s for 1 virtual second with constant gaps: exactly 1000
  // arrivals at 1ms, 2ms, ..., 1000ms.
  const WorkloadReport report =
      RunOpenLoop(UniformConfig(1000.0, 1.0), FixedCostOp(10.0));
  EXPECT_EQ(report.total_offered, 1000u);
  EXPECT_EQ(report.total_ops, 1000u);
  EXPECT_EQ(report.total_errors, 0u);
  EXPECT_NEAR(report.offered_rate(), 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(report.offered_duration_seconds, 1.0);
}

TEST(OpenLoopDriverTest, UnderloadedLatencyIsServiceTimeOnly) {
  // Service (10us) far below the 1000us gap: no queueing, every op's
  // latency is its own cost.
  const WorkloadReport report =
      RunOpenLoop(UniformConfig(1000.0, 0.5), FixedCostOp(10.0));
  EXPECT_NEAR(report.latency_us.max(), 10.0, 1.0);
  // The run ends at the arrival horizon, not earlier: goodput is bounded by
  // what was offered, not by how fast the ops ran.
  EXPECT_GE(report.virtual_seconds, 0.5);
  EXPECT_NEAR(report.goodput(), report.offered_rate(), 5.0);
}

TEST(OpenLoopDriverTest, QueuedStartLatencyCountsBacklogDelay) {
  // Each op costs 2000us but arrivals come every 1000us: the backlog grows
  // by one op per arrival, and queued-start accounting must charge each op
  // its wait. The last of 100 ops waits ~99 * 1000us.
  const WorkloadReport report =
      RunOpenLoop(UniformConfig(1000.0, 0.1), FixedCostOp(2000.0));
  EXPECT_EQ(report.total_ops, 100u);
  EXPECT_GT(report.latency_us.max(), 90.0 * 1000.0)
      << "a coordinated-omission driver would report ~2000us here";
  // Span covers the backlog drain: 100 ops x 2000us = 0.2 virtual seconds,
  // so goodput is half the offered rate.
  EXPECT_NEAR(report.virtual_seconds, 0.2, 0.01);
  EXPECT_NEAR(report.goodput(), 500.0, 25.0);
}

TEST(OpenLoopDriverTest, ClientsAbandonStaleArrivals) {
  OpenLoopConfig config = UniformConfig(1000.0, 0.1);
  config.max_queue_delay_us = 5000.0;
  const WorkloadReport report = RunOpenLoop(config, FixedCostOp(2000.0));
  EXPECT_GT(report.total_abandoned, 0u);
  EXPECT_EQ(report.total_offered,
            report.total_ops + report.total_errors + report.total_abandoned);
  // Abandonment bounds the queue, so admitted-op latency stays near
  // max_queue_delay + service instead of growing with the backlog.
  EXPECT_LE(report.latency_us.max(), 5000.0 + 2000.0 + 1.0);
}

TEST(OpenLoopDriverTest, FailedOpsStillAdvanceTheClockAndClassify) {
  // Every third op fails: deadline errors and overload sheds are counted in
  // their own buckets, and the failed attempts' cost still burns client
  // time (span reflects it).
  OpenLoopFactory factory = [](int, uint64_t) -> OpenLoopOp {
    auto n = std::make_shared<size_t>(0);
    return [n](size_t) -> OpResult {
      const size_t i = (*n)++;
      if (i % 3 == 1) {
        return OpResult(Status::DeadlineExceeded("too slow"),
                        OpOutcome{1000.0});
      }
      if (i % 3 == 2) {
        return OpResult(Status::ResourceExhausted("shed"), OpOutcome{50.0});
      }
      return OpResult(OpOutcome{1000.0});
    };
  };
  const WorkloadReport report =
      RunOpenLoop(UniformConfig(1000.0, 0.3), factory);
  EXPECT_EQ(report.total_offered, 300u);
  EXPECT_EQ(report.total_ops, 100u);
  EXPECT_EQ(report.total_errors, 200u);
  EXPECT_EQ(report.total_deadline_errors, 100u);
  EXPECT_EQ(report.total_shed_errors, 100u);
  EXPECT_EQ(report.latency_us.count(), report.total_ops)
      << "only successful ops contribute latency samples";
}

TEST(OpenLoopDriverTest, FailedOpsReportTheirCounters) {
  // A retry storm's retries are spent by the ops that end up failing: every
  // attempt's counters reach the report, whatever its status. Odd ops fail
  // after 2 retries over 3 RPCs; even ops succeed after 1 retry over 2.
  OpenLoopFactory factory = [](int, uint64_t) -> OpenLoopOp {
    return [](size_t i) -> OpResult {
      OpOutcome out{100.0};
      const bool fails = i % 2 == 1;
      out.counts[obs::OpCounter::kRpcs] = fails ? 3 : 2;
      out.counts[obs::OpCounter::kRetries] = fails ? 2 : 1;
      if (fails) return OpResult(Status::Unavailable("retries spent"), out);
      return OpResult(out);
    };
  };
  const WorkloadReport report =
      RunOpenLoop(UniformConfig(1000.0, 0.1), factory);
  EXPECT_EQ(report.total_ops, 50u);
  EXPECT_EQ(report.total_errors, 50u);
  EXPECT_EQ(report.counts[obs::OpCounter::kRetries], 50u * 2 + 50u * 1);
  EXPECT_EQ(report.counts[obs::OpCounter::kRpcs], 50u * 3 + 50u * 2);
}

TEST(OpenLoopDriverTest, PoissonArrivalsApproximateTheTargetRate) {
  OpenLoopConfig config = UniformConfig(2000.0, 1.0);
  config.arrival = ArrivalDist::kPoisson;
  const WorkloadReport report = RunOpenLoop(config, FixedCostOp(10.0));
  // sd of a Poisson count at 2000 is ~45; 10 sigma of slack keeps this
  // deterministic-seed test far from flaky while still catching a broken
  // gap formula (for example mean gap off by 2x).
  EXPECT_NEAR(static_cast<double>(report.total_offered), 2000.0, 450.0);
}

TEST(OpenLoopDriverTest, SameSeedReplaysExactly) {
  OpenLoopConfig config = UniformConfig(500.0, 0.5);
  config.arrival = ArrivalDist::kPoisson;
  config.threads = 2;
  const WorkloadReport a = RunOpenLoop(config, FixedCostOp(300.0));
  const WorkloadReport b = RunOpenLoop(config, FixedCostOp(300.0));
  EXPECT_EQ(a.total_offered, b.total_offered);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_DOUBLE_EQ(a.p99_ms(), b.p99_ms());

  OpenLoopConfig other = config;
  other.base_seed = config.base_seed + 1;
  const WorkloadReport c = RunOpenLoop(other, FixedCostOp(300.0));
  EXPECT_NE(a.total_offered, c.total_offered)
      << "a different seed must draw a different Poisson schedule";
}

TEST(OpenLoopDriverTest, RateSplitsAcrossThreads) {
  OpenLoopConfig config = UniformConfig(1000.0, 1.0);
  config.threads = 4;
  const WorkloadReport report = RunOpenLoop(config, FixedCostOp(10.0));
  // 4 uniform processes at 250/s each.
  EXPECT_EQ(report.total_offered, 1000u);
  EXPECT_EQ(report.threads, 4);
}

}  // namespace
}  // namespace synergy::concurrent
