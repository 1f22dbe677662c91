// Session driver on the open (arrival-rate) schedules: schedule generation,
// queued-start latency accounting (coordinated-omission avoidance), client
// abandonment, error and shed classification, span/goodput bookkeeping,
// determinism.
#include "concurrent/session_driver.h"

#include <gtest/gtest.h>

namespace synergy::concurrent {
namespace {

DriverConfig UniformConfig(double rate, double horizon_sec) {
  return {.threads = 1,
          .base_seed = 11,
          .arrival = ArrivalDist::kUniform,
          .offered_rate_per_sec = rate,
          .duration_virtual_sec = horizon_sec};
}

/// Factory for an op with a fixed virtual cost.
ClientFactory FixedCostOp(double cost_us) {
  return [cost_us](int, uint64_t) -> ClientOp {
    return [cost_us](size_t) { return OpOutcome{cost_us}; };
  };
}

TEST(OpenLoopDriverTest, UniformScheduleOffersRateTimesHorizon) {
  // 1000 ops/s for 1 virtual second with constant gaps: exactly 1000
  // arrivals at 1ms, 2ms, ..., 1000ms.
  const WorkloadReport report =
      RunClients(UniformConfig(1000.0, 1.0), FixedCostOp(10.0));
  EXPECT_EQ(report.tally.offered, 1000u);
  EXPECT_EQ(report.tally.ops, 1000u);
  EXPECT_EQ(report.tally.errors, 0u);
  EXPECT_NEAR(report.offered_rate(), 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(report.offered_duration_seconds, 1.0);
}

TEST(OpenLoopDriverTest, UnderloadedLatencyIsServiceTimeOnly) {
  // Service (10us) far below the 1000us gap: no queueing, every op's
  // latency is its own cost.
  const WorkloadReport report =
      RunClients(UniformConfig(1000.0, 0.5), FixedCostOp(10.0));
  EXPECT_NEAR(report.tally.latency_us.max(), 10.0, 1.0);
  // The run ends at the arrival horizon, not earlier: goodput is bounded by
  // what was offered, not by how fast the ops ran.
  EXPECT_GE(report.virtual_seconds(), 0.5);
  EXPECT_NEAR(report.goodput(), report.offered_rate(), 5.0);
}

TEST(OpenLoopDriverTest, QueuedStartLatencyCountsBacklogDelay) {
  // Each op costs 2000us but arrivals come every 1000us: the backlog grows
  // by one op per arrival, and queued-start accounting must charge each op
  // its wait. The last of 100 ops waits ~99 * 1000us.
  const WorkloadReport report =
      RunClients(UniformConfig(1000.0, 0.1), FixedCostOp(2000.0));
  EXPECT_EQ(report.tally.ops, 100u);
  EXPECT_GT(report.tally.latency_us.max(), 90.0 * 1000.0)
      << "a coordinated-omission driver would report ~2000us here";
  // Span covers the backlog drain: 100 ops x 2000us = 0.2 virtual seconds,
  // so goodput is half the offered rate.
  EXPECT_NEAR(report.virtual_seconds(), 0.2, 0.01);
  EXPECT_NEAR(report.goodput(), 500.0, 25.0);
}

TEST(OpenLoopDriverTest, ClientsAbandonStaleArrivals) {
  DriverConfig config = UniformConfig(1000.0, 0.1);
  config.max_queue_delay_us = 5000.0;
  const WorkloadReport report = RunClients(config, FixedCostOp(2000.0));
  EXPECT_GT(report.tally.abandoned, 0u);
  EXPECT_EQ(report.tally.offered,
            report.tally.ops + report.tally.errors + report.tally.abandoned);
  // Abandonment bounds the queue, so admitted-op latency stays near
  // max_queue_delay + service instead of growing with the backlog.
  EXPECT_LE(report.tally.latency_us.max(), 5000.0 + 2000.0 + 1.0);
}

TEST(OpenLoopDriverTest, FailedOpsStillAdvanceTheClockAndClassify) {
  // Every third op fails: deadline errors and overload sheds are counted in
  // their own buckets, and the failed attempts' cost still burns client
  // time (span reflects it).
  ClientFactory factory = [](int, uint64_t) -> ClientOp {
    return [n = size_t{0}](size_t) mutable {
      const size_t i = n++;
      if (i % 3 == 1) {
        return OpOutcome{.virtual_us = 1000.0,
                         .status = Status::DeadlineExceeded("too slow")};
      }
      if (i % 3 == 2) {
        return OpOutcome{.virtual_us = 50.0,
                         .status = Status::ResourceExhausted("shed")};
      }
      return OpOutcome{1000.0};
    };
  };
  const WorkloadReport report =
      RunClients(UniformConfig(1000.0, 0.3), factory);
  EXPECT_EQ(report.tally.offered, 300u);
  EXPECT_EQ(report.tally.ops, 100u);
  EXPECT_EQ(report.tally.errors, 200u);
  EXPECT_EQ(report.tally.deadline_errors, 100u);
  EXPECT_EQ(report.tally.shed_errors, 100u);
  EXPECT_EQ(report.tally.latency_us.count(), report.tally.ops)
      << "only successful ops contribute latency samples";
}

TEST(OpenLoopDriverTest, FailedOpsReportTheirCounters) {
  // A retry storm's retries are spent by the ops that end up failing: every
  // attempt's counters reach the report, whatever its status. Odd ops fail
  // after 2 retries over 3 RPCs; even ops succeed after 1 retry over 2.
  ClientFactory factory = [](int, uint64_t) -> ClientOp {
    return [](size_t i) {
      OpOutcome out{100.0};
      const bool fails = i % 2 == 1;
      out.counts[obs::OpCounter::kRpcs] = fails ? 3 : 2;
      out.counts[obs::OpCounter::kRetries] = fails ? 2 : 1;
      if (fails) out.status = Status::Unavailable("retries spent");
      return out;
    };
  };
  const WorkloadReport report =
      RunClients(UniformConfig(1000.0, 0.1), factory);
  EXPECT_EQ(report.tally.ops, 50u);
  EXPECT_EQ(report.tally.errors, 50u);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRetries], 50u * 2 + 50u * 1);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRpcs], 50u * 3 + 50u * 2);
}

TEST(OpenLoopDriverTest, PoissonArrivalsApproximateTheTargetRate) {
  DriverConfig config = UniformConfig(2000.0, 1.0);
  config.arrival = ArrivalDist::kPoisson;
  const WorkloadReport report = RunClients(config, FixedCostOp(10.0));
  // sd of a Poisson count at 2000 is ~45; 10 sigma of slack keeps this
  // deterministic-seed test far from flaky while still catching a broken
  // gap formula (for example mean gap off by 2x).
  EXPECT_NEAR(static_cast<double>(report.tally.offered), 2000.0, 450.0);
}

TEST(OpenLoopDriverTest, SameSeedReplaysExactly) {
  DriverConfig config = UniformConfig(500.0, 0.5);
  config.arrival = ArrivalDist::kPoisson;
  config.threads = 2;
  const WorkloadReport a = RunClients(config, FixedCostOp(300.0));
  const WorkloadReport b = RunClients(config, FixedCostOp(300.0));
  EXPECT_EQ(a.tally.offered, b.tally.offered);
  EXPECT_EQ(a.tally.ops, b.tally.ops);
  EXPECT_DOUBLE_EQ(a.virtual_seconds(), b.virtual_seconds());
  EXPECT_DOUBLE_EQ(a.p99_ms(), b.p99_ms());

  DriverConfig other = config;
  other.base_seed = config.base_seed + 1;
  const WorkloadReport c = RunClients(other, FixedCostOp(300.0));
  EXPECT_NE(a.tally.offered, c.tally.offered)
      << "a different seed must draw a different Poisson schedule";
}

TEST(OpenLoopDriverTest, RateSplitsAcrossThreads) {
  DriverConfig config = UniformConfig(1000.0, 1.0);
  config.threads = 4;
  const WorkloadReport report = RunClients(config, FixedCostOp(10.0));
  // 4 uniform processes at 250/s each.
  EXPECT_EQ(report.tally.offered, 1000u);
  EXPECT_EQ(report.threads, 4);
}

}  // namespace
}  // namespace synergy::concurrent
