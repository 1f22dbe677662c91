// Session driver on the closed schedule + TPC-W mix: aggregation, latency
// equal to cost, failed ops' cost and counters, per-thread determinism
// (seed = base ^ thread_id), and fresh-id stream partitioning.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "concurrent/session_driver.h"
#include "concurrent/tpcw_mix.h"

namespace synergy::concurrent {
namespace {

TEST(SessionDriverTest, AggregatesAcrossThreads) {
  WorkloadReport report = RunClients(
      {.threads = 4, .ops_per_thread = 100}, [](int tid, uint64_t) -> ClientOp {
        // Thread t charges (t+1)*100 µs per op: the run's virtual duration
        // is the slowest thread's clock.
        return [tid](size_t) { return OpOutcome{(tid + 1) * 100.0}; };
      });
  EXPECT_EQ(report.threads, 4);
  EXPECT_EQ(report.tally.offered, 400U);
  EXPECT_EQ(report.tally.ops, 400U);
  EXPECT_EQ(report.tally.errors, 0U);
  EXPECT_NEAR(report.virtual_seconds(), 100 * 400.0 / 1e6, 1e-9);
  EXPECT_NEAR(report.goodput(), 400.0 / (100 * 400.0 / 1e6), 1.0);
  // p50 over {100,200,300,400}x100 within histogram resolution.
  EXPECT_NEAR(report.p50_ms(), 0.2, 0.2 * 0.05);
}

TEST(SessionDriverTest, ClosedLatencyIsCostAndFailedOpsAdvanceTheClock) {
  // One client issuing ops that cost 100, 200, ..., 1000 µs; the fourth
  // fails. Each op arrives when the previous one finishes, so none queues:
  // a latency is exactly its op's cost. The failed op leaves no latency
  // sample, but its cost runs the clock and its counters reach the report.
  WorkloadReport report =
      RunClients({.ops_per_thread = 10}, [](int, uint64_t) -> ClientOp {
        return [](size_t i) {
          OpOutcome out{100.0 * static_cast<double>(i + 1)};
          out.counts[obs::OpCounter::kRpcs] = 2;
          if (i == 3) {
            out.counts[obs::OpCounter::kRetries] = 7;
            out.status = Status::Unavailable("retries spent");
          }
          return out;
        };
      });
  EXPECT_EQ(report.tally.offered, 10U);
  EXPECT_EQ(report.tally.ops, 9U);
  EXPECT_EQ(report.tally.errors, 1U);
  EXPECT_EQ(report.tally.latency_us.count(), 9U);
  EXPECT_DOUBLE_EQ(report.tally.latency_us.min(), 100.0);
  EXPECT_DOUBLE_EQ(report.tally.latency_us.max(), 1000.0);
  EXPECT_DOUBLE_EQ(report.tally.latency_us.mean(), (5500.0 - 400.0) / 9.0);
  // 5500 µs = every op's cost, the failed op's 400 µs included.
  EXPECT_DOUBLE_EQ(report.virtual_seconds(), 5500.0 / 1e6);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRpcs], 20U);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRetries], 7U);
  EXPECT_EQ(report.tally.abandoned, 0U);
  EXPECT_EQ(report.offered_rate(), 0.0) << "a closed loop has no horizon";
}

TEST(SessionDriverTest, SeedsArePerThreadAndDeterministic) {
  const DriverConfig cfg{.threads = 4, .base_seed = 12345, .ops_per_thread = 8};

  auto run = [&] {
    std::mutex mu;
    std::map<int, uint64_t> seeds;
    std::map<int, std::vector<uint64_t>> draws;
    RunClients(cfg, [&](int tid, uint64_t seed) -> ClientOp {
      {
        std::lock_guard lock(mu);
        seeds[tid] = seed;
      }
      return [&, tid, rng = Rng(seed)](size_t) mutable {
        const uint64_t draw = rng.Next();
        std::lock_guard lock(mu);
        draws[tid].push_back(draw);
        return OpOutcome{1.0};
      };
    });
    return std::make_pair(seeds, draws);
  };

  auto [seeds1, draws1] = run();
  auto [seeds2, draws2] = run();
  for (int tid = 0; tid < cfg.threads; ++tid) {
    EXPECT_EQ(seeds1[tid], cfg.base_seed ^ static_cast<uint64_t>(tid));
  }
  EXPECT_EQ(draws1, draws2) << "same config must replay identically";
  EXPECT_NE(draws1[0], draws1[1]) << "threads must not share a stream";
}

TEST(SessionDriverTest, ErrorsAreCountedNotFatal) {
  WorkloadReport report = RunClients(
      {.threads = 2, .ops_per_thread = 30}, [](int, uint64_t) -> ClientOp {
        return [](size_t i) {
          if (i % 3 == 2) {
            return OpOutcome{.status = Status::Aborted("every third op")};
          }
          return OpOutcome{5.0};
        };
      });
  EXPECT_EQ(report.tally.ops, 40U);
  EXPECT_EQ(report.tally.errors, 20U);
  EXPECT_FALSE(report.tally.first_error.ok());
  EXPECT_EQ(report.tally.first_error.code(), StatusCode::kAborted);
}

TEST(SessionDriverTest, RobustnessCountersAggregate) {
  WorkloadReport report = RunClients(
      {.threads = 2, .ops_per_thread = 10}, [](int tid, uint64_t) -> ClientOp {
        return [tid](size_t i) {
          if (tid == 0 && i == 0) {
            return OpOutcome{.status = Status::DeadlineExceeded("spent")};
          }
          if (tid == 0 && i == 1) {
            return OpOutcome{.status = Status::Aborted("conflict")};
          }
          // Thread 1's ops each consumed one retry and a degraded read.
          OpOutcome out{100.0};
          if (tid == 1) {
            out.counts[obs::OpCounter::kRetries] = 1;
            out.counts[obs::OpCounter::kDegradedReads] = 1;
          }
          return out;
        };
      });
  EXPECT_EQ(report.tally.ops, 18U);
  EXPECT_EQ(report.tally.errors, 2U);
  EXPECT_EQ(report.tally.deadline_errors, 1U);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kRetries], 10U);
  EXPECT_EQ(report.tally.counts[obs::OpCounter::kDegradedReads], 10U);
  EXPECT_EQ(report.tally.degraded_ops, 10U);
  EXPECT_EQ(report.tally.first_error.code(), StatusCode::kDeadlineExceeded);
}

TEST(TpcwMixTest, ReadOnlyMixDrawsOnlyReadStatements) {
  tpcw::ScaleConfig scale;
  scale.num_customers = 100;

  const MixConfig mix = ReadOnlyMix();
  const std::set<std::string> allowed(mix.reads.begin(), mix.reads.end());
  std::mutex mu;
  std::set<std::string> seen;
  WorkloadReport report = RunTpcwMix(
      {.threads = 2, .ops_per_thread = 50}, scale, mix,
      [&](int) -> StatementFn {
        return [&](const std::string& stmt_id,
                   const std::vector<Value>& params) {
          std::lock_guard lock(mu);
          EXPECT_TRUE(allowed.count(stmt_id)) << stmt_id;
          EXPECT_FALSE(params.empty());
          seen.insert(stmt_id);
          return OpOutcome{10.0};
        };
      });
  EXPECT_EQ(report.tally.ops, 100U);
  EXPECT_GT(seen.size(), 1U) << "mix should draw from multiple statements";
}

TEST(TpcwMixTest, FreshInsertIdsNeverCollideAcrossThreads) {
  tpcw::ScaleConfig scale;
  scale.num_customers = 100;

  // Write-only mix of fresh-id inserts: every W1/W6 draw consumes a fresh
  // id as its first parameter.
  MixConfig mix;
  mix.name = "inserts";
  mix.read_fraction = 0.0;
  mix.writes = {"W1", "W6"};

  std::mutex mu;
  std::vector<int64_t> ids;
  WorkloadReport report = RunTpcwMix(
      {.threads = 4, .ops_per_thread = 200}, scale, mix,
      [&](int) -> StatementFn {
        return [&](const std::string&, const std::vector<Value>& params) {
          std::lock_guard lock(mu);
          ids.push_back(params[0].as_int());
          return OpOutcome{1.0};
        };
      });
  EXPECT_EQ(report.tally.ops, 800U);
  std::set<int64_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size()) << "fresh ids collided across threads";
}

}  // namespace
}  // namespace synergy::concurrent
