// Closed-loop session driver + TPC-W mix: aggregation, per-thread
// determinism (seed = base ^ thread_id), and fresh-id stream partitioning.
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
  DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 100;
  WorkloadReport report = RunClosedLoop(cfg, [](int tid, uint64_t) {
    // Thread t charges (t+1)*100 µs per op: the run's virtual duration is
    // the slowest thread's busy time.
    return [tid](size_t) -> StatusOr<OpOutcome> {
      return OpOutcome{(tid + 1) * 100.0};
    };
  });
  EXPECT_EQ(report.threads, 4);
  EXPECT_EQ(report.total_ops, 400U);
  EXPECT_EQ(report.total_errors, 0U);
  EXPECT_NEAR(report.virtual_seconds, 100 * 400.0 / 1e6, 1e-9);
  EXPECT_NEAR(report.virtual_throughput(), 400.0 / (100 * 400.0 / 1e6), 1.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  // p50 over {100,200,300,400}x100 within histogram resolution.
  EXPECT_NEAR(report.p50_ms(), 0.2, 0.2 * 0.05);
}

TEST(SessionDriverTest, SeedsArePerThreadAndDeterministic) {
  DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 8;
  cfg.base_seed = 12345;

  auto run = [&] {
    std::mutex mu;
    std::map<int, uint64_t> seeds;
    std::map<int, std::vector<uint64_t>> draws;
    RunClosedLoop(cfg, [&](int tid, uint64_t seed) {
      {
        std::lock_guard lock(mu);
        seeds[tid] = seed;
      }
      auto rng = std::make_shared<Rng>(seed);
      return [&, tid, rng](size_t) -> StatusOr<OpOutcome> {
        const uint64_t draw = rng->Next();
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
  DriverConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 30;
  WorkloadReport report = RunClosedLoop(cfg, [](int, uint64_t) {
    return [](size_t i) -> StatusOr<OpOutcome> {
      if (i % 3 == 2) return Status::Aborted("every third op");
      return OpOutcome{5.0};
    };
  });
  EXPECT_EQ(report.total_ops, 40U);
  EXPECT_EQ(report.total_errors, 20U);
  EXPECT_FALSE(report.first_error.ok());
  EXPECT_EQ(report.first_error.code(), StatusCode::kAborted);
}

TEST(SessionDriverTest, RobustnessCountersAggregate) {
  DriverConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 10;
  WorkloadReport report = RunClosedLoop(cfg, [](int tid, uint64_t) {
    return [tid](size_t i) -> StatusOr<OpOutcome> {
      if (tid == 0 && i == 0) return Status::DeadlineExceeded("budget spent");
      if (tid == 0 && i == 1) return Status::Aborted("conflict");
      // Thread 1's ops each consumed one retry and a degraded read.
      OpOutcome out{100.0};
      if (tid == 1) {
        out.counts[obs::OpCounter::kRetries] = 1;
        out.counts[obs::OpCounter::kDegradedReads] = 1;
      }
      return out;
    };
  });
  EXPECT_EQ(report.total_ops, 18U);
  EXPECT_EQ(report.total_errors, 2U);
  EXPECT_EQ(report.total_deadline_errors, 1U);
  EXPECT_EQ(report.counts[obs::OpCounter::kRetries], 10U);
  EXPECT_EQ(report.counts[obs::OpCounter::kDegradedReads], 10U);
  EXPECT_EQ(report.total_degraded_ops, 10U);
  EXPECT_EQ(report.first_error.code(), StatusCode::kDeadlineExceeded);
}

TEST(TpcwMixTest, ReadOnlyMixDrawsOnlyReadStatements) {
  tpcw::ScaleConfig scale;
  scale.num_customers = 100;
  DriverConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 50;

  const MixConfig mix = ReadOnlyMix();
  const std::set<std::string> allowed(mix.reads.begin(), mix.reads.end());
  std::mutex mu;
  std::set<std::string> seen;
  WorkloadReport report = RunTpcwMix(
      cfg, scale, mix,
      [&](int, const std::string& stmt_id,
          const std::vector<Value>& params) -> StatusOr<OpOutcome> {
        std::lock_guard lock(mu);
        EXPECT_TRUE(allowed.count(stmt_id)) << stmt_id;
        EXPECT_FALSE(params.empty());
        seen.insert(stmt_id);
        return OpOutcome{10.0};
      });
  EXPECT_EQ(report.total_ops, 100U);
  EXPECT_GT(seen.size(), 1U) << "mix should draw from multiple statements";
}

TEST(TpcwMixTest, FreshInsertIdsNeverCollideAcrossThreads) {
  tpcw::ScaleConfig scale;
  scale.num_customers = 100;
  DriverConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 200;

  // Write-only mix of fresh-id inserts: every W1/W6 draw consumes a fresh
  // id as its first parameter.
  MixConfig mix;
  mix.name = "inserts";
  mix.read_fraction = 0.0;
  mix.writes = {"W1", "W6"};

  std::mutex mu;
  std::vector<int64_t> ids;
  WorkloadReport report = RunTpcwMix(
      cfg, scale, mix,
      [&](int, const std::string&,
          const std::vector<Value>& params) -> StatusOr<OpOutcome> {
        std::lock_guard lock(mu);
        ids.push_back(params[0].as_int());
        return OpOutcome{1.0};
      });
  EXPECT_EQ(report.total_ops, 800U);
  std::set<int64_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size()) << "fresh ids collided across threads";
}

}  // namespace
}  // namespace synergy::concurrent
