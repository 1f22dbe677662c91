// RetryPolicy / RetryController in isolation (deterministic jitter, deadline
// ordering, non-retryable pass-through, backoff growth + cap) and the
// session-level retry loop end to end against injected RPC faults.
#include "hbase/retry_policy.h"

#include <gtest/gtest.h>

#include <vector>

#include "hbase/cluster.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

RetryPolicy NoJitterPolicy() {
  RetryPolicy p;
  p.jitter_fraction = 0.0;
  return p;
}

TEST(RetryPolicyTest, TaxonomyOnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryable(Status::Unavailable("lost rpc")));
  EXPECT_FALSE(IsRetryable(Status::Ok()));
  EXPECT_FALSE(IsRetryable(Status::NotFound("row")));
  EXPECT_FALSE(IsRetryable(Status::Aborted("conflict")));
  EXPECT_FALSE(IsRetryable(Status::FailedPrecondition("bad")));
  EXPECT_FALSE(IsRetryable(Status::DeadlineExceeded("budget")));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy = NoJitterPolicy();
  policy.initial_backoff_us = 2000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 5000;
  policy.max_attempts = 10;
  RetryController retry(policy, /*start_virtual_us=*/0.0);

  std::vector<double> backoffs;
  for (int i = 0; i < 4; ++i) {
    auto d = retry.OnFailure(Status::Unavailable("x"), /*now_us=*/0.0);
    ASSERT_TRUE(d.retry);
    backoffs.push_back(d.backoff_us);
  }
  EXPECT_EQ(backoffs, (std::vector<double>{2000, 4000, 5000, 5000}));
}

TEST(RetryPolicyTest, JitterIsDeterministicPerSeed) {
  RetryPolicy policy;  // jitter_fraction = 0.25
  auto sequence = [](const RetryPolicy& p) {
    RetryController retry(p, 0.0);
    std::vector<double> backoffs;
    for (int i = 0; i < 5; ++i) {
      auto d = retry.OnFailure(Status::Unavailable("x"), 0.0);
      if (!d.retry) break;
      backoffs.push_back(d.backoff_us);
    }
    return backoffs;
  };

  const std::vector<double> a = sequence(policy);
  const std::vector<double> b = sequence(policy);
  EXPECT_EQ(a, b) << "same seed must replay the same jittered backoffs";

  RetryPolicy other = policy;
  other.jitter_seed = policy.jitter_seed + 1;
  EXPECT_NE(a, sequence(other)) << "different seed, different jitter stream";

  // Jitter stays inside the ±fraction envelope of the un-jittered ladder.
  double expected = policy.initial_backoff_us;
  for (const double backoff : a) {
    EXPECT_GE(backoff, expected * (1.0 - policy.jitter_fraction));
    EXPECT_LE(backoff, expected * (1.0 + policy.jitter_fraction));
    expected = std::min(expected * policy.backoff_multiplier,
                        policy.max_backoff_us);
  }
}

TEST(RetryPolicyTest, DeadlineExpiresBeforeAttemptsRunOut) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 8;
  policy.initial_backoff_us = 6000;
  policy.deadline_us = 10000;
  RetryController retry(policy, /*start_virtual_us=*/0.0);

  // First failure: 6000 fits in the 10000 budget.
  auto d1 = retry.OnFailure(Status::Unavailable("server down"), 0.0);
  ASSERT_TRUE(d1.retry);
  // Second failure at t=6000: the next 12000 backoff blows the 4000 left,
  // so the deadline wins even though 6 attempts remain.
  auto d2 = retry.OnFailure(Status::Unavailable("server down"), 6000.0);
  EXPECT_FALSE(d2.retry);
  EXPECT_EQ(d2.final_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(d2.final_status.message().find("2 attempt"), std::string::npos)
      << d2.final_status;
  EXPECT_NE(d2.final_status.message().find("server down"), std::string::npos)
      << "last error must be preserved for forensics: " << d2.final_status;
}

TEST(RetryPolicyTest, ElapsedDeadlineFailsImmediately) {
  RetryPolicy policy = NoJitterPolicy();
  policy.deadline_us = 1000;
  RetryController retry(policy, /*start_virtual_us=*/500.0);
  EXPECT_GT(retry.DeadlineRemaining(500.0), 0.0);
  auto d = retry.OnFailure(Status::Unavailable("x"), /*now_us=*/2000.0);
  EXPECT_FALSE(d.retry);
  EXPECT_EQ(d.final_status.code(), StatusCode::kDeadlineExceeded);
}

TEST(RetryPolicyTest, AttemptsExhaustedSurfaceTheLastError) {
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 3;
  policy.deadline_us = 1e9;  // deadline never the limiting factor here
  RetryController retry(policy, 0.0);

  EXPECT_TRUE(retry.OnFailure(Status::Unavailable("a"), 0.0).retry);
  EXPECT_TRUE(retry.OnFailure(Status::Unavailable("b"), 0.0).retry);
  auto d = retry.OnFailure(Status::Unavailable("final straw"), 0.0);
  EXPECT_FALSE(d.retry);
  // Exhaustion is not a deadline problem: the caller sees the real error.
  EXPECT_EQ(d.final_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(retry.attempts(), 3);
  EXPECT_EQ(retry.retries_granted(), 2);
}

TEST(RetryPolicyTest, NonRetryablePassesThroughUntouched) {
  RetryController retry(RetryPolicy{}, 0.0);
  const Status original = Status::NotFound("no such row");
  auto d = retry.OnFailure(original, 0.0);
  EXPECT_FALSE(d.retry);
  EXPECT_EQ(d.final_status.code(), StatusCode::kNotFound);
  EXPECT_EQ(d.final_status.message(), original.message());
  EXPECT_EQ(retry.retries_granted(), 0);
}

class SessionRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "t"}).ok());
    Session s(&cluster_);
    ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
    cluster_.SetFaultInjector(&faults_);
  }

  Cluster cluster_;
  fault::FaultInjector faults_{42};
};

TEST_F(SessionRetryTest, TransientRpcTimeoutsAreAbsorbed) {
  faults_.Arm(fault::FaultPoint::kRpcTimeout, /*skip_hits=*/0,
              /*max_fires=*/2);
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  const double before_us = s.meter().micros();
  StatusOr<RowResult> got = cluster_.Get(s, "t", "r");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("a"), "1");
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 2u);
  // Backoff was charged as virtual time, not hidden in a host sleep.
  EXPECT_GT(s.meter().micros() - before_us,
            2 * RetryPolicy{}.initial_backoff_us);
}

TEST_F(SessionRetryTest, WithoutPolicyTheFirstErrorSurfaces) {
  faults_.Arm(fault::FaultPoint::kRpcTimeout, 0, 1);
  Session s(&cluster_);
  const Status status = cluster_.Get(s, "t", "r").status();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(fault::IsInjectedFault(status)) << status;
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 0u);
}

TEST_F(SessionRetryTest, PersistentOutageHitsTheDeadline) {
  fault::FaultRule rule;
  rule.point = fault::FaultPoint::kRpcTimeout;
  rule.probability = 1.0;  // every attempt times out, forever
  faults_.AddRule(rule);

  Session s(&cluster_);
  RetryPolicy policy;
  policy.max_attempts = 1000;  // the deadline must be what stops us
  policy.deadline_us = 50000;
  s.SetRetryPolicy(policy);
  const Status status = cluster_.Get(s, "t", "r").status();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_EQ(s.count(obs::OpCounter::kDeadlineExceeded), 1u);
  EXPECT_GT(s.count(obs::OpCounter::kRetries), 0u);
}

TEST_F(SessionRetryTest, NonRetryableErrorsSkipTheLoop) {
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  EXPECT_EQ(cluster_.Get(s, "t", "missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 0u);
}

TEST_F(SessionRetryTest, SuppressionDisablesRetriesMidSession) {
  faults_.Arm(fault::FaultPoint::kRpcTimeout, 0, 1);
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  s.SuppressRetries(true);
  EXPECT_EQ(cluster_.Get(s, "t", "r").status().code(),
            StatusCode::kUnavailable);
  s.SuppressRetries(false);
  // The armed fault was consumed by the unretried attempt; clean now.
  EXPECT_TRUE(cluster_.Get(s, "t", "r").ok());
}

}  // namespace
}  // namespace synergy::hbase
