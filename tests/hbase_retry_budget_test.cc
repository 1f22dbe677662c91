// Token-bucket retry budget and circuit breaker in isolation, then wired
// into the session retry loop: budget exhaustion stops retry storms,
// overload rejections are never retried, breaker trips fail fast without
// touching the cluster and recover through a half-open probe.
#include "hbase/retry_policy.h"

#include <gtest/gtest.h>

#include "hbase/admission.h"
#include "hbase/cluster.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

TEST(RetryBudgetTest, SpendsToEmptyAndRefillsOnSuccess) {
  RetryPolicy policy;
  policy.retry_budget_max = 2.0;
  policy.retry_budget_refill = 0.5;
  RetryBudget budget(policy);
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend()) << "bucket empty";
  budget.OnSuccess();
  EXPECT_FALSE(budget.TrySpend()) << "0.5 tokens still below the 1.0 cost";
  budget.OnSuccess();
  EXPECT_TRUE(budget.TrySpend());
  // Refills cap at the configured max.
  for (int i = 0; i < 100; ++i) budget.OnSuccess();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveOverloadsAndRecovers) {
  RetryPolicy policy;
  policy.breaker_trip_overloads = 2;
  policy.breaker_cooldown_us = 1000.0;
  CircuitBreaker breaker(policy);

  EXPECT_TRUE(breaker.Admit(0.0).ok());
  breaker.OnOverload(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed)
      << "one overload is below the trip threshold";
  breaker.OnOverload(10.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);

  // Open: fail fast during the cooldown, without consulting the cluster.
  const Status fast = breaker.Admit(500.0);
  EXPECT_EQ(fast.code(), StatusCode::kResourceExhausted) << fast;
  EXPECT_EQ(breaker.fast_failures(), 1);

  // Cooldown elapsed: one probe is let through (half-open).
  EXPECT_TRUE(breaker.Admit(1500.0).ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_overloads(), 0);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  RetryPolicy policy;
  policy.breaker_trip_overloads = 1;
  policy.breaker_cooldown_us = 1000.0;
  CircuitBreaker breaker(policy);
  breaker.OnOverload(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.Admit(1500.0).ok());  // half-open probe
  breaker.OnOverload(1500.0);               // probe hit overload again
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  // The new cooldown anchors at the re-open, not the original trip.
  EXPECT_EQ(breaker.Admit(2000.0).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(breaker.Admit(2600.0).ok());
}

class SessionProtectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "t"}).ok());
    Session s(&cluster_);
    ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  }

  Cluster cluster_;
  fault::FaultInjector faults_{42};
};

TEST_F(SessionProtectionTest, EmptyBudgetSurfacesTheErrorInsteadOfRetrying) {
  fault::FaultRule rule;
  rule.point = fault::FaultPoint::kRpcTimeout;
  rule.probability = 1.0;  // persistent outage: every attempt times out
  faults_.AddRule(rule);
  cluster_.SetFaultInjector(&faults_);

  Session s(&cluster_);
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.deadline_us = 1e9;  // neither attempts nor deadline stop the loop
  policy.retry_budget_max = 3.0;
  policy.retry_budget_refill = 0.0;
  s.SetRetryPolicy(policy);

  const Status status = cluster_.Get(s, "t", "r").status();
  // The budget is what ends the storm, so the caller sees the real error,
  // not a deadline artifact.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 3u);
  EXPECT_EQ(s.count(obs::OpCounter::kDeadlineExceeded), 0u);
}

TEST_F(SessionProtectionTest, SuccessRefillsTheBudget) {
  cluster_.SetFaultInjector(&faults_);
  Session s(&cluster_);
  RetryPolicy policy;
  policy.retry_budget_max = 1.0;
  policy.retry_budget_refill = 1.0;
  s.SetRetryPolicy(policy);
  ASSERT_NE(s.retry_budget(), nullptr);

  // Two separate transient blips, a clean op between them: each blip costs
  // one token, each success earns it back, so both ops succeed.
  faults_.Arm(fault::FaultPoint::kRpcTimeout, 0, 1);
  EXPECT_TRUE(cluster_.Get(s, "t", "r").ok());
  faults_.Arm(fault::FaultPoint::kRpcTimeout, 0, 1);
  EXPECT_TRUE(cluster_.Get(s, "t", "r").ok());
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 2u);
}

TEST_F(SessionProtectionTest, OverloadTripsBreakerAndFailsFast) {
  AdmissionConfig admission;
  admission.enabled = true;
  admission.max_inflight_per_server = 1;
  admission.max_queue_depth = 1;
  cluster_.ConfigureAdmission(admission);
  StatusOr<int> server = cluster_.RegionServerOf("t");
  ASSERT_TRUE(server.ok());
  // A standing stampede keeps the queue full; every arrival is shed. (The
  // per-shed phantom drain is overwhelmed by the surplus.)
  cluster_.admission()->InjectBurst(*server, 1000);

  Session s(&cluster_);
  RetryPolicy policy;
  policy.breaker_trip_overloads = 2;
  policy.breaker_cooldown_us = 1e12;  // stays open for the whole test
  s.SetRetryPolicy(policy);
  ASSERT_NE(s.circuit_breaker(), nullptr);

  EXPECT_EQ(cluster_.Get(s, "t", "r").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(cluster_.Get(s, "t", "r").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(s.circuit_breaker()->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 0u)
      << "overload rejections are never retried";

  auto sheds = [this] {
    const obs::RegistrySnapshot snap = cluster_.metrics().Snapshot();
    return snap.CounterValue("hbase_admission_shed_queue_full_total") +
           snap.CounterValue("hbase_admission_shed_deadline_total");
  };
  const uint64_t sheds_before = sheds();
  EXPECT_EQ(cluster_.Get(s, "t", "r").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(sheds(), sheds_before)
      << "an open breaker must fail fast without reaching the server";
  EXPECT_EQ(s.circuit_breaker()->fast_failures(), 1);
  EXPECT_EQ(s.count(obs::OpCounter::kOverloadRejected), 3u);
}

TEST_F(SessionProtectionTest, BreakerRecoversThroughHalfOpenProbe) {
  AdmissionConfig admission;
  admission.enabled = true;
  admission.max_inflight_per_server = 1;
  admission.max_queue_depth = 1;
  cluster_.ConfigureAdmission(admission);
  StatusOr<int> server = cluster_.RegionServerOf("t");
  ASSERT_TRUE(server.ok());
  // Two phantoms: the first Get sheds (queue full) and drains one; the
  // half-open probe then only queues behind the last phantom and succeeds.
  cluster_.admission()->InjectBurst(*server, 2);

  Session s(&cluster_);
  RetryPolicy policy;
  policy.breaker_trip_overloads = 1;
  policy.breaker_cooldown_us = 5000.0;
  s.SetRetryPolicy(policy);

  ASSERT_EQ(cluster_.Get(s, "t", "r").status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(s.circuit_breaker()->state(), CircuitBreaker::State::kOpen);
  // Wait out the cooldown in virtual time; the next op is the probe.
  s.meter().Charge(10000.0);
  EXPECT_TRUE(cluster_.Get(s, "t", "r").ok());
  EXPECT_EQ(s.circuit_breaker()->state(), CircuitBreaker::State::kClosed);
}

}  // namespace
}  // namespace synergy::hbase
