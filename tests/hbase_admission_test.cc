// AdmissionController in isolation (budget, virtual queue, queue-full and
// deadline-aware shedding, burst phantoms, RAII slots) and wired into the
// Cluster RPC path (queue waits charged as virtual time, overload-burst
// fault point, kResourceExhausted surfaced to unprotected sessions).
#include "hbase/admission.h"

#include <gtest/gtest.h>

#include <utility>

#include "hbase/cluster.h"
#include "hbase/retry_policy.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

AdmissionConfig SmallConfig() {
  AdmissionConfig config;
  config.enabled = true;
  config.max_inflight_per_server = 2;
  config.max_queue_depth = 3;
  config.est_service_us = 1000.0;
  config.burst_ops = 4;
  return config;
}

constexpr double kNoDeadline = 1e18;

/// Standalone controllers publish into the fixture's registry.
class AdmissionControllerTest : public ::testing::Test {
 protected:
  uint64_t Count(const char* family) const {
    return registry_.Snapshot().CounterValue(family);
  }

  obs::MetricsRegistry registry_;
};

TEST_F(AdmissionControllerTest, AdmitsUnderBudgetWithoutQueueing) {
  AdmissionController admission(/*num_servers=*/1, SmallConfig(), registry_);
  const AdmissionDecision a = admission.Admit(0, kNoDeadline);
  const AdmissionDecision b = admission.Admit(0, kNoDeadline);
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(a.queue_wait_us, 0.0);
  EXPECT_EQ(b.queue_wait_us, 0.0);
  EXPECT_EQ(admission.Occupancy(0), 2);
  EXPECT_EQ(Count("hbase_admission_admitted_total"), 2u);
  EXPECT_EQ(Count("hbase_admission_queued_total"), 0u);
}

TEST_F(AdmissionControllerTest, QueueWaitGrowsWithBacklogDepth) {
  AdmissionController admission(1, SmallConfig(), registry_);
  admission.Admit(0, kNoDeadline);  // inflight 1
  admission.Admit(0, kNoDeadline);  // inflight 2 = budget full
  // Next two ops join the virtual queue at positions 1 and 2.
  const AdmissionDecision q1 = admission.Admit(0, kNoDeadline);
  const AdmissionDecision q2 = admission.Admit(0, kNoDeadline);
  ASSERT_TRUE(q1.status.ok());
  ASSERT_TRUE(q2.status.ok());
  EXPECT_EQ(q1.queue_wait_us, 1 * 1000.0);
  EXPECT_EQ(q2.queue_wait_us, 2 * 1000.0);
  EXPECT_EQ(Count("hbase_admission_queued_total"), 2u);
}

TEST_F(AdmissionControllerTest, QueueFullSheds) {
  AdmissionController admission(1, SmallConfig(), registry_);
  for (int i = 0; i < 2 + 3; ++i) {  // fill budget + queue
    ASSERT_TRUE(admission.Admit(0, kNoDeadline).status.ok());
  }
  const AdmissionDecision shed = admission.Admit(0, kNoDeadline);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted) << shed.status;
  EXPECT_EQ(Count("hbase_admission_shed_queue_full_total"), 1u);
  // Releasing one slot reopens the queue.
  admission.Release(0);
  EXPECT_TRUE(admission.Admit(0, kNoDeadline).status.ok());
}

TEST_F(AdmissionControllerTest, DeadlineAwareShedRejectsHopelessOps) {
  AdmissionController admission(1, SmallConfig(), registry_);
  admission.Admit(0, kNoDeadline);
  admission.Admit(0, kNoDeadline);
  // Estimated wait at queue position 1 is 1000us; an op with only 400us of
  // deadline left is rejected now instead of timing out in the queue.
  const AdmissionDecision shed = admission.Admit(0, /*deadline=*/400.0);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted) << shed.status;
  EXPECT_EQ(Count("hbase_admission_shed_deadline_total"), 1u);
  // The same op with budget to spare is queued, not shed.
  EXPECT_TRUE(admission.Admit(0, /*deadline=*/5000.0).status.ok());
}

TEST_F(AdmissionControllerTest, ServersAreIndependent) {
  AdmissionController admission(/*num_servers=*/2, SmallConfig(), registry_);
  for (int i = 0; i < 5; ++i) admission.Admit(0, kNoDeadline);
  EXPECT_EQ(admission.Admit(0, kNoDeadline).status.code(),
            StatusCode::kResourceExhausted);
  const AdmissionDecision other = admission.Admit(1, kNoDeadline);
  EXPECT_TRUE(other.status.ok());
  EXPECT_EQ(other.queue_wait_us, 0.0);
}

TEST_F(AdmissionControllerTest, BurstPhantomsDrainOnePerRelease) {
  AdmissionController admission(1, SmallConfig(), registry_);
  admission.InjectBurst(0, 2);
  EXPECT_EQ(admission.Occupancy(0), 2);
  EXPECT_EQ(Count("hbase_admission_burst_ops_total"), 2u);
  // Budget is full of phantoms: a real op queues behind them.
  const AdmissionDecision q = admission.Admit(0, kNoDeadline);
  ASSERT_TRUE(q.status.ok());
  EXPECT_GT(q.queue_wait_us, 0.0);
  // Completing it drains one phantom along with the real slot.
  admission.Release(0);
  EXPECT_EQ(admission.Occupancy(0), 1);
  const AdmissionDecision direct = admission.Admit(0, kNoDeadline);
  ASSERT_TRUE(direct.status.ok());
  EXPECT_EQ(direct.queue_wait_us, 0.0);
}

TEST_F(AdmissionControllerTest, OversizedBurstDrainsViaShedsInsteadOfWedging) {
  // Regression: a burst wider than inflight+queue once wedged the server
  // forever — nothing could be admitted, so nothing ever Released a phantom.
  // Shed decisions must also drain the burst.
  AdmissionController admission(1, SmallConfig(), registry_);
  admission.InjectBurst(0, 100);  // far beyond 2 + 3
  int sheds = 0;
  AdmissionDecision d = admission.Admit(0, kNoDeadline);
  while (!d.status.ok()) {
    ++sheds;
    ASSERT_EQ(d.status.code(), StatusCode::kResourceExhausted);
    ASSERT_LT(sheds, 200) << "burst never drained";
    d = admission.Admit(0, kNoDeadline);
  }
  EXPECT_GT(sheds, 0);
  EXPECT_LE(admission.Occupancy(0), 2 + 3 + 1);
}

TEST_F(AdmissionControllerTest, SlotReleasesOnDestructionAndMove) {
  AdmissionController admission(1, SmallConfig(), registry_);
  ASSERT_TRUE(admission.Admit(0, kNoDeadline).status.ok());
  {
    AdmissionSlot slot(&admission, 0);
    EXPECT_EQ(admission.Occupancy(0), 1);
    AdmissionSlot moved(std::move(slot));
    EXPECT_EQ(admission.Occupancy(0), 1) << "move must not double-release";
  }
  EXPECT_EQ(admission.Occupancy(0), 0);
  AdmissionSlot empty;  // default slot owns nothing; destruction is a no-op
}

// ---- wired into the Cluster RPC path ----

class ClusterAdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "t"}).ok());
    Session s(&cluster_);
    ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
    StatusOr<int> server = cluster_.RegionServerOf("t");
    ASSERT_TRUE(server.ok());
    server_ = *server;
  }

  uint64_t Count(const char* family) const {
    return cluster_.metrics().Snapshot().CounterValue(family);
  }

  Cluster cluster_;
  int server_ = 0;
};

TEST_F(ClusterAdmissionTest, DisabledAdmissionIsAbsent) {
  cluster_.ConfigureAdmission(AdmissionConfig{});  // enabled = false
  EXPECT_EQ(cluster_.admission(), nullptr);
  Session s(&cluster_);
  EXPECT_TRUE(cluster_.Get(s, "t", "r").ok());
}

TEST_F(ClusterAdmissionTest, QueueWaitIsChargedAsVirtualTime) {
  AdmissionConfig config = SmallConfig();
  config.max_inflight_per_server = 1;
  cluster_.ConfigureAdmission(config);
  ASSERT_NE(cluster_.admission(), nullptr);
  cluster_.admission()->InjectBurst(server_, 1);  // budget now full

  Session s(&cluster_);
  const double before_us = s.meter().micros();
  ASSERT_TRUE(cluster_.Get(s, "t", "r").ok());
  EXPECT_GE(s.meter().micros() - before_us, config.est_service_us)
      << "the modeled queue wait must land on the client's meter";
  EXPECT_EQ(Count("hbase_admission_queued_total"), 1u);
}

TEST_F(ClusterAdmissionTest, QueueFullShedSurfacesToUnprotectedSession) {
  AdmissionConfig config = SmallConfig();
  config.max_inflight_per_server = 1;
  config.max_queue_depth = 2;
  cluster_.ConfigureAdmission(config);
  cluster_.admission()->InjectBurst(server_, 10);

  Session s(&cluster_);  // no retry policy: the rejection surfaces raw
  const Status status = cluster_.Get(s, "t", "r").status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_GT(Count("hbase_admission_shed_queue_full_total"), 0u);
}

TEST_F(ClusterAdmissionTest, OverloadBurstFaultInjectsPhantoms) {
  AdmissionConfig config = SmallConfig();
  config.max_inflight_per_server = 1;
  config.burst_ops = 3;
  cluster_.ConfigureAdmission(config);
  fault::FaultInjector faults(7);
  faults.Arm(fault::FaultPoint::kOverloadBurst, /*skip_hits=*/0,
             /*max_fires=*/1);
  cluster_.SetFaultInjector(&faults);

  Session s(&cluster_);
  // The burst lands before the triggering op's own admission decision, so
  // that op already queues behind the phantoms (and still completes).
  ASSERT_TRUE(cluster_.Get(s, "t", "r").ok());
  EXPECT_EQ(Count("hbase_admission_burst_ops_total"), 3u);
  const double before_us = s.meter().micros();
  ASSERT_TRUE(cluster_.Get(s, "t", "r").ok());
  EXPECT_GE(s.meter().micros() - before_us, config.est_service_us);
}

TEST_F(ClusterAdmissionTest, DeadlineAwareShedUsesTheSessionOpDeadline) {
  AdmissionConfig config = SmallConfig();
  config.max_inflight_per_server = 1;
  config.est_service_us = 100000.0;  // any queued op waits >= 100ms
  cluster_.ConfigureAdmission(config);
  cluster_.admission()->InjectBurst(server_, 1);

  Session s(&cluster_);
  RetryPolicy policy;
  policy.deadline_us = 20000;  // 20ms budget can never absorb a 100ms wait
  s.SetRetryPolicy(policy);
  const Status status = cluster_.Get(s, "t", "r").status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_EQ(Count("hbase_admission_shed_deadline_total"), 1u);
  EXPECT_EQ(s.count(obs::OpCounter::kOverloadRejected), 1u);
  EXPECT_EQ(s.count(obs::OpCounter::kRetries), 0u)
      << "overload must not be retried";
}

}  // namespace
}  // namespace synergy::hbase
