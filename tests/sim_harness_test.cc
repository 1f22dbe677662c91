#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "systems/harness.h"

namespace synergy {
namespace {

TEST(CostModelTest, RpcCostIsBasePlusTransfer) {
  sim::CostModel m;
  EXPECT_DOUBLE_EQ(sim::RpcCost(m, 0), m.rpc_base_us);
  EXPECT_DOUBLE_EQ(sim::RpcCost(m, 1024), m.rpc_base_us + m.rpc_per_kb_us);
  EXPECT_GT(sim::RpcCost(m, 4096), sim::RpcCost(m, 1024));
}

TEST(CostModelTest, Ec2PresetIsSane) {
  sim::CostModel m = sim::CostModel::Ec2Like();
  EXPECT_GT(m.rpc_base_us, 0);
  EXPECT_GT(m.mvcc_start_us + m.mvcc_commit_us + m.mvcc_conflict_check_us,
            600000.0);  // the Tephra tax sits in the paper's 800-900ms band
  EXPECT_LT(m.mvcc_start_us + m.mvcc_commit_us + m.mvcc_conflict_check_us,
            1000000.0);
}

TEST(CostMeterTest, AccumulatesAndResets) {
  sim::CostMeter meter;
  EXPECT_DOUBLE_EQ(meter.micros(), 0.0);
  meter.Charge(1500.0);
  meter.Charge(500.0);
  EXPECT_DOUBLE_EQ(meter.micros(), 2000.0);
  EXPECT_DOUBLE_EQ(meter.millis(), 2.0);
  const double mark = meter.micros();
  meter.Charge(100.0);
  EXPECT_DOUBLE_EQ(meter.Since(mark), 100.0);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.micros(), 0.0);
}

TEST(HarnessTest, FormatMsRanges) {
  EXPECT_EQ(systems::FormatMs(0.123), "0.12");
  EXPECT_EQ(systems::FormatMs(5.25), "5.2");
  EXPECT_EQ(systems::FormatMs(512.3), "512");
  EXPECT_EQ(systems::FormatMs(2.5e6), "2.5e+06");
}

TEST(HarnessTest, EnvKnobsFallBackToDefaults) {
  unsetenv("SYNERGY_TPCW_CUSTOMERS");
  unsetenv("SYNERGY_BENCH_REPS");
  EXPECT_EQ(systems::EnvCustomers(1234), 1234);
  EXPECT_EQ(systems::EnvReps(7), 7);
  setenv("SYNERGY_TPCW_CUSTOMERS", "99", 1);
  setenv("SYNERGY_BENCH_REPS", "3", 1);
  EXPECT_EQ(systems::EnvCustomers(1234), 99);
  EXPECT_EQ(systems::EnvReps(7), 3);
  setenv("SYNERGY_TPCW_CUSTOMERS", "garbage", 1);
  EXPECT_EQ(systems::EnvCustomers(1234), 1234);
  unsetenv("SYNERGY_TPCW_CUSTOMERS");
  unsetenv("SYNERGY_BENCH_REPS");
}

TEST(HarnessTest, SystemKindNamesAreStable) {
  using systems::SystemKind;
  EXPECT_STREQ(systems::SystemKindName(SystemKind::kVoltDb), "VoltDB");
  EXPECT_STREQ(systems::SystemKindName(SystemKind::kSynergy), "Synergy");
  EXPECT_STREQ(systems::SystemKindName(SystemKind::kMvccA), "MVCC-A");
  EXPECT_STREQ(systems::SystemKindName(SystemKind::kMvccUA), "MVCC-UA");
  EXPECT_STREQ(systems::SystemKindName(SystemKind::kBaseline), "Baseline");
  EXPECT_EQ(systems::AllSystemKinds().size(), 5u);
  EXPECT_EQ(systems::HBaseBackedKinds().size(), 4u);
}

TEST(HarnessTest, MakeSystemCoversEveryKind) {
  for (const systems::SystemKind kind : systems::AllSystemKinds()) {
    auto system = systems::MakeSystem(kind);
    ASSERT_NE(system, nullptr);
    EXPECT_EQ(system->name(), systems::SystemKindName(kind));
    EXPECT_FALSE(system->Description().empty());
  }
}

}  // namespace
}  // namespace synergy
