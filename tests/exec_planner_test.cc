// Planner behaviour: access-path choice, greedy join ordering, cardinality
// hints, and the INL-vs-hash decision.
#include "exec/planner.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace synergy::exec {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto must = [](Status s) { ASSERT_TRUE(s.ok()) << s; };
    must(catalog_.AddRelation({.name = "Parent",
                               .columns = {{"p_id", DataType::kInt},
                                           {"p_tag", DataType::kString}},
                               .primary_key = {"p_id"}}));
    must(catalog_.AddRelation({.name = "Child",
                               .columns = {{"c_id", DataType::kInt},
                                           {"c_p_id", DataType::kInt},
                                           {"c_tag", DataType::kString}},
                               .primary_key = {"c_id"},
                               .foreign_keys = {{{"c_p_id"}, "Parent"}}}));
    must(catalog_.AddIndex({.name = "ix_child_p",
                            .relation = "Child",
                            .indexed_columns = {"c_p_id"},
                            .covered_columns = {"c_p_id", "c_id", "c_tag"},
                            .cardinality = sql::IndexCardinality::kHigh}));
    must(catalog_.AddIndex({.name = "ix_parent_tag",
                            .relation = "Parent",
                            .indexed_columns = {"p_tag"},
                            .covered_columns = {"p_tag", "p_id"},
                            .cardinality = sql::IndexCardinality::kLow}));
    rows_["Parent"] = 10000;
    rows_["Child"] = 100000;
  }

  SelectPlan Plan(const std::string& sql, PlannerOptions options = {}) {
    stmts_.push_back(sql::MustParse(sql));
    auto plan = PlanSelect(std::get<sql::SelectStatement>(stmts_.back()),
                           catalog_,
                           [&](const std::string& r) { return rows_[r]; },
                           options);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? std::move(*plan) : SelectPlan{};
  }

  sql::Catalog catalog_;
  std::map<std::string, size_t> rows_;
  std::vector<sql::Statement> stmts_;
};

TEST_F(PlannerTest, FullPkEqualityIsPkGet) {
  auto plan = Plan("SELECT p_id FROM Parent WHERE p_id = 7");
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].path.kind, AccessPath::Kind::kPkGet);
  EXPECT_EQ(plan.steps[0].estimated_rows, 1.0);
}

TEST_F(PlannerTest, CoveredIndexPrefixScanChosen) {
  auto plan = Plan("SELECT p_id FROM Parent WHERE p_tag = 'x'");
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].path.kind, AccessPath::Kind::kIndexPrefixScan);
  EXPECT_EQ(plan.steps[0].path.index_name, "ix_parent_tag");
  // kLow cardinality -> rows/20.
  EXPECT_DOUBLE_EQ(plan.steps[0].estimated_rows, 10000.0 / 20.0);
}

TEST_F(PlannerTest, IndexNotUsedWhenItDoesNotCover) {
  // SELECT * needs p_tag AND p_id — ix_parent_tag covers both, but a
  // filter on an uncovered need falls back to a full scan.
  auto plan = Plan("SELECT * FROM Child WHERE c_tag = 'x'");
  EXPECT_EQ(plan.steps[0].path.kind, AccessPath::Kind::kFullScan);
}

TEST_F(PlannerTest, GreedyOrderStartsAtMostSelectiveTable) {
  // Child has the filter with the highest selectivity? No: Parent PK get.
  auto plan = Plan(
      "SELECT * FROM Child as c, Parent as p "
      "WHERE c.c_p_id = p.p_id AND p.p_id = 3");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].table.table, "Parent");
  EXPECT_EQ(plan.steps[1].method, PlanStep::Method::kIndexNestedLoop);
  EXPECT_EQ(plan.steps[1].path.index_name, "ix_child_p");
}

TEST_F(PlannerTest, HashJoinForUnfilteredJoin) {
  auto plan = Plan(
      "SELECT p.p_id FROM Parent as p, Child as c WHERE p.p_id = c.c_p_id");
  ASSERT_EQ(plan.steps.size(), 2u);
  // Both sides full scans -> big outer estimate -> hash join.
  EXPECT_EQ(plan.steps[1].method, PlanStep::Method::kHashJoin);
}

TEST_F(PlannerTest, ForceHashJoinOverridesInl) {
  PlannerOptions options;
  options.force_hash_join = true;
  auto plan = Plan(
      "SELECT * FROM Parent as p, Child as c "
      "WHERE p.p_id = c.c_p_id AND p.p_id = 3",
      options);
  EXPECT_EQ(plan.steps[1].method, PlanStep::Method::kHashJoin);
}

TEST_F(PlannerTest, ConstFilterOnInlInnerStaysResidual) {
  // Regression: a constant filter must survive the INL path replacement.
  auto plan = Plan(
      "SELECT * FROM Parent as p, Child as c "
      "WHERE p.p_id = c.c_p_id AND p.p_id = 3 AND c.c_tag = 'keep'");
  ASSERT_EQ(plan.steps.size(), 2u);
  ASSERT_EQ(plan.steps[1].method, PlanStep::Method::kIndexNestedLoop);
  bool found = false;
  for (const sql::Predicate* pred : plan.steps[1].residual) {
    if (pred->ToString().find("keep") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(PlannerTest, UnknownTableFails) {
  sql::Statement stmt = sql::MustParse("SELECT * FROM Nope");
  EXPECT_FALSE(PlanSelect(std::get<sql::SelectStatement>(stmt), catalog_,
                          nullptr, {})
                   .ok());
}

TEST_F(PlannerTest, UnresolvableColumnFails) {
  sql::Statement stmt = sql::MustParse("SELECT * FROM Parent WHERE ghost = 1");
  EXPECT_FALSE(PlanSelect(std::get<sql::SelectStatement>(stmt), catalog_,
                          nullptr, {})
                   .ok());
}

TEST_F(PlannerTest, ExplainMentionsMethodAndPath) {
  auto plan = Plan(
      "SELECT * FROM Parent as p, Child as c "
      "WHERE p.p_id = c.c_p_id AND p.p_id = 3");
  const std::string text = plan.Explain();
  EXPECT_NE(text.find("PK_GET"), std::string::npos);
  EXPECT_NE(text.find("INDEX_NESTED_LOOP"), std::string::npos);
}

TEST_F(PlannerTest, CrossJoinFallsBackToHashJoinWithoutKeys) {
  auto plan = Plan("SELECT p.p_id FROM Parent as p, Child as c");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[1].method, PlanStep::Method::kHashJoin);
  EXPECT_TRUE(plan.steps[1].equi_joins.empty());
}

}  // namespace
}  // namespace synergy::exec
