#include <gtest/gtest.h>

#include <map>

#include "exec/write_binding.h"
#include "sql/parser.h"
#include "synergy/synergy_system.h"
#include "tpcw/generator.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace synergy::tpcw {
namespace {

TEST(TpcwSchemaTest, AllRelationsPresent) {
  sql::Catalog cat = BuildCatalog();
  for (const char* rel :
       {"Country", "Address", "Author", "Customer", "Item", "Orders",
        "Order_line", "CC_Xacts", "Shopping_cart", "Shopping_cart_line",
        "Orders_tmp"}) {
    EXPECT_NE(cat.FindRelation(rel), nullptr) << rel;
  }
}

TEST(TpcwSchemaTest, ForeignKeysWired) {
  sql::Catalog cat = BuildCatalog();
  EXPECT_NE(cat.FindForeignKey("Orders", "Customer"), nullptr);
  EXPECT_NE(cat.FindForeignKey("Order_line", "Orders"), nullptr);
  EXPECT_NE(cat.FindForeignKey("Order_line", "Item"), nullptr);
  EXPECT_NE(cat.FindForeignKey("Item", "Author"), nullptr);
  EXPECT_NE(cat.FindForeignKey("Customer", "Address"), nullptr);
  EXPECT_NE(cat.FindForeignKey("Address", "Country"), nullptr);
  // Orders_tmp intentionally has no FK metadata.
  EXPECT_EQ(cat.FindRelation("Orders_tmp")->foreign_keys.size(), 0u);
}

TEST(TpcwSchemaTest, BaseIndexesExist) {
  sql::Catalog cat = BuildCatalog();
  EXPECT_NE(cat.FindIndex("ix_customer_uname"), nullptr);
  EXPECT_TRUE(cat.FindIndex("ix_customer_uname")->unique);
  EXPECT_NE(cat.FindIndex("ix_ol_o_id"), nullptr);
}

TEST(TpcwWorkloadTest, AllStatementsParse) {
  sql::Workload w = BuildWorkload();
  EXPECT_EQ(w.statements.size(), 11u + 13u + 8u);
  for (const std::string& id : JoinQueryIds()) {
    ASSERT_NE(w.Find(id), nullptr) << id;
    EXPECT_TRUE(sql::IsReadStatement(w.Find(id)->ast)) << id;
  }
  for (const std::string& id : WriteStatementIds()) {
    ASSERT_NE(w.Find(id), nullptr) << id;
    EXPECT_FALSE(sql::IsReadStatement(w.Find(id)->ast)) << id;
  }
}

// An INSERT naming a column its relation lacks fails at bind, naming the
// column and the relation, rather than writing the row without it. So do an
// UPDATE that SETs a column the relation lacks or a key column, and an
// INSERT that leaves a key column NULL: on Synergy each fails before the
// pre-image read, so it costs no virtual time and leaves no WAL entry that
// a slave recovery would replay.
TEST(TpcwWorkloadTest, InsertOfUnknownColumnFailsToBind) {
  const sql::Catalog cat = BuildCatalog();
  StatusOr<exec::BoundWrite> bogus = exec::BindWriteStatement(
      sql::MustParse("INSERT INTO Customer (c_id, bogus) VALUES (1, 2)"), cat);
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bogus.status().message().find("bogus"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("Customer"), std::string::npos);
  EXPECT_TRUE(exec::BindWriteStatement(
                  sql::MustParse(
                      "INSERT INTO Customer (c_id, c_uname) VALUES (1, 'u')"),
                  cat)
                  .ok());

  hbase::Cluster cluster;
  core::SynergySystem system(&cluster, {.roots = Roots()});
  ASSERT_TRUE(system.Build(cat, BuildWorkload()).ok());
  ASSERT_TRUE(system.CreateStorage().ok());
  ScaleConfig scale;
  scale.num_customers = 10;
  hbase::Session load(&cluster);
  ASSERT_TRUE(GenerateDatabase(scale, [&](const std::string& relation,
                                          const exec::Tuple& tuple) {
                return system.Load(load, relation, tuple);
              }).ok());
  auto wal_entries = [&] {
    size_t entries = 0;
    for (int i = 0; i < system.txn_layer()->num_slaves(); ++i) {
      entries += system.txn_layer()->slave(i)->wal()->size();
    }
    return entries;
  };
  for (const char* bad : {"UPDATE Item SET i_id = 5 WHERE i_id = 1",
                          "UPDATE Item SET bogus = 1 WHERE i_id = 1",
                          "UPDATE Customer SET c_id = 5 WHERE c_id = 1",
                          "UPDATE Customer SET bogus = 1 WHERE c_id = 1",
                          "INSERT INTO Orders (o_c_id) VALUES (1)",
                          "INSERT INTO Customer (c_uname) VALUES ('u')"}) {
    const sql::Statement stmt = sql::MustParse(bad);
    EXPECT_EQ(exec::BindWriteStatement(stmt, cat).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    const size_t entries = wal_entries();
    hbase::Session s(&cluster);
    EXPECT_EQ(system.ExecuteWrite(s, stmt, {}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(wal_entries(), entries) << bad;
    EXPECT_EQ(s.meter().micros(), 0.0) << bad;
  }
}

TEST(TpcwGeneratorTest, CardinalitiesFollowPaper) {
  ScaleConfig cfg;
  cfg.num_customers = 100;
  EXPECT_EQ(cfg.num_items(), 1000);
  EXPECT_EQ(cfg.num_orders(), 1000);  // Customer:Orders = 1:10
  EXPECT_EQ(cfg.num_authors(), 250);
  EXPECT_EQ(cfg.num_addresses(), 200);
  EXPECT_EQ(cfg.num_countries(), 92);

  std::map<std::string, size_t> counts;
  ASSERT_TRUE(GenerateDatabase(cfg, [&](const std::string& rel,
                                        const exec::Tuple&) {
                counts[rel] += 1;
                return Status::Ok();
              })
                  .ok());
  EXPECT_EQ(counts["Customer"], 100u);
  EXPECT_EQ(counts["Item"], 1000u);
  EXPECT_EQ(counts["Orders"], 1000u);
  EXPECT_EQ(counts["CC_Xacts"], 1000u);
  EXPECT_GE(counts["Order_line"], 1000u);
  EXPECT_LE(counts["Order_line"], 5000u);
  EXPECT_EQ(counts["Country"], 92u);
  EXPECT_EQ(counts["Orders_tmp"], 1000u);  // min(3333, orders)
}

TEST(TpcwGeneratorTest, DeterministicAcrossRuns) {
  ScaleConfig cfg;
  cfg.num_customers = 20;
  std::vector<std::string> first, second;
  auto capture = [](std::vector<std::string>* out) {
    return [out](const std::string& rel, const exec::Tuple& t) {
      std::string row = rel;
      for (const auto& [k, v] : t) row += "|" + k + "=" + v.ToString();
      out->push_back(std::move(row));
      return Status::Ok();
    };
  };
  ASSERT_TRUE(GenerateDatabase(cfg, capture(&first)).ok());
  ASSERT_TRUE(GenerateDatabase(cfg, capture(&second)).ok());
  EXPECT_EQ(first, second);
}

// Loading is serial: a caller that asks for load threads learns so before
// any row is emitted.
TEST(TpcwGeneratorTest, MoreThanOneLoadThreadIsRejected) {
  ScaleConfig cfg;
  cfg.num_customers = 20;
  cfg.load_threads = 2;
  size_t rows = 0;
  const Status s =
      GenerateDatabase(cfg, [&](const std::string&, const exec::Tuple&) {
        ++rows;
        return Status::Ok();
      });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rows, 0u);
}

TEST(TpcwGeneratorTest, TuplesMatchSchema) {
  sql::Catalog cat = BuildCatalog();
  ScaleConfig cfg;
  cfg.num_customers = 10;
  ASSERT_TRUE(GenerateDatabase(cfg, [&](const std::string& rel,
                                        const exec::Tuple& t) {
                const sql::RelationDef* def = cat.FindRelation(rel);
                EXPECT_NE(def, nullptr) << rel;
                for (const auto& [col, value] : t) {
                  EXPECT_TRUE(def->HasColumn(col)) << rel << "." << col;
                }
                for (const std::string& pk : def->primary_key) {
                  EXPECT_TRUE(t.contains(pk)) << rel << " missing " << pk;
                }
                return Status::Ok();
              })
                  .ok());
}

class ParamProviderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParamProviderTest, ParamsMatchStatementArity) {
  ScaleConfig cfg;
  cfg.num_customers = 50;
  ParamProvider params(cfg);
  sql::Workload w = BuildWorkload();
  const sql::WorkloadStatement* stmt = w.Find(GetParam());
  ASSERT_NE(stmt, nullptr);
  for (int i = 0; i < 5; ++i) {
    auto p = params.ParamsFor(GetParam());
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(static_cast<int>(p->size()), sql::CountParams(stmt->ast))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStatements, ParamProviderTest,
    ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9",
                      "Q10", "Q11", "W1", "W2", "W3", "W4", "W5", "W6", "W7",
                      "W8", "W9", "W10", "W11", "W12", "W13", "S1", "S2",
                      "S3", "S4", "S5", "S6", "S7", "S8"));

TEST(ParamProviderTest, UnknownStatementFails) {
  ScaleConfig cfg;
  ParamProvider params(cfg);
  EXPECT_FALSE(params.ParamsFor("Z9").ok());
}

TEST(ParamProviderTest, FreshInsertIdsNeverCollide) {
  ScaleConfig cfg;
  ParamProvider params(cfg);
  std::set<int64_t> ids;
  for (int i = 0; i < 100; ++i) {
    auto p = params.ParamsFor("W1");
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(ids.insert((*p)[0].as_int()).second);
    EXPECT_GT((*p)[0].as_int(), cfg.num_orders());
  }
}

}  // namespace
}  // namespace synergy::tpcw
