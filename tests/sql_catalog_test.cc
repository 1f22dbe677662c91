#include "sql/catalog.h"

#include <gtest/gtest.h>

namespace synergy::sql {
namespace {

RelationDef Customer() {
  return RelationDef{
      .name = "Customer",
      .columns = {{"c_id", DataType::kInt}, {"c_uname", DataType::kString}},
      .primary_key = {"c_id"},
      .foreign_keys = {}};
}

RelationDef Orders() {
  return RelationDef{
      .name = "Orders",
      .columns = {{"o_id", DataType::kInt}, {"o_c_id", DataType::kInt}},
      .primary_key = {"o_id"},
      .foreign_keys = {{{"o_c_id"}, "Customer"}}};
}

TEST(CatalogTest, AddAndFindRelation) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  const RelationDef* r = cat.FindRelation("Customer");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->HasColumn("c_uname"));
  EXPECT_FALSE(r->HasColumn("zzz"));
  EXPECT_EQ(*r->ColumnType("c_id"), DataType::kInt);
  EXPECT_TRUE(r->IsPrimaryKeyColumn("c_id"));
  EXPECT_FALSE(r->IsPrimaryKeyColumn("c_uname"));
}

TEST(CatalogTest, DuplicateRelationFails) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  EXPECT_EQ(cat.AddRelation(Customer()).code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RelationWithoutPkFails) {
  Catalog cat;
  RelationDef bad{.name = "X", .columns = {{"a", DataType::kInt}}};
  EXPECT_FALSE(cat.AddRelation(bad).ok());
}

TEST(CatalogTest, PkMustBeAColumn) {
  Catalog cat;
  RelationDef bad{.name = "X",
                  .columns = {{"a", DataType::kInt}},
                  .primary_key = {"b"}};
  EXPECT_FALSE(cat.AddRelation(bad).ok());
}

TEST(CatalogTest, IndexCoversPkAutomatically) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  ASSERT_TRUE(cat.AddIndex({.name = "ix_c_uname",
                            .relation = "Customer",
                            .indexed_columns = {"c_uname"}})
                  .ok());
  const IndexDef* ix = cat.FindIndex("ix_c_uname");
  ASSERT_NE(ix, nullptr);
  EXPECT_EQ(ix->covered_columns.size(), 2u);  // c_uname + c_id
  auto for_rel = cat.IndexesFor("Customer");
  ASSERT_EQ(for_rel.size(), 1u);
  EXPECT_EQ(for_rel[0]->name, "ix_c_uname");
}

TEST(CatalogTest, IndexOnMissingRelationFails) {
  Catalog cat;
  EXPECT_FALSE(
      cat.AddIndex({.name = "ix", .relation = "Nope", .indexed_columns = {"a"}})
          .ok());
}

TEST(CatalogTest, IndexOnMissingColumnFails) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  EXPECT_FALSE(cat.AddIndex({.name = "ix",
                             .relation = "Customer",
                             .indexed_columns = {"zzz"}})
                   .ok());
}

TEST(CatalogTest, ForeignKeyLookup) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  ASSERT_TRUE(cat.AddRelation(Orders()).ok());
  const ForeignKey* fk = cat.FindForeignKey("Orders", "Customer");
  ASSERT_NE(fk, nullptr);
  EXPECT_EQ(fk->columns[0], "o_c_id");
  EXPECT_EQ(cat.FindForeignKey("Customer", "Orders"), nullptr);
}

TEST(CatalogTest, ViewsAreRelationsWithMetadata) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  ASSERT_TRUE(cat.AddRelation(Orders()).ok());
  ViewDef view{.name = "Customer-Orders",
               .relations = {"Customer", "Orders"},
               .edges = {{}, {{"o_c_id"}, "Customer"}},
               .root = "Customer"};
  RelationDef storage{.name = "Customer-Orders",
                      .columns = {{"c_id", DataType::kInt},
                                  {"c_uname", DataType::kString},
                                  {"o_id", DataType::kInt},
                                  {"o_c_id", DataType::kInt}},
                      .primary_key = {"o_id"}};
  ASSERT_TRUE(cat.AddView(view, storage).ok());
  EXPECT_TRUE(cat.IsView("Customer-Orders"));
  EXPECT_FALSE(cat.IsView("Customer"));
  ASSERT_NE(cat.FindView("Customer-Orders"), nullptr);
  ASSERT_NE(cat.FindRelation("Customer-Orders"), nullptr);
  EXPECT_EQ(cat.Views().size(), 1u);
  EXPECT_EQ(cat.Relations().size(), 3u);

  // A base-schema copy takes the relations and their indexes, not the
  // views or theirs.
  ASSERT_TRUE(cat.AddIndex({.name = "ix_o_c_id", .relation = "Orders",
                            .indexed_columns = {"o_c_id"}})
                  .ok());
  ASSERT_TRUE(cat.AddIndex({.name = "ix_view_uname",
                            .relation = "Customer-Orders",
                            .indexed_columns = {"c_uname"}})
                  .ok());
  Catalog base;
  ASSERT_TRUE(base.AddBaseSchema(cat).ok());
  EXPECT_EQ(base.Relations().size(), 2u);
  EXPECT_TRUE(base.Views().empty());
  EXPECT_EQ(base.FindRelation("Customer-Orders"), nullptr);
  EXPECT_NE(base.FindIndex("ix_o_c_id"), nullptr);
  EXPECT_EQ(base.FindIndex("ix_view_uname"), nullptr);
  EXPECT_EQ(base.FindWriteLayout("Orders")->indexes.size(), 1u);
}

TEST(CatalogTest, WriteLayoutIsResolvedAtRegistration) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  ASSERT_TRUE(cat.AddRelation(Orders()).ok());
  // Registered out of name order; the layout lists them as IndexesFor does.
  ASSERT_TRUE(cat.AddIndex({.name = "ix_z", .relation = "Orders",
                            .indexed_columns = {"o_c_id"},
                            .covered_columns = {"gone"}})
                  .ok());
  ASSERT_TRUE(cat.AddIndex({.name = "ix_a", .relation = "Orders",
                            .indexed_columns = {"o_c_id"}})
                  .ok());
  const WriteLayout* orders = cat.FindWriteLayout("Orders");
  ASSERT_NE(orders, nullptr);
  EXPECT_EQ(orders->pk_slots, std::vector<int>{0});
  ASSERT_EQ(orders->indexes.size(), 2u);
  EXPECT_EQ(orders->indexes[0].name, "ix_a");
  EXPECT_EQ(orders->indexes[1].name, "ix_z");
  EXPECT_EQ(orders->indexes[1].key_slots, (std::vector<int>{1, 0}));
  // The covered list gains the indexed column and the PK; an unknown
  // covered column resolves to -1 (encoded as NULL).
  EXPECT_EQ(orders->indexes[1].covered_slots, (std::vector<int>{-1, 1, 0}));
  EXPECT_EQ(cat.FindWriteLayout("nope"), nullptr);

  ASSERT_TRUE(cat.AddView({.name = "Customer-Orders",
                           .relations = {"Customer", "Orders"},
                           .edges = {{}, {{"o_c_id"}, "Customer"}},
                           .root = "Customer"},
                          {.name = "Customer-Orders",
                           .columns = {{"o_id", DataType::kInt},
                                       {"c_uname", DataType::kString},
                                       {"c_id", DataType::kInt}},
                           .primary_key = {"o_id"}})
                  .ok());
  ASSERT_EQ(orders->views.size(), 1u);
  const WriteLayout::ViewPath& path = orders->views[0];
  EXPECT_EQ(path.name, "Customer-Orders");
  EXPECT_EQ(path.width, 3u);
  EXPECT_EQ(path.to_view, (std::vector<int>{0, -1}));
  ASSERT_EQ(path.hops.size(), 1u);
  EXPECT_EQ(path.hops[0].parent, "Customer");
  EXPECT_EQ(path.hops[0].fk_slots, std::vector<int>{1});
  EXPECT_EQ(path.hops[0].to_view, (std::vector<int>{2, 1}));
  EXPECT_TRUE(cat.FindWriteLayout("Customer")->views.empty());
  // An update to either member rewrites the view: each lists it with its
  // own column→view-slot map, and only Orders ends it.
  ASSERT_EQ(orders->member_of.size(), 1u);
  EXPECT_EQ(orders->member_of[0].name, "Customer-Orders");
  EXPECT_TRUE(orders->member_of[0].last);
  EXPECT_EQ(orders->member_of[0].to_view, (std::vector<int>{0, -1}));
  const WriteLayout* customer = cat.FindWriteLayout("Customer");
  ASSERT_EQ(customer->member_of.size(), 1u);
  EXPECT_FALSE(customer->member_of[0].last);
  EXPECT_EQ(customer->member_of[0].to_view, (std::vector<int>{2, 1}));
  // Each entry holds the view's own relation and layout, which a move of
  // the catalog keeps in place.
  EXPECT_EQ(customer->member_of[0].relation,
            cat.FindRelation("Customer-Orders"));
  EXPECT_EQ(customer->member_of[0].layout,
            cat.FindWriteLayout("Customer-Orders"));
  Catalog moved = std::move(cat);
  cat = std::move(moved);
  EXPECT_EQ(cat.FindWriteLayout("Customer"), customer);
  EXPECT_EQ(customer->member_of[0].layout,
            cat.FindWriteLayout("Customer-Orders"));

  // A view whose storage fails to register leaves no member entry behind.
  EXPECT_EQ(cat.AddView({.name = "Customer-Orders",
                         .relations = {"Customer", "Orders"},
                         .edges = {{}, {{"o_c_id"}, "Customer"}},
                         .root = "Customer"},
                        {.name = "Customer-Orders",
                         .columns = {{"o_id", DataType::kInt}},
                         .primary_key = {"o_id"}})
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(orders->member_of.size(), 1u);
  EXPECT_EQ(customer->member_of.size(), 1u);
  EXPECT_EQ(orders->views.size(), 1u);
}

TEST(CatalogTest, ViewOverAnUnregisteredRelationFails) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Orders()).ok());
  EXPECT_EQ(cat.AddView({.name = "Customer-Orders",
                         .relations = {"Customer", "Orders"},
                         .edges = {{}, {{"o_c_id"}, "Customer"}},
                         .root = "Customer"},
                        {.name = "Customer-Orders",
                         .columns = {{"o_id", DataType::kInt}},
                         .primary_key = {"o_id"}})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cat.FindRelation("Customer-Orders"), nullptr);
}

TEST(CatalogTest, PrimaryKeyTypes) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation(Customer()).ok());
  auto types = cat.FindRelation("Customer")->PrimaryKeyTypes();
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(types[0], DataType::kInt);
}

}  // namespace
}  // namespace synergy::sql
