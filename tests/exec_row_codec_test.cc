#include "exec/row_codec.h"

#include <gtest/gtest.h>

namespace synergy::exec {
namespace {

sql::RelationDef Rel() {
  return sql::RelationDef{
      .name = "T",
      .columns = {{"id", DataType::kInt},
                  {"name", DataType::kString},
                  {"score", DataType::kDouble}},
      .primary_key = {"id"}};
}

TEST(RowCodecTest, PkKeyRoundTrip) {
  auto rel = Rel();
  Tuple t{{"id", Value(7)}, {"name", Value("x")}};
  auto key = EncodePkKey(rel, t);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, EncodePkKeyFromValues({Value(7)}));
}

TEST(RowCodecTest, MissingPkFails) {
  auto rel = Rel();
  Tuple t{{"name", Value("x")}};
  EXPECT_FALSE(EncodePkKey(rel, t).ok());
}

TEST(RowCodecTest, RowValueRoundTrip) {
  auto rel = Rel();
  Tuple t{{"id", Value(1)}, {"name", Value("bob")}, {"score", Value(2.5)}};
  std::string bytes = EncodeRowValue(rel, t);
  auto decoded = DecodeRowValue(rel.columns, bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->at("id"), Value(1));
  EXPECT_EQ(decoded->at("name"), Value("bob"));
  EXPECT_EQ(decoded->at("score"), Value(2.5));
}

TEST(RowCodecTest, MissingColumnsDecodeAsAbsent) {
  auto rel = Rel();
  Tuple t{{"id", Value(1)}};
  auto decoded = DecodeRowValue(rel.columns, EncodeRowValue(rel, t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 1u);
  EXPECT_FALSE(decoded->contains("name"));
}

// Rel()'s write layout with one index on `name`, as the catalog resolves
// it when the index registers.
sql::WriteLayout LayoutWithNameIndex(std::vector<std::string> covered) {
  sql::Catalog catalog;
  EXPECT_TRUE(catalog.AddRelation(Rel()).ok());
  EXPECT_TRUE(catalog
                  .AddIndex({.name = "ix_name",
                             .relation = "T",
                             .indexed_columns = {"name"},
                             .covered_columns = std::move(covered)})
                  .ok());
  return *catalog.FindWriteLayout("T");
}

std::string Encode(const std::vector<Value>& row,
                   const std::vector<int>& slots) {
  std::string out;
  EncodeSlots(row, slots, &out);
  return out;
}

TEST(RowCodecTest, SlotFormFollowsSchemaOrder) {
  auto rel = Rel();
  Tuple t{{"score", Value(2.5)}, {"id", Value(1)}, {"other", Value(9)}};
  const std::vector<Value> row = TupleToSlots(rel, t);
  ASSERT_EQ(row.size(), 3u);  // "other" is not a column of T
  EXPECT_EQ(row[0], Value(1));
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2], Value(2.5));
  EXPECT_EQ(EncodeRowSlots(row), EncodeRowValue(rel, t));
}

TEST(RowCodecTest, PkSlotsEncodeTheRowKey) {
  const sql::WriteLayout layout = LayoutWithNameIndex({});
  const std::vector<Value> row = {Value(7), Value("x"), Value()};
  EXPECT_EQ(Encode(row, layout.pk_slots), EncodePkKeyFromValues({Value(7)}));
}

TEST(RowCodecTest, IndexKeyIncludesPkSuffix) {
  const sql::WriteLayout layout = LayoutWithNameIndex({"name", "id"});
  const sql::WriteLayout::Index& ix = layout.indexes.at(0);
  const std::string ka =
      Encode({Value(1), Value("bob"), Value()}, ix.key_slots);
  const std::string kb =
      Encode({Value(2), Value("bob"), Value()}, ix.key_slots);
  EXPECT_NE(ka, kb);  // same indexed value, different PK
  EXPECT_LT(ka, kb);
  EXPECT_EQ(ka, codec::EncodeKey({Value("bob"), Value(1)}));
}

TEST(RowCodecTest, IndexPrefixRangeCoversAllPks) {
  const sql::WriteLayout layout = LayoutWithNameIndex({"name", "id"});
  const sql::WriteLayout::Index& ix = layout.indexes.at(0);
  auto [start, stop] = IndexPrefixRange({Value("bob")});
  for (int id : {1, 50, 999}) {
    const std::string key =
        Encode({Value(id), Value("bob"), Value()}, ix.key_slots);
    EXPECT_GE(key, start);
    EXPECT_LT(key, stop);
  }
  EXPECT_GE(Encode({Value(1), Value("carol"), Value()}, ix.key_slots), stop);
}

TEST(RowCodecTest, CoveredValueUsesCoveredOrder) {
  // The catalog appends the indexed column the covered list lacks.
  const sql::WriteLayout layout = LayoutWithNameIndex({"score", "id"});
  const sql::WriteLayout::Index& ix = layout.indexes.at(0);
  EXPECT_EQ(ix.covered_slots, (std::vector<int>{2, 0, 1}));
  const std::string bytes =
      Encode({Value(3), Value("x"), Value(1.0)}, ix.covered_slots);
  EXPECT_EQ(bytes, codec::EncodeKey({Value(1.0), Value(3), Value("x")}));
  std::vector<Value> decoded;
  ASSERT_TRUE(
      DecodeRowSlots(Rel().columns, ix.covered_slots, bytes, &decoded).ok());
  EXPECT_EQ(decoded, (std::vector<Value>{Value(3), Value("x"), Value(1.0)}));
}

TEST(RowCodecTest, CoveredColumnOutsideTheRelationEncodesNull) {
  const sql::WriteLayout layout = LayoutWithNameIndex({"name", "gone", "id"});
  const sql::WriteLayout::Index& ix = layout.indexes.at(0);
  EXPECT_EQ(ix.covered_slots, (std::vector<int>{1, -1, 0}));
  const std::string bytes =
      Encode({Value(3), Value("x"), Value()}, ix.covered_slots);
  EXPECT_EQ(bytes, codec::EncodeKey({Value("x"), Value(), Value(3)}));
  std::vector<Value> decoded;
  ASSERT_TRUE(
      DecodeRowSlots(Rel().columns, ix.covered_slots, bytes, &decoded).ok());
  EXPECT_EQ(decoded, (std::vector<Value>{Value(3), Value("x"), Value()}));
}

}  // namespace
}  // namespace synergy::exec
