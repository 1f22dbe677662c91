#include "exec/row_codec.h"

namespace synergy::exec {
namespace {

const Value kNull;

const Value& TupleGet(const Tuple& tuple, const std::string& column) {
  auto it = tuple.find(column);
  return it == tuple.end() ? kNull : it->second;
}

}  // namespace

StatusOr<std::string> EncodePkKey(const sql::RelationDef& rel,
                                  const Tuple& tuple) {
  std::vector<Value> pk;
  pk.reserve(rel.primary_key.size());
  for (const std::string& col : rel.primary_key) {
    const Value& v = TupleGet(tuple, col);
    if (v.is_null()) {
      return Status::InvalidArgument("NULL or missing PK column " + col +
                                     " for relation " + rel.name);
    }
    pk.push_back(v);
  }
  return codec::EncodeKey(pk);
}

std::string EncodePkKeyFromValues(const std::vector<Value>& pk_values) {
  return codec::EncodeKey(pk_values);
}

std::pair<std::string, std::string> IndexPrefixRange(
    const std::vector<Value>& prefix_values) {
  const std::string start = codec::EncodeKey(prefix_values);
  return {start, codec::PrefixSuccessor(start)};
}

std::string EncodeRowValue(const sql::RelationDef& rel, const Tuple& tuple) {
  std::string out;
  for (const sql::Column& col : rel.columns) {
    codec::EncodeValue(TupleGet(tuple, col.name), &out);
  }
  return out;
}

std::vector<Value> TupleToSlots(const sql::RelationDef& rel,
                                const Tuple& tuple) {
  std::vector<Value> row;
  row.reserve(rel.columns.size());
  for (const sql::Column& col : rel.columns) {
    row.push_back(TupleGet(tuple, col.name));
  }
  return row;
}

void EncodeSlots(const std::vector<Value>& row, const std::vector<int>& slots,
                 std::string* out) {
  for (const int slot : slots) {
    codec::EncodeValue(slot < 0 ? kNull : row[static_cast<size_t>(slot)], out);
  }
}

std::string EncodeRowSlots(const std::vector<Value>& row) {
  std::string out;
  for (const Value& v : row) codec::EncodeValue(v, &out);
  return out;
}

StatusOr<Tuple> DecodeRowValue(const std::vector<sql::Column>& columns,
                               std::string_view bytes) {
  Tuple tuple;
  for (const sql::Column& col : columns) {
    SYNERGY_ASSIGN_OR_RETURN(v, codec::DecodeValue(&bytes, col.type));
    if (!v.is_null()) tuple.emplace(col.name, std::move(v));
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes in row value");
  }
  return tuple;
}

Status DecodeRowSlots(const std::vector<sql::Column>& columns,
                      std::span<const int> slot_map, std::string_view bytes,
                      std::vector<Value>* out) {
  out->clear();
  out->resize(columns.size());  // all slots NULL
  const bool identity = slot_map.empty();
  const size_t stored = identity ? columns.size() : slot_map.size();
  for (size_t i = 0; i < stored; ++i) {
    const int slot = identity ? static_cast<int>(i) : slot_map[i];
    const DataType type = slot < 0 ? DataType::kString
                                   : columns[static_cast<size_t>(slot)].type;
    SYNERGY_ASSIGN_OR_RETURN(v, codec::DecodeValue(&bytes, type));
    if (slot >= 0) (*out)[static_cast<size_t>(slot)] = std::move(v);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes in row value");
  }
  return Status::Ok();
}

void EncodePkKeyFromValuesInto(const std::vector<Value>& pk_values,
                               std::string* out) {
  codec::EncodeKeyInto(pk_values, out);
}

}  // namespace synergy::exec
