#include "exec/row_codec.h"

#include <algorithm>

namespace synergy::exec {
namespace {

const Value kNull;

const Value& TupleGet(const Tuple& tuple, const std::string& column) {
  auto it = tuple.find(column);
  return it == tuple.end() ? kNull : it->second;
}

}  // namespace

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
  TupleToSlots(rel, tuple, &row);
  return row;
}

void TupleToSlots(const sql::RelationDef& rel, const Tuple& tuple,
                  std::vector<Value>* out) {
  out->resize(rel.columns.size());
  for (size_t i = 0; i < rel.columns.size(); ++i) {
    (*out)[i] = TupleGet(tuple, rel.columns[i].name);
  }
}

void EncodeSlots(const std::vector<Value>& row, const std::vector<int>& slots,
                 std::string* out) {
  for (const int slot : slots) {
    codec::EncodeValue(slot < 0 ? kNull : row[static_cast<size_t>(slot)], out);
  }
}

std::string EncodeRowSlots(const std::vector<Value>& row) {
  std::string out;
  EncodeRowSlots(row, &out);
  return out;
}

void EncodeRowSlots(const std::vector<Value>& row, std::string* out) {
  for (const Value& v : row) codec::EncodeValue(v, out);
}

Status DecodeRowSlots(const std::vector<sql::Column>& columns,
                      std::span<const int> slot_map, std::string_view bytes,
                      std::vector<Value>* out) {
  out->resize(columns.size());
  const bool identity = slot_map.empty();
  // An index row fills only its covered slots; the rest are NULL.
  if (!identity) std::fill(out->begin(), out->end(), Value());
  Value discarded;
  const size_t stored = identity ? columns.size() : slot_map.size();
  for (size_t i = 0; i < stored; ++i) {
    const int slot = identity ? static_cast<int>(i) : slot_map[i];
    const DataType type = slot < 0 ? DataType::kString
                                   : columns[static_cast<size_t>(slot)].type;
    SYNERGY_RETURN_IF_ERROR(codec::DecodeValueInto(
        &bytes, type,
        slot < 0 ? &discarded : &(*out)[static_cast<size_t>(slot)]));
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
