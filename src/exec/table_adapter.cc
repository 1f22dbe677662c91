#include "exec/table_adapter.h"

#include <map>

namespace synergy::exec {
namespace {

/// A Put's row key and value, encoded into buffers a session reuses from
/// one Put to the next.
struct PutBuffers {
  std::string key;
  std::string value;
};

/// The slot rows SessionSlots fills, one per relation.
struct SlotRows {
  std::map<std::string, std::vector<Value>, std::less<>> by_relation;
};

std::string IndexKey(const sql::WriteLayout::Index& ix,
                     const std::vector<Value>& row) {
  std::string key;
  EncodeSlots(row, ix.key_slots, &key);
  return key;
}

std::string CoveredValue(const sql::WriteLayout::Index& ix,
                         const std::vector<Value>& row) {
  std::string value;
  EncodeSlots(row, ix.covered_slots, &value);
  return value;
}

}  // namespace

const std::vector<Value>& SessionSlots(hbase::Session& s,
                                       const sql::RelationDef& rel,
                                       const Tuple& tuple) {
  std::vector<Value>& row = s.scratch<SlotRows>().by_relation[rel.name];
  TupleToSlots(rel, tuple, &row);
  return row;
}

StatusOr<bool> TupleScanner::NextSlots(SlotRow* out) {
  hbase::RowResult row;
  while (scanner_.Next(&row)) {
    // Single pass over the (few) columns: pick out data + mark together.
    const std::string* data = nullptr;
    out->marked = false;
    for (const auto& [qual, value] : row.columns) {
      if (qual == kDataQualifier) {
        data = &value;
      } else if (qual == kMarkQualifier) {
        out->marked = value == "1";
      }
    }
    if (data == nullptr) continue;  // e.g. mark-only residue
    SYNERGY_RETURN_IF_ERROR(
        DecodeRowSlots(*columns_, slot_map_, *data, &out->values));
    return true;
  }
  SYNERGY_RETURN_IF_ERROR(scanner_.status());
  return false;
}

Status TableAdapter::CreateStorage(const std::string& relation,
                                   int max_versions) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable(
      {.name = relation, .max_versions = max_versions}));
  for (const sql::IndexDef* ix : catalog_->IndexesFor(relation)) {
    SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable(
        {.name = ix->name, .max_versions = max_versions}));
  }
  return Status::Ok();
}

Status TableAdapter::InsertRow(hbase::Session& s, const std::string& relation,
                               const std::vector<Value>& row) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  if (row.size() != rel->columns.size()) {
    return Status::InvalidArgument(std::to_string(row.size()) +
                                   " slots in a row of relation " + relation);
  }
  const sql::WriteLayout& layout = *catalog_->FindWriteLayout(relation);
  for (size_t i = 0; i < layout.pk_slots.size(); ++i) {
    if (row[static_cast<size_t>(layout.pk_slots[i])].is_null()) {
      return Status::InvalidArgument("NULL or missing PK column " +
                                     rel->primary_key[i] + " for relation " +
                                     relation);
    }
  }
  PutBuffers& put = s.scratch<PutBuffers>();
  put.key.clear();
  EncodeSlots(row, layout.pk_slots, &put.key);
  put.value.clear();
  EncodeRowSlots(row, &put.value);
  SYNERGY_RETURN_IF_ERROR(
      cluster_->Put(s, relation, put.key, {{kDataQualifier, put.value}}));
  for (const sql::WriteLayout::Index& ix : layout.indexes) {
    put.key.clear();
    EncodeSlots(row, ix.key_slots, &put.key);
    put.value.clear();
    EncodeSlots(row, ix.covered_slots, &put.value);
    SYNERGY_RETURN_IF_ERROR(
        cluster_->Put(s, ix.name, put.key, {{kDataQualifier, put.value}}));
  }
  return Status::Ok();
}

Status TableAdapter::Insert(hbase::Session& s, const std::string& relation,
                            const Tuple& tuple) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  return InsertRow(s, relation, SessionSlots(s, *rel, tuple));
}

StatusOr<bool> TableAdapter::GetByPkSlots(hbase::Session& s,
                                          const std::string& relation,
                                          const std::vector<Value>& pk_values,
                                          SlotRow* out) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  EncodePkKeyFromValuesInto(pk_values, &out->key_scratch);
  const Status got =
      cluster_->Get(s, relation, out->key_scratch, &out->fetched);
  if (!got.ok()) {
    if (got.code() == StatusCode::kNotFound) return false;
    return got;
  }
  const hbase::ColumnMap& columns = out->fetched.columns;
  auto data = columns.find(kDataQualifier);
  if (data == columns.end()) return false;
  SYNERGY_RETURN_IF_ERROR(
      DecodeRowSlots(rel->columns, /*slot_map=*/{}, data->second,
                     &out->values));
  auto mark = columns.find(kMarkQualifier);
  out->marked = mark != columns.end() && mark->second == "1";
  return true;
}

Status TableAdapter::DeleteByPk(hbase::Session& s, const std::string& relation,
                                const std::vector<Value>& pk_values) {
  const sql::WriteLayout* layout = catalog_->FindWriteLayout(relation);
  if (layout == nullptr) return Status::NotFound("relation " + relation);
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found,
                           GetByPkSlots(s, relation, pk_values, &existing));
  if (!found) return Status::Ok();
  for (const sql::WriteLayout::Index& ix : layout->indexes) {
    SYNERGY_RETURN_IF_ERROR(
        cluster_->Delete(s, ix.name, IndexKey(ix, existing.values)));
  }
  return cluster_->Delete(s, relation, EncodePkKeyFromValues(pk_values));
}

Status TableAdapter::UpdateByPk(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& pk_values,
    const std::vector<std::pair<int, Value>>& sets) {
  const sql::WriteLayout* layout = catalog_->FindWriteLayout(relation);
  if (layout == nullptr) return Status::NotFound("relation " + relation);
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found,
                           GetByPkSlots(s, relation, pk_values, &existing));
  if (!found) {
    return Status::Ok();  // SQL UPDATE of an absent row affects zero rows
  }
  std::vector<Value> updated = existing.values;
  for (const auto& [slot, value] : sets) {
    updated[static_cast<size_t>(slot)] = value;
  }
  // Remove stale index rows if any indexed column changes.
  for (const sql::WriteLayout::Index& ix : layout->indexes) {
    const std::string old_key = IndexKey(ix, existing.values);
    const std::string new_key = IndexKey(ix, updated);
    if (old_key != new_key) {
      SYNERGY_RETURN_IF_ERROR(cluster_->Delete(s, ix.name, old_key));
    }
    SYNERGY_RETURN_IF_ERROR(cluster_->Put(
        s, ix.name, new_key, {{kDataQualifier, CoveredValue(ix, updated)}}));
  }
  return cluster_->Put(s, relation, EncodePkKeyFromValues(pk_values),
                       {{kDataQualifier, EncodeRowSlots(updated)}});
}

StatusOr<TupleScanner> TableAdapter::ScanAll(hbase::Session& s,
                                             const std::string& relation) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_ASSIGN_OR_RETURN(scanner, cluster_->OpenScanner(s, relation));
  return TupleScanner(std::move(scanner), &rel->columns);
}

StatusOr<TupleScanner> TableAdapter::ScanIndexPrefix(
    hbase::Session& s, const sql::RelationDef& rel,
    const sql::WriteLayout::Index& index, const std::vector<Value>& prefix) {
  auto [start, stop] = IndexPrefixRange(prefix);
  SYNERGY_ASSIGN_OR_RETURN(scanner,
                           cluster_->OpenScanner(s, index.name, start, stop));
  return TupleScanner(std::move(scanner), &rel.columns, index.covered_slots);
}

StatusOr<TupleScanner> TableAdapter::ScanPkPrefix(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& prefix) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  auto [start, stop] = IndexPrefixRange(prefix);
  SYNERGY_ASSIGN_OR_RETURN(scanner,
                           cluster_->OpenScanner(s, relation, start, stop));
  return TupleScanner(std::move(scanner), &rel->columns);
}

Status TableAdapter::MarkRow(hbase::Session& s, const std::string& relation,
                             const std::vector<Value>& pk_values, bool marked) {
  return cluster_->Put(s, relation, EncodePkKeyFromValues(pk_values),
                       {{kMarkQualifier, marked ? "1" : "0"}});
}

Status TableAdapter::SetMarkWithIndexes(hbase::Session& s,
                                        const std::string& relation,
                                        const std::vector<Value>& pk_values,
                                        bool marked) {
  const sql::WriteLayout* layout = catalog_->FindWriteLayout(relation);
  if (layout == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_RETURN_IF_ERROR(MarkRow(s, relation, pk_values, marked));
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found,
                           GetByPkSlots(s, relation, pk_values, &existing));
  if (!found) return Status::Ok();
  for (const sql::WriteLayout::Index& ix : layout->indexes) {
    SYNERGY_RETURN_IF_ERROR(
        cluster_->Put(s, ix.name, IndexKey(ix, existing.values),
                      {{kMarkQualifier, marked ? "1" : "0"}}));
  }
  return Status::Ok();
}

size_t TableAdapter::RowCount(const std::string& relation) const {
  return cluster_->ApproxRowCount(relation);
}

}  // namespace synergy::exec
