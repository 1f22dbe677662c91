#include "exec/table_adapter.h"

namespace synergy::exec {
namespace {

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

StatusOr<bool> TupleScanner::Next(TupleWithMeta* out) {
  SlotRow row;
  SYNERGY_ASSIGN_OR_RETURN(more, NextSlots(&row));
  if (!more) return false;
  out->tuple.clear();
  for (size_t i = 0; i < row.values.size(); ++i) {
    if (!row.values[i].is_null()) {
      out->tuple.emplace((*columns_)[i].name, std::move(row.values[i]));
    }
  }
  out->marked = row.marked;
  return true;
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

Status TableAdapter::CreateStorage(const std::string& relation) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable({.name = relation}));
  for (const sql::IndexDef* ix : catalog_->IndexesFor(relation)) {
    SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable({.name = ix->name}));
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
  std::string key;
  EncodeSlots(row, layout.pk_slots, &key);
  SYNERGY_RETURN_IF_ERROR(
      cluster_->Put(s, relation, key, {{kDataQualifier, EncodeRowSlots(row)}}));
  for (const sql::WriteLayout::Index& ix : layout.indexes) {
    SYNERGY_RETURN_IF_ERROR(
        cluster_->Put(s, ix.name, IndexKey(ix, row),
                      {{kDataQualifier, CoveredValue(ix, row)}}));
  }
  return Status::Ok();
}

Status TableAdapter::Insert(hbase::Session& s, const std::string& relation,
                            const Tuple& tuple) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  return InsertRow(s, relation, TupleToSlots(*rel, tuple));
}

StatusOr<std::optional<TupleWithMeta>> TableAdapter::GetByPk(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& pk_values) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  const std::string key = EncodePkKeyFromValues(pk_values);
  StatusOr<hbase::RowResult> row = cluster_->Get(s, relation, key);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) {
      return std::optional<TupleWithMeta>();
    }
    return row.status();
  }
  auto data = row->columns.find(kDataQualifier);
  if (data == row->columns.end()) return std::optional<TupleWithMeta>();
  SYNERGY_ASSIGN_OR_RETURN(tuple, DecodeRowValue(rel->columns, data->second));
  TupleWithMeta out;
  out.tuple = std::move(tuple);
  auto mark = row->columns.find(kMarkQualifier);
  out.marked = mark != row->columns.end() && mark->second == "1";
  return std::optional<TupleWithMeta>(std::move(out));
}

StatusOr<bool> TableAdapter::GetByPkSlots(hbase::Session& s,
                                          const std::string& relation,
                                          const std::vector<Value>& pk_values,
                                          SlotRow* out) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  EncodePkKeyFromValuesInto(pk_values, &out->key_scratch);
  StatusOr<hbase::RowResult> row = cluster_->Get(s, relation, out->key_scratch);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) return false;
    return row.status();
  }
  auto data = row->columns.find(kDataQualifier);
  if (data == row->columns.end()) return false;
  SYNERGY_RETURN_IF_ERROR(
      DecodeRowSlots(rel->columns, /*slot_map=*/{}, data->second,
                     &out->values));
  auto mark = row->columns.find(kMarkQualifier);
  out->marked = mark != row->columns.end() && mark->second == "1";
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
    const std::vector<std::pair<std::string, Value>>& sets) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  std::vector<int> set_slots;
  set_slots.reserve(sets.size());
  for (const auto& [col, value] : sets) {
    if (rel->IsPrimaryKeyColumn(col)) {
      return Status::InvalidArgument("cannot update PK column " + col);
    }
    const int slot = rel->ColumnIndex(col);
    if (slot < 0) return Status::InvalidArgument("unknown column " + col);
    set_slots.push_back(slot);
  }
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found,
                           GetByPkSlots(s, relation, pk_values, &existing));
  if (!found) {
    return Status::Ok();  // SQL UPDATE of an absent row affects zero rows
  }
  std::vector<Value> updated = existing.values;
  for (size_t i = 0; i < sets.size(); ++i) {
    updated[static_cast<size_t>(set_slots[i])] = sets[i].second;
  }
  // Remove stale index rows if any indexed column changes.
  const sql::WriteLayout& layout = *catalog_->FindWriteLayout(relation);
  for (const sql::WriteLayout::Index& ix : layout.indexes) {
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
    hbase::Session& s, const std::string& index_name,
    const std::vector<Value>& prefix) {
  const sql::IndexDef* ix = catalog_->FindIndex(index_name);
  if (ix == nullptr) return Status::NotFound("index " + index_name);
  const sql::RelationDef* rel = catalog_->FindRelation(ix->relation);
  if (rel == nullptr) return Status::NotFound("relation " + ix->relation);
  const sql::WriteLayout::Index* layout = nullptr;
  for (const sql::WriteLayout::Index& each :
       catalog_->FindWriteLayout(ix->relation)->indexes) {
    if (each.name == index_name) layout = &each;
  }
  if (layout == nullptr) return Status::NotFound("layout of " + index_name);
  auto [start, stop] = IndexPrefixRange(prefix);
  SYNERGY_ASSIGN_OR_RETURN(scanner,
                           cluster_->OpenScanner(s, index_name, start, stop));
  return TupleScanner(std::move(scanner), &rel->columns,
                      layout->covered_slots);
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
