#include "synergy/view_maintenance.h"

#include <algorithm>

namespace synergy::core {

bool ViewMaintainer::UpdateApplies(const sql::ViewDef& view,
                                   const std::string& relation) {
  return std::find(view.relations.begin(), view.relations.end(), relation) !=
         view.relations.end();
}

Status ViewMaintainer::ApplyInsert(hbase::Session& s,
                                   const std::string& relation,
                                   const std::vector<Value>& row) {
  const sql::WriteLayout* layout =
      adapter_->catalog().FindWriteLayout(relation);
  if (layout == nullptr) return Status::Ok();  // unknown relation: no views
  std::vector<Value> view_row;
  std::vector<Value> parent_pk;
  exec::SlotRow parent;  // the ancestor the next hop starts from
  exec::SlotRow next;
  for (const sql::WriteLayout::ViewPath& view : layout->views) {
    if (row.size() != view.to_view.size()) {
      return Status::InvalidArgument(std::to_string(row.size()) +
                                     " slots in a row of relation " + relation);
    }
    view_row.assign(view.width, Value());
    for (size_t i = 0; i < view.to_view.size(); ++i) {
      if (view.to_view[i] >= 0) {
        view_row[static_cast<size_t>(view.to_view[i])] = row[i];
      }
    }
    // Walk the FK chain from the inserted (last) relation up to the view
    // head, reading one ancestor row per hop. An ancestor's non-NULL
    // columns overwrite same-named view columns.
    const std::vector<Value>* child = &row;
    bool complete = true;
    for (const sql::WriteLayout::Hop& hop : view.hops) {
      parent_pk.clear();
      for (const int slot : hop.fk_slots) {
        if (slot < 0 || (*child)[static_cast<size_t>(slot)].is_null()) {
          complete = false;
          break;
        }
        parent_pk.push_back((*child)[static_cast<size_t>(slot)]);
      }
      if (!complete) break;
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPkSlots(s, hop.parent, parent_pk, &next));
      if (!found) {
        complete = false;  // FK constraints are not enforced (§IV)
        break;
      }
      for (size_t i = 0; i < hop.to_view.size(); ++i) {
        if (hop.to_view[i] >= 0 && !next.values[i].is_null()) {
          view_row[static_cast<size_t>(hop.to_view[i])] = next.values[i];
        }
      }
      std::swap(parent, next);
      child = &parent.values;
    }
    if (!complete) continue;
    SYNERGY_RETURN_IF_ERROR(adapter_->InsertRow(s, view.name, view_row));
  }
  return Status::Ok();
}

Status ViewMaintainer::InsertWithViews(hbase::Session& s,
                                       const std::string& relation,
                                       const exec::Tuple& tuple) {
  const sql::RelationDef* rel = adapter_->catalog().FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  const std::vector<Value> row = exec::TupleToSlots(*rel, tuple);
  SYNERGY_RETURN_IF_ERROR(adapter_->InsertRow(s, relation, row));
  return ApplyInsert(s, relation, row);
}

Status ViewMaintainer::ApplyDelete(hbase::Session& s,
                                   const std::string& relation,
                                   const std::vector<Value>& pk_values) {
  const sql::WriteLayout* layout =
      adapter_->catalog().FindWriteLayout(relation);
  if (layout == nullptr) return Status::Ok();  // unknown relation: no views
  for (const sql::WriteLayout::ViewPath& view : layout->views) {
    SYNERGY_RETURN_IF_ERROR(adapter_->DeleteByPk(s, view.name, pk_values));
  }
  return Status::Ok();
}

StatusOr<std::vector<ViewMaintainer::AffectedRows>>
ViewMaintainer::FindAffected(hbase::Session& s, const std::string& relation,
                             const std::vector<Value>& pk_values) {
  const sql::Catalog& catalog = adapter_->catalog();
  std::vector<AffectedRows> out;
  exec::SlotRow row;  // every lookup and scan below decodes into it
  for (const sql::ViewDef* view : catalog.Views()) {
    if (!UpdateApplies(*view, relation)) continue;
    AffectedRows affected;
    affected.view = view->name;
    if (view->relations.back() == relation) {
      // The view key is the base key: exactly one row, if it exists.
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPkSlots(s, view->name, pk_values, &row));
      if (found) affected.view_pks.push_back(pk_values);
      out.push_back(std::move(affected));
      continue;
    }
    // Mid-path member: locate rows by the member's PK attribute, via a
    // maintenance/view index indexed upon that attribute when present.
    const sql::RelationDef* member = catalog.FindRelation(relation);
    if (member == nullptr || member->primary_key.size() != 1) {
      return Status::Unimplemented(
          "multi-column member PK in view maintenance");
    }
    const sql::RelationDef* storage = catalog.FindRelation(view->name);
    const sql::WriteLayout* layout = catalog.FindWriteLayout(view->name);
    if (storage == nullptr || layout == nullptr) {
      return Status::NotFound("view " + view->name);
    }
    const std::string& attr = member->primary_key.front();
    // The attribute and the view's PK as slots of the view's rows, which
    // both scans below decode in the view's column order.
    const int attr_slot = storage->ColumnIndex(attr);
    const std::vector<int>& pk_slots = layout->pk_slots;
    const sql::IndexDef* via_index = nullptr;
    for (const sql::IndexDef* ix : catalog.IndexesFor(view->name)) {
      if (!ix->indexed_columns.empty() && ix->indexed_columns.front() == attr) {
        via_index = ix;
        break;
      }
    }
    auto collect = [&](exec::TupleScanner scanner) -> Status {
      while (true) {
        SYNERGY_ASSIGN_OR_RETURN(more, scanner.NextSlots(&row));
        if (!more) break;
        if (attr_slot < 0) continue;
        const Value& member_pk = row.values[static_cast<size_t>(attr_slot)];
        if (member_pk.is_null() || !(member_pk == pk_values[0])) continue;
        std::vector<Value> vpk;
        for (size_t i = 0; i < pk_slots.size(); ++i) {
          if (pk_slots[i] < 0 ||
              row.values[static_cast<size_t>(pk_slots[i])].is_null()) {
            return Status::Internal("view row missing PK column " +
                                    storage->primary_key[i]);
          }
          vpk.push_back(row.values[static_cast<size_t>(pk_slots[i])]);
        }
        affected.view_pks.push_back(std::move(vpk));
      }
      return Status::Ok();
    };
    if (via_index != nullptr) {
      SYNERGY_ASSIGN_OR_RETURN(
          scanner,
          adapter_->ScanIndexPrefix(s, via_index->name, {pk_values[0]}));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    } else {
      SYNERGY_ASSIGN_OR_RETURN(scanner, adapter_->ScanAll(s, view->name));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    }
    out.push_back(std::move(affected));
  }
  return out;
}

Status ViewMaintainer::UpdateViewRow(
    hbase::Session& s, const std::string& view,
    const std::vector<Value>& view_pk,
    const std::vector<std::pair<std::string, Value>>& sets) {
  const sql::RelationDef* storage = adapter_->catalog().FindRelation(view);
  if (storage == nullptr) return Status::NotFound("view " + view);
  std::vector<std::pair<std::string, Value>> applicable;
  for (const auto& [col, value] : sets) {
    if (storage->HasColumn(col)) applicable.emplace_back(col, value);
  }
  if (applicable.empty()) return Status::Ok();
  return adapter_->UpdateByPk(s, view, view_pk, applicable);
}

}  // namespace synergy::core
