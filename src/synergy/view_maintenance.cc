#include "synergy/view_maintenance.h"

#include <utility>

namespace synergy::core {

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
ViewMaintainer::FindAffected(hbase::Session& s, const sql::WriteLayout& layout,
                             const std::vector<Value>& pk_values) {
  std::vector<AffectedRows> out;
  exec::SlotRow row;  // every lookup and scan below decodes into it
  for (const sql::WriteLayout::ViewMember& view : layout.member_of) {
    AffectedRows affected{.view = &view, .view_pks = {}};
    if (view.last) {
      // The view key is the base key: exactly one row, if it exists.
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPkSlots(s, view.name, pk_values, &row));
      if (found) affected.view_pks.push_back(pk_values);
      out.push_back(std::move(affected));
      continue;
    }
    // Mid-path member: locate rows by the member's PK attribute, via a
    // maintenance/view index indexed upon that attribute when present.
    if (layout.pk_slots.size() != 1) {
      return Status::Unimplemented(
          "multi-column member PK in view maintenance");
    }
    const sql::WriteLayout& view_layout = *view.layout;
    // The attribute and the view's PK as slots of the view's rows, which
    // both scans below decode in the view's column order.
    const int attr_slot =
        view.to_view[static_cast<size_t>(layout.pk_slots.front())];
    const std::vector<int>& pk_slots = view_layout.pk_slots;
    const sql::WriteLayout::Index* via_index = nullptr;
    for (const sql::WriteLayout::Index& ix : view_layout.indexes) {
      // An index key is its indexed columns, then the view's PK.
      if (ix.key_slots.size() > pk_slots.size() &&
          ix.key_slots.front() == attr_slot) {
        via_index = &ix;
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
        for (const int slot : pk_slots) {
          if (slot < 0 || row.values[static_cast<size_t>(slot)].is_null()) {
            return Status::Internal("view " + view.name +
                                    " row missing a PK column");
          }
          vpk.push_back(row.values[static_cast<size_t>(slot)]);
        }
        affected.view_pks.push_back(std::move(vpk));
      }
      return Status::Ok();
    };
    if (via_index != nullptr) {
      SYNERGY_ASSIGN_OR_RETURN(
          scanner, adapter_->ScanIndexPrefix(s, *view.relation, *via_index,
                                              {pk_values[0]}));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    } else {
      SYNERGY_ASSIGN_OR_RETURN(scanner, adapter_->ScanAll(s, view.name));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    }
    out.push_back(std::move(affected));
  }
  return out;
}

Status ViewMaintainer::UpdateViewRow(
    hbase::Session& s, const sql::WriteLayout::ViewMember& view,
    const std::vector<Value>& view_pk,
    const std::vector<std::pair<int, Value>>& sets) {
  std::vector<std::pair<int, Value>> applicable;
  for (const auto& [slot, value] : sets) {
    const int view_slot = view.to_view[static_cast<size_t>(slot)];
    if (view_slot >= 0) applicable.emplace_back(view_slot, value);
  }
  if (applicable.empty()) return Status::Ok();
  return adapter_->UpdateByPk(s, view.name, view_pk, applicable);
}

}  // namespace synergy::core
