#include "synergy/view_maintenance.h"

#include <map>
#include <utility>

namespace synergy::core {

namespace {

/// One view's buffers: its row and the ancestor row each hop of its path
/// read. Each keeps its slots' types from one inserted row to the next, so
/// their strings keep their storage.
struct ViewRows {
  std::vector<Value> row;
  std::vector<exec::SlotRow> ancestors;  // by hop
};

/// ApplyInsert's buffers, which a session reuses from one inserted row to
/// the next.
struct InsertScratch {
  std::map<std::string, ViewRows, std::less<>> by_view;
  std::vector<Value> parent_pk;
  std::vector<char> composed;  // by view slot
};

}  // namespace

Status ViewMaintainer::ApplyInsert(hbase::Session& s,
                                   const std::string& relation,
                                   const std::vector<Value>& row) {
  const sql::WriteLayout* layout =
      adapter_->catalog().FindWriteLayout(relation);
  if (layout == nullptr) return Status::Ok();  // unknown relation: no views
  InsertScratch& scratch = s.scratch<InsertScratch>();
  for (const sql::WriteLayout::ViewPath& view : layout->views) {
    if (row.size() != view.to_view.size()) {
      return Status::InvalidArgument(std::to_string(row.size()) +
                                     " slots in a row of relation " + relation);
    }
    ViewRows& rows = scratch.by_view[view.name];
    rows.ancestors.resize(view.hops.size());
    // Walk the FK chain from the inserted (last) relation up to the view
    // head, reading one ancestor row per hop.
    const std::vector<Value>* child = &row;
    bool complete = true;
    for (size_t h = 0; h < view.hops.size() && complete; ++h) {
      const sql::WriteLayout::Hop& hop = view.hops[h];
      scratch.parent_pk.clear();
      for (const int slot : hop.fk_slots) {
        if (slot < 0 || (*child)[static_cast<size_t>(slot)].is_null()) {
          complete = false;
          break;
        }
        scratch.parent_pk.push_back((*child)[static_cast<size_t>(slot)]);
      }
      if (!complete) break;
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPkSlots(s, hop.parent, scratch.parent_pk,
                                        &rows.ancestors[h]));
      // FK constraints are not enforced (§IV): a missing ancestor skips
      // the view.
      complete = found;
      child = &rows.ancestors[h].values;
    }
    if (!complete) continue;
    // Compose the view row, each slot once: an ancestor's non-NULL column
    // wins over the same-named column of every relation below it on the
    // path, the inserted row's columns fill what is left, and a slot
    // nothing fills is NULL.
    rows.row.resize(view.width);
    scratch.composed.assign(view.width, 0);
    auto fill = [&](const std::vector<int>& to_view,
                    const std::vector<Value>& values, bool skip_nulls) {
      for (size_t i = 0; i < to_view.size(); ++i) {
        const int v = to_view[i];
        if (v < 0 || scratch.composed[static_cast<size_t>(v)] != 0 ||
            (skip_nulls && values[i].is_null())) {
          continue;
        }
        rows.row[static_cast<size_t>(v)] = values[i];
        scratch.composed[static_cast<size_t>(v)] = 1;
      }
    };
    for (size_t h = view.hops.size(); h-- > 0;) {
      fill(view.hops[h].to_view, rows.ancestors[h].values,
           /*skip_nulls=*/true);
    }
    fill(view.to_view, row, /*skip_nulls=*/false);
    for (size_t v = 0; v < view.width; ++v) {
      if (scratch.composed[v] == 0) rows.row[v] = Value();
    }
    SYNERGY_RETURN_IF_ERROR(adapter_->InsertRow(s, view.name, rows.row));
  }
  return Status::Ok();
}

Status ViewMaintainer::InsertWithViews(hbase::Session& s,
                                       const std::string& relation,
                                       const exec::Tuple& tuple) {
  const sql::RelationDef* rel = adapter_->catalog().FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  const std::vector<Value>& row = exec::SessionSlots(s, *rel, tuple);
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
