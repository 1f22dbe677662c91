#include "sql/catalog.h"

#include <algorithm>

namespace synergy::sql {
namespace {

/// The slot in `view` of each column of `member`.
std::vector<int> ViewSlotsOf(const RelationDef& member,
                             const RelationDef& view) {
  std::vector<int> slots;
  slots.reserve(member.columns.size());
  for (const Column& col : member.columns) {
    slots.push_back(view.ColumnIndex(col.name));
  }
  return slots;
}

/// Inserts `item` into `items`, kept in name order (the order in which the
/// catalog's own maps list indexes and views).
template <typename T>
void InsertByName(std::vector<T>& items, T item) {
  auto at = std::find_if(items.begin(), items.end(), [&](const T& other) {
    return other.name > item.name;
  });
  items.insert(at, std::move(item));
}

}  // namespace

bool RelationDef::HasColumn(const std::string& col) const {
  return std::any_of(columns.begin(), columns.end(),
                     [&](const Column& c) { return c.name == col; });
}

std::optional<DataType> RelationDef::ColumnType(const std::string& col) const {
  for (const Column& c : columns) {
    if (c.name == col) return c.type;
  }
  return std::nullopt;
}

int RelationDef::ColumnIndex(const std::string& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == col) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> RelationDef::ColumnIndexes(
    const std::vector<std::string>& cols) const {
  std::vector<int> slots;
  slots.reserve(cols.size());
  for (const std::string& col : cols) slots.push_back(ColumnIndex(col));
  return slots;
}

std::vector<DataType> RelationDef::PrimaryKeyTypes() const {
  std::vector<DataType> types;
  types.reserve(primary_key.size());
  for (const std::string& pk : primary_key) {
    types.push_back(ColumnType(pk).value_or(DataType::kString));
  }
  return types;
}

bool RelationDef::IsPrimaryKeyColumn(const std::string& col) const {
  return std::find(primary_key.begin(), primary_key.end(), col) !=
         primary_key.end();
}

Status Catalog::AddRelation(RelationDef def) {
  if (def.name.empty()) return Status::InvalidArgument("empty relation name");
  if (def.primary_key.empty()) {
    return Status::InvalidArgument("relation " + def.name + " has no PK");
  }
  for (const std::string& pk : def.primary_key) {
    if (!def.HasColumn(pk)) {
      return Status::InvalidArgument("PK column " + pk + " not in relation " +
                                     def.name);
    }
  }
  if (relations_.contains(def.name)) {
    return Status::AlreadyExists("relation " + def.name);
  }
  layouts_[def.name].pk_slots = def.ColumnIndexes(def.primary_key);
  relations_.emplace(def.name, std::move(def));
  return Status::Ok();
}

Status Catalog::AddIndex(IndexDef def) {
  const RelationDef* rel = FindRelation(def.relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + def.relation + " for index " +
                            def.name);
  }
  for (const std::string& col : def.indexed_columns) {
    if (!rel->HasColumn(col)) {
      return Status::InvalidArgument("index column " + col + " not in " +
                                     def.relation);
    }
  }
  // Covered columns default to indexed + PK; always include both.
  for (const std::string& col : def.indexed_columns) {
    if (std::find(def.covered_columns.begin(), def.covered_columns.end(),
                  col) == def.covered_columns.end()) {
      def.covered_columns.push_back(col);
    }
  }
  for (const std::string& col : rel->primary_key) {
    if (std::find(def.covered_columns.begin(), def.covered_columns.end(),
                  col) == def.covered_columns.end()) {
      def.covered_columns.push_back(col);
    }
  }
  if (indexes_.contains(def.name)) {
    return Status::AlreadyExists("index " + def.name);
  }
  std::vector<std::string> key = def.indexed_columns;
  key.insert(key.end(), rel->primary_key.begin(), rel->primary_key.end());
  InsertByName(layouts_[def.relation].indexes,
               WriteLayout::Index{.name = def.name,
                                  .key_slots = rel->ColumnIndexes(key),
                                  .covered_slots =
                                      rel->ColumnIndexes(def.covered_columns)});
  indexes_.emplace(def.name, std::move(def));
  return Status::Ok();
}

Status Catalog::AddView(ViewDef view, RelationDef storage) {
  if (view.name != storage.name) {
    return Status::InvalidArgument("view/storage name mismatch");
  }
  const size_t n = view.relations.size();
  if (n > 1 && view.edges.size() < n) {
    return Status::InvalidArgument("view " + view.name +
                                   " lacks an edge per member");
  }
  for (const std::string& member : view.relations) {
    if (FindRelation(member) == nullptr) {
      return Status::NotFound("relation " + member + " of view " + view.name);
    }
  }
  // An insert into the last member reads one ancestor per hop, by the
  // child's FK, and copies its columns into the view row.
  WriteLayout::ViewPath path{.name = view.name,
                             .width = storage.columns.size()};
  if (n > 0) {
    path.to_view = ViewSlotsOf(*FindRelation(view.relations.back()), storage);
  }
  for (size_t i = n; i-- > 1;) {
    const RelationDef& child = *FindRelation(view.relations[i]);
    const RelationDef& parent = *FindRelation(view.relations[i - 1]);
    path.hops.push_back(
        WriteLayout::Hop{.parent = parent.name,
                         .fk_slots = child.ColumnIndexes(view.edges[i].columns),
                         .to_view = ViewSlotsOf(parent, storage)});
  }
  // An update to any member rewrites the view rows that join it.
  std::vector<std::pair<std::string, WriteLayout::ViewMember>> members;
  for (auto it = view.relations.begin(); it != view.relations.end(); ++it) {
    if (std::find(view.relations.begin(), it, *it) != it) continue;
    members.emplace_back(
        *it, WriteLayout::ViewMember{
                 .name = view.name,
                 .last = *it == view.relations.back(),
                 .to_view = ViewSlotsOf(*FindRelation(*it), storage)});
  }
  SYNERGY_RETURN_IF_ERROR(AddRelation(std::move(storage)));
  if (n > 0) {
    InsertByName(layouts_[view.relations.back()].views, std::move(path));
  }
  for (auto& [member, entry] : members) {
    entry.relation = FindRelation(view.name);
    entry.layout = FindWriteLayout(view.name);
    InsertByName(layouts_[member].member_of, std::move(entry));
  }
  views_.emplace(view.name, std::move(view));
  return Status::Ok();
}

const RelationDef* Catalog::FindRelation(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

const IndexDef* Catalog::FindIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second;
}

const ViewDef* Catalog::FindView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

bool Catalog::IsView(const std::string& relation) const {
  return views_.contains(relation);
}

const WriteLayout* Catalog::FindWriteLayout(
    const std::string& relation) const {
  auto it = layouts_.find(relation);
  return it == layouts_.end() ? nullptr : &it->second;
}

std::vector<const IndexDef*> Catalog::IndexesFor(
    const std::string& relation) const {
  std::vector<const IndexDef*> out;
  for (const auto& [name, def] : indexes_) {
    if (def.relation == relation) out.push_back(&def);
  }
  return out;
}

std::vector<const RelationDef*> Catalog::Relations() const {
  std::vector<const RelationDef*> out;
  out.reserve(relations_.size());
  for (const auto& [name, def] : relations_) out.push_back(&def);
  return out;
}

std::vector<const ViewDef*> Catalog::Views() const {
  std::vector<const ViewDef*> out;
  out.reserve(views_.size());
  for (const auto& [name, def] : views_) out.push_back(&def);
  return out;
}

const ForeignKey* Catalog::FindForeignKey(const std::string& child,
                                          const std::string& parent) const {
  const RelationDef* rel = FindRelation(child);
  if (rel == nullptr) return nullptr;
  for (const ForeignKey& fk : rel->foreign_keys) {
    if (fk.ref_relation == parent) return &fk;
  }
  return nullptr;
}

}  // namespace synergy::sql
