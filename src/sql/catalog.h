// Relational catalog: relations, primary/foreign keys, covered indexes.
//
// Models §II-A of the paper: a relation R is a set of attributes with a
// primary key PK(R) and a set of foreign keys F(R); an index X(R) is a set of
// covered attributes indexed on a tuple Xtuple(R), with index key
// Xtuple(R) ++ PK(R). Views are registered as relations plus ViewDef
// metadata (their member path) so the executor can treat them uniformly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace synergy::sql {

struct Column {
  std::string name;
  DataType type = DataType::kString;
};

struct ForeignKey {
  /// Referencing columns, positionally matching the referenced PK.
  std::vector<std::string> columns;
  std::string ref_relation;
};

struct RelationDef {
  std::string name;
  std::vector<Column> columns;
  // Defaulted so designated initializers may omit them (keeps aggregate
  // construction clean under -Wextra's -Wmissing-field-initializers).
  std::vector<std::string> primary_key = {};
  std::vector<ForeignKey> foreign_keys = {};

  bool HasColumn(const std::string& col) const;
  std::optional<DataType> ColumnType(const std::string& col) const;
  /// Position of `col` in `columns`, or -1. Slot index for slot-based rows.
  int ColumnIndex(const std::string& col) const;
  /// ColumnIndex of each of `cols`.
  std::vector<int> ColumnIndexes(const std::vector<std::string>& cols) const;
  std::vector<DataType> PrimaryKeyTypes() const;
  bool IsPrimaryKeyColumn(const std::string& col) const;
};

/// Coarse statistics hint for planner cardinality estimates.
enum class IndexCardinality {
  kUnknown,  // no statistics: assume rows/100 per key prefix
  kLow,      // few distinct keys (e.g. subject): assume rows/20
  kHigh,     // many distinct keys (e.g. a foreign key): assume rows/1000
};

struct IndexDef {
  std::string name;
  std::string relation;
  /// Xtuple(R): the attributes the index is indexed upon.
  std::vector<std::string> indexed_columns;
  /// X(R): all covered attributes (includes indexed columns and the PK).
  std::vector<std::string> covered_columns = {};
  /// True when the indexed tuple uniquely identifies a row (e.g. c_uname).
  bool unique = false;
  IndexCardinality cardinality = IndexCardinality::kUnknown;
};

/// Metadata for a materialized view (a path of relations in a rooted tree).
struct ViewDef {
  std::string name;
  /// Relation names, root-most first; the view key is the last relation's PK.
  std::vector<std::string> relations;
  /// For i>0, the FK columns of relations[i] referencing relations[i-1].
  std::vector<ForeignKey> edges;
  std::string root;  // root relation of the rooted tree this path came from
};

/// A relation's write path with every column name resolved to a slot: a
/// position in RelationDef::columns, or -1 where the relation has no such
/// column (the slot reads as NULL). The catalog builds it as the schema is
/// registered, so no write looks a column up by name per row.
struct WriteLayout {
  /// A covered index X(R): its row key is Xtuple(R) ++ PK(R), its value X(R).
  struct Index {
    std::string name;
    std::vector<int> key_slots;
    std::vector<int> covered_slots;
  };
  /// One step up a view's FK chain: the child's FK slots hold the parent's
  /// PK; `to_view` is the view slot of each parent column.
  struct Hop {
    std::string parent;
    std::vector<int> fk_slots;
    std::vector<int> to_view;
  };
  /// A view whose last relation this is: an insert into this relation adds
  /// the view row that joins it with its ancestors (§VII-A), a delete
  /// removes the view row with its key (§VII-B).
  struct ViewPath {
    std::string name;  // the view's
    size_t width = 0;  // the view's column count
    /// The view slot of each of this relation's columns.
    std::vector<int> to_view = {};
    /// This relation's parent first, up to the view's head.
    std::vector<Hop> hops = {};
  };

  /// A view with this relation anywhere on its path: an update to this
  /// relation rewrites the view rows that join it (§VII-C).
  struct ViewMember {
    std::string name;  // the view's
    /// This relation is the view's last, so a view row's key is its key.
    bool last = false;
    /// The view slot of each of this relation's columns.
    std::vector<int> to_view = {};
    /// The view's storage relation and write layout, in the same catalog.
    const RelationDef* relation = nullptr;
    const WriteLayout* layout = nullptr;
  };

  std::vector<int> pk_slots;
  std::vector<Index> indexes;         // in IndexesFor order
  std::vector<ViewPath> views;        // in Views order
  std::vector<ViewMember> member_of;  // in Views order
};

class Catalog {
 public:
  /// A WriteLayout::ViewMember points into the catalog's own maps, whose
  /// nodes a move keeps but a copy would not.
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  Status AddRelation(RelationDef def);
  Status AddIndex(IndexDef def);
  /// Registers the view's storage relation, its WriteLayout::ViewPath and
  /// each member's WriteLayout::ViewMember; every member relation must be
  /// registered first.
  Status AddView(ViewDef view, RelationDef storage);
  /// Adds every relation of `base` that is not a view, with its indexes.
  Status AddBaseSchema(const Catalog& base);

  const RelationDef* FindRelation(const std::string& name) const;
  const IndexDef* FindIndex(const std::string& name) const;
  const ViewDef* FindView(const std::string& name) const;
  bool IsView(const std::string& relation) const;
  /// The write layout of `relation`, or nullptr for an unknown relation.
  const WriteLayout* FindWriteLayout(const std::string& relation) const;

  std::vector<const IndexDef*> IndexesFor(const std::string& relation) const;
  std::vector<const RelationDef*> Relations() const;
  std::vector<const ViewDef*> Views() const;

  /// The FK of `child` that references `parent`'s PK, if any.
  const ForeignKey* FindForeignKey(const std::string& child,
                                   const std::string& parent) const;

 private:
  std::map<std::string, RelationDef> relations_;
  std::map<std::string, IndexDef> indexes_;
  std::map<std::string, ViewDef> views_;
  std::map<std::string, WriteLayout> layouts_;  // by relation
};

}  // namespace synergy::sql
