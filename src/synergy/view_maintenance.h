// View maintenance (§VII): applicability and row/key construction for
// insert, delete and update statements against base tables.
#pragma once

#include <string>
#include <vector>

#include "exec/table_adapter.h"
#include "sql/catalog.h"

namespace synergy::core {

class ViewMaintainer {
 public:
  explicit ViewMaintainer(exec::TableAdapter* adapter) : adapter_(adapter) {}

  /// Propagates a base-table insert to every applicable view (§VII-A):
  /// reads the k-1 ancestor rows along the FK chain and inserts the joined
  /// row (linear in view length, independent of cardinality ratios). `row`
  /// is the inserted row in slot form; the path is the catalog's
  /// sql::WriteLayout::ViewPath. A NULL FK or a missing ancestor skips
  /// that view only.
  Status ApplyInsert(hbase::Session& s, const std::string& relation,
                     const std::vector<Value>& row);

  /// Loads a base tuple: inserts it and its index rows, then ApplyInsert;
  /// the tuple is put in slot form once for both.
  Status InsertWithViews(hbase::Session& s, const std::string& relation,
                         const exec::Tuple& tuple);

  /// Propagates a base-table delete to the same views as an insert, with
  /// no cascading deletes (§VII-B): the view key equals the base key
  /// (PK(V) = PK of the last relation); view-index rows are removed via the
  /// read-then-delete key construction inside the adapter.
  Status ApplyDelete(hbase::Session& s, const std::string& relation,
                     const std::vector<Value>& pk_values);

  struct AffectedRows {
    /// The view, as the catalog lists it in the updated relation's
    /// sql::WriteLayout::member_of.
    const sql::WriteLayout::ViewMember* view = nullptr;
    std::vector<std::vector<Value>> view_pks;
  };

  /// §VII-C: an update to a relation applies to every view it is a member
  /// of, anywhere on the view's path. Locates the view rows an update to
  /// the row of `layout`'s relation with key `pk_values` touches, in the
  /// catalog's view order: by the view key for a view the relation ends, and
  /// otherwise through the view's first index led by the relation's PK, or
  /// a view scan when it has none.
  StatusOr<std::vector<AffectedRows>> FindAffected(
      hbase::Session& s, const sql::WriteLayout& layout,
      const std::vector<Value>& pk_values);

  /// Applies an UPDATE's (slot, value) assignments to one view row: each
  /// lands in the view slot of its column, if the view has that column.
  Status UpdateViewRow(hbase::Session& s,
                       const sql::WriteLayout::ViewMember& view,
                       const std::vector<Value>& view_pk,
                       const std::vector<std::pair<int, Value>>& sets);

 private:
  exec::TableAdapter* adapter_;
};

}  // namespace synergy::core
