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

  /// §VII-C: an update applies iff R is anywhere in V's relation sequence.
  /// (An insert or delete into R applies iff R is V's last relation; the
  /// catalog lists those views in R's sql::WriteLayout.)
  static bool UpdateApplies(const sql::ViewDef& view,
                            const std::string& relation);

  /// Propagates a base-table insert to every applicable view (§VII-A):
  /// reads the k-1 ancestor rows along the FK chain and inserts the joined
  /// row (linear in view length, independent of cardinality ratios). `row`
  /// is the inserted row in slot form; the path is the catalog's
  /// sql::WriteLayout::ViewPath. A NULL FK or a missing ancestor skips
  /// that view only.
  Status ApplyInsert(hbase::Session& s, const std::string& relation,
                     const std::vector<Value>& row);

  /// Inserts a base tuple and its index rows, then ApplyInsert: the tuple
  /// is put in slot form once for both.
  Status InsertWithViews(hbase::Session& s, const std::string& relation,
                         const exec::Tuple& tuple);

  /// Propagates a base-table delete to the same views as an insert, with
  /// no cascading deletes (§VII-B): the view key equals the base key
  /// (PK(V) = PK of the last relation); view-index rows are removed via the
  /// read-then-delete key construction inside the adapter.
  Status ApplyDelete(hbase::Session& s, const std::string& relation,
                     const std::vector<Value>& pk_values);

  struct AffectedRows {
    std::string view;
    std::vector<std::vector<Value>> view_pks;
  };

  /// Locates the view rows an update to `relation`@pk touches, using a
  /// maintenance index when available and a view scan otherwise.
  StatusOr<std::vector<AffectedRows>> FindAffected(
      hbase::Session& s, const std::string& relation,
      const std::vector<Value>& pk_values);

  /// Applies SET assignments to one view row (column names are shared
  /// between base relations and views).
  Status UpdateViewRow(hbase::Session& s, const std::string& view,
                       const std::vector<Value>& view_pk,
                       const std::vector<std::pair<std::string, Value>>& sets);

 private:
  exec::TableAdapter* adapter_;
};

}  // namespace synergy::core
