// Typed access to relations (base tables, views, indexes) stored in the
// cluster. One adapter per (cluster, catalog) pair; sessions carry cost.
//
// All write paths maintain the relation's covered indexes, mirroring how
// Phoenix keeps index tables in sync with data tables.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/row_codec.h"
#include "hbase/cluster.h"
#include "sql/catalog.h"

namespace synergy::exec {

/// Reusable slot-decoded row buffer: values in RelationDef column order
/// (NULL where absent), plus the byte key and the stored row of the last
/// point lookup, so repeated lookups into one SlotRow allocate nothing once
/// its buffers fit. The executor keeps one per operator.
struct SlotRow {
  std::vector<Value> values;
  bool marked = false;
  std::string key_scratch;
  hbase::RowResult fetched;
};

/// Streaming typed scan over a relation or one of its indexes.
class TupleScanner {
 public:
  /// Fills `out->values` in the owning relation's column order, reusing its
  /// capacity. Returns false at end of stream; Status error on decode
  /// failure.
  StatusOr<bool> NextSlots(SlotRow* out);

 private:
  friend class TableAdapter;
  /// `columns` are the owning relation's; `slot_map[i]` is the relation
  /// slot of the i-th stored value (empty for base-table scans, an index's
  /// covered_slots for index scans). Both live in the catalog, which
  /// outlives every scan.
  TupleScanner(hbase::Scanner scanner, const std::vector<sql::Column>* columns,
               std::span<const int> slot_map = {})
      : scanner_(std::move(scanner)), columns_(columns), slot_map_(slot_map) {}

  hbase::Scanner scanner_;
  const std::vector<sql::Column>* columns_;
  std::span<const int> slot_map_;
};

/// `tuple` in slot form (TupleToSlots), in the slot row `s` keeps for
/// `rel`. A loader refills it for every row of the relation; a relation's
/// slots keep their types from row to row, so their strings keep their
/// storage. Valid until the next call for the same relation on `s`.
const std::vector<Value>& SessionSlots(hbase::Session& s,
                                       const sql::RelationDef& rel,
                                       const Tuple& tuple);

class TableAdapter {
 public:
  TableAdapter(hbase::Cluster* cluster, const sql::Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  const sql::Catalog& catalog() const { return *catalog_; }
  hbase::Cluster* cluster() const { return cluster_; }

  /// Creates store tables for a relation and all its indexes, each keeping
  /// `max_versions` versions of a cell (the tables' VERSIONS).
  Status CreateStorage(const std::string& relation,
                       int max_versions = hbase::kMaxVersions);

  /// Inserts a row and its index rows. Does not check uniqueness. `row`
  /// holds the relation's values in column order, NULL where absent. Keys
  /// and values are encoded into buffers the session keeps.
  Status InsertRow(hbase::Session& s, const std::string& relation,
                   const std::vector<Value>& row);

  /// InsertRow of a loaded tuple's slot form (SessionSlots).
  Status Insert(hbase::Session& s, const std::string& relation,
                const Tuple& tuple);

  /// Point lookup by primary key values: returns true and fills `row`
  /// (values in relation column order) when the row exists. Reads and
  /// decodes in place, into `row`'s buffers.
  StatusOr<bool> GetByPkSlots(hbase::Session& s, const std::string& relation,
                              const std::vector<Value>& pk_values,
                              SlotRow* row);

  /// Deletes the row and its index rows (reads the row first to build index
  /// keys, as in §VII-B). No-op if absent.
  Status DeleteByPk(hbase::Session& s, const std::string& relation,
                    const std::vector<Value>& pk_values);

  /// Read-modify-write of the row's non-PK slots, `sets` as (slot, value)
  /// pairs (a bound UPDATE's, which never names a PK slot); maintains
  /// affected index rows. No-op if absent.
  Status UpdateByPk(hbase::Session& s, const std::string& relation,
                    const std::vector<Value>& pk_values,
                    const std::vector<std::pair<int, Value>>& sets);

  /// Full-relation scan.
  StatusOr<TupleScanner> ScanAll(hbase::Session& s,
                                 const std::string& relation);

  /// Range scan of `index`, one of `rel`'s, by equality prefix on its
  /// indexed columns. Both live in the catalog, which outlives the scan.
  StatusOr<TupleScanner> ScanIndexPrefix(hbase::Session& s,
                                         const sql::RelationDef& rel,
                                         const sql::WriteLayout::Index& index,
                                         const std::vector<Value>& prefix);

  /// Range scan of the base table by PK prefix.
  StatusOr<TupleScanner> ScanPkPrefix(hbase::Session& s,
                                      const std::string& relation,
                                      const std::vector<Value>& prefix);

  /// Dirty-mark protocol (§VIII-B): set/clear the mark column on the row.
  Status MarkRow(hbase::Session& s, const std::string& relation,
                 const std::vector<Value>& pk_values, bool marked);

  /// Marks/unmarks the row and all of its index rows (the paper marks both
  /// views and view-indexes before an update).
  Status SetMarkWithIndexes(hbase::Session& s, const std::string& relation,
                            const std::vector<Value>& pk_values, bool marked);

  size_t RowCount(const std::string& relation) const;

 private:
  hbase::Cluster* cluster_;
  const sql::Catalog* catalog_;
};

}  // namespace synergy::exec
