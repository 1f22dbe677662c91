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

struct TupleWithMeta {
  Tuple tuple;
  bool marked = false;  // dirty-mark set by an in-flight Synergy update
};

/// Reusable slot-decoded row buffer: values in RelationDef column order
/// (NULL where absent), plus a scratch byte-key buffer so repeated point
/// lookups reuse one allocation. The executor keeps one per operator.
struct SlotRow {
  std::vector<Value> values;
  bool marked = false;
  std::string key_scratch;
};

/// Streaming typed scan over a relation or one of its indexes.
class TupleScanner {
 public:
  /// Returns false at end of stream; Status error on decode failure.
  StatusOr<bool> Next(TupleWithMeta* out);

  /// Slot-decoding variant: fills `out->values` in the owning relation's
  /// column order, reusing its capacity (no per-row map allocations).
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

class TableAdapter {
 public:
  TableAdapter(hbase::Cluster* cluster, const sql::Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  const sql::Catalog& catalog() const { return *catalog_; }
  hbase::Cluster* cluster() const { return cluster_; }

  /// Creates store tables for a relation and all its indexes.
  Status CreateStorage(const std::string& relation);

  /// Inserts a row and its index rows. Does not check uniqueness. `row`
  /// holds the relation's values in column order, NULL where absent.
  Status InsertRow(hbase::Session& s, const std::string& relation,
                   const std::vector<Value>& row);

  /// InsertRow of the tuple's slot form (TupleToSlots).
  Status Insert(hbase::Session& s, const std::string& relation,
                const Tuple& tuple);

  /// Point lookup by primary key values.
  StatusOr<std::optional<TupleWithMeta>> GetByPk(
      hbase::Session& s, const std::string& relation,
      const std::vector<Value>& pk_values);

  /// Slot-decoding point lookup: returns true and fills `row` (values in
  /// relation column order) when the row exists. Reuses `row`'s buffers.
  StatusOr<bool> GetByPkSlots(hbase::Session& s, const std::string& relation,
                              const std::vector<Value>& pk_values,
                              SlotRow* row);

  /// Deletes the row and its index rows (reads the row first to build index
  /// keys, as in §VII-B). No-op if absent.
  Status DeleteByPk(hbase::Session& s, const std::string& relation,
                    const std::vector<Value>& pk_values);

  /// Read-modify-write of non-PK columns; maintains affected index rows.
  Status UpdateByPk(hbase::Session& s, const std::string& relation,
                    const std::vector<Value>& pk_values,
                    const std::vector<std::pair<std::string, Value>>& sets);

  /// Full-relation scan.
  StatusOr<TupleScanner> ScanAll(hbase::Session& s,
                                 const std::string& relation);

  /// Range scan of an index by equality prefix on its indexed columns.
  StatusOr<TupleScanner> ScanIndexPrefix(hbase::Session& s,
                                         const std::string& index_name,
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
