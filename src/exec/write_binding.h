// Binding of single-row write statements (INSERT/UPDATE/DELETE with all key
// attributes specified) to typed operations — shared by every evaluated
// system's write path. Binding is where a write's names are resolved: every
// layer below it runs on the relation's slots.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/row_codec.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace synergy::exec {

struct BoundWrite {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  std::string relation;
  /// The relation's write layout, owned by the catalog bound against.
  const sql::WriteLayout* layout = nullptr;
  /// The statement's row in the relation's slots: an INSERT's columns, or
  /// an UPDATE's or DELETE's key, with NULL elsewhere. The key is never
  /// NULL for an INSERT.
  std::vector<Value> row;
  /// An UPDATE's assignments as (slot, value); no slot is a key slot.
  std::vector<std::pair<int, Value>> sets;

  /// The row key's values, in PK order.
  std::vector<Value> PkValues() const;
  /// "table/rowkey" identifier (MVCC write sets).
  std::string WriteKey() const;
};

/// Binds a parameter-free (already literal-bound) write statement. Write
/// statements that do not specify every key attribute are rejected with
/// kUnimplemented (§IV system limitations). A column the relation lacks, an
/// UPDATE of a key column and an INSERT with a NULL key column are rejected
/// with kInvalidArgument, before any system logs or runs the write.
StatusOr<BoundWrite> BindWriteStatement(const sql::Statement& bound_stmt,
                                        const sql::Catalog& catalog);

}  // namespace synergy::exec
