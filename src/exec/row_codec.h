// Typed tuple <-> store bytes (the baseline schema transformation, §II-D).
//
// A relation row is stored under one data qualifier ("d") holding the
// self-describing encoding of all column values in schema order (akin to
// Phoenix's single-cell storage format). The row key is the order-preserving
// encoding of the PK values. An index row's key is the encoding of the
// indexed columns followed by the PK; its value covers the index's covered
// columns.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "sql/catalog.h"

namespace synergy::exec {

/// Column name -> value. Missing columns read back as NULL.
using Tuple = std::map<std::string, Value>;

/// Data qualifier holding the encoded tuple.
inline constexpr char kDataQualifier[] = "d";
/// Dirty-mark qualifier used by the Synergy update protocol (§VIII-B).
inline constexpr char kMarkQualifier[] = "m";

/// Row key for a base-table tuple: encoded PK values in PK order.
StatusOr<std::string> EncodePkKey(const sql::RelationDef& rel,
                                  const Tuple& tuple);
std::string EncodePkKeyFromValues(const std::vector<Value>& pk_values);

/// Scan bounds [start, stop) for an index-prefix lookup on the first
/// `prefix_values.size()` indexed columns.
std::pair<std::string, std::string> IndexPrefixRange(
    const std::vector<Value>& prefix_values);

/// Serializes the tuple's values for `rel.columns` in schema order.
std::string EncodeRowValue(const sql::RelationDef& rel, const Tuple& tuple);

/// The slot form of `tuple` that the write path runs on: its values in
/// `rel.columns` order, NULL where it has none. Columns outside `rel` are
/// dropped.
std::vector<Value> TupleToSlots(const sql::RelationDef& rel,
                                const Tuple& tuple);

/// Appends the encoding of `row[slot]` for each of `slots` (NULL for a
/// negative slot) to `out`. Every key and value the write path stores is
/// one call: with sql::WriteLayout's PK slots it is the row key, with an
/// index's key slots its row key, with its covered slots that row's value.
void EncodeSlots(const std::vector<Value>& row, const std::vector<int>& slots,
                 std::string* out);

/// The stored value of a row in slot form: every slot in order.
std::string EncodeRowSlots(const std::vector<Value>& row);

/// Decodes a row value back into a tuple given the column list used to
/// encode it (schema order for base rows; covered order for index rows).
StatusOr<Tuple> DecodeRowValue(const std::vector<sql::Column>& columns,
                               std::string_view bytes);

/// Slot-decoding fast path: decodes a stored value into `out`, which is
/// resized to `columns.size()` (a relation's columns) and NULL-filled first.
/// The i-th stored value lands in slot `slot_map[i]` and decodes as that
/// column's type; an empty `slot_map` means identity (base rows in schema
/// order), and an index row's map is its WriteLayout::Index::covered_slots.
/// A negative slot, a covered column the relation lacks, holds NULL and is
/// discarded. Reuses `out`'s capacity — no per-row map or node allocations.
Status DecodeRowSlots(const std::vector<sql::Column>& columns,
                      std::span<const int> slot_map, std::string_view bytes,
                      std::vector<Value>* out);

/// Like EncodePkKeyFromValues but reuses `out`'s capacity (cleared first).
void EncodePkKeyFromValuesInto(const std::vector<Value>& pk_values,
                               std::string* out);

}  // namespace synergy::exec
