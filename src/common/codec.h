// Order-preserving key codec.
//
// HBase sorts rows by raw byte comparison of the row key, so composite keys
// must be encoded such that byte order equals value order:
//   - int64: big-endian with the sign bit flipped
//   - double: IEEE-754 bits, sign-dependent flip (total order on non-NaN)
//   - string: raw bytes with 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x01
//   - NULL: a single 0x00 0x00 marker (sorts before every value)
// Composite keys are the concatenation of the component encodings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace synergy::codec {

/// Appends the order-preserving encoding of `v` to `out`.
void EncodeValue(const Value& v, std::string* out);

/// Encodes a composite key from `values`; byte order == tuple order.
std::string EncodeKey(const std::vector<Value>& values);

/// Like EncodeKey but reuses `out`'s capacity (cleared first). For hot paths
/// that hold one scratch key buffer per operator.
void EncodeKeyInto(const std::vector<Value>& values, std::string* out);

/// Decodes one value from `in` (advancing it) into `*out`. The caller
/// supplies the expected type, which must match what was encoded. A string
/// lands in the storage `*out` holds, so a row decoded in place allocates
/// only while its strings outgrow the ones before.
Status DecodeValueInto(std::string_view* in, DataType type, Value* out);

/// The same, as a fresh value.
StatusOr<Value> DecodeValue(std::string_view* in, DataType type);

/// Decodes a composite key given the component types.
StatusOr<std::vector<Value>> DecodeKey(std::string_view key,
                                       const std::vector<DataType>& types);

/// Smallest key strictly greater than every key with prefix `prefix`
/// (i.e. the exclusive upper bound for a prefix scan).
std::string PrefixSuccessor(std::string_view prefix);

/// Hex dump for debugging.
std::string HexDump(std::string_view bytes);

}  // namespace synergy::codec
