// Typed values used throughout the SQL layer and the store codecs.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

namespace synergy {

enum class DataType { kNull = 0, kInt, kDouble, kString };

const char* DataTypeName(DataType t);

/// A SQL value: NULL, 64-bit integer, double, or string.
/// Comparison follows SQL semantics for same-typed values; NULL sorts lowest.
class Value {
 public:
  Value() = default;  // NULL
  Value(int64_t v) : rep_(v) {}             // NOLINT implicit
  Value(int v) : rep_(int64_t{v}) {}        // NOLINT implicit
  Value(double v) : rep_(v) {}              // NOLINT implicit
  Value(std::string v) : rep_(std::move(v)) {}  // NOLINT implicit
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT implicit

  DataType type() const {
    switch (rep_.index()) {
      case 0: return DataType::kNull;
      case 1: return DataType::kInt;
      case 2: return DataType::kDouble;
      default: return DataType::kString;
    }
  }
  bool is_null() const { return type() == DataType::kNull; }

  /// Makes this value an empty string and returns it for the caller to
  /// fill, keeping the capacity of the string it held: a row reused from
  /// one record to the next is refilled without allocating.
  std::string& ResetString() {
    if (std::string* s = std::get_if<std::string>(&rep_)) {
      s->clear();
      return *s;
    }
    return rep_.emplace<std::string>();
  }

  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_double() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return std::get<std::string>(rep_); }

  /// Numeric coercion: int or double -> double. Asserts otherwise.
  double numeric() const {
    return type() == DataType::kInt ? static_cast<double>(as_int())
                                    : as_double();
  }

  /// Three-way comparison. NULL < everything; numerics compare numerically
  /// across int/double; strings compare lexicographically.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  std::string ToString() const;

  /// Hash consistent with Compare() equality: values that compare equal hash
  /// equal (int 5 and double 5.0 share a hash; -0.0 hashes as 0.0). Used by
  /// the executor's ValueKey-based hash join and aggregation tables.
  size_t Hash() const;

  /// Approximate in-memory/on-disk footprint in bytes (used by the storage
  /// accounting behind Table III).
  size_t ByteSize() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace synergy
