#include "common/codec.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace synergy::codec {
namespace {

constexpr char kTypeNull = 0x00;

inline uint64_t ToBigEndian(uint64_t u) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(u);
  } else {
    return u;
  }
}

inline void EncodeUint64BigEndian(uint64_t u, std::string* out) {
  char buf[8];
  u = ToBigEndian(u);
  std::memcpy(buf, &u, 8);
  out->append(buf, 8);
}

inline uint64_t DecodeUint64BigEndian(std::string_view in) {
  uint64_t u;
  std::memcpy(&u, in.data(), 8);
  return ToBigEndian(u);
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kNull:
      out->push_back(kTypeNull);
      out->push_back(kTypeNull);
      return;
    case DataType::kInt: {
      out->push_back(0x01);
      const uint64_t biased =
          static_cast<uint64_t>(v.as_int()) ^ (uint64_t{1} << 63);
      EncodeUint64BigEndian(biased, out);
      return;
    }
    case DataType::kDouble: {
      out->push_back(0x02);
      double d = v.as_double();
      if (d == 0.0) d = 0.0;  // canonicalize -0.0: it compares equal to +0.0
      if (std::isnan(d)) {
        // One canonical NaN: Value::Compare treats all NaNs as equal and
        // orders them after every non-NaN, which positive quiet-NaN bits
        // preserve under the sign-flip encoding below.
        d = std::numeric_limits<double>::quiet_NaN();
      }
      uint64_t bits = std::bit_cast<uint64_t>(d);
      // Negative doubles: flip all bits; non-negative: flip sign bit only.
      if (bits & (uint64_t{1} << 63)) {
        bits = ~bits;
      } else {
        bits ^= (uint64_t{1} << 63);
      }
      EncodeUint64BigEndian(bits, out);
      return;
    }
    case DataType::kString: {
      out->push_back(0x03);
      // Bulk-append runs between NULs; the common case (no NUL bytes) is a
      // single memcpy instead of a per-character loop.
      const std::string& s = v.as_string();
      const char* p = s.data();
      size_t left = s.size();
      while (left > 0) {
        const char* nul = static_cast<const char*>(std::memchr(p, '\0', left));
        if (nul == nullptr) {
          out->append(p, left);
          break;
        }
        const size_t run = static_cast<size_t>(nul - p);
        out->append(p, run);
        out->append("\0\xFF", 2);  // escaped NUL
        p = nul + 1;
        left -= run + 1;
      }
      out->append("\0\x01", 2);  // terminator
      return;
    }
  }
}

std::string EncodeKey(const std::vector<Value>& values) {
  std::string out;
  out.reserve(values.size() * 10);
  for (const Value& v : values) EncodeValue(v, &out);
  return out;
}

void EncodeKeyInto(const std::vector<Value>& values, std::string* out) {
  out->clear();
  for (const Value& v : values) EncodeValue(v, out);
}

Status DecodeValueInto(std::string_view* in, DataType type, Value* out) {
  if (in->empty()) return Status::InvalidArgument("empty key buffer");
  const uint8_t tag = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (tag == 0x00) {
    if (in->empty() || (*in)[0] != kTypeNull) {
      return Status::InvalidArgument("bad NULL marker");
    }
    in->remove_prefix(1);
    *out = Value();
    return Status::Ok();
  }
  switch (type) {
    case DataType::kInt: {
      if (tag != 0x01 || in->size() < 8) {
        return Status::InvalidArgument("bad int encoding");
      }
      const uint64_t biased = DecodeUint64BigEndian(*in);
      in->remove_prefix(8);
      *out = Value(static_cast<int64_t>(biased ^ (uint64_t{1} << 63)));
      return Status::Ok();
    }
    case DataType::kDouble: {
      if (tag != 0x02 || in->size() < 8) {
        return Status::InvalidArgument("bad double encoding");
      }
      uint64_t bits = DecodeUint64BigEndian(*in);
      in->remove_prefix(8);
      if (bits & (uint64_t{1} << 63)) {
        bits ^= (uint64_t{1} << 63);
      } else {
        bits = ~bits;
      }
      *out = Value(std::bit_cast<double>(bits));
      return Status::Ok();
    }
    case DataType::kString: {
      if (tag != 0x03) return Status::InvalidArgument("bad string encoding");
      std::string& s = out->ResetString();
      // Copy whole runs up to the next NUL; each NUL is either an escaped
      // NUL byte (0x00 0xFF) or the terminator (0x00 0x01).
      while (true) {
        if (in->empty()) return Status::InvalidArgument("unterminated string");
        const void* nul = std::memchr(in->data(), '\0', in->size());
        if (nul == nullptr) {
          return Status::InvalidArgument("unterminated string");
        }
        const size_t run =
            static_cast<size_t>(static_cast<const char*>(nul) - in->data());
        s.append(in->data(), run);
        if (run + 1 >= in->size()) {
          return Status::InvalidArgument("unterminated string");
        }
        const char next = (*in)[run + 1];
        in->remove_prefix(run + 2);
        if (next == 0x01) break;           // terminator
        if (next == '\xFF') {
          s.push_back('\0');               // escaped NUL
          continue;
        }
        return Status::InvalidArgument("bad string escape");
      }
      return Status::Ok();
    }
    case DataType::kNull:
      return Status::InvalidArgument("cannot decode as NULL type");
  }
  return Status::Internal("unreachable");
}

StatusOr<Value> DecodeValue(std::string_view* in, DataType type) {
  Value v;
  SYNERGY_RETURN_IF_ERROR(DecodeValueInto(in, type, &v));
  return v;
}

StatusOr<std::vector<Value>> DecodeKey(std::string_view key,
                                       const std::vector<DataType>& types) {
  std::vector<Value> out;
  out.reserve(types.size());
  for (const DataType t : types) {
    SYNERGY_ASSIGN_OR_RETURN(v, DecodeValue(&key, t));
    out.push_back(std::move(v));
  }
  if (!key.empty()) {
    return Status::InvalidArgument("trailing bytes after key decode");
  }
  return out;
}

std::string PrefixSuccessor(std::string_view prefix) {
  std::string out(prefix);
  while (!out.empty()) {
    if (static_cast<uint8_t>(out.back()) != 0xFF) {
      out.back() = static_cast<char>(static_cast<uint8_t>(out.back()) + 1);
      return out;
    }
    out.pop_back();
  }
  return out;  // empty == unbounded
}

std::string HexDump(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 3);
  for (const char c : bytes) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
    out.push_back(' ');
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace synergy::codec
