// Deterministic splitmix64-based RNG for data generation and workloads.
// Not thread-safe; create one per thread/generator.
#pragma once

#include <cstdint>
#include <string>

namespace synergy {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

  double UniformReal(double lo, double hi) {
    const double u =
        static_cast<double>(Next() >> 11) / 9007199254740992.0;  // [0,1)
    return lo + u * (hi - lo);
  }

  /// Random alphabetic string of the given length.
  std::string AlphaString(size_t len) {
    std::string s;
    AlphaString(len, &s);
    return s;
  }

  /// Appends a random alphabetic string of the given length to `out`, with
  /// the same draws as the form above.
  void AlphaString(size_t len, std::string* out) {
    static const char kAlpha[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    out->reserve(out->size() + len);
    for (size_t i = 0; i < len; ++i) out->push_back(kAlpha[Next() % 26]);
  }

 private:
  uint64_t state_;
};

}  // namespace synergy
