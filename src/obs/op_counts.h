// The per-op client counter schema: the six facts every store client tallies
// per operation, defined once. A session keeps one OpCounts and mirrors
// each bump into the registry family of the same index; the per-op figures
// that flow from a statement to a bench report are one OpCounts value,
// merged whole. Adding a counter is one enum entry plus one schema line.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace synergy::obs {

/// What each counter counts is its registry family's help string below.
enum class OpCounter : uint8_t {
  kRpcs,
  kRetries,
  kDegradedReads,
  kDeadlineExceeded,
  kOverloadRejected,
  kScanErrorsDropped,
};
inline constexpr size_t kNumOpCounters = 6;

/// Registry family (name, help) of each OpCounter, in enum order.
struct OpCounterFamily {
  const char* name;
  const char* help;
};
inline constexpr std::array<OpCounterFamily, kNumOpCounters> kOpCounterSchema{{
    {"hbase_rpcs_total", "RPC attempts at the region-server boundary"},
    {"client_retries_total", "retry attempts granted by session policies"},
    {"client_degraded_reads_total",
     "bounded-staleness reads served mid-reassignment"},
    {"client_deadline_exceeded_total", "ops that exhausted their deadline"},
    {"client_overload_rejected_total",
     "ops shed by admission control or a tripped breaker"},
    {"client_scan_errors_dropped_total",
     "scanners destroyed with an unchecked error status"},
}};

/// One value per OpCounter: a session's running totals, or the difference
/// of two snapshots (one statement's share), or a sum over many ops.
class OpCounts {
 public:
  uint64_t operator[](OpCounter c) const { return v_[Index(c)]; }
  uint64_t& operator[](OpCounter c) { return v_[Index(c)]; }

  OpCounts& operator+=(const OpCounts& other) {
    for (size_t i = 0; i < kNumOpCounters; ++i) v_[i] += other.v_[i];
    return *this;
  }
  /// Element-wise difference; `*this` must dominate `other` (a later
  /// snapshot of the same monotonic counters).
  OpCounts operator-(const OpCounts& other) const {
    OpCounts out;
    for (size_t i = 0; i < kNumOpCounters; ++i) {
      out.v_[i] = v_[i] - other.v_[i];
    }
    return out;
  }
  bool operator==(const OpCounts&) const = default;

  static constexpr size_t Index(OpCounter c) { return static_cast<size_t>(c); }

 private:
  std::array<uint64_t, kNumOpCounters> v_{};
};

/// The registry handle of every OpCounter family, indexed like OpCounts.
using OpCounterHandles = std::array<Counter*, kNumOpCounters>;

inline OpCounterHandles ResolveOpCounters(MetricsRegistry& registry) {
  OpCounterHandles handles{};
  for (size_t i = 0; i < kNumOpCounters; ++i) {
    handles[i] = registry.GetCounter(kOpCounterSchema[i].name,
                                     kOpCounterSchema[i].help);
  }
  return handles;
}

}  // namespace synergy::obs
