// Cluster-wide metrics registry: counters, gauges and log-bucketed
// histograms published by every layer (hbase RPC boundary, admission,
// failover, txn WAL/locks/slaves, executor, Synergy view maintenance) and
// rendered as one JSON snapshot, so benches and tests read layer-level
// state from a single place instead of per-struct tallies.
//
// Hot-path design: a Counter is a set of cache-line-aligned stripes of
// relaxed atomics, one picked per thread, so concurrent clients never
// contend on a line; a Histogram stripes {mutex + LatencyHistogram} the
// same way (Observe is rare enough per op that a striped mutex is cheap,
// and LatencyHistogram::Add is not atomic-friendly). Handles returned by
// GetCounter/GetGauge/GetHistogram are stable for the registry's lifetime,
// so layers resolve them once at construction and publish with a single
// relaxed add per event.
//
// Naming convention (docs/OBSERVABILITY.md): snake_case families prefixed
// by layer (`hbase_`, `client_`, `txn_`, `exec_`, `synergy_`); counters end
// in `_total`, histograms name their unit (`_us`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace synergy::obs {

/// Monotonic event counter. Inc is one relaxed fetch_add on a per-thread
/// stripe; Value/Reset sum/clear all stripes (read-side, not hot).
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    stripes_[ThisThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  static constexpr size_t kStripes = 16;
  static size_t ThisThreadStripe();

  std::array<Stripe, kStripes> stripes_{};
};

/// Point-in-time state (e.g. live region servers). Unlike counters, gauges
/// are not tallies: ResetAll leaves them untouched.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Distribution metric over LatencyHistogram (log buckets, p50/p95/p99).
class Histogram {
 public:
  void Observe(double value) {
    Stripe& s = stripes_[ThisThreadStripe()];
    std::lock_guard lock(s.mu);
    s.h.Add(value);
  }
  /// Merged view across stripes (read-side).
  LatencyHistogram Merged() const {
    LatencyHistogram out;
    for (const Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      out.Merge(s.h);
    }
    return out;
  }
  void Reset() {
    for (Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      s.h = LatencyHistogram{};
    }
  }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    LatencyHistogram h;
  };
  static constexpr size_t kStripes = 8;
  static size_t ThisThreadStripe();

  std::array<Stripe, kStripes> stripes_{};
};

struct HistogramSummary {
  size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every metric, in deterministic (name) order.
struct RegistrySnapshot {
  struct CounterRow {
    std::string name, help;
    uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name, help;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name, help;
    HistogramSummary summary;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// Compact JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,mean,min,max,p50,p95,p99}}}.
  std::string ToJson() const;

  /// Counter value by name; 0 when absent (test/assertion convenience).
  uint64_t CounterValue(std::string_view name) const;
  bool HasCounter(std::string_view name) const;
};

/// Thread-safe named-metric registry. Get* registers on first use and
/// returns a stable handle; name order makes snapshots deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  RegistrySnapshot Snapshot() const;

  /// Zeroes every counter and histogram in one place, so mid-run resets
  /// cannot desynchronize the per-layer tallies that read through here
  /// (admission, failover, client op counters). Gauges are state, not
  /// tallies, and keep their value.
  void ResetAll();

 private:
  template <typename T>
  struct Entry {
    std::string help;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace synergy::obs
