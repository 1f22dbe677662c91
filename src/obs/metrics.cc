#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace synergy::obs {
namespace {

// Stripe assignment: each thread draws a ticket once and keeps it for its
// lifetime, so a thread always lands on the same stripe (no per-call rng)
// and threads spread round-robin across stripes.
size_t NextThreadTicket() {
  static std::atomic<size_t> next{0};
  thread_local const size_t ticket = next.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

// Shortest-round-trip double rendering that is always valid JSON: no inf/nan
// (clamped to 0, neither can arise from the meter/histograms), and always
// parseable as a number.
void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

// Metric names are [a-z0-9_:] by convention; help strings may carry
// arbitrary prose, so escape them for the JSON rendering.
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

HistogramSummary Summarize(const LatencyHistogram& h) {
  HistogramSummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.mean = h.mean();
  // LatencyHistogram exposes mean/count but not a running sum.
  s.sum = s.mean * static_cast<double>(s.count);
  s.min = h.min();
  s.max = h.max();
  // Percentile takes p in [0, 100], not a fraction.
  s.p50 = h.Percentile(50.0);
  s.p95 = h.Percentile(95.0);
  s.p99 = h.Percentile(99.0);
  return s;
}

}  // namespace

size_t Counter::ThisThreadStripe() { return NextThreadTicket() % kStripes; }
size_t Histogram::ThisThreadStripe() { return NextThreadTicket() % kStripes; }

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry<Counter>& e = counters_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<Counter>();
    e.help = help;
  }
  return e.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry<Gauge>& e = gauges_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<Gauge>();
    e.help = help;
  }
  return e.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry<Histogram>& e = histograms_[name];
  if (e.metric == nullptr) {
    e.metric = std::make_unique<Histogram>();
    e.help = help;
  }
  return e.metric.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, e] : counters_) {
    snap.counters.push_back({name, e.help, e.metric->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, e] : gauges_) {
    snap.gauges.push_back({name, e.help, e.metric->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, e] : histograms_) {
    snap.histograms.push_back({name, e.help, Summarize(e.metric->Merged())});
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard lock(mutex_);
  for (auto& [name, e] : counters_) e.metric->Reset();
  for (auto& [name, e] : histograms_) e.metric->Reset();
}

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterRow& c : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, c.name);
    out.push_back(':');
    AppendUint(&out, c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeRow& g : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, g.name);
    out.push_back(':');
    AppendDouble(&out, g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramRow& h : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, h.name);
    out += ":{\"count\":";
    AppendUint(&out, h.summary.count);
    out += ",\"sum\":";
    AppendDouble(&out, h.summary.sum);
    out += ",\"mean\":";
    AppendDouble(&out, h.summary.mean);
    out += ",\"min\":";
    AppendDouble(&out, h.summary.min);
    out += ",\"max\":";
    AppendDouble(&out, h.summary.max);
    out += ",\"p50\":";
    AppendDouble(&out, h.summary.p50);
    out += ",\"p95\":";
    AppendDouble(&out, h.summary.p95);
    out += ",\"p99\":";
    AppendDouble(&out, h.summary.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

uint64_t RegistrySnapshot::CounterValue(std::string_view name) const {
  for (const CounterRow& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool RegistrySnapshot::HasCounter(std::string_view name) const {
  for (const CounterRow& c : counters) {
    if (c.name == name) return true;
  }
  return false;
}

}  // namespace synergy::obs
