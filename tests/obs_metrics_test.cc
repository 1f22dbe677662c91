// Metrics registry unit tests: striped counter/histogram merge semantics,
// snapshot determinism and rendering, reset behavior, and a multi-writer
// stress case that the TSan CI job runs to prove the hot path race-clean.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "sim/cost_model.h"

namespace synergy::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, MergesAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncsPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(2.0);
  EXPECT_EQ(g.Value(), 2.0);
}

TEST(HistogramTest, MergedSummaryTracksPercentiles) {
  MetricsRegistry r;
  Histogram* h = r.GetHistogram("test_latency_us");
  for (int i = 1; i <= 1000; ++i) h->Observe(static_cast<double>(i));
  const RegistrySnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSummary& s = snap.histograms[0].summary;
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Log-bucketed percentiles: generous bounds, not exact ranks.
  EXPECT_GT(s.p50, 300.0);
  EXPECT_LT(s.p50, 700.0);
  EXPECT_GT(s.p99, s.p50);
  EXPECT_NEAR(s.sum, 1000.0 * 1001.0 / 2.0, 1.0);
}

TEST(HistogramTest, MergesAcrossThreads) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kObsPerThread; ++i) {
        h.Observe(100.0 + t);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.Merged().count(), static_cast<size_t>(kThreads) *
                                    kObsPerThread);
}

TEST(RegistryTest, HandlesAreStable) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("x_total", "first registration wins");
  Counter* b = r.GetCounter("x_total", "ignored");
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(r.Snapshot().CounterValue("x_total"), 3u);
}

TEST(RegistryTest, SnapshotIsNameOrderedAndDeterministic) {
  MetricsRegistry r;
  r.GetCounter("zebra_total")->Inc(1);
  r.GetCounter("alpha_total")->Inc(2);
  r.GetCounter("mid_total")->Inc(3);
  r.GetGauge("g2")->Set(2.0);
  r.GetGauge("g1")->Set(1.0);
  const RegistrySnapshot s1 = r.Snapshot();
  ASSERT_EQ(s1.counters.size(), 3u);
  EXPECT_EQ(s1.counters[0].name, "alpha_total");
  EXPECT_EQ(s1.counters[1].name, "mid_total");
  EXPECT_EQ(s1.counters[2].name, "zebra_total");
  ASSERT_EQ(s1.gauges.size(), 2u);
  EXPECT_EQ(s1.gauges[0].name, "g1");
  // Same state -> byte-identical renderings.
  const RegistrySnapshot s2 = r.Snapshot();
  EXPECT_EQ(s1.ToJson(), s2.ToJson());
}

TEST(RegistryTest, RenderingsContainFamilies) {
  MetricsRegistry r;
  r.GetCounter("hbase_rpcs_total", "RPCs")->Inc(7);
  r.GetGauge("hbase_live_region_servers", "live servers")->Set(3.0);
  r.GetHistogram("exec_statement_virtual_us", "per stmt")->Observe(42.0);
  const RegistrySnapshot snap = r.Snapshot();

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"hbase_rpcs_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  EXPECT_TRUE(snap.HasCounter("hbase_rpcs_total"));
  EXPECT_FALSE(snap.HasCounter("absent_total"));
  EXPECT_EQ(snap.CounterValue("absent_total"), 0u);
}

TEST(RegistryTest, ResetAllZeroesTalliesButKeepsGauges) {
  MetricsRegistry r;
  r.GetCounter("c_total")->Inc(5);
  r.GetHistogram("h_us")->Observe(10.0);
  r.GetGauge("g")->Set(4.0);
  r.ResetAll();
  const RegistrySnapshot snap = r.Snapshot();
  EXPECT_EQ(snap.CounterValue("c_total"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].summary.count, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 4.0);
}

// TSan target: concurrent writers on every metric kind while a reader
// takes snapshots. Asserts only the final totals; the point is the
// interleaving itself.
TEST(RegistryTest, MultiWriterStressIsRaceClean) {
  MetricsRegistry r;
  Counter* c = r.GetCounter("stress_total");
  Gauge* g = r.GetGauge("stress_gauge");
  Histogram* h = r.GetHistogram("stress_us");
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c->Inc();
        h->Observe(static_cast<double>(i % 97));
        g->Set(static_cast<double>(t));
        if (i % 256 == 0) {
          // Late registration races against Get* from other threads.
          r.GetCounter("stress_side_" + std::to_string(t) + "_total")->Inc();
        }
      }
    });
  }
  std::thread reader([&r] {
    for (int i = 0; i < 50; ++i) {
      const RegistrySnapshot snap = r.Snapshot();
      (void)snap.ToJson();
    }
  });
  for (std::thread& w : workers) w.join();
  reader.join();
  const RegistrySnapshot snap = r.Snapshot();
  EXPECT_EQ(snap.CounterValue("stress_total"),
            static_cast<uint64_t>(kThreads) * kOps);
  ASSERT_FALSE(snap.histograms.empty());
  EXPECT_EQ(snap.histograms[0].summary.count,
            static_cast<size_t>(kThreads) * kOps);
}

TEST(TraceTest, SpansNestAndSumToMeterTotal) {
  sim::CostMeter meter;
  TraceCollector trace(&meter);
  const int root = trace.OpenSpan("stmt");
  meter.Charge(100.0);
  const int child = trace.OpenSpan("scan");
  meter.Charge(40.0);
  trace.Note(child, "table", "Employee");
  trace.CloseSpan(child);
  meter.Charge(10.0);
  trace.NoteCurrent("dirty_restarts", "0");
  trace.CloseSpan(root);

  ASSERT_EQ(trace.spans().size(), 2u);
  const TraceSpan& r = trace.spans()[0];
  const TraceSpan& ch = trace.spans()[1];
  EXPECT_EQ(r.parent, -1);
  EXPECT_EQ(ch.parent, root);
  EXPECT_EQ(ch.depth, 1);
  EXPECT_DOUBLE_EQ(r.duration_us(), 150.0);
  EXPECT_DOUBLE_EQ(ch.duration_us(), 40.0);
  EXPECT_DOUBLE_EQ(trace.RootUs(), 150.0);
  ASSERT_EQ(ch.notes.size(), 1u);
  EXPECT_EQ(ch.notes[0].first, "table");

  const std::string text = trace.Render();
  EXPECT_NE(text.find("stmt"), std::string::npos);
  EXPECT_NE(text.find("scan"), std::string::npos);
}

TEST(TraceTest, NullCollectorScopedSpanIsNoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.Note("k", "v");
  span.Close();  // must not crash
}

}  // namespace
}  // namespace synergy::obs
