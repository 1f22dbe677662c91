// Per-query trace spans over the virtual cost model.
//
// A TraceCollector is attached to one hbase::Session (Session::SetTrace) and
// records a tree of spans — parse/rewrite/plan/bind/execute down to
// individual RPCs — where each span's duration is the virtual-µs charged to
// the session's sim::CostMeter between enter and exit. Because every layer
// charges the same meter, the durations of a query's root spans sum exactly
// to its total virtual cost: the decomposition is exact, not sampled.
//
// Threading contract: a collector belongs to one logical client session and,
// like the session, is driven by one thread at a time, so it needs no
// internal locking.
//
// Typical use:
//   obs::TraceCollector trace(&session.meter());
//   session.SetTrace(&trace);
//   ... run a statement ...
//   std::cout << trace.Render();
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/cost_model.h"

namespace synergy::obs {

struct TraceSpan {
  std::string name;
  int parent = -1;  // index into TraceCollector::spans(), -1 = root
  int depth = 0;
  double start_us = 0.0;  // meter reading at enter
  double end_us = 0.0;    // meter reading at exit
  bool open = false;      // still on the open stack
  // Layer annotations (server id, queue wait, lock retries, shed/degraded
  // flags, ...), insertion-ordered.
  std::vector<std::pair<std::string, std::string>> notes;

  double duration_us() const { return end_us - start_us; }
};

class TraceCollector {
 public:
  /// `meter` is the session's cost meter; spans measure its virtual time.
  explicit TraceCollector(const sim::CostMeter* meter) : meter_(meter) {}

  /// Record per-RPC leaf spans too (one span per Get/Put/ScanBatch/...).
  /// Off by default: statement-level spans are usually enough and RPC spans
  /// can run into the thousands for scan-heavy queries.
  void set_rpc_spans(bool on) { rpc_spans_ = on; }
  bool rpc_spans() const { return rpc_spans_; }

  /// Opens a span as a child of the innermost open span. Returns its index.
  int OpenSpan(std::string name);
  /// Closes span `index`, stamping the current meter reading.
  void CloseSpan(int index);
  /// Attaches an annotation to span `index`.
  void Note(int index, std::string key, std::string value);
  /// Attaches an annotation to the innermost open span (no-op when none) —
  /// lets deep layers (admission queue, failover degraded reads) annotate
  /// whatever span is active without plumbing indices through.
  void NoteCurrent(std::string key, std::string value);
  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Sum of root-span durations == total virtual-µs this trace accounts for.
  double RootUs() const;

  /// Indented tree: one line per span with virtual-µs and annotations.
  std::string Render() const;

 private:
  double Now() const;

  const sim::CostMeter* meter_;
  bool rpc_spans_ = false;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII span: opens on construction, closes on destruction (or explicit
/// Close() when the instrumented region ends before scope exit). A null
/// collector makes every operation a no-op, so instrumented code pays only
/// a pointer test when tracing is off, as long as it builds note strings
/// only when the collector is non-null.
class ScopedSpan {
 public:
  ScopedSpan(TraceCollector* trace, const char* name)
      : trace_(trace), index_(trace ? trace->OpenSpan(name) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Note(std::string key, std::string value) {
    if (trace_ != nullptr && index_ >= 0) {
      trace_->Note(index_, std::move(key), std::move(value));
    }
  }
  void Close() {
    if (trace_ != nullptr && index_ >= 0) {
      trace_->CloseSpan(index_);
      index_ = -1;
    }
  }

 private:
  TraceCollector* trace_;
  int index_;
};

}  // namespace synergy::obs
