// Virtual-time cost model for the simulated cluster.
//
// Every client-visible operation (RPC to a region server, scan batch,
// transaction-server round trip, lock CheckAndPut, ...) charges virtual
// microseconds to the session's CostMeter. Reported benchmark response times
// are these virtual times, which makes runs deterministic and independent of
// the host machine.
//
// Calibration anchors (see DESIGN.md §5): parameters are chosen so that the
// *shapes* reported by the paper emerge from mechanics:
//   - Fig. 10: view scan 6-12x faster than the client-coordinated join at 50k
//     customers, gap growing with scale.
//   - Fig. 11: per-lock acquire+release ~ a couple of ms plus a fixed client
//     setup term (342 ms at 10 locks, 571 ms at 100, 2182 ms at 1000).
//   - Tephra MVCC adds ~800-900 ms per statement (start/canCommit/commit
//     round trips through a single transaction server plus snapshot work).
//   - VoltDB-like in-memory execution ~10x faster than HBase-backed scans.
#pragma once

#include <cstddef>
#include <cstdint>

namespace synergy::sim {

struct CostModel {
  // --- HBase layer (per region-server RPC) ---
  double rpc_base_us = 900.0;        // client<->region server round trip
  double rpc_per_kb_us = 28.0;       // network transfer per KiB of payload
  double server_seek_us = 140.0;     // locating a row (memstore+blockcache miss amortized)
  double server_scan_row_us = 3.2;   // sequential next() per row server-side
  double client_row_us = 1.1;        // client-side decode/handling per row
  int scan_batch_rows = 1000;        // rows fetched per scan RPC (Phoenix default-ish)

  // --- Client-side join work (Phoenix-style coordination) ---
  double join_build_row_us = 2.4;    // hash-table insert per build row
  double join_probe_row_us = 1.8;    // probe per probe row
  double join_emit_row_us = 2.6;     // materializing a joined output row
  double sort_row_log_us = 0.9;      // per row*log2(rows) for client sorts
  // Per-row coordination overhead of the client-side join path
  // (intermediate serialization, scan-cache pressure, JVM object churn in
  // the Phoenix client). Calibrated so the Fig. 10 micro-benchmark
  // reproduces the measured view-scan-vs-join gap (6x for the 2-way join,
  // ~12x for the 3-way join whose rows cross two operators).
  double join_row_overhead_us = 35.0;
  // Client joins whose build side exceeds this row count spill to a grace
  // hash join: every build/probe row pays an extra partitioning pass. This
  // is why the paper's deep join (Q2) falls further behind the view scan
  // as scale grows (11.7x vs 6x at 50k customers).
  size_t hash_join_spill_rows = 100000;
  double join_spill_row_us = 20.0;
  double agg_row_us = 1.2;           // hash-aggregate update per row

  // --- Tephra-like MVCC transaction server ---
  double mvcc_start_us = 320000.0;     // startTransaction round trip + snapshot
  double mvcc_commit_us = 350000.0;    // canCommit + commit round trips
  double mvcc_conflict_check_us = 180000.0;  // change-set conflict detection
  double mvcc_read_filter_row_us = 1.6;      // per-row visibility filtering

  // --- Synergy transaction layer ---
  double txn_layer_dispatch_us = 3000.0;  // client -> slave forwarding
  double wal_append_us = 40000.0;         // WAL append + HDFS pipeline sync
  double lock_rpc_us = 900.0;             // one CheckAndPut round trip
  double lock_client_setup_us = 320000.0; // htable/connection setup for a locking batch (Fig. 11 offset)

  // --- VoltDB-like NewSQL engine ---
  double volt_dispatch_us = 450.0;     // client -> partition executor
  double volt_replicated_round_us = 900.0;  // multi-partition coordination
  double volt_write_sync_us = 7000.0;  // command-log group commit (writes)

  // --- Storage accounting (Table III) ---
  double hbase_overhead_per_cell = 22.0;  // key+cf+qualifier+ts framing bytes
  double volt_overhead_per_row = 8.0;

  /// EC2-like preset used by all benchmarks (m4.4xlarge-ish cluster).
  static CostModel Ec2Like() { return CostModel{}; }
};

/// Per-session accumulator of virtual time. Each logical client session owns
/// one meter, driven by the one thread that drives the session.
class CostMeter {
 public:
  void Charge(double micros) { virtual_us_ += micros; }
  void Reset() { virtual_us_ = 0.0; }

  double micros() const { return virtual_us_; }
  double millis() const { return micros() / 1000.0; }

  /// Scoped measurement helper: returns elapsed virtual µs since `mark`.
  double Since(double mark) const { return micros() - mark; }

 private:
  double virtual_us_ = 0.0;
};

/// Payload-size based RPC cost: base latency + transfer time.
double RpcCost(const CostModel& m, size_t payload_bytes);

}  // namespace synergy::sim
