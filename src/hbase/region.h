// A region: the whole row-key space of one table, with its own latch.
//
// Regions provide the atomicity granule of the store: single-row operations
// (Put/Get/Delete/CheckAndPut/Increment) are atomic under the region latch,
// matching HBase's row-level atomicity guarantees.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hbase/cell.h"

namespace synergy::hbase {

/// Visibility control for reads: resolve versions at/below `read_ts`,
/// skipping versions whose timestamp is in `exclude` (MVCC invalid list).
struct ReadView {
  int64_t read_ts = INT64_MAX;
  const std::vector<int64_t>* exclude = nullptr;
};

struct ScanBatchResult {
  std::vector<RowResult> rows;
  std::string next_start_key;  // first key not examined; empty => exhausted
  bool exhausted = false;
  size_t rows_examined = 0;  // server-side work including filtered rows
};

/// One durably-logged mutation of a region, recorded under the region latch
/// with the exact cell timestamp it applied at. Replaying the edits logged
/// since the last flush, in order, on top of the flushed store reproduces
/// the store byte-for-byte (same versions, same timestamps), which is what
/// lets failover move a dead server's regions without losing acknowledged
/// writes. CheckAndPut/Increment log their *resulting* value, so replay
/// needs no re-evaluation. The log itself is serialized (see region.cc);
/// this is the decoded form of one record.
struct RegionEdit {
  std::string row_key;
  std::vector<std::pair<std::string, std::string>> columns;
  int64_t ts = 0;
  bool tombstone = false;  // true: each column entry is a tombstone marker
};

class Region {
 public:
  /// `clock` allocates write timestamps *inside* the region latch when the
  /// caller does not supply one, guaranteeing per-cell monotonicity under
  /// concurrency (a pre-allocated timestamp could be written after a newer
  /// one and be silently hidden). `server_id` names the region server this
  /// region is assigned to; fault schedules use it to take down all regions
  /// of one server at once (see testing/fault_injector.h).
  explicit Region(std::atomic<int64_t>* clock, int server_id = 0)
      : clock_(clock), server_id_(server_id) {}

  int server_id() const { return server_id_.load(std::memory_order_acquire); }
  /// Reassigns the region to another server (failover). The release store
  /// pairs with the acquire load in server_id(): a client that sees the new
  /// server sees the replayed store.
  void set_server_id(int id) {
    server_id_.store(id, std::memory_order_release);
  }

  /// ts == nullopt allocates from the clock inside the latch. Every write
  /// in the store's callers does so, MvccSystem's included: its versions
  /// carry clock timestamps, never a transaction's txid (which the same
  /// clock allocates), so no version matches a ReadView::exclude entry.
  /// Explicit timestamps are for tests, which write at chosen times.
  void Put(const std::string& row_key,
           const std::vector<std::pair<std::string, std::string>>& columns,
           std::optional<int64_t> ts = std::nullopt);

  void Delete(const std::string& row_key,
              std::optional<int64_t> ts = std::nullopt);

  std::optional<RowResult> Get(const std::string& row_key,
                               const ReadView& view) const;

  /// Atomic compare-and-set: writes iff the current latest value of
  /// `qualifier` equals `expected` (nullopt expected == column absent).
  bool CheckAndPut(const std::string& row_key, const std::string& qualifier,
                   const std::optional<std::string>& expected,
                   const std::string& new_value);

  /// Atomic add on a decimal-encoded integer column; returns new value.
  StatusOr<int64_t> Increment(const std::string& row_key,
                              const std::string& qualifier, int64_t delta);

  /// Returns up to `limit` rows with key in [from, stop) (empty stop = to
  /// the end), resolved through `view`. Rows with no visible cells are
  /// skipped but counted in rows_examined.
  ScanBatchResult ScanBatch(const std::string& from, const std::string& stop,
                            size_t limit, const ReadView& view) const;

  /// Drops tombstones/excess versions; removes rows left empty; then
  /// flushes. A region whose store is lost is not compacted. A region with
  /// nothing to drop (see compactable_) only flushes.
  void MajorCompact(int max_versions);

  /// Number of live rows (rows whose cells are all tombstoned don't count).
  size_t RowCount() const;
  /// O(1) row count including not-yet-compacted deleted rows (planner
  /// estimates; exact liveness does not matter there).
  size_t ApproxRowCount() const;
  size_t ByteSize() const;

  // ---- Failover support (see hbase/failover.h) ----

  /// Simulates the server process dying: the memstore (every version written
  /// since the last flush, i.e. exactly those the edit log names) is lost,
  /// while the flushed store and the edit log (the region WAL, durably
  /// replicated in real HBase) survive. Reads/writes are fenced by the
  /// failover layer until ReplayEdits() rebuilds the store on the new server.
  void DropStore();

  /// Rebuilds the memstore by replaying the edit log in append order with
  /// the original timestamps. Valid only after DropStore(): callers must not
  /// replay into an intact store (it would re-apply overwritten versions),
  /// which is why fenced-but-alive servers (heartbeat loss) skip replay.
  void ReplayEdits();

  /// True between DropStore() and ReplayEdits(): the memstore is gone, so
  /// even stale reads would be wrong (silently missing the latest writes).
  bool store_lost() const {
    return store_lost_.load(std::memory_order_acquire);
  }

  /// Number of edits logged since the last flush.
  size_t EditLogSize() const;

 private:
  class EditWriter;

  int64_t AllocTs(std::optional<int64_t> ts) {
    return ts.has_value() ? *ts : clock_->fetch_add(1) + 1;
  }

  /// The region's flush: the store as it stands is durable from here on, so
  /// the edit log is truncated. Drops no version and charges no time. Runs
  /// after every write whose record fills the log to 1 MiB, and at the end
  /// of MajorCompact. A region whose store is lost never flushes. Latch
  /// held exclusively.
  void Flush();

  std::atomic<int64_t>* clock_;
  std::atomic<int> server_id_{0};
  std::atomic<bool> store_lost_{false};
  mutable std::shared_mutex mutex_;
  // Row key -> the packed row: every column's versions in one string (the
  // layout is described in region.cc).
  std::map<std::string, std::string> rows_;
  // False only while every cell holds one non-tombstone version and no row
  // is empty, so MajorCompact has nothing to drop. A write that adds a
  // version to an existing row, any tombstone, an empty Put, DropStore and
  // ReplayEdits set it; MajorCompact sets it iff a cell kept two versions.
  bool compactable_ = false;
  // Region WAL since the last flush: serialized RegionEdits back to back.
  std::string log_;
  size_t log_entries_ = 0;
};

}  // namespace synergy::hbase
