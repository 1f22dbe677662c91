// A table: ordered set of regions covering the full key space.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hbase/region.h"

namespace synergy::hbase {

struct TableDescriptor {
  std::string name;
  std::string column_family = "cf";
  int max_versions = 3;
  // Auto-split threshold (rows per region); 0 disables auto-split.
  size_t split_threshold_rows = 250000;
};

class Table {
 public:
  /// Regions are assigned to the `num_region_servers` servers round-robin,
  /// both at creation and on split (fault schedules target server ids).
  Table(TableDescriptor desc, const std::vector<std::string>& split_keys,
        std::atomic<int64_t>* clock, int num_region_servers = 1);

  const TableDescriptor& descriptor() const { return desc_; }

  /// Region responsible for `key`. The returned pointer remains valid for the
  /// table's lifetime (regions are never destroyed, only split).
  Region* RouteKey(const std::string& key);

  size_t RegionCount() const;
  size_t RowCount() const;
  size_t ApproxRowCount() const;
  size_t ByteSize() const;

  void MajorCompact();

  /// Splits any region exceeding the descriptor threshold at its median key.
  void MaybeSplit();

  /// Stable pointers to every current region (failover reassignment sweeps).
  /// Regions are never destroyed, so the pointers outlive the snapshot; a
  /// region split racing the snapshot is picked up on the next sweep.
  std::vector<Region*> SnapshotRegions() const;

 private:
  int NextServerId() {
    return num_region_servers_ > 0 ? next_server_++ % num_region_servers_ : 0;
  }

  TableDescriptor desc_;
  std::atomic<int64_t>* clock_;
  int num_region_servers_ = 1;
  int next_server_ = 0;
  mutable std::shared_mutex mutex_;  // guards regions_ topology
  std::vector<std::unique_ptr<Region>> regions_;  // sorted by start_key
};

}  // namespace synergy::hbase
