#include "hbase/table.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace synergy::hbase {

Table::Table(TableDescriptor desc, const std::vector<std::string>& split_keys,
             std::atomic<int64_t>* clock, int num_region_servers)
    : desc_(std::move(desc)), clock_(clock),
      num_region_servers_(num_region_servers) {
  std::vector<std::string> splits = split_keys;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  std::string start;
  for (const std::string& split : splits) {
    if (split.empty()) continue;
    regions_.push_back(
        std::make_unique<Region>(start, split, clock_, NextServerId()));
    start = split;
  }
  regions_.push_back(std::make_unique<Region>(start, "", clock_,
                                              NextServerId()));
}

Region* Table::RouteKey(const std::string& key) {
  std::shared_lock lock(mutex_);
  // Last region whose start_key <= key.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), key,
      [](const std::string& k, const std::unique_ptr<Region>& r) {
        return k < r->start_key();
      });
  assert(it != regions_.begin());
  return std::prev(it)->get();
}

size_t Table::RegionCount() const {
  std::shared_lock lock(mutex_);
  return regions_.size();
}

size_t Table::RowCount() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& r : regions_) total += r->RowCount();
  return total;
}

size_t Table::ApproxRowCount() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& r : regions_) total += r->ApproxRowCount();
  return total;
}

size_t Table::ByteSize() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& r : regions_) total += r->ByteSize();
  return total;
}

void Table::MajorCompact() {
  std::shared_lock lock(mutex_);
  for (const auto& r : regions_) r->MajorCompact(desc_.max_versions);
}

std::vector<Region*> Table::SnapshotRegions() const {
  std::shared_lock lock(mutex_);
  std::vector<Region*> out;
  out.reserve(regions_.size());
  for (const auto& r : regions_) out.push_back(r.get());
  return out;
}

void Table::MaybeSplit() {
  if (desc_.split_threshold_rows == 0) return;
  std::unique_lock lock(mutex_);
  for (size_t i = 0; i < regions_.size(); ++i) {
    Region* region = regions_[i].get();
    if (region->RowCount() <= desc_.split_threshold_rows) continue;
    const std::string median = region->MedianKey();
    if (median.empty() || median == region->start_key()) continue;
    auto right = std::make_unique<Region>(median, region->end_key(), clock_,
                                          NextServerId());
    region->SplitInto(median, right.get());
    region->SetEndKey(median);
    regions_.insert(regions_.begin() + static_cast<long>(i) + 1,
                    std::move(right));
    ++i;  // skip the freshly created right sibling this pass
  }
}

}  // namespace synergy::hbase
