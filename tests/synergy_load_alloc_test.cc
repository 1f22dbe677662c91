// Heap allocations on Synergy's load path. This binary replaces the global
// operator new with one that counts its calls, so a test can read how many
// allocations a span of work made.
//
// A Synergy load puts every base row with its index rows and builds its
// view and view-index rows from ancestor reads. The store keeps each row in
// one allocation; everything else the load path needs (generated tuples,
// slot rows, encoded keys and values, ancestor rows, view rows) lives in
// buffers reused from one row to the next. So a load allocates about once
// per stored row, and two fresh loads allocate exactly as often.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "hbase/cluster.h"
#include "synergy/synergy_system.h"
#include "tpcw/generator.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace synergy {
namespace {

struct LoadCount {
  uint64_t allocations = 0;
  size_t stored_rows = 0;
};

/// Loads a fresh `customers`-customer TPC-W store into Synergy and counts
/// the heap allocations from the first Load to the last: the generator's,
/// the load path's and the store's.
LoadCount CountLoad(int64_t customers) {
  hbase::Cluster cluster;
  core::SynergySystem system(&cluster, {.roots = tpcw::Roots()});
  EXPECT_TRUE(system.Build(tpcw::BuildCatalog(), tpcw::BuildWorkload()).ok());
  EXPECT_TRUE(system.CreateStorage().ok());
  tpcw::ScaleConfig scale;
  scale.num_customers = customers;
  hbase::Session load(&cluster);
  bool first = true;
  uint64_t start = 0;
  uint64_t end = 0;
  const Status loaded = tpcw::GenerateDatabase(
      scale, [&](const std::string& relation, const exec::Tuple& tuple) {
        if (first) {
          start = g_allocations.load(std::memory_order_relaxed);
          first = false;
        }
        const Status s = system.Load(load, relation, tuple);
        end = g_allocations.load(std::memory_order_relaxed);
        return s;
      });
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  LoadCount count{.allocations = end - start};
  for (const hbase::TableSizeInfo& table : cluster.SizeReport()) {
    count.stored_rows += table.rows;
  }
  return count;
}

TEST(SynergyLoadAllocTest, AtMostTwoAllocationsPerStoredRow) {
  const LoadCount first = CountLoad(100);
  ASSERT_GT(first.stored_rows, 0u);
  const double per_row = static_cast<double>(first.allocations) /
                         static_cast<double>(first.stored_rows);
  RecordProperty("allocations", std::to_string(first.allocations));
  RecordProperty("stored_rows", std::to_string(first.stored_rows));
  std::printf("load of 100 customers: %llu allocations, %zu stored rows, "
              "%.3f per stored row\n",
              static_cast<unsigned long long>(first.allocations),
              first.stored_rows, per_row);
  EXPECT_LE(per_row, 2.0);

  // Nothing carries over from one load to the next: a second fresh load
  // allocates exactly as often.
  const LoadCount second = CountLoad(100);
  EXPECT_EQ(second.stored_rows, first.stored_rows);
  EXPECT_EQ(second.allocations, first.allocations);
}

}  // namespace
}  // namespace synergy
