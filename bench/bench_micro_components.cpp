// Google-benchmark microbenchmarks of the substrate components (real CPU
// time, not simulated time): key codec, store operations, SQL parsing and
// the executor fast path. These guard against wall-clock regressions in
// the simulator itself.
#include <benchmark/benchmark.h>

#include "common/codec.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "hbase/cluster.h"
#include "sql/parser.h"
#include "synergy/synergy_system.h"
#include "tpcw/generator.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"
#include "txn/txn_layer.h"

namespace {

using namespace synergy;

void BM_CodecEncodeKey(benchmark::State& state) {
  const std::vector<Value> key = {Value(123456), Value("USER12345"),
                                  Value(3.25)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::EncodeKey(key));
  }
}
BENCHMARK(BM_CodecEncodeKey);

void BM_CodecDecodeKey(benchmark::State& state) {
  const std::string key =
      codec::EncodeKey({Value(123456), Value("USER12345"), Value(3.25)});
  const std::vector<DataType> types = {DataType::kInt, DataType::kString,
                                       DataType::kDouble};
  for (auto _ : state) {
    auto decoded = codec::DecodeKey(key, types);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CodecDecodeKey);

// Every Put adds a cell version, so without compaction a Put costs more the
// more Puts ran before it. (Its WAL record does not pile up: a region
// flushes its log at 1 MiB.) Both Put rungs compact once per pass over their
// keys, untimed, so the store stays the same size however many iterations
// run.
constexpr int64_t kPutKeys = 10000;

void BM_RegionPut(benchmark::State& state) {
  std::atomic<int64_t> clock{0};
  hbase::Region region(&clock);
  int64_t i = 0;
  for (auto _ : state) {
    region.Put("key" + std::to_string(i % kPutKeys), {{"d", "payload"}});
    if (++i % kPutKeys == 0) {
      state.PauseTiming();
      region.MajorCompact(hbase::kMaxVersions);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RegionPut);

void BM_RegionGet(benchmark::State& state) {
  std::atomic<int64_t> clock{0};
  hbase::Region region(&clock);
  for (int i = 0; i < 10000; ++i) {
    region.Put("key" + std::to_string(i), {{"d", "payload"}});
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto row = region.Get("key" + std::to_string(i++ % 10000),
                          hbase::ReadView{});
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_RegionGet);

// The Cluster rungs over the two Region rungs above: the same keys and
// payload, sent as one RPC attempt each through Cluster::Put/Get on a
// one-region table named like a view. A Cluster rung minus its Region rung
// is the RPC boundary's own host cost.
const std::string kViewTable = "Orders-Order_line";

void BM_ClusterPut(benchmark::State& state) {
  hbase::Cluster cluster;
  if (!cluster.CreateTable({.name = kViewTable}).ok()) {
    state.SkipWithError("table");
    return;
  }
  hbase::Session s(&cluster);
  int64_t i = 0;
  for (auto _ : state) {
    Status st = cluster.Put(s, kViewTable, "key" + std::to_string(i % kPutKeys),
                            {{"d", "payload"}});
    benchmark::DoNotOptimize(st);
    if (++i % kPutKeys == 0) {
      state.PauseTiming();
      cluster.MajorCompactAll();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ClusterPut);

void BM_ClusterGet(benchmark::State& state) {
  hbase::Cluster cluster;
  if (!cluster.CreateTable({.name = kViewTable}).ok()) {
    state.SkipWithError("table");
    return;
  }
  hbase::Session s(&cluster);
  for (int i = 0; i < 10000; ++i) {
    if (!cluster.Put(s, kViewTable, "key" + std::to_string(i),
                     {{"d", "payload"}})
             .ok()) {
      state.SkipWithError("load");
      return;
    }
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto row = cluster.Get(s, kViewTable, "key" + std::to_string(i++ % 10000));
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_ClusterGet);

// The txn rung over the Cluster rungs: one root write through a one-slave
// TxnLayer with an empty body, so WAL append, root-lock acquire and
// release. Each write adds two versions to the lock row, so the rung flushes
// (compacts) once every kTxnFlushEvery writes, untimed, to keep that row
// short.
constexpr int64_t kTxnFlushEvery = 1000;

void BM_TxnSubmitNoop(benchmark::State& state) {
  hbase::Cluster cluster;
  txn::LockManager locks(&cluster);
  if (!locks.CreateLockTable("Customer").ok()) {
    state.SkipWithError("lock table");
    return;
  }
  txn::TxnLayer layer(&cluster, &locks, /*num_slaves=*/1);
  hbase::Session s(&cluster);
  const txn::LockSpec lock{"Customer", "root"};
  const txn::WriteBody noop = [](hbase::Session&) { return Status::Ok(); };
  int64_t i = 0;
  for (auto _ : state) {
    auto id = layer.SubmitWrite(s, "noop", lock, noop);
    benchmark::DoNotOptimize(id);
    if (!id.ok()) {
      state.SkipWithError("submit");
      break;
    }
    if (++i % kTxnFlushEvery == 0) {
      state.PauseTiming();
      cluster.MajorCompactAll();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TxnSubmitNoop);

// The view-maintenance rung over the Cluster rungs: SynergySystem::Load of
// one fresh Order_line tuple into a 40-customer TPC-W store. It reads 3
// ancestors (Item for Item-Order_line; Item and Author for
// Author-Item-Order_line) and puts 9 rows: the base row, its 2 index rows,
// the 2 view rows and their 4 view-index rows. ol_id cycles over kPutKeys
// ids above every generated one, and the store compacts once per pass,
// untimed, as in the Put rungs.
void BM_SynergyLoadOrderLine(benchmark::State& state) {
  hbase::Cluster cluster;
  core::SynergySystem system(&cluster,
                             core::SynergyConfig{.roots = tpcw::Roots()});
  hbase::Session s(&cluster);
  tpcw::ScaleConfig scale;
  scale.num_customers = 40;
  exec::Tuple line;
  if (!system.Build(tpcw::BuildCatalog(), tpcw::BuildWorkload()).ok() ||
      !system.CreateStorage().ok() ||
      !tpcw::GenerateDatabase(scale,
                              [&](const std::string& relation,
                                  const exec::Tuple& tuple) {
                                if (relation == "Order_line" && line.empty()) {
                                  line = tuple;
                                }
                                return system.Load(s, relation, tuple);
                              })
           .ok()) {
    state.SkipWithError("setup");
    return;
  }
  cluster.MajorCompactAll();
  constexpr int64_t kFreshIds = 1000000000;
  line["ol_id"] = Value(kFreshIds - 1);
  const uint64_t rpcs = s.count(obs::OpCounter::kRpcs);
  if (!system.Load(s, "Order_line", line).ok() ||
      s.count(obs::OpCounter::kRpcs) - rpcs != 12) {
    state.SkipWithError("an Order_line load is not 3 Gets and 9 Puts");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    line["ol_id"] = Value(kFreshIds + i % kPutKeys);
    Status st = system.Load(s, "Order_line", line);
    benchmark::DoNotOptimize(st);
    if (!st.ok()) {
      state.SkipWithError("load");
      break;
    }
    if (++i % kPutKeys == 0) {
      state.PauseTiming();
      cluster.MajorCompactAll();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_SynergyLoadOrderLine);

void BM_RegionScan1k(benchmark::State& state) {
  std::atomic<int64_t> clock{0};
  hbase::Region region(&clock);
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    region.Put(key, {{"d", "payload-value"}});
  }
  for (auto _ : state) {
    auto batch = region.ScanBatch("", "", 1000, hbase::ReadView{});
    benchmark::DoNotOptimize(batch);
  }
}
BENCHMARK(BM_RegionScan1k);

// The two Region read rungs at TPC-W's region size: Order_line and each of
// its views and indexes hold about 30 000 rows at 1000 customers, put in no
// particular key order. Unlike the 10 000- and 1000-row rungs, the region's
// index and rows then outgrow the caches, as they do in bench_e2e.
constexpr int kTpcwRegionRows = 30000;

std::string RungKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%06d", i);
  return key;
}

/// RungKey(0) to RungKey(kTpcwRegionRows - 1), in seeded random order.
std::vector<std::string> ShuffledKeys() {
  std::vector<std::string> keys;
  for (int i = 0; i < kTpcwRegionRows; ++i) keys.push_back(RungKey(i));
  Rng rng(42);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Next() % i]);
  }
  return keys;
}

// Gets the rows in the order they were put, so each lands somewhere else.
void BM_RegionGet30k(benchmark::State& state) {
  std::atomic<int64_t> clock{0};
  hbase::Region region(&clock);
  const std::vector<std::string> keys = ShuffledKeys();
  for (const std::string& key : keys) region.Put(key, {{"d", "payload"}});
  size_t i = 0;
  for (auto _ : state) {
    auto row = region.Get(keys[i++ % keys.size()], hbase::ReadView{});
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_RegionGet30k);

// Scans 1000 rows from a different put key each time (one with 1000 rows
// after it).
void BM_RegionScan1kOf30k(benchmark::State& state) {
  std::atomic<int64_t> clock{0};
  hbase::Region region(&clock);
  const std::vector<std::string> keys = ShuffledKeys();
  const std::string last_start = RungKey(kTpcwRegionRows - 1000);
  std::vector<std::string> starts;
  for (const std::string& key : keys) {
    region.Put(key, {{"d", "payload-value"}});
    if (key <= last_start) starts.push_back(key);
  }
  size_t i = 0;
  for (auto _ : state) {
    auto batch = region.ScanBatch(starts[i++ % starts.size()], "", 1000,
                                  hbase::ReadView{});
    benchmark::DoNotOptimize(batch);
  }
}
BENCHMARK(BM_RegionScan1kOf30k);

void BM_SqlParseJoin(benchmark::State& state) {
  const std::string sql =
      "SELECT * FROM Customer as c, Orders as o, Order_line as ol "
      "WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id AND c.c_uname = ? "
      "ORDER BY o_date DESC LIMIT 10";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseJoin);

// --- executor hot-path benchmarks -----------------------------------------
// These three guard the per-row cost of the scan -> join -> sink pipeline
// (rows/sec is reported via items_per_second). scripts/run_benches.sh
// extracts them into bench-results/BENCH_exec_hotpath.json.

/// Client hash join: build on 2000 customers, probe 4000 orders.
void BM_ExecutorHashJoin(benchmark::State& state) {
  sql::Catalog catalog;
  if (!catalog
           .AddRelation({.name = "C",
                         .columns = {{"c_id", DataType::kInt},
                                     {"c_name", DataType::kString},
                                     {"c_city", DataType::kString}},
                         .primary_key = {"c_id"}})
           .ok() ||
      !catalog
           .AddRelation({.name = "O",
                         .columns = {{"o_id", DataType::kInt},
                                     {"o_c_id", DataType::kInt},
                                     {"o_total", DataType::kDouble}},
                         .primary_key = {"o_id"}})
           .ok()) {
    state.SkipWithError("catalog");
    return;
  }
  hbase::Cluster cluster;
  exec::TableAdapter adapter(&cluster, &catalog);
  if (!adapter.CreateStorage("C").ok() || !adapter.CreateStorage("O").ok()) {
    state.SkipWithError("storage");
    return;
  }
  constexpr int kCustomers = 2000;
  constexpr int kOrders = 4000;
  hbase::Session load(&cluster);
  for (int i = 0; i < kCustomers; ++i) {
    (void)adapter.Insert(load, "C",
                         {{"c_id", Value(i)},
                          {"c_name", Value("name" + std::to_string(i))},
                          {"c_city", Value(i % 2 ? "NYC" : "SF")}});
  }
  for (int i = 0; i < kOrders; ++i) {
    (void)adapter.Insert(load, "O",
                         {{"o_id", Value(i)},
                          {"o_c_id", Value(i % kCustomers)},
                          {"o_total", Value(i * 1.25)}});
  }
  exec::Executor executor(&adapter);
  const sql::Statement stmt = sql::MustParse(
      "SELECT c_name, o_total FROM C as c, O as o WHERE c.c_id = o.o_c_id");
  const auto& sel = std::get<sql::SelectStatement>(stmt);
  exec::ExecOptions opts;
  opts.collect_rows = false;
  opts.force_hash_join = true;
  hbase::Session s(&cluster);
  for (auto _ : state) {
    auto result = executor.ExecuteSelect(s, sel, {}, opts);
    if (!result.ok() || result->row_count != kOrders) {
      state.SkipWithError("join result");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * (kCustomers + kOrders));
}
BENCHMARK(BM_ExecutorHashJoin);

/// Hash aggregation: 8192 rows into 64 groups with COUNT/SUM/MIN.
void BM_ExecutorAgg(benchmark::State& state) {
  sql::Catalog catalog;
  if (!catalog
           .AddRelation({.name = "T",
                         .columns = {{"id", DataType::kInt},
                                     {"g", DataType::kString},
                                     {"v", DataType::kDouble}},
                         .primary_key = {"id"}})
           .ok()) {
    state.SkipWithError("catalog");
    return;
  }
  hbase::Cluster cluster;
  exec::TableAdapter adapter(&cluster, &catalog);
  if (!adapter.CreateStorage("T").ok()) {
    state.SkipWithError("storage");
    return;
  }
  constexpr int kRows = 8192;
  hbase::Session load(&cluster);
  for (int i = 0; i < kRows; ++i) {
    (void)adapter.Insert(load, "T",
                         {{"id", Value(i)},
                          {"g", Value("grp" + std::to_string(i % 64))},
                          {"v", Value(i * 0.5)}});
  }
  exec::Executor executor(&adapter);
  const sql::Statement stmt = sql::MustParse(
      "SELECT g, COUNT(*) as n, SUM(v) as sv, MIN(v) as mv FROM T GROUP BY g");
  const auto& sel = std::get<sql::SelectStatement>(stmt);
  exec::ExecOptions opts;
  opts.collect_rows = false;
  hbase::Session s(&cluster);
  for (auto _ : state) {
    auto result = executor.ExecuteSelect(s, sel, {}, opts);
    if (!result.ok() || result->row_count != 64) {
      state.SkipWithError("agg result");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ExecutorAgg);

/// ORDER BY + LIMIT 10 over an 8192-row scan (top-N path).
void BM_ExecutorTopN(benchmark::State& state) {
  sql::Catalog catalog;
  if (!catalog
           .AddRelation({.name = "T",
                         .columns = {{"id", DataType::kInt},
                                     {"v", DataType::kDouble}},
                         .primary_key = {"id"}})
           .ok()) {
    state.SkipWithError("catalog");
    return;
  }
  hbase::Cluster cluster;
  exec::TableAdapter adapter(&cluster, &catalog);
  if (!adapter.CreateStorage("T").ok()) {
    state.SkipWithError("storage");
    return;
  }
  constexpr int kRows = 8192;
  hbase::Session load(&cluster);
  for (int i = 0; i < kRows; ++i) {
    (void)adapter.Insert(load, "T",
                         {{"id", Value(i)},
                          {"v", Value(((i * 2654435761u) % 100003) * 0.1)}});
  }
  exec::Executor executor(&adapter);
  const sql::Statement stmt =
      sql::MustParse("SELECT id, v FROM T ORDER BY v DESC LIMIT 10");
  const auto& sel = std::get<sql::SelectStatement>(stmt);
  hbase::Session s(&cluster);
  for (auto _ : state) {
    auto result = executor.ExecuteSelect(s, sel, {});
    if (!result.ok() || result->row_count != 10) {
      state.SkipWithError("topn result");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ExecutorTopN);

void BM_ExecutorPointLookup(benchmark::State& state) {
  sql::Catalog catalog;
  if (!catalog
           .AddRelation({.name = "T",
                         .columns = {{"id", DataType::kInt},
                                     {"v", DataType::kString}},
                         .primary_key = {"id"}})
           .ok()) {
    state.SkipWithError("catalog");
    return;
  }
  hbase::Cluster cluster;
  exec::TableAdapter adapter(&cluster, &catalog);
  if (!adapter.CreateStorage("T").ok()) {
    state.SkipWithError("storage");
    return;
  }
  hbase::Session load(&cluster);
  for (int i = 0; i < 10000; ++i) {
    (void)adapter.Insert(load, "T", {{"id", Value(i)}, {"v", Value("x")}});
  }
  exec::Executor executor(&adapter);
  const sql::Statement stmt = sql::MustParse("SELECT * FROM T WHERE id = ?");
  const auto& sel = std::get<sql::SelectStatement>(stmt);
  hbase::Session s(&cluster);
  int64_t i = 0;
  for (auto _ : state) {
    std::vector<Value> params = {Value(i++ % 10000)};
    auto result = executor.ExecuteSelect(s, sel, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecutorPointLookup);

}  // namespace

BENCHMARK_MAIN();
