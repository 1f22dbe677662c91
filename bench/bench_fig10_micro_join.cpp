// Figure 10: TPC-W micro-benchmark — view scan vs join algorithm in HBase.
//
// Schema: Customer, Orders, Order_line with 1:10 cardinality between
// consecutive relations (Fig. 8). Workload: Q1 = Customer x Orders,
// Q2 = Customer x Orders x Order_line (Fig. 9), evaluated (a) with the
// client-coordinated join algorithm over base tables and (b) as a scan of
// the corresponding materialized view.
//
// Scales: customers multiply by 10 starting at 500, up to the paper's
// 50 000 (set SYNERGY_MICRO_MAX_CUST to stop earlier). Reported times are
// simulated milliseconds (mean +/- stderr).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "synergy/view_maintenance.h"
#include "systems/harness.h"

namespace {

using namespace synergy;

sql::Catalog MicroCatalog() {
  sql::Catalog cat;
  auto must = [](Status s) {
    if (!s.ok()) std::abort();
  };
  must(cat.AddRelation({.name = "Customer",
                        .columns = {{"c_id", DataType::kInt},
                                    {"c_uname", DataType::kString},
                                    {"c_data", DataType::kString}},
                        .primary_key = {"c_id"}}));
  must(cat.AddRelation({.name = "Orders",
                        .columns = {{"o_id", DataType::kInt},
                                    {"o_c_id", DataType::kInt},
                                    {"o_total", DataType::kDouble},
                                    {"o_status", DataType::kString}},
                        .primary_key = {"o_id"},
                        .foreign_keys = {{{"o_c_id"}, "Customer"}}}));
  must(cat.AddRelation({.name = "Order_line",
                        .columns = {{"ol_id", DataType::kInt},
                                    {"ol_o_id", DataType::kInt},
                                    {"ol_qty", DataType::kInt},
                                    {"ol_comments", DataType::kString}},
                        .primary_key = {"ol_id"},
                        .foreign_keys = {{{"ol_o_id"}, "Orders"}}}));
  // Materialized views for Q1 and Q2 (Fig. 9).
  must(cat.AddView(
      {.name = "Customer-Orders",
       .relations = {"Customer", "Orders"},
       .edges = {{}, {{"o_c_id"}, "Customer"}},
       .root = "Customer"},
      {.name = "Customer-Orders",
       .columns = {{"c_id", DataType::kInt},
                   {"c_uname", DataType::kString},
                   {"c_data", DataType::kString},
                   {"o_id", DataType::kInt},
                   {"o_c_id", DataType::kInt},
                   {"o_total", DataType::kDouble},
                   {"o_status", DataType::kString}},
       .primary_key = {"o_id"}}));
  must(cat.AddView(
      {.name = "Customer-Orders-Order_line",
       .relations = {"Customer", "Orders", "Order_line"},
       .edges = {{}, {{"o_c_id"}, "Customer"}, {{"ol_o_id"}, "Orders"}},
       .root = "Customer"},
      {.name = "Customer-Orders-Order_line",
       .columns = {{"c_id", DataType::kInt},
                   {"c_uname", DataType::kString},
                   {"c_data", DataType::kString},
                   {"o_id", DataType::kInt},
                   {"o_c_id", DataType::kInt},
                   {"o_total", DataType::kDouble},
                   {"o_status", DataType::kString},
                   {"ol_id", DataType::kInt},
                   {"ol_o_id", DataType::kInt},
                   {"ol_qty", DataType::kInt},
                   {"ol_comments", DataType::kString}},
       .primary_key = {"ol_id"}}));
  return cat;
}

void Populate(core::ViewMaintainer& maintainer, hbase::Cluster& cluster,
              int64_t customers) {
  Rng rng(42);
  hbase::Session s(&cluster);
  auto must = [](Status st) {
    if (!st.ok()) {
      std::fprintf(stderr, "populate: %s\n", st.ToString().c_str());
      std::abort();
    }
  };
  auto load = [&](const std::string& rel, const exec::Tuple& t) {
    must(maintainer.InsertWithViews(s, rel, t));
  };
  int64_t next_order = 1, next_line = 1;
  for (int64_t c = 1; c <= customers; ++c) {
    load("Customer", {{"c_id", Value(c)},
                      {"c_uname", Value("USER" + std::to_string(c))},
                      {"c_data", Value(rng.AlphaString(24))}});
    for (int k = 0; k < 10; ++k) {  // cardinality 1:10
      const int64_t o = next_order++;
      load("Orders", {{"o_id", Value(o)},
                      {"o_c_id", Value(c)},
                      {"o_total", Value(rng.UniformReal(1, 500))},
                      {"o_status", Value(rng.AlphaString(6))}});
      for (int j = 0; j < 10; ++j) {  // cardinality 1:10
        load("Order_line", {{"ol_id", Value(next_line++)},
                            {"ol_o_id", Value(o)},
                            {"ol_qty", Value(rng.Uniform(1, 9))},
                            {"ol_comments", Value(rng.AlphaString(12))}});
      }
    }
  }
  cluster.MajorCompactAll();
}

double RunQuery(exec::Executor& executor, hbase::Cluster& cluster,
                const sql::Statement& stmt, bool force_hash_join) {
  hbase::Session s(&cluster);
  exec::ExecOptions options;
  options.collect_rows = false;
  options.force_hash_join = force_hash_join;
  auto result = executor.ExecuteSelect(
      s, std::get<sql::SelectStatement>(stmt), {}, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return s.meter().millis();
}

}  // namespace

int main() {
  using systems::FormatMs;
  const int reps = systems::EnvReps(2);
  int64_t max_cust = 50000;
  if (const char* env = std::getenv("SYNERGY_MICRO_MAX_CUST")) {
    max_cust = std::atoll(env);
  }
  std::printf(
      "=== Figure 10: micro-benchmark — view scan vs join algorithm ===\n"
      "Cardinality 1:10 per level; times are simulated ms (mean +/- stderr"
      ", %d reps).\nPaper anchors at 50k customers: view scan 6x (Q1) and "
      "11.7x (Q2) faster.\n\n",
      reps);
  systems::TablePrinter table({"customers", "query", "join_ms", "view_ms",
                               "speedup"});

  const sql::Statement q1_join = sql::MustParse(
      "SELECT * FROM Customer as c, Orders as o WHERE c.c_id = o.o_c_id");
  const sql::Statement q1_view = sql::MustParse("SELECT * FROM Customer-Orders");
  const sql::Statement q2_join = sql::MustParse(
      "SELECT * FROM Customer as c, Orders as o, Order_line as ol "
      "WHERE c.c_id = o.o_c_id and o.o_id = ol.ol_o_id");
  const sql::Statement q2_view =
      sql::MustParse("SELECT * FROM Customer-Orders-Order_line");

  // Each row's speedup as printed (one decimal), per query, scale by scale.
  std::map<std::string, std::vector<double>> speedups;
  for (int64_t customers = 500; customers <= max_cust; customers *= 10) {
    sql::Catalog catalog = MicroCatalog();
    hbase::Cluster cluster;
    exec::TableAdapter adapter(&cluster, &catalog);
    core::ViewMaintainer maintainer(&adapter);
    for (const sql::RelationDef* rel : catalog.Relations()) {
      if (!adapter.CreateStorage(rel->name).ok()) std::abort();
    }
    Populate(maintainer, cluster, customers);
    exec::Executor executor(&adapter);

    struct Case {
      const char* name;
      const sql::Statement* join;
      const sql::Statement* view;
    };
    for (const Case& c : {Case{"Q1", &q1_join, &q1_view},
                          Case{"Q2", &q2_join, &q2_view}}) {
      RunningStats join_ms, view_ms;
      for (int r = 0; r < reps; ++r) {
        join_ms.Add(RunQuery(executor, cluster, *c.join,
                             /*force_hash_join=*/true));
        view_ms.Add(RunQuery(executor, cluster, *c.view, false));
      }
      const double ratio = join_ms.mean() / view_ms.mean();
      speedups[c.name].push_back(std::round(ratio * 10.0) / 10.0);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.1fx", ratio);
      table.AddRow({std::to_string(customers), c.name,
                    FormatMs(join_ms.mean()) + "+-" +
                        FormatMs(join_ms.stderr_mean()),
                    FormatMs(view_ms.mean()) + "+-" +
                        FormatMs(view_ms.stderr_mean()),
                    speedup});
    }
  }
  table.Print();

  // The paper's shape, each part checked on the speedups printed above.
  bool wins = true;
  bool grows_with_scale = true;
  for (const auto& [query, by_scale] : speedups) {
    for (size_t i = 0; i < by_scale.size(); ++i) {
      wins = wins && by_scale[i] > 1.0;
      grows_with_scale =
          grows_with_scale && (i == 0 || by_scale[i] > by_scale[i - 1]);
    }
  }
  bool grows_with_depth = true;
  for (size_t i = 0; i < speedups["Q1"].size(); ++i) {
    grows_with_depth =
        grows_with_depth && speedups["Q2"][i] > speedups["Q1"][i];
  }
  auto verdict = [](bool holds) { return holds ? "HOLDS" : "VIOLATED"; };
  std::printf("\nShape check: the view scan wins at every scale: %s\n",
              verdict(wins));
  std::printf(
      "Shape check: the gap grows with scale (each query's speedup rises "
      "from one scale to the next): %s\n",
      verdict(grows_with_scale));
  std::printf(
      "Shape check: the gap grows with join depth (Q2 > Q1 at every "
      "scale): %s\n",
      verdict(grows_with_depth));
  return 0;
}
