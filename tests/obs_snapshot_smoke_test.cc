// CI smoke: drive a mixed read/write workload through the full Synergy
// stack, dump the registry snapshot, and validate (a) the JSON rendering is
// well-formed against a minimal recursive-descent checker and (b) every
// required metric family from each instrumented layer is present with a
// sane value. This is the "metrics endpoint" contract the benches embed in
// their committed result rows.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <memory>
#include <string>

#include "company_fixture.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "synergy/synergy_system.h"

namespace synergy::core {
namespace {

// Minimal JSON well-formedness checker (objects, arrays, strings, numbers,
// literals). Not a full parser — just enough to reject truncated or
// mis-quoted output without external dependencies.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":1,"b":{"c":[1,2.5,-3e2]},"d":"x\"y"})")
                  .Valid());
  EXPECT_TRUE(JsonChecker("{}").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":})").Valid());
  EXPECT_FALSE(JsonChecker(R"({'a':1})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1} trailing)").Valid());
}

TEST(ObsSnapshotSmokeTest, MixedWorkloadSnapshotIsWellFormedAndComplete) {
  hbase::Cluster cluster;
  // Admission control registers its families lazily (off by default);
  // enable it so the smoke covers that layer too.
  cluster.ConfigureAdmission(hbase::AdmissionConfig{.enabled = true});
  SynergySystem system(&cluster,
                       SynergyConfig{.roots = testing::CompanyRoots()});
  ASSERT_TRUE(
      system.Build(testing::CompanyCatalog(), testing::CompanyWorkload())
          .ok());
  ASSERT_TRUE(system.CreateStorage().ok());

  hbase::Session s(&cluster);
  for (int a = 1; a <= 4; ++a) {
    ASSERT_TRUE(system
                    .Load(s, "Address",
                          {{"AID", Value(a)},
                           {"Street", Value("st" + std::to_string(a))},
                           {"City", Value("c")},
                           {"Zip", Value("z")}})
                    .ok());
  }
  for (int d = 1; d <= 2; ++d) {
    ASSERT_TRUE(system
                    .Load(s, "Department",
                          {{"DNo", Value(d)}, {"DName", Value("dept")}})
                    .ok());
  }
  for (int e = 1; e <= 3; ++e) {
    ASSERT_TRUE(system
                    .Load(s, "Employee",
                          {{"EID", Value(e)},
                           {"EName", Value("emp")},
                           {"EHome_AID", Value(e)},
                           {"EOffice_AID", Value(4)},
                           {"E_DNo", Value(e % 2 + 1)}})
                    .ok());
  }

  // Mixed workload: reads through the rewritten views, root-locked writes
  // through the txn layer (WAL, locks, slave dispatch).
  const sql::WorkloadStatement* w1 = system.workload().Find("W1");
  ASSERT_NE(w1, nullptr);
  for (int e = 1; e <= 3; ++e) {
    const std::vector<Value> params{Value(e)};
    ASSERT_TRUE(system
                    .ExecuteRead(s, std::get<sql::SelectStatement>(w1->ast),
                                 params)
                    .ok());
  }
  auto insert = sql::MustParse(
      "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)");
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        system.ExecuteWrite(s, insert, {Value(i), Value(9), Value(10 + i)})
            .ok());
  }

  const obs::RegistrySnapshot snap = cluster.metrics().Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;

  // One family per instrumented layer must be present and moving.
  const char* required_counters[] = {
      "hbase_rpcs_total",          "hbase_admission_admitted_total",
      "client_retries_total",      "txn_wal_appends_total",
      "txn_lock_acquires_total",   "txn_slave_commits_total",
      "exec_statements_total",     "synergy_reads_total",
      "synergy_writes_total",      "synergy_view_rows_updated_total",
      "hbase_failover_heartbeat_rounds_total",
  };
  for (const char* name : required_counters) {
    EXPECT_TRUE(snap.HasCounter(name)) << "missing family: " << name;
    EXPECT_NE(json.find('"' + std::string(name) + '"'), std::string::npos);
  }
  EXPECT_GT(snap.CounterValue("hbase_rpcs_total"), 0u);
  EXPECT_EQ(snap.CounterValue("synergy_reads_total"), 3u);
  EXPECT_EQ(snap.CounterValue("synergy_writes_total"), 3u);
  EXPECT_EQ(snap.CounterValue("txn_slave_commits_total"), 3u);
  EXPECT_GE(snap.CounterValue("txn_wal_appends_total"), 3u);

  bool has_stmt_histogram = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "exec_statement_virtual_us") {
      has_stmt_histogram = true;
      EXPECT_GE(h.summary.count, 3u);
      EXPECT_GT(h.summary.sum, 0.0);
    }
  }
  EXPECT_TRUE(has_stmt_histogram);

  // Dump the snapshot for the CI log (the smoke job greps this output).
  std::printf("=== registry snapshot (JSON) ===\n%s\n", json.c_str());
}

}  // namespace
}  // namespace synergy::core
