// End-to-end TPC-W benchmark over both clocks: virtual time (the modeled
// cluster, the clock of the paper's tables) and host time (what the
// simulator itself costs).
//
//   bench_e2e --workload <joins|writes|mixed_4c|table2> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// A run sets up Synergy on a TPC-W population generated from a fixed seed,
// draws every statement parameter and order from --seed, drives Synergy in a
// closed loop for --seconds of host time and at least the workload's fixed
// prefix of sweeps, audits the views against their joins, runs the
// comparator systems and prints every metric by name with its unit and
// sample count. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (perfbench/README.md lists
// both). The exit code is non-zero when any output check fails.
#include <algorithm>
#include <barrier>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "concurrent/tpcw_mix.h"
#include "exec/planner.h"
#include "exec/write_binding.h"
#include "hbase/cluster.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "synergy/synergy_system.h"
#include "synergy/view_audit.h"
#include "systems/evaluated_system.h"
#include "tpcw/generator.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace {

using namespace synergy;
using Clock = std::chrono::steady_clock;

// Synergy is set up this many times per run; setup_s is the median.
constexpr int kSetups = 5;
// Sweeps each comparator system runs for its virtual Table II total. Their
// statements cost ~850 virtual ms each, nearly independent of parameters.
constexpr int kComparatorSweeps = 3;
// Full span trees are kept for this many traced ops; later ops only add to
// the per-name totals.
constexpr int kTreeOps = 10000;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Derive(uint64_t seed, uint64_t salt) { return Rng(seed ^ salt).Next(); }
uint64_t ParamSeed(uint64_t seed, int client) {
  return Derive(seed, 0x5041524dULL + static_cast<uint64_t>(client));
}
uint64_t OrderSeed(uint64_t seed, int client) {
  return Derive(seed, 0x4f524452ULL + static_cast<uint64_t>(client));
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1],
              v[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
}

// ------------------------------------------------------------- workloads ---

/// One closed-loop workload. A client runs sweeps: each sweep executes every
/// entry of `sweep` once, in a seeded shuffled order (or workload order), so
/// each statement's share of the ops is fixed rather than sampled.
struct Workload {
  std::string name;
  int64_t customers = 0;
  int clients = 1;
  int txn_slaves = 1;
  std::vector<std::string> sweep;
  bool shuffle = true;
  std::vector<systems::SystemKind> comparators;
  // Per client: the sweeps after warm-up whose virtual times are reported
  // (the prefix). The timed window runs at least this long, so virtual
  // metrics depend on the seed only. Each prefix keeps the 10-seed quartile
  // spread of virt_total_s under a third of its 0.01 bound.
  int min_sweeps = 0;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  using systems::SystemKind;
  if (name == "joins") {
    return Workload{.name = name,
                    .customers = 1000,
                    .sweep = tpcw::JoinQueryIds(),
                    .comparators = {SystemKind::kBaseline},
                    .min_sweeps = 1200};
  }
  if (name == "writes") {
    return Workload{.name = name,
                    .customers = 1000,
                    .sweep = tpcw::WriteStatementIds(),
                    .comparators = {SystemKind::kBaseline},
                    .min_sweeps = 3500};
  }
  if (name == "mixed_4c") {
    const concurrent::MixConfig mix = concurrent::MixedMix();
    Workload w{.name = name,
               .customers = 1000,
               .clients = 4,
               .txn_slaves = 2,
               .sweep = {},
               .comparators = {SystemKind::kBaseline},
               .min_sweeps = 300};
    // MixedMix's read fraction as whole repeats: with 0.8 and equal pool
    // sizes, each read statement runs four times per write statement.
    const auto reads_per_write = static_cast<int>(std::lround(
        mix.read_fraction / (1.0 - mix.read_fraction) *
        static_cast<double>(mix.writes.size()) /
        static_cast<double>(mix.reads.size())));
    for (int i = 0; i < reads_per_write; ++i) {
      w.sweep.insert(w.sweep.end(), mix.reads.begin(), mix.reads.end());
    }
    w.sweep.insert(w.sweep.end(), mix.writes.begin(), mix.writes.end());
    return w;
  }
  if (name == "table2") {
    Workload w{.name = name,
               .customers = 2000,
               .sweep = {},
               .shuffle = false,
               .comparators = {SystemKind::kMvccA, SystemKind::kMvccUA,
                               SystemKind::kBaseline},
               .min_sweeps = 900};
    for (const sql::WorkloadStatement& st : tpcw::BuildWorkload().statements) {
      w.sweep.push_back(st.id);
    }
    return w;
  }
  return std::nullopt;
}

int WarmupSweeps(const Workload& w) { return std::max(1, w.min_sweeps / 20); }

// ----------------------------------------------------------------- setup ---

/// Encoded bytes of the generated base tuples: the denominator of the
/// Table III space amplification.
struct UserData {
  double bytes = 0;
  size_t tuples = 0;
  double generate_s = 0;
};

StatusOr<UserData> GenerateUserData(const tpcw::ScaleConfig& scale) {
  const sql::Catalog catalog = tpcw::BuildCatalog();
  UserData data;
  const Clock::time_point start = Clock::now();
  SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabase(
      scale, [&](const std::string& relation, const exec::Tuple& tuple) {
        const sql::RelationDef* rel = catalog.FindRelation(relation);
        if (rel == nullptr) return Status::NotFound("relation " + relation);
        data.bytes += static_cast<double>(exec::EncodeRowValue(*rel, tuple).size());
        ++data.tuples;
        return Status::Ok();
      }));
  data.generate_s = SecondsBetween(start, Clock::now());
  return data;
}

struct SynergyStack {
  std::unique_ptr<hbase::Cluster> cluster;
  std::unique_ptr<core::SynergySystem> system;  // destroyed before cluster
};

struct SetupTiming {
  double total_s = 0;
  double build_s = 0;  // Build + CreateStorage
  double load_s = 0;
  double compact_s = 0;
  size_t tuples = 0;
};

/// SynergyWrapper::Setup's serial-load path, timed per step.
StatusOr<std::unique_ptr<SynergyStack>> SetUpSynergy(
    const tpcw::ScaleConfig& scale, int txn_slaves, SetupTiming* timing) {
  const Clock::time_point start = Clock::now();
  auto stack = std::make_unique<SynergyStack>();
  stack->cluster = std::make_unique<hbase::Cluster>();
  stack->system = std::make_unique<core::SynergySystem>(
      stack->cluster.get(),
      core::SynergyConfig{.roots = tpcw::Roots(), .txn_slaves = txn_slaves});
  SYNERGY_RETURN_IF_ERROR(
      stack->system->Build(tpcw::BuildCatalog(), tpcw::BuildWorkload()));
  SYNERGY_RETURN_IF_ERROR(stack->system->CreateStorage());
  const Clock::time_point load_start = Clock::now();
  hbase::Session load(stack->cluster.get());
  size_t tuples = 0;
  SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabase(
      scale, [&](const std::string& relation, const exec::Tuple& tuple) {
        ++tuples;
        return stack->system->Load(load, relation, tuple);
      }));
  const Clock::time_point compact_start = Clock::now();
  stack->cluster->MajorCompactAll();
  const Clock::time_point end = Clock::now();
  timing->build_s = SecondsBetween(start, load_start);
  timing->load_s = SecondsBetween(load_start, compact_start);
  timing->compact_s = SecondsBetween(compact_start, end);
  timing->total_s = SecondsBetween(start, end);
  timing->tuples = tuples;
  return stack;
}

// ----------------------------------------------------------------- trace ---

/// Spans of one client's traced ops. The benchmark's own spans wrap its
/// calls into the program ("op:<stmt>" > "call:tpcw.ParamsFor",
/// "call:synergy.Execute"); below the latter hang the program's own spans
/// from the obs::TraceCollector attached to the statement's session, which
/// carry virtual time only.
class TraceSink {
 public:
  struct Span {
    int op = 0;
    int name = 0;
    int parent = -1;  // index into spans(), -1 = root
    double host_start_us = 0;  // NaN for program spans
    double host_end_us = 0;
    double virt_us = 0;
  };
  struct Total {
    uint64_t count = 0;
    double virt_us = 0;
    double self_virt_us = 0;
    double host_us = 0;
    double self_host_us = 0;
  };

  void AddOp(const std::string& stmt_id, Clock::time_point origin,
             Clock::time_point t0, Clock::time_point t1, Clock::time_point t2,
             double meter_us, const obs::TraceCollector& program) {
    constexpr double kNoHost = std::numeric_limits<double>::quiet_NaN();
    std::vector<Span> local;
    local.push_back({0, Intern("op:" + stmt_id), -1, MicrosBetween(origin, t0),
                     MicrosBetween(origin, t2), meter_us});
    local.push_back({0, Intern("call:tpcw.ParamsFor"), 0,
                     MicrosBetween(origin, t0), MicrosBetween(origin, t1), 0});
    local.push_back({0, Intern("call:synergy.Execute"), 0,
                     MicrosBetween(origin, t1), MicrosBetween(origin, t2),
                     meter_us});
    for (const obs::TraceSpan& span : program.spans()) {
      local.push_back({0, Intern(span.name),
                       span.parent < 0 ? 2 : span.parent + 3, kNoHost, kNoHost,
                       span.duration_us()});
    }
    std::vector<double> child_virt(local.size(), 0.0);
    std::vector<double> child_host(local.size(), 0.0);
    for (const Span& span : local) {
      if (span.parent < 0) continue;
      child_virt[static_cast<size_t>(span.parent)] += span.virt_us;
      if (!std::isnan(span.host_start_us)) {
        child_host[static_cast<size_t>(span.parent)] +=
            span.host_end_us - span.host_start_us;
      }
    }
    for (size_t i = 0; i < local.size(); ++i) {
      Total& total = totals_[static_cast<size_t>(local[i].name)];
      ++total.count;
      total.virt_us += local[i].virt_us;
      total.self_virt_us += local[i].virt_us - child_virt[i];
      if (!std::isnan(local[i].host_start_us)) {
        const double host = local[i].host_end_us - local[i].host_start_us;
        total.host_us += host;
        total.self_host_us += host - child_host[i];
      }
    }
    if (ops_ < tree_ops_) {
      const int base = static_cast<int>(spans_.size());
      for (Span span : local) {
        span.op = ops_;
        if (span.parent >= 0) span.parent += base;
        spans_.push_back(span);
      }
    }
    ++ops_;
    program_root_us_ += program.RootUs();
    meter_us_ += meter_us;
  }

  void set_tree_ops(int n) { tree_ops_ = n; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(int id) const { return names_[static_cast<size_t>(id)]; }
  double program_root_us() const { return program_root_us_; }
  double meter_us() const { return meter_us_; }

  void MergeTotalsInto(std::map<std::string, Total>* out) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      Total& t = (*out)[names_[i]];
      t.count += totals_[i].count;
      t.virt_us += totals_[i].virt_us;
      t.self_virt_us += totals_[i].self_virt_us;
      t.host_us += totals_[i].host_us;
      t.self_host_us += totals_[i].self_host_us;
    }
  }

 private:
  int Intern(const std::string& name) {
    auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
    if (inserted) {
      names_.push_back(name);
      totals_.emplace_back();
    }
    return it->second;
  }

  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<Total> totals_;
  std::vector<Span> spans_;
  int ops_ = 0;
  int tree_ops_ = 0;
  double program_root_us_ = 0;
  double meter_us_ = 0;
};

// ------------------------------------------------------------ the loop ---

/// VmHWM: the process's peak resident set so far.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// What SynergyWrapper::Execute does with a fresh session per statement.
Status ExecuteOnSynergy(core::SynergySystem& system, hbase::Session& s,
                        const sql::WorkloadStatement& st,
                        const std::vector<Value>& params, uint64_t* rows) {
  if (const auto* sel = std::get_if<sql::SelectStatement>(&st.ast)) {
    SYNERGY_ASSIGN_OR_RETURN(
        query, system.ExecuteRead(s, *sel, params, /*collect_rows=*/false));
    *rows = query.row_count;
    return Status::Ok();
  }
  SYNERGY_ASSIGN_OR_RETURN(write, system.ExecuteWrite(s, st.ast, params));
  *rows = write.base_rows_affected;
  return Status::Ok();
}

struct PhaseOptions {
  const Workload* workload = nullptr;
  core::SynergySystem* system = nullptr;
  hbase::Cluster* cluster = nullptr;
  tpcw::ScaleConfig scale;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct ClientResult {
  uint64_t executed = 0;  // every op of the phase, warm-up included
  uint64_t failed = 0;
  std::string first_error;
  std::vector<double> host_us;  // ops in the timed window
  std::vector<double> stmt_host_us;
  std::vector<uint64_t> stmt_window_ops;
  std::vector<int> prefix_stmt;  // ops of the reported prefix, in order
  std::vector<double> prefix_virt_us;
  std::vector<uint64_t> prefix_rows;
  int prefix_sweeps = 0;
  // Peak RSS when the prefix completed: after a fixed amount of work, where
  // peak RSS at exit would grow with host speed (writes keep edit logs).
  double prefix_peak_rss_mb = 0;
  Clock::time_point end;
  TraceSink trace;
};

struct PhaseResult {
  std::vector<std::string> stmt_ids;  // distinct sweep entries
  std::vector<ClientResult> clients;
  double window_s = 0;
  uint64_t window_ops = 0;
  uint64_t executed = 0;
  uint64_t failed = 0;
  std::string first_error;

  double ops_per_s() const {
    return Ratio(static_cast<double>(window_ops), window_s);
  }
};

void RunClient(const PhaseOptions& opt,
               const std::vector<const sql::WorkloadStatement*>& stmts,
               const std::vector<int>& sweep, int client, auto& sync,
               const Clock::time_point& window_start, Clock::time_point origin,
               ClientResult* out) {
  const Workload& w = *opt.workload;
  tpcw::ParamProvider params(opt.scale, ParamSeed(opt.seed, client));
  params.PartitionFreshIds(client, w.clients);
  Rng order_rng(OrderSeed(opt.seed, client));
  out->stmt_host_us.assign(stmts.size(), 0.0);
  out->stmt_window_ops.assign(stmts.size(), 0);
  out->trace.set_tree_ops(kTreeOps / w.clients);
  const int warm = WarmupSweeps(w);
  std::vector<int> order = sweep;
  Clock::time_point deadline;
  for (int n = 0;; ++n) {
    if (n == warm) {
      sync.arrive_and_wait();  // every client starts the timed window together
      deadline = window_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opt.seconds));
    }
    if (n >= warm + w.min_sweeps && Clock::now() >= deadline) break;
    if (w.shuffle) Shuffle(order, order_rng);
    const bool timed = n >= warm;
    const bool prefix = timed && n < warm + w.min_sweeps;
    for (const int idx : order) {
      const sql::WorkloadStatement& st = *stmts[static_cast<size_t>(idx)];
      const Clock::time_point t0 = Clock::now();
      StatusOr<std::vector<Value>> p = params.ParamsFor(st.id);
      const Clock::time_point t1 = Clock::now();
      hbase::Session s(opt.cluster);
      obs::TraceCollector collector(&s.meter());
      if (opt.trace) {
        collector.set_rpc_spans(true);
        s.SetTrace(&collector);
      }
      uint64_t rows = 0;
      const Status status =
          p.ok() ? ExecuteOnSynergy(*opt.system, s, st, *p, &rows) : p.status();
      const Clock::time_point t2 = Clock::now();
      ++out->executed;
      if (!status.ok() && out->failed++ == 0) {
        out->first_error = st.id + ": " + status.ToString();
      }
      const double virt_us = s.meter().micros();
      if (timed) {
        const double host_us = MicrosBetween(t1, t2);
        out->host_us.push_back(host_us);
        out->stmt_host_us[static_cast<size_t>(idx)] += host_us;
        ++out->stmt_window_ops[static_cast<size_t>(idx)];
      }
      if (prefix) {
        out->prefix_stmt.push_back(idx);
        out->prefix_virt_us.push_back(virt_us);
        out->prefix_rows.push_back(rows);
      }
      if (opt.trace) {
        out->trace.AddOp(st.id, origin, t0, t1, t2, virt_us, collector);
      }
    }
    if (prefix && ++out->prefix_sweeps == w.min_sweeps) {
      out->prefix_peak_rss_mb = PeakRssMb();
    }
  }
  out->end = Clock::now();
}

PhaseResult RunPhase(const PhaseOptions& opt) {
  const Workload& w = *opt.workload;
  PhaseResult out;
  std::vector<const sql::WorkloadStatement*> stmts;
  std::vector<int> sweep;
  for (const std::string& id : w.sweep) {
    auto it = std::find(out.stmt_ids.begin(), out.stmt_ids.end(), id);
    if (it == out.stmt_ids.end()) {
      const sql::WorkloadStatement* st = opt.system->workload().Find(id);
      if (st == nullptr) {
        out.failed = 1;
        out.first_error = "statement " + id + " not in the workload";
        return out;
      }
      out.stmt_ids.push_back(id);
      stmts.push_back(st);
      it = out.stmt_ids.end() - 1;
    }
    sweep.push_back(static_cast<int>(it - out.stmt_ids.begin()));
  }

  out.clients.resize(static_cast<size_t>(w.clients));
  const Clock::time_point origin = Clock::now();
  Clock::time_point window_start;
  std::barrier sync(w.clients, [&]() noexcept { window_start = Clock::now(); });
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < w.clients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(opt, stmts, sweep, c, sync, window_start, origin,
                  &out.clients[static_cast<size_t>(c)]);
      });
    }
  }
  Clock::time_point end = window_start;
  for (const ClientResult& c : out.clients) {
    end = std::max(end, c.end);
    out.window_ops += c.host_us.size();
    out.executed += c.executed;
    if (c.failed > 0 && out.failed == 0) out.first_error = c.first_error;
    out.failed += c.failed;
  }
  out.window_s = SecondsBetween(window_start, end);
  return out;
}

/// Rows returned per statement over the reported prefix.
std::vector<uint64_t> ResultChecksum(const PhaseResult& phase) {
  std::vector<uint64_t> sums(phase.stmt_ids.size(), 0);
  for (const ClientResult& c : phase.clients) {
    for (size_t i = 0; i < c.prefix_stmt.size(); ++i) {
      sums[static_cast<size_t>(c.prefix_stmt[i])] += c.prefix_rows[i];
    }
  }
  return sums;
}

/// Mean virtual seconds per sweep over the reported prefix: the workload's
/// Table II total.
double VirtTotalSeconds(const PhaseResult& phase) {
  double us = 0;
  int sweeps = 0;
  for (const ClientResult& c : phase.clients) {
    for (const double v : c.prefix_virt_us) us += v;
    sweeps += c.prefix_sweeps;
  }
  return Ratio(us, sweeps) / 1e6;
}

// ----------------------------------------------------------- comparators ---

struct ComparatorResult {
  std::string name;
  double setup_s = 0;
  double db_bytes = 0;
  double virt_total_s = 0;  // mean virtual seconds per sweep
  double host_ms_per_sweep = 0;
  uint64_t executed = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Sets a comparator system up, runs kComparatorSweeps sweeps of the
/// workload through EvaluatedSystem::Execute, and tears it down.
ComparatorResult RunComparator(systems::SystemKind kind, const Workload& w,
                               const tpcw::ScaleConfig& scale, uint64_t seed) {
  ComparatorResult out;
  out.name = systems::SystemKindName(kind);
  std::unique_ptr<systems::EvaluatedSystem> system = systems::MakeSystem(kind);
  const Clock::time_point start = Clock::now();
  const Status setup = system->Setup(scale);
  out.setup_s = SecondsBetween(start, Clock::now());
  if (!setup.ok()) {
    out.failed = 1;
    out.first_error = out.name + " setup: " + setup.ToString();
    return out;
  }
  out.db_bytes = system->DbSizeBytes();
  tpcw::ParamProvider params(scale, ParamSeed(seed, 0));
  Rng order_rng(OrderSeed(seed, 0));
  std::vector<std::string> order = w.sweep;
  double virt_ms = 0;
  const Clock::time_point sweeps_start = Clock::now();
  for (int n = 0; n < kComparatorSweeps; ++n) {
    if (w.shuffle) Shuffle(order, order_rng);
    for (const std::string& id : order) {
      ++out.executed;
      StatusOr<std::vector<Value>> p = params.ParamsFor(id);
      StatusOr<systems::StatementResult> r =
          p.ok() ? system->Execute(id, *p)
                 : StatusOr<systems::StatementResult>(p.status());
      if (!r.ok()) {
        if (out.failed++ == 0) {
          out.first_error = out.name + " " + id + ": " + r.status().ToString();
        }
        continue;
      }
      virt_ms += r->virtual_ms;
    }
  }
  out.host_ms_per_sweep =
      SecondsBetween(sweeps_start, Clock::now()) * 1e3 / kComparatorSweeps;
  out.virt_total_s = virt_ms / 1e3 / kComparatorSweeps;
  return out;
}

// ---------------------------------------------------------------- ladder ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

template <typename Fn>
double MeanMicros(int calls, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < calls; ++i) fn(i);
  return MicrosBetween(start, Clock::now()) / calls;
}

/// Replays inputs into single public entry points, one layer at a time:
/// every statement of the TPC-W workload with parameters drawn from the
/// seed, plus store ops on a table of the workload's mean row size. Runs
/// after the traced phase on its (still live) system.
StatusOr<std::map<std::string, Metric>> RunLadder(
    core::SynergySystem& system, hbase::Cluster& cluster,
    const tpcw::ScaleConfig& scale, uint64_t seed, size_t row_bytes) {
  std::map<std::string, Metric> m;
  auto time_us = [&](const std::string& name, int calls, auto&& fn) {
    m[name] = {name, MeanMicros(calls, fn), "us", static_cast<size_t>(calls)};
  };
  const std::vector<sql::WorkloadStatement>& stmts = system.workload().statements;
  const int n = static_cast<int>(stmts.size());
  Status error = Status::Ok();
  auto check = [&](const Status& s) {
    if (!s.ok() && error.ok()) error = s;
  };
  size_t sink = 0;  // keeps results observable

  tpcw::ParamProvider provider(scale, Derive(seed, 0x4c414444ULL));
  std::vector<std::vector<Value>> params(stmts.size());
  time_us("tpcw.params_us", 1000 * n, [&](int i) {
    StatusOr<std::vector<Value>> p = provider.ParamsFor(stmts[i % n].id);
    check(p.status());
    if (p.ok() && i < n) params[i] = *p;
  });
  SYNERGY_RETURN_IF_ERROR(error);

  time_us("sql.parse_us", 300 * n, [&](int i) {
    StatusOr<sql::Statement> parsed = sql::Parse(stmts[i % n].sql);
    check(parsed.status());
    if (parsed.ok()) sink += parsed->index();
  });
  std::vector<sql::Statement> bound(stmts.size());
  time_us("sql.bind_us", 1000 * n, [&](int i) {
    bound[i % n] = sql::BindParams(stmts[i % n].ast, params[i % n]);
  });
  time_us("sql.to_string_us", 1000 * n, [&](int i) {
    sink += sql::StatementToString(bound[i % n]).size();
  });

  std::vector<size_t> reads, writes;
  for (size_t i = 0; i < stmts.size(); ++i) {
    (sql::IsReadStatement(stmts[i].ast) ? reads : writes).push_back(i);
  }
  const auto nr = static_cast<int>(reads.size());
  const auto nw = static_cast<int>(writes.size());
  const exec::RowCountFn row_count = [&](const std::string& r) {
    return system.adapter()->RowCount(r);
  };
  time_us("exec.plan_us", 300 * nr, [&](int i) {
    const auto& sel = std::get<sql::SelectStatement>(stmts[reads[i % nr]].ast);
    StatusOr<exec::SelectPlan> plan =
        exec::PlanSelect(sel, system.catalog(), row_count);
    check(plan.status());
    if (plan.ok()) sink += plan->steps.size();
  });
  time_us("exec.bind_write_us", 1000 * nw, [&](int i) {
    StatusOr<exec::BoundWrite> write =
        exec::BindWriteStatement(bound[writes[i % nw]], system.catalog());
    check(write.status());
    if (write.ok()) sink += write->relation.size();
  });
  double examined = 0, returned = 0;
  for (const size_t i : reads) {
    hbase::Session s(&cluster);
    SYNERGY_ASSIGN_OR_RETURN(
        analyzed,
        system.ExplainAnalyzeRead(
            s, std::get<sql::SelectStatement>(stmts[i].ast), params[i]));
    for (const exec::PlanNodeStats& node : analyzed.nodes) {
      // Plan steps are labelled "<step>: <table>"; the sink, plan+bind and
      // dirty-restart nodes examine no stored rows.
      if (!node.label.empty() &&
          std::isdigit(static_cast<unsigned char>(node.label[0])) != 0) {
        examined += static_cast<double>(node.rows);
      }
    }
    returned += static_cast<double>(analyzed.result.row_count);
  }
  m["exec.rows_examined_per_row"] = {"exec.rows_examined_per_row",
                                     Ratio(examined, returned), "ratio",
                                     reads.size()};
  SYNERGY_RETURN_IF_ERROR(error);

  hbase::Session s(&cluster);
  const std::string root_key = exec::EncodePkKeyFromValues({Value(int64_t{1})});
  const txn::LockSpec lock{"Customer", root_key};
  time_us("txn.submit_noop_us", 3000, [&](int) {
    check(system.txn_layer()
              ->SubmitWrite(s, "noop", lock,
                            [](hbase::Session&) { return Status::Ok(); })
              .status());
  });
  txn::LockManager* locks = system.txn_layer()->lock_manager();
  time_us("txn.lock_pair_us", 5000, [&](int) {
    check(locks->Acquire(s, lock.root_relation, lock.root_key));
    check(locks->Release(s, lock.root_relation, lock.root_key));
  });
  SYNERGY_RETURN_IF_ERROR(error);

  constexpr int kRows = 20000;
  constexpr int kScans = 10;
  const std::string table = "__perfbench_ladder";
  SYNERGY_RETURN_IF_ERROR(cluster.CreateTable({.name = table}));
  const std::string value(std::max<size_t>(row_bytes, 1), 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < kRows; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "r%08d", i);
    keys.emplace_back(key);
  }
  time_us("hbase.put_us", kRows, [&](int i) {
    check(cluster.Put(s, table, keys[static_cast<size_t>(i)],
                      {{exec::kDataQualifier, value}}));
  });
  time_us("hbase.get_us", kRows, [&](int i) {
    StatusOr<hbase::RowResult> row =
        cluster.Get(s, table, keys[static_cast<size_t>(i)]);
    check(row.status());
    if (row.ok()) sink += row->columns.size();
  });
  const double scan_us = MeanMicros(kScans, [&](int) {
    StatusOr<hbase::Scanner> scanner = cluster.OpenScanner(s, table);
    check(scanner.status());
    if (!scanner.ok()) return;
    hbase::RowResult row;
    while (scanner->Next(&row)) ++sink;
    check(scanner->status());
  });
  m["hbase.scan_row_us"] = {"hbase.scan_row_us", scan_us / kRows, "us",
                            static_cast<size_t>(kScans) * kRows};
  SYNERGY_RETURN_IF_ERROR(cluster.DropTable(table));
  SYNERGY_RETURN_IF_ERROR(error);
  if (sink == 0) return Status::Internal("ladder produced no results");
  return m;
}

// ---------------------------------------------------------------- output ---


Status WriteTraceFile(const std::string& path, const Workload& w,
                      uint64_t seed, const PhaseResult& phase) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,", w.name.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "\"span_fields\":[\"client\",\"op\",\"name\",\"parent\","
               "\"host_start_us\",\"host_end_us\",\"virt_us\"],\"spans\":[");
  const char* sep = "";
  int base = 0;
  for (size_t c = 0; c < phase.clients.size(); ++c) {
    const TraceSink& sink = phase.clients[c].trace;
    for (const TraceSink::Span& span : sink.spans()) {
      std::fprintf(f, "%s[%zu,%d,\"%s\",%d,", sep, c, span.op,
                   sink.name(span.name).c_str(),
                   span.parent < 0 ? -1 : span.parent + base);
      if (std::isnan(span.host_start_us)) {
        std::fprintf(f, "null,null,");
      } else {
        std::fprintf(f, "%.3f,%.3f,", span.host_start_us, span.host_end_us);
      }
      std::fprintf(f, "%.17g]", span.virt_us);
      sep = ",\n";
    }
    base += static_cast<int>(sink.spans().size());
  }
  std::map<std::string, TraceSink::Total> totals;
  for (const ClientResult& c : phase.clients) c.trace.MergeTotalsInto(&totals);
  std::fprintf(f, "],\n\"totals\":{");
  sep = "";
  for (const auto& [name, t] : totals) {
    std::fprintf(f,
                 "%s\"%s\":{\"count\":%llu,\"virt_us\":%.17g,"
                 "\"self_virt_us\":%.17g,\"host_us\":%.17g,"
                 "\"self_host_us\":%.17g}",
                 sep, name.c_str(), static_cast<unsigned long long>(t.count),
                 t.virt_us, t.self_virt_us, t.host_us, t.self_host_us);
    sep = ",\n";
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::Internal("cannot write " + path);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
        have_seconds = args->seconds > 0;
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args->trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        args->out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <joins|writes|mixed_4c|table2> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  tpcw::ScaleConfig scale;
  scale.num_customers = w.customers;
  scale.load_threads = 1;  // see README: parallel-load layout is out of scope

  std::vector<std::string> failures;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> e2e, layer;
  std::vector<std::string> notes;  // printed, not part of the JSON result
  auto fail_fast = [&](const std::string& what) {
    std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
    return 1;
  };
  std::string wall = "wall_s";  // host seconds per step of this run
  Clock::time_point lap_start = Clock::now();
  auto lap = [&](const char* step) {
    const Clock::time_point now = Clock::now();
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %s=%.2f", step,
                  SecondsBetween(lap_start, now));
    wall += buf;
    lap_start = now;
  };

  StatusOr<UserData> user = GenerateUserData(scale);
  if (!user.ok()) return fail_fast("generate: " + user.status().ToString());
  lap("generate");

  // Synergy: kSetups fresh setups; the last one is measured. With --trace 1
  // the one before it runs the same inputs untraced first, for the tracing
  // overhead and the traced/untraced result comparison.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<SetupTiming> setups;
  std::unique_ptr<SynergyStack> stack;
  std::optional<PhaseResult> untraced;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();  // one system alive at a time
    SetupTiming timing;
    StatusOr<std::unique_ptr<SynergyStack>> made =
        SetUpSynergy(scale, w.txn_slaves, &timing);
    if (!made.ok()) return fail_fast("setup: " + made.status().ToString());
    stack = std::move(*made);
    setups.push_back(timing);
    if (args.trace && k == kSetups - 2) {
      untraced = RunPhase({.workload = &w, .system = stack->system.get(),
                           .cluster = stack->cluster.get(), .scale = scale,
                           .seed = args.seed, .seconds = phase_seconds});
      attempted += untraced->executed;
      failed += untraced->failed;
      require(untraced->failed == 0, untraced->first_error);
    }
  }
  lap(args.trace ? "setups+untraced" : "setups");
  hbase::Cluster& cluster = *stack->cluster;
  core::SynergySystem& system = *stack->system;
  const auto views = static_cast<double>(system.catalog().Views().size());
  std::vector<std::string> view_tables;
  for (const sql::ViewDef* view : system.catalog().Views()) {
    view_tables.push_back(view->name);
    for (const sql::IndexDef* ix : system.catalog().IndexesFor(view->name)) {
      view_tables.push_back(ix->name);
    }
  }
  double store_bytes = 0, view_bytes = 0;  // Cluster::TotalBytes, views' share
  for (const hbase::TableSizeInfo& t : cluster.SizeReport()) {
    store_bytes += static_cast<double>(t.bytes);
    if (std::find(view_tables.begin(), view_tables.end(), t.name) !=
        view_tables.end()) {
      view_bytes += static_cast<double>(t.bytes);
    }
  }
  lap("size_report");

  cluster.ResetMetrics();  // registry values below cover the measured phase
  const PhaseResult phase =
      RunPhase({.workload = &w, .system = &system, .cluster = &cluster,
                .scale = scale, .seed = args.seed, .seconds = phase_seconds,
                .trace = args.trace});
  attempted += phase.executed;
  failed += phase.failed;
  require(phase.failed == 0, phase.first_error);
  lap("measured");
  const obs::RegistrySnapshot registry = cluster.metrics().Snapshot();
  size_t wal_entries = 0;
  for (int i = 0; i < system.txn_layer()->num_slaves(); ++i) {
    wal_entries += system.txn_layer()->slave(i)->wal()->size();
  }

  {  // untimed: views must equal the joins they materialize
    hbase::Session s(&cluster);
    StatusOr<core::ViewAuditReport> audit =
        core::AuditViewConsistency(s, system.adapter());
    require(audit.ok() && audit->consistent(),
            "view audit: " + (audit.ok() ? audit->ToString()
                                         : audit.status().ToString()));
  }
  lap("audit");

  std::map<std::string, Metric> ladder;
  if (args.trace) {
    StatusOr<std::map<std::string, Metric>> rungs =
        RunLadder(system, cluster, scale, args.seed,
                  static_cast<size_t>(
                      Ratio(user->bytes, static_cast<double>(user->tuples))));
    if (!rungs.ok()) return fail_fast("ladder: " + rungs.status().ToString());
    ladder = std::move(*rungs);
    lap("ladder");
  }

  // The comparators run last, one system alive at a time, so that peak RSS
  // (taken when the prefix completes) is Synergy's own.
  stack.reset();
  std::map<std::string, ComparatorResult> comparators;
  for (const systems::SystemKind kind : w.comparators) {
    ComparatorResult r = RunComparator(kind, w, scale, args.seed);
    attempted += r.executed;
    failed += r.failed;
    require(r.failed == 0, r.first_error);
    comparators[r.name] = r;
  }
  lap("comparators");

  const double synergy_total_s = VirtTotalSeconds(phase);
  if (w.name == "table2") {
    const double a = comparators["MVCC-A"].virt_total_s;
    const double ua = comparators["MVCC-UA"].virt_total_s;
    const double base = comparators["Baseline"].virt_total_s;
    require(synergy_total_s < a && a < ua && ua < base,
            "Table II ordering Synergy < MVCC-A < MVCC-UA < Baseline");
  }
  for (const auto& [name, r] : comparators) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "system %-8s virt_total_s=%.6g setup_s=%.3f db_mb=%.3f "
                  "host_ms_per_sweep=%.3f",
                  name.c_str(), r.virt_total_s, r.setup_s, r.db_bytes / 1e6,
                  r.host_ms_per_sweep);
    notes.emplace_back(line);
  }
  {
    std::vector<double> virt_sum(phase.stmt_ids.size(), 0.0);
    std::vector<uint64_t> virt_n(phase.stmt_ids.size(), 0);
    std::vector<double> host_sum(phase.stmt_ids.size(), 0.0);
    std::vector<uint64_t> host_n(phase.stmt_ids.size(), 0);
    for (const ClientResult& c : phase.clients) {
      for (size_t i = 0; i < c.prefix_stmt.size(); ++i) {
        virt_sum[static_cast<size_t>(c.prefix_stmt[i])] += c.prefix_virt_us[i];
        ++virt_n[static_cast<size_t>(c.prefix_stmt[i])];
      }
      for (size_t i = 0; i < phase.stmt_ids.size(); ++i) {
        host_sum[i] += c.stmt_host_us[i];
        host_n[i] += c.stmt_window_ops[i];
      }
    }
    const std::vector<uint64_t> rows = ResultChecksum(phase);
    for (size_t i = 0; i < phase.stmt_ids.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "stmt %-4s virt_ms=%.6g host_us=%.6g n=%llu rows=%llu",
                    phase.stmt_ids[i].c_str(),
                    Ratio(virt_sum[i], static_cast<double>(virt_n[i])) / 1e3,
                    Ratio(host_sum[i], static_cast<double>(host_n[i])),
                    static_cast<unsigned long long>(host_n[i]),
                    static_cast<unsigned long long>(rows[i]));
      notes.emplace_back(line);
    }
  }
  {
    // Host time is informational here: on a shared host it varies too much
    // between runs to carry a regression bound (see README).
    std::vector<double> host_us;
    for (const ClientResult& c : phase.clients) {
      host_us.insert(host_us.end(), c.host_us.begin(), c.host_us.end());
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "host ops_per_s=%.6g p50_us=%.6g p99_us=%.6g n=%zu",
                  phase.ops_per_s(), Quantile(host_us, 0.50),
                  Quantile(host_us, 0.99), host_us.size());
    notes.emplace_back(line);
  }

  std::vector<double> setup_total, build_ms, load_us, compact_s;
  std::string setup_line = "setup_s";
  for (const SetupTiming& t : setups) {
    setup_total.push_back(t.total_s);
    build_ms.push_back(t.build_s * 1e3);
    load_us.push_back(t.load_s * 1e6 / static_cast<double>(t.tuples));
    compact_s.push_back(t.compact_s);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", t.total_s);
    setup_line += buf;
  }
  notes.push_back(setup_line);
  const double baseline_total_s = comparators["Baseline"].virt_total_s;

  if (!args.trace) {
    double virt_ms = 0, peak_rss_mb = 0;
    size_t virt_n = 0;
    for (const ClientResult& c : phase.clients) {
      for (const double v : c.prefix_virt_us) virt_ms += v / 1e3;
      virt_n += c.prefix_virt_us.size();
      peak_rss_mb = std::max(peak_rss_mb, c.prefix_peak_rss_mb);
    }
    e2e = {
        {"setup_s", Quantile(setup_total, 0.5), "s", setups.size()},
        {"peak_rss_mb", peak_rss_mb, "MB", phase.clients.size()},
        {"db_bytes_per_user_byte", Ratio(store_bytes, user->bytes), "ratio",
         user->tuples},
        {"virt_mean_ms", Ratio(virt_ms, static_cast<double>(virt_n)), "ms",
         virt_n},
        {"virt_total_s", synergy_total_s, "s", virt_n},
        {"gain_vs_baseline_pct",
         100.0 * (1.0 - Ratio(synergy_total_s, baseline_total_s)), "%",
         virt_n},
    };
  } else {
    // Traced/untraced agreement: identical inputs must return identical
    // rows whenever the run is deterministic (one client).
    if (w.clients == 1) {
      require(ResultChecksum(*untraced) == ResultChecksum(phase),
              "traced and untraced result_checksum differ");
    }
    std::map<std::string, TraceSink::Total> totals;
    double root_us = 0, meter_us = 0;
    for (const ClientResult& c : phase.clients) {
      c.trace.MergeTotalsInto(&totals);
      root_us += c.trace.program_root_us();
      meter_us += c.trace.meter_us();
    }
    require(std::abs(root_us - meter_us) <= 1e-6 * std::max(meter_us, 1.0),
            "program span root sum differs from the op meter total");
    const auto ops = static_cast<double>(phase.executed);
    // Virtual µs per op inside a program span: with its children (the
    // RPCs it issued), or only its self time.
    auto span_vus = [&](const std::string& name, bool self) {
      auto it = totals.find(name);
      if (it == totals.end()) return 0.0;
      return (self ? it->second.self_virt_us : it->second.virt_us) / ops;
    };
    double rpc_vus = 0;
    for (const auto& [name, t] : totals) {
      if (name.rfind("rpc.", 0) == 0) rpc_vus += t.self_virt_us / ops;
    }
    auto per_op = [&](const char* counter) {
      return static_cast<double>(registry.CounterValue(counter)) / ops;
    };
    std::vector<double> call_us;
    for (const ClientResult& c : untraced->clients) {
      call_us.insert(call_us.end(), c.host_us.begin(), c.host_us.end());
    }
    auto rung = [&](const char* name) { return ladder.at(name); };
    const ComparatorResult& base = comparators["Baseline"];
    const size_t n = phase.executed;
    const size_t calls = call_us.size();
    layer = {
        {"tpcw.generate_s", user->generate_s, "s", 1},
        {"tpcw.user_bytes", user->bytes, "bytes", user->tuples},
        rung("tpcw.params_us"),
        rung("sql.parse_us"),
        rung("sql.bind_us"),
        rung("sql.to_string_us"),
        {"synergy.build_ms", Quantile(build_ms, 0.5), "ms", setups.size()},
        {"synergy.load_us_per_tuple", Quantile(load_us, 0.5), "us",
         setups.size()},
        {"synergy.host_ops_per_s", untraced->ops_per_s(), "ops/s", calls},
        {"synergy.call_us_p50", Quantile(call_us, 0.50), "us", calls},
        {"synergy.call_us_p99", Quantile(call_us, 0.99), "us", calls},
        {"synergy.derive_lock_vus", span_vus("synergy.derive_lock", false), "vus", n},
        {"synergy.view_rows_updated_per_op",
         per_op("synergy_view_rows_updated_total"), "count", n},
        {"synergy.view_marks_per_op", per_op("synergy_view_marks_total"),
         "count", n},
        {"synergy.views", views, "count", 1},
        {"synergy.view_bytes_share", Ratio(view_bytes, store_bytes), "fraction",
         1},
        {"exec.select_vus", span_vus("exec.select", true), "vus", n},
        rung("exec.plan_us"),
        rung("exec.bind_write_us"),
        rung("exec.rows_examined_per_row"),
        {"exec.dirty_restarts_per_op", per_op("exec_dirty_restarts_total"),
         "count", n},
        {"txn.lock_acquire_vus", span_vus("txn.lock_acquire", false), "vus",
         n},
        {"txn.body_vus", span_vus("txn.body", false), "vus", n},
        {"txn.lock_release_vus", span_vus("txn.lock_release", false), "vus",
         n},
        rung("txn.submit_noop_us"),
        rung("txn.lock_pair_us"),
        {"txn.lock_attempts_per_acquire",
         Ratio(static_cast<double>(
                   registry.CounterValue("txn_lock_acquire_attempts_total")),
               static_cast<double>(
                   registry.CounterValue("txn_lock_acquires_total"))),
         "ratio", n},
        {"txn.wal_entries", static_cast<double>(wal_entries), "count", 1},
        {"txn.backpressure_rejects",
         static_cast<double>(
             registry.CounterValue("txn_slave_backpressure_rejected_total")),
         "count", n},
        {"hbase.rpcs_per_op", per_op("hbase_rpcs_total"), "count", n},
        {"hbase.scan_batches_per_op", per_op("hbase_scan_batches_total"),
         "count", n},
        {"hbase.rpc_vus", rpc_vus, "vus", n},
        rung("hbase.get_us"),
        rung("hbase.put_us"),
        rung("hbase.scan_row_us"),
        {"hbase.compact_s", Quantile(compact_s, 0.5), "s", setups.size()},
        {"hbase.heartbeat_rounds_per_op",
         per_op("hbase_failover_heartbeat_rounds_total"), "count", n},
        {"hbase.store_bytes", store_bytes, "bytes", 1},
        {"obs.trace_overhead_pct",
         100.0 * (Ratio(untraced->ops_per_s(), phase.ops_per_s()) - 1.0), "%",
         phase.window_ops},
        {"systems.baseline.setup_s", base.setup_s, "s", 1},
        {"systems.baseline.db_mb", base.db_bytes / 1e6, "MB", 1},
        {"systems.baseline.host_ms_per_sweep", base.host_ms_per_sweep, "ms",
         kComparatorSweeps},
    };
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const std::string path = args.out + "/trace_" + w.name + ".json";
    const Status written = WriteTraceFile(path, w, args.seed, phase);
    require(written.ok(), written.ToString());
    notes.push_back("trace written to " + path);
  }

  notes.push_back(wall);

  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  const std::vector<Metric>& metrics = args.trace ? layer : e2e;
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
