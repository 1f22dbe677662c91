#include "systems/harness.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

namespace synergy::systems {

Measurement MeasureStatement(EvaluatedSystem& system,
                             tpcw::ParamProvider& params,
                             const std::string& stmt_id, int reps) {
  Measurement m;
  for (int i = 0; i < reps; ++i) {
    StatusOr<std::vector<Value>> p = params.ParamsFor(stmt_id);
    if (!p.ok()) {
      m.error = p.status();
      return m;
    }
    StatusOr<StatementResult> r = system.Execute(stmt_id, *p);
    if (!r.ok()) {
      m.error = r.status();
      return m;
    }
    if (!r->supported) {
      m.supported = false;
      return m;
    }
    m.rt_ms.Add(r->virtual_ms);
    m.rows = r->rows;
  }
  return m;
}

concurrent::WorkloadReport MeasureConcurrent(
    StoreBackedSystem& system, const tpcw::ScaleConfig& scale,
    const concurrent::MixConfig& mix, const concurrent::DriverConfig& config) {
  return concurrent::RunTpcwMix(
      config, scale, mix, [&system](int) -> concurrent::StatementFn {
        // One persistent client per worker thread, created on that thread.
        std::shared_ptr<hbase::Session> client = system.MakeClient();
        return [&system, client](const std::string& stmt_id,
                                 const std::vector<Value>& params) {
          StatementOutcome out = system.ExecuteOpen(*client, stmt_id, params);
          return concurrent::OpOutcome{out.result.virtual_ms * 1000.0,
                                       out.result.counts, out.status};
        };
      });
}

namespace {

std::string ResultsDir() {
  const char* env = std::getenv("SYNERGY_BENCH_RESULTS_DIR");
  if (env != nullptr) return env;
  struct stat st{};
  if (stat("bench-results", &st) == 0 && S_ISDIR(st.st_mode)) {
    return "bench-results";
  }
  if (stat("../bench-results", &st) == 0 && S_ISDIR(st.st_mode)) {
    return "../bench-results";
  }
  return "bench-results";  // fails to open; AppendTrajectoryRun warns
}

std::string RenderRun(const TrajectoryRun& run) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  }
  const char* rev = std::getenv("SYNERGY_GIT_REV");
  const char* label = std::getenv("SYNERGY_BENCH_LABEL");

  std::ostringstream out;
  out << "    {\n"
      << "      \"timestamp\": \"" << stamp << "\",\n"
      << "      \"git_rev\": \"" << (rev != nullptr ? rev : "unknown")
      << "\",\n"
      << "      \"label\": \"" << (label != nullptr ? label : "run")
      << "\",\n";
  for (const auto& [key, value] : run.fields) {
    out << "      \"" << key << "\": " << value << ",\n";
  }
  out << "      \"results\": [\n";
  for (size_t i = 0; i < run.results.size(); ++i) {
    out << "        " << run.results[i]
        << (i + 1 < run.results.size() ? "," : "") << "\n";
  }
  out << "      ],\n      \"metrics\": {\n";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    out << "        \"" << run.metrics[i].first
        << "\": " << run.metrics[i].second
        << (i + 1 < run.metrics.size() ? "," : "") << "\n";
  }
  out << "      }\n    }";
  return out.str();
}

}  // namespace

void AppendTrajectoryRun(const std::string& file,
                         const std::string& description,
                         const TrajectoryRun& run) {
  const std::string path = ResultsDir() + "/" + file;
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  const std::string rendered = RenderRun(run);
  std::string out;
  const size_t close = existing.rfind(']');
  if (close == std::string::npos) {
    out = "{\n  \"description\": \"" + description +
          "\",\n  \"runs\": [\n" + rendered + "\n  ]\n}\n";
  } else {
    const bool empty_array =
        existing.find('{', existing.find("\"runs\"")) == std::string::npos ||
        existing.find('{', existing.find('[')) > close;
    out = existing.substr(0, close);
    // Trim trailing whitespace before the close bracket.
    while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
      out.pop_back();
    }
    out += (empty_array ? "\n" : ",\n") + rendered + "\n  " +
           existing.substr(close);
  }
  std::ofstream f(path, std::ios::trunc);
  if (f << out) {
    std::printf("Appended datapoint to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not write %s\n", path.c_str());
  }
}

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 100000.0) {
    std::snprintf(buf, sizeof(buf), "%.3g", ms);
  } else if (ms >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", ms);
  } else if (ms >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
  }
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int col_width)
    : headers_(std::move(headers)), col_width_(col_width) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s", i == 0 ? 14 : col_width_, cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 14 + col_width_ * (headers_.size() - 1);
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

int64_t EnvCustomers(int64_t default_value) {
  const char* env = std::getenv("SYNERGY_TPCW_CUSTOMERS");
  if (env == nullptr) return default_value;
  const int64_t v = std::atoll(env);
  return v > 0 ? v : default_value;
}

int EnvReps(int default_value) {
  const char* env = std::getenv("SYNERGY_BENCH_REPS");
  if (env == nullptr) return default_value;
  const int v = std::atoi(env);
  return v > 0 ? v : default_value;
}

int EnvThreads(int default_value) {
  const char* env = std::getenv("SYNERGY_BENCH_THREADS");
  if (env == nullptr) return default_value;
  const int v = std::atoi(env);
  return v > 0 ? v : default_value;
}

}  // namespace synergy::systems
