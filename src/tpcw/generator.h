// Deterministic TPC-W data generator and workload parameter provider.
//
// Cardinalities follow the paper's setup (§IX-D1): NUM_ITEMS = 10*NUM_CUST
// and Customer:Orders = 1:10; TPC-W's own derived counts otherwise
// (authors = items/4, addresses = 2*customers, 92 countries). String fields
// are shortened relative to the spec (e.g. i_desc) to keep the in-memory
// store compact; EXPERIMENTS.md documents this substitution.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "exec/row_codec.h"

namespace synergy::tpcw {

struct ScaleConfig {
  int64_t num_customers = 1000;
  uint64_t seed = 20170904;  // CLUSTER'17
  /// Loading is serial: GenerateDatabase rejects any value but 1. The
  /// field stays only because the end-to-end benchmark
  /// (perfbench/bench_e2e.cpp) assigns it, and goes with that benchmark's
  /// next change (ROADMAP.md item 15).
  int load_threads = 1;

  int64_t num_items() const { return num_customers * 10; }
  int64_t num_authors() const { return std::max<int64_t>(1, num_items() / 4); }
  int64_t num_addresses() const { return num_customers * 2; }
  int64_t num_countries() const { return 92; }
  int64_t num_orders() const { return num_customers * 10; }
  int64_t num_carts() const { return std::max<int64_t>(1, num_customers / 10); }
  int64_t num_orders_tmp() const {
    return std::min<int64_t>(3333, num_orders());
  }
  /// Upper bound on Order_line ids (lines per order in [1,5]).
  int64_t max_order_line_id() const { return num_orders() * 5; }
};

/// Sink receiving (relation, tuple) pairs in FK-topological order.
using TupleSink =
    std::function<Status(const std::string& relation, const exec::Tuple&)>;

/// Streams the whole database through `sink`, on the calling thread, from
/// one RNG seeded with `config.seed`. Deterministic in `config`. Returns
/// kInvalidArgument, before emitting a row, when `config.load_threads` is
/// not 1.
Status GenerateDatabase(const ScaleConfig& config, const TupleSink& sink);

/// Subjects used for i_subject (TPC-W's 24 subjects).
std::span<const std::string_view> Subjects();

/// Deterministic, valid parameters for a workload statement. `fresh_id`
/// monotonically grows so repeated inserts never collide.
class ParamProvider {
 public:
  explicit ParamProvider(const ScaleConfig& config, uint64_t seed = 7)
      : config_(config), rng_(seed) {}

  StatusOr<std::vector<Value>> ParamsFor(const std::string& stmt_id);

  /// Interleaves this provider's fresh-id stream with `num_streams - 1`
  /// sibling providers (stream k draws base + k, base + k + num_streams, …)
  /// so concurrent per-thread providers never hand out colliding insert
  /// keys. Call before the first ParamsFor.
  void PartitionFreshIds(int stream, int num_streams) {
    fresh_base_ = 1000000000 + stream;
    fresh_step_ = num_streams;
  }

 private:
  int64_t NextFreshId() {
    const int64_t id = fresh_base_;
    fresh_base_ += fresh_step_;
    return id;
  }

  ScaleConfig config_;
  Rng rng_;
  int64_t fresh_base_ = 1000000000;  // above every generated id
  int64_t fresh_step_ = 1;
};

}  // namespace synergy::tpcw
