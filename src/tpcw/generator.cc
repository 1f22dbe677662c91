#include "tpcw/generator.h"

#include <algorithm>
#include <thread>

namespace synergy::tpcw {
namespace {

std::string Uname(int64_t c_id) { return "USER" + std::to_string(c_id); }

// ---- parallel loader ----

// Ids per block: one RNG seed per block makes the generated data a pure
// function of (seed, block size), independent of how many threads consume
// the blocks.
constexpr int64_t kLoadBlock = 1024;

uint64_t BlockSeed(uint64_t seed, uint64_t phase, int64_t block) {
  // splitmix64's output mixing decorrelates nearby seeds, so a cheap
  // combination is enough.
  return seed ^ (phase << 40) ^ static_cast<uint64_t>(block);
}

/// Emits one id of a phase using that block's RNG.
using EmitFn = std::function<Status(Rng& rng, int thread_id, int64_t id)>;

/// Runs one FK-topological phase: ids 1..count split into kLoadBlock-sized
/// blocks, block b handled by thread b % threads. Joins all workers before
/// returning (the inter-phase barrier).
Status ParallelPhase(int threads, uint64_t seed, uint64_t phase, int64_t count,
                     const EmitFn& emit) {
  if (count <= 0) return Status::Ok();
  const int64_t num_blocks = (count + kLoadBlock - 1) / kLoadBlock;
  const int n = static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(threads, num_blocks)));
  std::vector<Status> results(static_cast<size_t>(n), Status::Ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    workers.emplace_back([&, tid] {
      for (int64_t b = tid; b < num_blocks; b += n) {
        Rng rng(BlockSeed(seed, phase, b));
        const int64_t lo = b * kLoadBlock + 1;
        const int64_t hi = std::min(count, (b + 1) * kLoadBlock);
        for (int64_t id = lo; id <= hi; ++id) {
          Status s = emit(rng, tid, id);
          if (!s.ok()) {
            results[static_cast<size_t>(tid)] = std::move(s);
            return;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

std::span<const std::string_view> Subjects() {
  // A constant table: no first call allocates, so two loads allocate
  // equally often whichever ran first.
  static constexpr std::string_view kSubjects[] = {
      "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
      "COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE",
      "MYSTERY", "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE",
      "RELIGION", "ROMANCE", "SELF-HELP", "SCIENCE-NATURE",
      "SCIENCE-FICTION", "SPORTS", "YOUTH", "TRAVEL"};
  return kSubjects;
}

namespace {

// ---- one row builder per relation ----
//
// Each fills a tuple reused from one row of its relation to the next. It
// assigns every field of the relation, in the order listed, so the tuple
// keeps nothing of the row before and the draws from `rng` come in the
// order the fields are listed. String fields are written into the storage
// the tuple already holds, so a refill allocates nothing once the tuple
// has held one row. Both generators call these, so they emit the same
// fields from the same draws.

Value& Field(exec::Tuple* t, const char* name) { return (*t)[name]; }

void Alpha(Rng& rng, size_t len, Value* field) {
  rng.AlphaString(len, &field->ResetString());
}

/// `prefix` followed by `n` in decimal.
void Numbered(const char* prefix, uint64_t n, Value* field) {
  std::string& s = field->ResetString();
  s = prefix;
  s += std::to_string(n);
}

void CountryRow(Rng& rng, int64_t id, exec::Tuple* t) {
  Field(t, "co_id") = id;
  Numbered("COUNTRY", static_cast<uint64_t>(id), &Field(t, "co_name"));
  Field(t, "co_exchange") = rng.UniformReal(0.1, 10.0);
  Alpha(rng, 3, &Field(t, "co_currency"));
}

void AddressRow(const ScaleConfig& cfg, Rng& rng, int64_t id, exec::Tuple* t) {
  Field(t, "addr_id") = id;
  Alpha(rng, 16, &Field(t, "addr_street1"));
  Alpha(rng, 16, &Field(t, "addr_street2"));
  Alpha(rng, 10, &Field(t, "addr_city"));
  Alpha(rng, 2, &Field(t, "addr_state"));
  Alpha(rng, 5, &Field(t, "addr_zip"));
  Field(t, "addr_co_id") = rng.Uniform(1, cfg.num_countries());
}

void AuthorRow(Rng& rng, int64_t id, exec::Tuple* t) {
  Field(t, "a_id") = id;
  Alpha(rng, 8, &Field(t, "a_fname"));
  Alpha(rng, 10, &Field(t, "a_lname"));
  Alpha(rng, 1, &Field(t, "a_mname"));
  Field(t, "a_dob") = rng.Uniform(1900, 1999);
  Alpha(rng, 60, &Field(t, "a_bio"));
}

void CustomerRow(const ScaleConfig& cfg, Rng& rng, int64_t id,
                 exec::Tuple* t) {
  Field(t, "c_id") = id;
  Numbered("USER", static_cast<uint64_t>(id), &Field(t, "c_uname"));
  Alpha(rng, 8, &Field(t, "c_passwd"));
  Alpha(rng, 8, &Field(t, "c_fname"));
  Alpha(rng, 10, &Field(t, "c_lname"));
  Field(t, "c_addr_id") = rng.Uniform(1, cfg.num_addresses());
  Alpha(rng, 10, &Field(t, "c_phone"));
  Alpha(rng, 12, &Field(t, "c_email"));
  Field(t, "c_since") = rng.Uniform(20000101, 20170101);
  Field(t, "c_last_login") = rng.Uniform(20170101, 20170930);
  Field(t, "c_login") = rng.Uniform(0, 1000000);
  Field(t, "c_expiration") = rng.Uniform(20180101, 20200101);
  Field(t, "c_discount") = rng.UniformReal(0.0, 0.5);
  Field(t, "c_balance") = rng.UniformReal(-100.0, 100.0);
  Field(t, "c_ytd_pmt") = rng.UniformReal(0.0, 10000.0);
  Field(t, "c_birthdate") = rng.Uniform(19200101, 19991231);
  Alpha(rng, 80, &Field(t, "c_data"));
}

void ItemRow(const ScaleConfig& cfg, Rng& rng, int64_t id, exec::Tuple* t) {
  const std::span<const std::string_view> subjects = Subjects();
  Field(t, "i_id") = id;
  Numbered("TITLE", rng.Next() % 100000, &Field(t, "i_title"));
  Field(t, "i_a_id") = rng.Uniform(1, cfg.num_authors());
  Field(t, "i_pub_date") = rng.Uniform(19500101, 20170101);
  Alpha(rng, 14, &Field(t, "i_publisher"));
  Field(t, "i_subject").ResetString() =
      subjects[static_cast<size_t>(rng.Next() % subjects.size())];
  Alpha(rng, 100, &Field(t, "i_desc"));
  for (const char* related : {"i_related1", "i_related2", "i_related3",
                              "i_related4", "i_related5"}) {
    Field(t, related) = rng.Uniform(1, cfg.num_items());
  }
  Alpha(rng, 20, &Field(t, "i_thumbnail"));
  Alpha(rng, 20, &Field(t, "i_image"));
  Field(t, "i_srp") = rng.UniformReal(1.0, 300.0);
  Field(t, "i_cost") = rng.UniformReal(1.0, 300.0);
  Field(t, "i_avail") = rng.Uniform(20170101, 20171231);
  Field(t, "i_stock") = rng.Uniform(10, 30);
  Alpha(rng, 13, &Field(t, "i_isbn"));
  Field(t, "i_page") = rng.Uniform(20, 9999);
  Alpha(rng, 5, &Field(t, "i_backing"));
  Alpha(rng, 12, &Field(t, "i_dimensions"));
}

/// An order of customer (o_id - 1) mod customers + 1 (Customer:Orders =
/// 1:10).
void OrdersRow(const ScaleConfig& cfg, Rng& rng, int64_t o_id,
               exec::Tuple* t) {
  Field(t, "o_id") = o_id;
  Field(t, "o_c_id") = (o_id - 1) % cfg.num_customers + 1;
  Field(t, "o_date") = rng.Uniform(20150101, 20170930);
  Field(t, "o_sub_total") = rng.UniformReal(10.0, 1000.0);
  Field(t, "o_tax") = rng.UniformReal(0.0, 80.0);
  Field(t, "o_total") = rng.UniformReal(10.0, 1100.0);
  Alpha(rng, 6, &Field(t, "o_ship_type"));
  Field(t, "o_ship_date") = rng.Uniform(20150101, 20171001);
  Field(t, "o_bill_addr_id") = rng.Uniform(1, cfg.num_addresses());
  Field(t, "o_ship_addr_id") = rng.Uniform(1, cfg.num_addresses());
  Alpha(rng, 8, &Field(t, "o_status"));
}

/// A line of order `o_id`. The generators number lines differently, so
/// each passes its own `ol_id`.
void OrderLineRow(const ScaleConfig& cfg, Rng& rng, int64_t ol_id,
                  int64_t o_id, exec::Tuple* t) {
  Field(t, "ol_id") = ol_id;
  Field(t, "ol_o_id") = o_id;
  Field(t, "ol_i_id") = rng.Uniform(1, cfg.num_items());
  Field(t, "ol_qty") = rng.Uniform(1, 10);
  Field(t, "ol_discount") = rng.UniformReal(0.0, 0.3);
  Alpha(rng, 20, &Field(t, "ol_comments"));
}

void CcXactsRow(const ScaleConfig& cfg, Rng& rng, int64_t o_id,
                exec::Tuple* t) {
  Field(t, "cx_o_id") = o_id;
  Field(t, "cx_type").ResetString() = rng.Next() % 2 ? "VISA" : "AMEX";
  Alpha(rng, 16, &Field(t, "cx_num"));
  Alpha(rng, 14, &Field(t, "cx_name"));
  Field(t, "cx_expiry") = rng.Uniform(20180101, 20220101);
  Alpha(rng, 15, &Field(t, "cx_auth_id"));
  Field(t, "cx_xact_amt") = rng.UniformReal(10.0, 1100.0);
  Field(t, "cx_xact_date") = rng.Uniform(20150101, 20171001);
  Field(t, "cx_co_id") = rng.Uniform(1, cfg.num_countries());
}

void CartRow(Rng& rng, int64_t sc, exec::Tuple* t) {
  Field(t, "sc_id") = sc;
  Field(t, "sc_time") = rng.Uniform(0, 1 << 30);
}

void CartLineRow(const ScaleConfig& cfg, Rng& rng, int64_t sc,
                 exec::Tuple* t) {
  Field(t, "scl_sc_id") = sc;
  Field(t, "scl_i_id") = rng.Uniform(1, cfg.num_items());
  Field(t, "scl_qty") = rng.Uniform(1, 5);
}

void OrdersTmpRow(int64_t o_id, exec::Tuple* t) { Field(t, "ot_o_id") = o_id; }

/// A relation's name, made once, and its tuple per generating thread.
struct Relation {
  Relation(std::string name, int threads)
      : name(std::move(name)), tuples(static_cast<size_t>(threads)) {}
  exec::Tuple* tuple(int thread) {
    return &tuples[static_cast<size_t>(thread)];
  }
  std::string name;
  std::vector<exec::Tuple> tuples;
};

}  // namespace

Status GenerateDatabase(const ScaleConfig& cfg, const TupleSink& sink) {
  Rng rng(cfg.seed);
  Relation country("Country", 1), address("Address", 1), author("Author", 1),
      customer("Customer", 1), item("Item", 1), orders("Orders", 1),
      line("Order_line", 1), cc("CC_Xacts", 1), cart("Shopping_cart", 1),
      cart_line("Shopping_cart_line", 1), orders_tmp("Orders_tmp", 1);
  auto emit = [&](Relation& r) { return sink(r.name, *r.tuple(0)); };
  for (int64_t id = 1; id <= cfg.num_countries(); ++id) {
    CountryRow(rng, id, country.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(country));
  }
  for (int64_t id = 1; id <= cfg.num_addresses(); ++id) {
    AddressRow(cfg, rng, id, address.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(address));
  }
  for (int64_t id = 1; id <= cfg.num_authors(); ++id) {
    AuthorRow(rng, id, author.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(author));
  }
  for (int64_t id = 1; id <= cfg.num_customers; ++id) {
    CustomerRow(cfg, rng, id, customer.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(customer));
  }
  for (int64_t id = 1; id <= cfg.num_items(); ++id) {
    ItemRow(cfg, rng, id, item.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(item));
  }
  // Orders + lines + credit-card transactions; lines are numbered by one
  // counter across orders.
  int64_t next_ol_id = 1;
  for (int64_t o_id = 1; o_id <= cfg.num_orders(); ++o_id) {
    OrdersRow(cfg, rng, o_id, orders.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(orders));
    const int64_t lines = rng.Uniform(1, 5);
    for (int64_t l = 0; l < lines; ++l) {
      OrderLineRow(cfg, rng, next_ol_id++, o_id, line.tuple(0));
      SYNERGY_RETURN_IF_ERROR(emit(line));
    }
    CcXactsRow(cfg, rng, o_id, cc.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(cc));
  }
  for (int64_t sc = 1; sc <= cfg.num_carts(); ++sc) {
    CartRow(rng, sc, cart.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(cart));
    const int64_t lines = rng.Uniform(1, 3);
    for (int64_t l = 0; l < lines; ++l) {
      CartLineRow(cfg, rng, sc, cart_line.tuple(0));
      SYNERGY_RETURN_IF_ERROR(emit(cart_line));
    }
  }
  // Orders_tmp: the most recent orders (highest ids).
  for (int64_t k = 0; k < cfg.num_orders_tmp(); ++k) {
    OrdersTmpRow(cfg.num_orders() - k, orders_tmp.tuple(0));
    SYNERGY_RETURN_IF_ERROR(emit(orders_tmp));
  }
  return Status::Ok();
}

Status GenerateDatabaseParallel(const ScaleConfig& cfg,
                                const ParallelTupleSink& sink) {
  const int threads = std::max(1, cfg.load_threads);
  Relation country("Country", threads), address("Address", threads),
      author("Author", threads), customer("Customer", threads),
      item("Item", threads), orders("Orders", threads),
      line("Order_line", threads), cc("CC_Xacts", threads),
      cart("Shopping_cart", threads),
      cart_line("Shopping_cart_line", threads),
      orders_tmp("Orders_tmp", threads);
  auto emit = [&](Relation& r, int tid) {
    return sink(tid, r.name, *r.tuple(tid));
  };

  // Phase tags feed BlockSeed, so each relation gets its own seed stream.
  enum : uint64_t {
    kCountry = 1, kAddress, kAuthor, kCustomer, kItem, kOrders, kCarts, kTmp
  };

  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCountry, cfg.num_countries(),
      [&](Rng& rng, int tid, int64_t id) {
        CountryRow(rng, id, country.tuple(tid));
        return emit(country, tid);
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kAddress, cfg.num_addresses(),
      [&](Rng& rng, int tid, int64_t id) {
        AddressRow(cfg, rng, id, address.tuple(tid));
        return emit(address, tid);
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kAuthor, cfg.num_authors(),
      [&](Rng& rng, int tid, int64_t id) {
        AuthorRow(rng, id, author.tuple(tid));
        return emit(author, tid);
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCustomer, cfg.num_customers,
      [&](Rng& rng, int tid, int64_t id) {
        CustomerRow(cfg, rng, id, customer.tuple(tid));
        return emit(customer, tid);
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kItem, cfg.num_items(),
      [&](Rng& rng, int tid, int64_t id) {
        ItemRow(cfg, rng, id, item.tuple(tid));
        return emit(item, tid);
      }));
  // Orders carry their lines and credit-card row; ol_id is derived from
  // (o_id, line) so no cross-thread counter is needed.
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kOrders, cfg.num_orders(),
      [&](Rng& rng, int tid, int64_t o_id) {
        OrdersRow(cfg, rng, o_id, orders.tuple(tid));
        SYNERGY_RETURN_IF_ERROR(emit(orders, tid));
        const int64_t lines = rng.Uniform(1, 5);
        for (int64_t l = 0; l < lines; ++l) {
          OrderLineRow(cfg, rng, (o_id - 1) * 5 + l + 1, o_id,
                       line.tuple(tid));
          SYNERGY_RETURN_IF_ERROR(emit(line, tid));
        }
        CcXactsRow(cfg, rng, o_id, cc.tuple(tid));
        return emit(cc, tid);
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCarts, cfg.num_carts(),
      [&](Rng& rng, int tid, int64_t sc) {
        CartRow(rng, sc, cart.tuple(tid));
        SYNERGY_RETURN_IF_ERROR(emit(cart, tid));
        const int64_t lines = rng.Uniform(1, 3);
        for (int64_t l = 0; l < lines; ++l) {
          CartLineRow(cfg, rng, sc, cart_line.tuple(tid));
          SYNERGY_RETURN_IF_ERROR(emit(cart_line, tid));
        }
        return Status::Ok();
      }));
  return ParallelPhase(
      threads, cfg.seed, kTmp, cfg.num_orders_tmp(),
      [&](Rng&, int tid, int64_t k) {
        OrdersTmpRow(cfg.num_orders() - (k - 1), orders_tmp.tuple(tid));
        return emit(orders_tmp, tid);
      });
}

StatusOr<std::vector<Value>> ParamProvider::ParamsFor(
    const std::string& id) {
  const std::span<const std::string_view> subjects = Subjects();
  auto subject = [&] {
    return Value(std::string(
        subjects[static_cast<size_t>(rng_.Next() % subjects.size())]));
  };
  auto cust = [&] { return Value(rng_.Uniform(1, config_.num_customers)); };
  auto item = [&] { return Value(rng_.Uniform(1, config_.num_items())); };
  auto order = [&] { return Value(rng_.Uniform(1, config_.num_orders())); };
  auto cart = [&] { return Value(rng_.Uniform(1, config_.num_carts())); };
  auto addr = [&] { return Value(rng_.Uniform(1, config_.num_addresses())); };

  if (id == "Q1") return std::vector<Value>{order()};
  if (id == "Q2" || id == "Q3") {
    return std::vector<Value>{Value(Uname(rng_.Uniform(1, config_.num_customers)))};
  }
  if (id == "Q4" || id == "Q5" || id == "Q10") {
    return std::vector<Value>{subject()};
  }
  if (id == "Q6" || id == "Q9") return std::vector<Value>{item()};
  if (id == "Q7") return std::vector<Value>{order()};
  if (id == "Q8") return std::vector<Value>{cart()};
  if (id == "Q11") {
    const Value i = item();
    return std::vector<Value>{i, i};
  }
  if (id == "W1") {
    return std::vector<Value>{Value(NextFreshId()), cust(), Value(20171001),
                              Value(100.0),          Value(8.0),
                              Value(108.0),          Value("FEDEX"),
                              Value(20171002),       addr(),
                              addr(),                Value("PENDING")};
  }
  if (id == "W2") {
    return std::vector<Value>{Value(NextFreshId()),
                              Value("VISA"),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(14)),
                              Value(20191231),
                              Value(rng_.AlphaString(15)),
                              Value(108.0),
                              Value(20171001),
                              Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "W3") {
    return std::vector<Value>{Value(NextFreshId()), order(), item(),
                              Value(rng_.Uniform(1, 10)), Value(0.1),
                              Value(rng_.AlphaString(20))};
  }
  if (id == "W4") {
    const int64_t fresh = NextFreshId();
    return std::vector<Value>{Value(fresh),
                              Value("USER" + std::to_string(fresh)),
                              Value(rng_.AlphaString(8)),
                              Value(rng_.AlphaString(8)),
                              Value(rng_.AlphaString(10)),
                              addr(),
                              Value(rng_.AlphaString(10)),
                              Value(rng_.AlphaString(12)),
                              Value(20171001),
                              Value(20171001),
                              Value(0),
                              Value(20200101),
                              Value(0.1),
                              Value(0.0),
                              Value(0.0),
                              Value(19800101),
                              Value(rng_.AlphaString(80))};
  }
  if (id == "W5") {
    return std::vector<Value>{Value(NextFreshId()),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(10)),
                              Value(rng_.AlphaString(2)),
                              Value(rng_.AlphaString(5)),
                              Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "W6") {
    return std::vector<Value>{Value(NextFreshId()), Value(20171001)};
  }
  if (id == "W7") {
    return std::vector<Value>{cart(), Value(NextFreshId()),
                              Value(rng_.Uniform(1, 5))};
  }
  if (id == "W8") return std::vector<Value>{cart(), item()};
  if (id == "W9") {
    return std::vector<Value>{Value(19.99), Value(20171001),
                              Value(rng_.AlphaString(14)), item()};
  }
  if (id == "W10") {
    return std::vector<Value>{Value(rng_.AlphaString(20)),
                              Value(rng_.AlphaString(20)), item()};
  }
  if (id == "W11") return std::vector<Value>{Value(20171002), cart()};
  if (id == "W12") {
    return std::vector<Value>{Value(rng_.Uniform(1, 9)), cart(), item()};
  }
  if (id == "W13") {
    return std::vector<Value>{Value(50.0), Value(1000.0), Value(20171001),
                              cust()};
  }
  if (id == "S1") return std::vector<Value>{cust()};
  if (id == "S2" || id == "S3") return std::vector<Value>{item()};
  if (id == "S4") return std::vector<Value>{addr()};
  if (id == "S5") {
    return std::vector<Value>{Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "S6" || id == "S8") return std::vector<Value>{cart()};
  if (id == "S7") return std::vector<Value>{cust()};
  return Status::InvalidArgument("unknown statement id " + id);
}

}  // namespace synergy::tpcw
