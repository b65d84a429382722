#include "perfbench/src/workloads.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "src/engine/csv.h"
#include "src/tpch/tpch_gen.h"
#include "src/util/check.h"

namespace pvcbench {

namespace {

constexpr int64_t kItems = 20000;
constexpr int64_t kGroups = 500;
// v is uniform in [0, 1000): `v >= c` keeps (1000 - c) / 1000 of the rows.
constexpr int64_t kValueRange = 1000;
constexpr int64_t kHotCutoff = 990;   // The durable chain view.
constexpr int64_t kJoinCutoff = 995;  // The durable join view.
constexpr int kPoolSize = 256;        // chain_read distinct commands.
constexpr int kAggPerShape = 8;       // agg_read distinct commands per shape.
constexpr int64_t kClientKeyBase = 1000000;

std::string Path(const std::string& dir, const std::string& file) {
  return dir + "/" + file;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  PVC_CHECK_MSG(out.good(), "cannot write " << path);
}

// items(k, v, g) with tuple probabilities in [0.5, 1); returns the v column.
std::vector<int64_t> WriteItems(pvcdb::Rng* rng, const std::string& path) {
  std::ostringstream csv;
  csv << "k:int,v:int,g:int,_prob\n";
  std::vector<int64_t> values;
  values.reserve(kItems);
  char prob[32];
  for (int64_t k = 0; k < kItems; ++k) {
    int64_t v = rng->UniformInt(0, kValueRange - 1);
    int64_t g = rng->UniformInt(0, kGroups - 1);
    std::snprintf(prob, sizeof(prob), "%.6f", rng->UniformDouble(0.5, 1.0));
    csv << k << "," << v << "," << g << "," << prob << "\n";
    values.push_back(v);
  }
  WriteFile(path, csv.str());
  return values;
}

void WriteGroups(pvcdb::Rng* rng, const std::string& path) {
  std::ostringstream csv;
  csv << "gk:int,label:string,_prob\n";
  char prob[32];
  for (int64_t g = 0; g < kGroups; ++g) {
    std::snprintf(prob, sizeof(prob), "%.6f", rng->UniformDouble(0.5, 1.0));
    csv << g << ",group" << g << "," << prob << "\n";
  }
  WriteFile(path, csv.str());
}

Command Read(std::string text, int pool_index) {
  Command c;
  c.text = std::move(text);
  c.pool_index = pool_index;
  return c;
}

Workload MakeChainRead(uint64_t seed, const std::string& dir) {
  Workload w;
  pvcdb::Rng rng(seed);
  WriteItems(&rng, Path(dir, "items.csv"));
  w.loads = {{"items", "items.csv"}};
  w.warmup = "SELECT * FROM items WHERE k = 0";
  // The seeded mix, fixed in the pool: 50% point lookups, 35% narrow
  // ranges (20-200 rows), 15% wide ranges (400-2,000 rows).
  const int points = kPoolSize / 2;
  const int narrow = kPoolSize * 35 / 100;
  for (int i = 0; i < kPoolSize; ++i) {
    std::string sql;
    if (i < points) {
      sql = "SELECT * FROM items WHERE k = " +
            std::to_string(rng.UniformInt(0, kItems - 1));
    } else if (i < points + narrow) {
      sql = "SELECT * FROM items WHERE v >= " +
            std::to_string(rng.UniformInt(990, 999));
    } else {
      sql = "SELECT * FROM items WHERE v >= " +
            std::to_string(rng.UniformInt(900, 980));
    }
    w.pool.push_back(Read(sql, i));
  }
  w.description = {
      "items: 20000 rows (k, v uniform in [0,1000), g), tuple-independent",
      "mix: 50% k = $k, 35% v >= [990,999], 15% v >= [900,980]; " +
          std::to_string(kPoolSize) + " distinct commands"};
  return w;
}

Workload MakeAggRead(uint64_t seed, const std::string& dir) {
  Workload w;
  // The data is the same for every seed (GenerateTpch's own default seed):
  // the cost of an aggregate depends on the exact group contents, so seeded
  // data would move the figures from seed to seed. The seed picks the
  // windows and the clients' draws.
  pvcdb::Database db;
  pvcdb::TpchConfig config;
  config.scale_factor = 0.1;
  pvcdb::GenerateTpch(&db, config);
  for (const char* table : {"region", "nation", "supplier", "part", "partsupp",
                            "customer", "orders", "lineitem"}) {
    std::string file = std::string(table) + ".csv";
    std::ofstream out(Path(dir, file), std::ios::binary | std::ios::trunc);
    PVC_CHECK_MSG(pvcdb::WriteCsvTable(db, db.table(table), out) && out.good(),
                  "cannot write " << file);
    w.loads.push_back({table, file});
  }
  // Customers by order count: the orders x lineitem COUNT joint grows
  // ~2.5x per extra order, so only customers with 4-6 orders are used; the
  // lowest keys of each count, so the cliff-side costs are the same for
  // every seed.
  std::map<int64_t, int> orders_of;
  const pvcdb::PvcTable& orders = db.table("orders");
  for (size_t i = 0; i < orders.NumRows(); ++i) {
    ++orders_of[orders.row(i).cells[1].AsInt()];
  }
  std::map<int, std::vector<int64_t>> customers_with;
  for (const auto& [cust, n] : orders_of) customers_with[n].push_back(cust);
  for (int n = 4; n <= 6; ++n) {
    PVC_CHECK_MSG(!customers_with[n].empty(), "no customer with " << n
                                                                  << " orders");
  }

  // Parameters are stratified over each shape's range (not drawn freely), so
  // every seed's pool has the same cost profile; the seed only shifts the
  // windows.
  pvcdb::TpchCardinalities card = pvcdb::TpchCardinalitiesFor(0.1);
  pvcdb::Rng rng(seed ^ 0x5eedULL);
  auto add = [&w](std::string sql) {
    int index = static_cast<int>(w.pool.size());
    w.pool.push_back(Read(std::move(sql), index));
  };
  // Window i of a shape starts in the i-th eighth of the key range, at a
  // seeded offset.
  auto window = [&](const char* column, size_t keys, int64_t width, int i) {
    int64_t stride = (static_cast<int64_t>(keys) - width) / kAggPerShape;
    int64_t lo = i * stride + rng.UniformInt(0, stride - 1);
    return std::string(column) + " >= " + std::to_string(lo) + " AND " +
           column + " < " + std::to_string(lo + width);
  };
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_suppkey, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= " +
        std::to_string(14 + 2 * i) + " GROUP BY l_suppkey");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem "
        "WHERE l_shipdate <= " +
        std::to_string(10 + 2 * i) + " GROUP BY l_returnflag, l_linestatus");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE " +
        window("l_orderkey", card.orders, 10, i) + " GROUP BY l_orderkey");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE " +
        window("l_orderkey", card.orders, 5, i) +
        " GROUP BY l_orderkey HAVING q >= 60");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_partkey, MIN(l_extendedprice) AS m FROM lineitem WHERE " +
        window("l_partkey", card.part, 2, i) + " GROUP BY l_partkey");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT l_orderkey, MAX(l_quantity) AS m FROM lineitem WHERE " +
        window("l_orderkey", card.orders, 5, i) +
        " GROUP BY l_orderkey HAVING m >= 45");
  }
  for (int i = 0; i < kAggPerShape; ++i) {
    add("SELECT s_suppkey, MIN(ps_supplycost) AS c FROM supplier, partsupp "
        "WHERE s_suppkey = ps_suppkey AND ps_availqty >= " +
        std::to_string(9000 + 70 * i) + " GROUP BY s_suppkey");
  }
  static const int kOrderCounts[kAggPerShape] = {4, 4, 4, 5, 5, 5, 6, 6};
  std::map<int, size_t> used;
  for (int n : kOrderCounts) {
    const std::vector<int64_t>& with_n = customers_with[n];
    int64_t cust = with_n[used[n]++ % with_n.size()];
    add("SELECT o_custkey, COUNT(*) AS n FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_custkey = " +
        std::to_string(cust) + " GROUP BY o_custkey");
  }
  w.warmup = w.pool.front().text;
  w.description = {
      "TPC-H SF 0.1 (GenerateTpch, generator seed 7 for every run): "
      "lineitem " +
          std::to_string(card.lineitem) + ", orders " +
          std::to_string(card.orders) + ", partsupp " +
          std::to_string(card.partsupp) + ", supplier " +
          std::to_string(card.supplier) + "; tuple probabilities in [0.5,1)",
      "mix: 8 aggregate shapes x " + std::to_string(kAggPerShape) +
          " stratified parameters, drawn uniformly; customer join over the "
          "lowest-keyed customers with 4, 5 and 6 orders (3/3/2 of 8)"};
  return w;
}

Workload MakeDurableMix(uint64_t seed, const std::string& dir) {
  Workload w;
  w.durable = true;
  pvcdb::Rng rng(seed);
  std::vector<int64_t> values = WriteItems(&rng, Path(dir, "items.csv"));
  WriteGroups(&rng, Path(dir, "groups.csv"));
  w.loads = {{"items", "items.csv"}, {"groups", "groups.csv"}};
  w.setup = {
      "view hot SELECT * FROM items WHERE v >= " + std::to_string(kHotCutoff),
      "view hotjoin SELECT * FROM items, groups WHERE g = gk AND v >= " +
          std::to_string(kJoinCutoff)};
  w.warmup = "SELECT * FROM items WHERE k = 0";
  w.final_checks = {"tables", "view hot", "view hotjoin"};
  for (int64_t k = 0; k < kItems; ++k) {
    (values[static_cast<size_t>(k)] >= kHotCutoff ? w.view_vars : w.plain_vars)
        .push_back(k);
  }
  w.description = {
      "items: 20000 rows, groups: 500 rows; view hot (chain, v >= 990, on "
      "the workers), view hotjoin (items x groups, v >= 995, on the replica)",
      "per client: 15% insert (half into the views), 15% delete of its "
      "oldest live insert, 20% setprob (half on view rows), 50% reads "
      "(view hot, view hotjoin, k = $k)"};
  return w;
}

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return name == "chain_read" || name == "agg_read" || name == "durable_mix";
}

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& dir) {
  PVC_CHECK_MSG(IsWorkloadName(name), "unknown workload '" << name << "'");
  Workload w = name == "chain_read" ? MakeChainRead(seed, dir)
               : name == "agg_read" ? MakeAggRead(seed, dir)
                                    : MakeDurableMix(seed, dir);
  w.name = name;
  w.seed = seed;
  return w;
}

ClientStream::ClientStream(const Workload& workload, int client)
    : workload_(&workload),
      client_(client),
      rng_(workload.seed * 1000003ULL + static_cast<uint64_t>(client) + 1),
      next_key_(kClientKeyBase * (client + 1)) {}

Command ClientStream::Next() {
  if (workload_->durable) return NextDurable();
  const std::vector<Command>& pool = workload_->pool;
  return pool[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

Command ClientStream::NextDurable() {
  // A base-row variable owned by this client (rows are dealt round-robin to
  // the clients, so no two clients ever update the same variable).
  auto own_var = [this](const std::vector<int64_t>& vars) {
    int64_t n = static_cast<int64_t>(vars.size()) / kClients;
    int64_t i = kClients * rng_.UniformInt(0, n - 1) + client_;
    return vars[static_cast<size_t>(i)];
  };
  int64_t r = rng_.UniformInt(0, 99);
  Command c;
  if (r < 30 && (r < 15 || live_keys_.empty())) {
    int64_t key = next_key_++;
    int64_t v = rng_.Bernoulli(0.5) ? rng_.UniformInt(kJoinCutoff, kValueRange - 1)
                                    : rng_.UniformInt(0, kHotCutoff - 1);
    int64_t g = rng_.UniformInt(0, kGroups - 1);
    c.text = "insert items " + std::to_string(key) + " " + std::to_string(v) +
             " " + std::to_string(g) + " 0." +
             std::to_string(rng_.UniformInt(50, 99));
    c.write = true;
    c.ack = "inserted into items (";
    c.ack_suffix = " rows)\n";
    live_keys_.push_back(key);
  } else if (r < 30) {
    int64_t key = live_keys_.front();
    live_keys_.pop_front();
    c.text = "delete items " + std::to_string(key);
    c.write = true;
    c.ack = "deleted 1 rows from items\n";
  } else if (r < 50) {
    int64_t var = own_var(r < 40 ? workload_->view_vars : workload_->plain_vars);
    std::string p = "0." + std::to_string(rng_.UniformInt(10, 99));
    c.text = "setprob x" + std::to_string(var) + " " + p;
    c.write = true;
    std::ostringstream ack;
    // CSV loads name each row's variable "<table>#<row>".
    ack << std::setprecision(17) << "P[items#" << var << " = 1] = "
        << std::stod(p) << "\n";
    c.ack = ack.str();
  } else if (r < 67) {
    c.text = "view hot";
  } else if (r < 83) {
    c.text = "view hotjoin";
  } else {
    c.text = "SELECT * FROM items WHERE k = " +
             std::to_string(rng_.UniformInt(0, kItems - 1));
  }
  return c;
}

}  // namespace pvcbench
