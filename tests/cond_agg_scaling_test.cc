// Tractability regression for conditional aggregate distributions
// P[alpha = v | Phi != 0] (src/dtree/joint.h) on the TPC-H shapes that
// used to blow up: a customer's orders joined with their lineitems under
// COUNT, and a wide MAX ... HAVING group. In both, alpha and the group
// annotation [Sum_i Phi_i != 0] share every variable.
//
// The assertions are on counts, never on wall time: the number of
// expression nodes one call interns into the pool must grow at most
// quadratically in the group size. Each result is also checked against a
// closed form, since the groups are far too wide for world enumeration.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/query/parser.h"
#include "src/util/rng.h"

namespace pvcdb {
namespace {

constexpr int kLineitemsPerOrder = 4;

PvcTable RunSql(Database* db, const std::string& sql) {
  ParseResult parsed = ParseQuery(sql);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return db->Run(*parsed.query);
}

// Nodes interned by one ConditionalAggregateDistribution call, and its
// result.
struct Measured {
  size_t interned = 0;
  Distribution distribution;
};

Measured MeasureConditional(Database* db, const PvcTable& result,
                            const std::string& column) {
  EXPECT_EQ(result.NumRows(), 1u);
  size_t before = db->pool().NumNodes();
  Measured m;
  m.distribution = db->ConditionalAggregateDistribution(result, 0, column);
  m.interned = db->pool().NumNodes() - before;
  return m;
}

void ExpectMatches(const Distribution& actual,
                   const std::vector<Distribution::Entry>& expected) {
  ASSERT_EQ(actual.size(), expected.size()) << actual.ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.entries()[i].first, expected[i].first);
    EXPECT_NEAR(actual.entries()[i].second, expected[i].second, 1e-12);
  }
}

// P[COUNT = v | COUNT > 0] for n independent orders, each present with
// probability p_o and carrying independent lineitems with probabilities
// p_l: a product of per-order count distributions.
std::vector<Distribution::Entry> ExpectedJoinCount(
    const std::vector<double>& order_p,
    const std::vector<std::vector<double>>& line_p) {
  std::vector<double> total = {1.0};
  for (size_t j = 0; j < order_p.size(); ++j) {
    std::vector<double> lines = {1.0};
    for (double p : line_p[j]) {
      std::vector<double> next(lines.size() + 1, 0.0);
      for (size_t k = 0; k < lines.size(); ++k) {
        next[k] += lines[k] * (1.0 - p);
        next[k + 1] += lines[k] * p;
      }
      lines = next;
    }
    std::vector<double> order(lines.size(), 0.0);
    for (size_t k = 0; k < lines.size(); ++k) order[k] = order_p[j] * lines[k];
    order[0] += 1.0 - order_p[j];
    std::vector<double> next(total.size() + order.size() - 1, 0.0);
    for (size_t a = 0; a < total.size(); ++a) {
      for (size_t b = 0; b < order.size(); ++b) {
        next[a + b] += total[a] * order[b];
      }
    }
    total = next;
  }
  std::vector<Distribution::Entry> out;
  for (size_t v = 1; v < total.size(); ++v) {
    out.push_back({static_cast<int64_t>(v), total[v] / (1.0 - total[0])});
  }
  return out;
}

// orders(o_orderkey, o_custkey): n orders of customer 1; lineitem
// (l_orderkey, l_quantity): four lineitems per order. Tuple probabilities
// in [0.5, 0.9), as in the benchmark's TPC-H data.
Measured CustomerJoin(int n) {
  Rng rng(1000 + n);
  Database db;
  std::vector<double> order_p(n);
  std::vector<std::vector<double>> line_p(n);
  PvcTable orders{
      Schema({{"o_orderkey", CellType::kInt}, {"o_custkey", CellType::kInt}})};
  PvcTable lineitem{Schema(
      {{"l_orderkey", CellType::kInt}, {"l_quantity", CellType::kInt}})};
  for (int j = 0; j < n; ++j) {
    order_p[j] = rng.UniformDouble(0.5, 0.9);
    orders.AddRow({Cell(int64_t{j}), Cell(int64_t{1})},
                  db.pool().Var(db.variables().AddBernoulli(order_p[j])));
    for (int k = 0; k < kLineitemsPerOrder; ++k) {
      line_p[j].push_back(rng.UniformDouble(0.5, 0.9));
      lineitem.AddRow(
          {Cell(int64_t{j}), Cell(rng.UniformInt(1, 50))},
          db.pool().Var(db.variables().AddBernoulli(line_p[j].back())));
    }
  }
  db.AddTable("orders", std::move(orders));
  db.AddTable("lineitem", std::move(lineitem));
  PvcTable result = RunSql(
      &db,
      "SELECT o_custkey, COUNT(*) AS n FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_custkey = 1 GROUP BY o_custkey");
  Measured m = MeasureConditional(&db, result, "n");
  ExpectMatches(m.distribution, ExpectedJoinCount(order_p, line_p));
  return m;
}

// lineitem(l_partkey, l_quantity): `rows` lineitems of part 1, grouped
// under MAX(l_quantity) ... HAVING m >= 45.
Measured MaxHaving(int rows) {
  Rng rng(2000 + rows);
  Database db;
  std::vector<int64_t> quantity(rows);
  std::vector<double> p(rows);
  PvcTable lineitem{Schema(
      {{"l_partkey", CellType::kInt}, {"l_quantity", CellType::kInt}})};
  for (int i = 0; i < rows; ++i) {
    quantity[i] = rng.UniformInt(1, 50);
    p[i] = rng.UniformDouble(0.5, 0.9);
    lineitem.AddRow({Cell(int64_t{1}), Cell(quantity[i])},
                    db.pool().Var(db.variables().AddBernoulli(p[i])));
  }
  db.AddTable("lineitem", std::move(lineitem));
  PvcTable result = RunSql(&db,
                           "SELECT l_partkey, MAX(l_quantity) AS m FROM "
                           "lineitem GROUP BY l_partkey HAVING m >= 45");
  Measured m = MeasureConditional(&db, result, "m");

  // P[MAX = v] = P[no row above v] - P[no row at or above v].
  auto none_from = [&](int64_t v) {
    double q = 1.0;
    for (int i = 0; i < rows; ++i) {
      if (quantity[i] >= v) q *= 1.0 - p[i];
    }
    return q;
  };
  std::vector<Distribution::Entry> expected;
  double mass = 0.0;
  for (int64_t v = 45; v <= 50; ++v) {
    double pv = none_from(v + 1) - none_from(v);
    if (pv <= 0.0) continue;
    expected.push_back({v, pv});
    mass += pv;
  }
  for (auto& e : expected) e.second /= mass;
  ExpectMatches(m.distribution, expected);
  return m;
}

TEST(CondAggScalingTest, CustomerJoinCountGrowsAtMostQuadratically) {
  const int kBase = 4;
  size_t base = CustomerJoin(kBase).interned;
  ASSERT_GT(base, 0u);
  for (int n = kBase + 1; n <= 16; ++n) {
    size_t interned = CustomerJoin(n).interned;
    // interned(n) <= interned(4) * (n / 4)^2.
    EXPECT_LE(interned * kBase * kBase, base * n * n)
        << n << " orders interned " << interned << " nodes; " << kBase
        << " orders interned " << base;
  }
}

TEST(CondAggScalingTest, MaxHavingGroupGrowsAtMostQuadratically) {
  const int kBase = 8;
  size_t base = MaxHaving(kBase).interned;
  ASSERT_GT(base, 0u);
  for (int rows : {12, 16, 20, 33}) {
    size_t interned = MaxHaving(rows).interned;
    EXPECT_LE(interned * kBase * kBase, base * rows * rows)
        << rows << " rows interned " << interned << " nodes; " << kBase
        << " rows interned " << base;
  }
}

}  // namespace
}  // namespace pvcdb
