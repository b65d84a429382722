// Tests for the parallel evaluation subsystem: the ThreadPool/ParallelFor
// primitives, and the guarantee that every parallel path (batch d-tree
// compilation, approximation batches, and threaded query evaluation)
// produces results *bit-identical* to the serial path for num_threads in
// {2, 4, 8}.

#include <atomic>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dtree/approximate.h"
#include "src/dtree/compile.h"
#include "src/dtree/probability.h"
#include "src/engine/database.h"
#include "src/query/parser.h"
#include "src/tpch/tpch_gen.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/figure1_db.h"

namespace pvcdb {
namespace {

using testing_fixtures::BuildFigure1Database;
using testing_fixtures::BuildFigure1Q1;
using testing_fixtures::BuildFigure1Q2;

// Exact (bitwise) equality of two distributions: same support, and every
// probability compares equal as a double -- not just approximately.
void ExpectBitIdentical(const Distribution& a, const Distribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_EQ(a.entries()[i].second, b.entries()[i].second);
  }
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // The destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {0, 1, 2, 4, 8}) {
    std::vector<int> visits(1000, 0);
    ParallelFor(threads, visits.size(), [&](size_t i) { visits[i]++; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000)
        << "threads=" << threads;
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(ParallelFor(4, 100,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  std::vector<int> outer(16, 0);
  ParallelFor(4, outer.size(), [&](size_t i) {
    // Nested loops must not re-enter the shared pool; each runs inline on
    // the worker, so plain writes to `inner` need no synchronisation.
    std::vector<int> inner(50, 0);
    ParallelFor(4, inner.size(), [&](size_t j) { inner[j]++; });
    outer[i] = std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (int v : outer) EXPECT_EQ(v, 50);
}

TEST(ParallelForTest, ResolveThreadCountConvention) {
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_EQ(ResolveThreadCount(-1), DefaultThreadCount());
}

TEST(CloneIntoTest, PreservesTheDistribution) {
  Database db;
  BuildFigure1Database(&db, 0.5);
  PvcTable result = db.Run(*BuildFigure1Q2());
  ASSERT_GT(result.NumRows(), 0u);

  for (const Row& row : result.rows()) {
    ExprPool copy(db.pool().semiring().kind());
    ExprId cloned = db.pool().CloneInto(&copy, row.annotation);
    DTree original = CompileToDTree(&db.pool(), &db.variables(),
                                    row.annotation, db.compile_options());
    DTree clone_tree = CompileToDTree(&copy, &db.variables(), cloned,
                                      db.compile_options());
    Distribution a =
        ComputeDistribution(original, db.variables(), db.semiring());
    Distribution b =
        ComputeDistribution(clone_tree, db.variables(), db.semiring());
    // Clone ids differ, so child orderings (and hence float reduction
    // orders) may differ: semantically equal, not necessarily bitwise.
    EXPECT_TRUE(a.ApproxEquals(b, 1e-12))
        << a.ToString() << " vs " << b.ToString();
  }
}

// Serial vs. threaded CompileBatch + probability pass on the paper's
// running example (Figure 1, Q1 and Q2 annotations).
TEST(ParallelEvalTest, CompileBatchMatchesSerialOnFigure1) {
  Database db;
  BuildFigure1Database(&db, 0.3);
  PvcTable q1 = db.Run(*BuildFigure1Q1());
  PvcTable q2 = db.Run(*BuildFigure1Q2());

  std::vector<ExprId> annotations;
  for (const Row& r : q1.rows()) annotations.push_back(r.annotation);
  for (const Row& r : q2.rows()) annotations.push_back(r.annotation);
  ASSERT_GE(annotations.size(), 2u);

  std::vector<DTree> serial = CompileBatch(db.pool(), &db.variables(),
                                           annotations, db.compile_options(),
                                           /*num_threads=*/0);
  std::vector<Distribution> expected;
  for (const DTree& t : serial) {
    expected.push_back(ComputeDistribution(t, db.variables(), db.semiring()));
  }

  for (int threads : {2, 4, 8}) {
    std::vector<DTree> parallel =
        CompileBatch(db.pool(), &db.variables(), annotations,
                     db.compile_options(), threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].size(), serial[i].size());
      Distribution d =
          ComputeDistribution(parallel[i], db.variables(), db.semiring());
      ExpectBitIdentical(d, expected[i]);
    }
  }
}

// The parallel probability pass on a single large d-tree (the frontier
// priming) must agree bitwise with the serial bottom-up pass.
TEST(ParallelEvalTest, ApproximateBatchMatchesSerial) {
  Database db;
  BuildFigure1Database(&db, 0.4);
  PvcTable q1 = db.Run(*BuildFigure1Q1());
  std::vector<ExprId> annotations;
  for (const Row& r : q1.rows()) annotations.push_back(r.annotation);
  ASSERT_GE(annotations.size(), 2u);

  ApproximateOptions options;
  options.node_budget = 64;
  std::vector<ProbabilityBounds> serial =
      ApproximateBatch(db.pool(), db.variables(), annotations, options, 0);
  for (int threads : {2, 4, 8}) {
    std::vector<ProbabilityBounds> parallel = ApproximateBatch(
        db.pool(), db.variables(), annotations, options, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].low, serial[i].low);
      EXPECT_EQ(parallel[i].high, serial[i].high);
    }
  }
}

// Threaded step-I evaluation (parallel data-atom filtering and hash-join
// probing) must produce the same result table -- cells, row order, and
// bit-identical probabilities -- as a serial database. Separate Database
// instances evaluate the same query deterministically, so the comparison
// is exact.
TEST(ParallelEvalTest, ThreadedQueryEvaluationMatchesSerial) {
  Database serial_db;
  BuildFigure1Database(&serial_db, 0.35);
  PvcTable expected = serial_db.Run(*BuildFigure1Q2());
  std::vector<double> expected_probs =
      serial_db.TupleProbabilities(expected);

  for (int threads : {2, 4, 8}) {
    Database db;
    BuildFigure1Database(&db, 0.35);
    db.eval_options().num_threads = threads;
    PvcTable result = db.Run(*BuildFigure1Q2());
    ASSERT_EQ(result.NumRows(), expected.NumRows());
    for (size_t i = 0; i < result.NumRows(); ++i) {
      EXPECT_EQ(result.row(i).cells, expected.row(i).cells);
    }
    std::vector<double> probs = db.TupleProbabilities(result);
    ASSERT_EQ(probs.size(), expected_probs.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], expected_probs[i]) << "row " << i;
    }
  }
}

// Many-tuple stress: enough rows that the ParallelFor fan-out actually
// contends on the queue and the shared probability memo, with a grouped
// aggregate so each annotation compiles a non-trivial d-tree.
TEST(ParallelEvalTest, ManyTupleStressMatchesSerial) {
  constexpr int kGroups = 40;
  constexpr int kRowsPerGroup = 25;

  auto build = [&](Database* db) {
    Rng rng(7);
    Schema schema({{"g", CellType::kInt}, {"v", CellType::kInt}});
    std::vector<std::vector<Cell>> rows;
    std::vector<double> probs;
    for (int g = 0; g < kGroups; ++g) {
      for (int r = 0; r < kRowsPerGroup; ++r) {
        rows.push_back({Cell(static_cast<int64_t>(g)),
                        Cell(rng.UniformInt(0, 20))});
        probs.push_back(rng.UniformDouble(0.05, 0.95));
      }
    }
    db->AddTupleIndependentTable("T", schema, std::move(rows),
                                 std::move(probs));
  };

  QueryPtr query = Query::GroupAgg(Query::Scan("T"), {"g"},
                                   {{AggKind::kCount, "", "n"}});

  Database serial_db;
  build(&serial_db);
  PvcTable expected = serial_db.Run(*query);
  ASSERT_EQ(expected.NumRows(), static_cast<size_t>(kGroups));
  std::vector<double> expected_probs =
      serial_db.TupleProbabilities(expected);
  std::vector<Distribution> expected_dists =
      serial_db.AnnotationDistributions(expected);

  for (int threads : {2, 4, 8}) {
    Database db;
    build(&db);
    db.eval_options().num_threads = threads;
    PvcTable result = db.Run(*query);
    ASSERT_EQ(result.NumRows(), expected.NumRows());
    std::vector<double> probs = db.TupleProbabilities(result);
    std::vector<Distribution> dists = db.AnnotationDistributions(result);
    for (size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], expected_probs[i]) << "row " << i;
      ExpectBitIdentical(dists[i], expected_dists[i]);
    }
  }
}

// Threaded step I on TPC-H -- borrowed base tables, the hash join's
// pre-pairing filter (o_custkey = c decides orders rows alone), and a
// selection below GROUP BY ... HAVING -- must match a serial database in
// cells, row order, probabilities, conditional aggregate distributions and
// the number of pool nodes interned.
TEST(ParallelEvalTest, ThreadedTpchStepOneMatchesSerial) {
  auto build = [](Database* db) {
    TpchConfig config;
    config.scale_factor = 0.01;
    GenerateTpch(db, config);
  };
  Database serial_db;
  build(&serial_db);

  // The lowest-keyed customer with the most orders, at most five (the
  // conditional COUNT's joint grows ~2.5x per order).
  std::map<int64_t, int> orders_of;
  const PvcTable& orders = serial_db.table("orders");
  for (size_t i = 0; i < orders.NumRows(); ++i) {
    ++orders_of[orders.row(i).cells[1].AsInt()];
  }
  int64_t customer = -1;
  int most = 0;
  for (const auto& [cust, n] : orders_of) {
    if (n > most && n <= 5) {
      customer = cust;
      most = n;
    }
  }
  ASSERT_GE(most, 2) << "no customer with several orders";

  struct Case {
    std::string sql;
    std::string agg_column;
  };
  const std::vector<Case> cases = {
      {"SELECT o_custkey, COUNT(*) AS n FROM orders, lineitem "
       "WHERE o_orderkey = l_orderkey AND o_custkey = " +
           std::to_string(customer) + " GROUP BY o_custkey",
       "n"},
      {"SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem "
       "WHERE l_orderkey >= 10 AND l_orderkey < 15 GROUP BY l_orderkey "
       "HAVING q >= 60",
       "q"},
  };

  // Per case: the result, its probabilities and conditional aggregate
  // distributions, and the pool size after each step.
  struct Observed {
    PvcTable result;
    std::vector<double> probs;
    std::vector<Distribution> conditional;
    std::vector<size_t> pool_nodes;
  };
  auto observe = [&](Database* db) {
    std::vector<Observed> all;
    for (const Case& c : cases) {
      ParseResult parsed = ParseQuery(c.sql);
      EXPECT_TRUE(parsed.ok()) << parsed.error;
      Observed o;
      o.result = db->Run(*parsed.query);
      o.pool_nodes.push_back(db->pool().NumNodes());
      o.probs = db->TupleProbabilities(o.result);
      for (size_t i = 0; i < o.result.NumRows(); ++i) {
        o.conditional.push_back(
            db->ConditionalAggregateDistribution(o.result, i, c.agg_column));
      }
      o.pool_nodes.push_back(db->pool().NumNodes());
      all.push_back(std::move(o));
    }
    return all;
  };

  std::vector<Observed> expected = observe(&serial_db);
  ASSERT_EQ(expected[0].result.NumRows(), 1u);
  ASSERT_GT(expected[1].result.NumRows(), 0u);
  for (int threads : {2, 4, 8}) {
    Database db;
    build(&db);
    db.eval_options().num_threads = threads;
    std::vector<Observed> actual = observe(&db);
    for (size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(cases[c].sql + " with " + std::to_string(threads) +
                   " threads");
      const Observed& e = expected[c];
      const Observed& a = actual[c];
      ASSERT_EQ(a.result.NumRows(), e.result.NumRows());
      for (size_t i = 0; i < a.result.NumRows(); ++i) {
        EXPECT_EQ(a.result.row(i).cells, e.result.row(i).cells) << "row " << i;
        EXPECT_EQ(a.result.row(i).annotation, e.result.row(i).annotation)
            << "row " << i;
        EXPECT_EQ(a.probs[i], e.probs[i]) << "row " << i;
        ExpectBitIdentical(a.conditional[i], e.conditional[i]);
      }
      EXPECT_EQ(a.pool_nodes, e.pool_nodes);
    }
  }
}

// The batch API must agree with the long-standing single-row API up to
// floating-point tolerance (the batch path compiles in private pools whose
// ids -- and hence reduction orders -- may differ from the shared pool's).
TEST(ParallelEvalTest, BatchAgreesWithSingleRowApi) {
  Database db;
  BuildFigure1Database(&db, 0.5);
  PvcTable result = db.Run(*BuildFigure1Q2());
  std::vector<double> batch = db.TupleProbabilities(result);
  ASSERT_EQ(batch.size(), result.NumRows());
  for (size_t i = 0; i < result.NumRows(); ++i) {
    EXPECT_NEAR(batch[i], db.TupleProbability(result.row(i)), 1e-12);
  }
}

}  // namespace
}  // namespace pvcdb
