// Tests for the sharded-database subsystem (src/engine/shard.h): routing
// and partitioning invariants, the row identity (a row's variable, kept
// strictly ascending), and the contract that every result -- distributed
// step I plans, coordinator fallbacks, and the scatter-gather step II
// passes -- is *bit-identical* to the unsharded engine for shards in
// {1, 2, 4, 8} x threads in {1, 4}.

#include <stdlib.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/coordinator.h"
#include "src/engine/csv.h"
#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/net/socket.h"
#include "src/query/ast.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "tests/standalone_worker.h"

namespace pvcdb {
namespace {

constexpr size_t kShardGrid[] = {1, 2, 4, 8};
constexpr int kThreadGrid[] = {1, 4};

void ExpectBitIdentical(const Distribution& a, const Distribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_EQ(a.entries()[i].second, b.entries()[i].second);
  }
}

// Loads the Figure 1 database as tuple-independent tables through the
// uniform load API, so the unsharded reference and the sharded database
// create identical variables in identical order. Routing keys are the
// first columns (sid / ps_sid / p_pid).
template <typename DB>
void LoadFigure1(DB* db, double p) {
  Schema s_schema({{"sid", CellType::kInt}, {"shop", CellType::kString}});
  db->AddTupleIndependentTable(
      "S", s_schema,
      {{Cell(int64_t{1}), Cell("M&S")},
       {Cell(int64_t{2}), Cell("M&S")},
       {Cell(int64_t{3}), Cell("M&S")},
       {Cell(int64_t{4}), Cell("Gap")},
       {Cell(int64_t{5}), Cell("Gap")}},
      {p, p, p, p, p});
  Schema ps_schema({{"ps_sid", CellType::kInt},
                    {"pid", CellType::kInt},
                    {"price", CellType::kInt}});
  std::vector<std::vector<Cell>> ps_rows;
  const int64_t entries[][3] = {{1, 1, 10}, {1, 2, 50}, {2, 1, 11},
                                {2, 2, 60}, {3, 3, 15}, {3, 4, 40},
                                {4, 1, 15}, {4, 3, 60}, {5, 1, 10}};
  for (const auto& e : entries) {
    ps_rows.push_back({Cell(e[0]), Cell(e[1]), Cell(e[2])});
  }
  db->AddTupleIndependentTable("PS", ps_schema, std::move(ps_rows),
                               std::vector<double>(9, p));
  Schema p_schema({{"p_pid", CellType::kInt}, {"weight", CellType::kInt}});
  db->AddTupleIndependentTable("P1", p_schema,
                               {{Cell(int64_t{1}), Cell(int64_t{4})},
                                {Cell(int64_t{2}), Cell(int64_t{8})},
                                {Cell(int64_t{3}), Cell(int64_t{7})},
                                {Cell(int64_t{4}), Cell(int64_t{6})}},
                               {p, p, p, p});
  db->AddTupleIndependentTable("P2", p_schema,
                               {{Cell(int64_t{1}), Cell(int64_t{5})}}, {p});
}

// Q1 and Q2 of Figure 1 (joins, union, projection, grouped aggregation --
// all operators that force the coordinator gather).
QueryPtr Figure1Q1() {
  QueryPtr products = Query::Union(Query::Scan("P1"), Query::Scan("P2"));
  QueryPtr joined = Query::Join(Query::Scan("S"), Query::Scan("PS"),
                                Predicate::ColEqCol("sid", "ps_sid"));
  joined = Query::Join(joined, products, Predicate::ColEqCol("pid", "p_pid"));
  return Query::Project(joined, {"shop", "price"});
}

QueryPtr Figure1Q2() {
  QueryPtr agg = Query::GroupAgg(Figure1Q1(), {"shop"},
                                 {{AggKind::kMax, "price", "P"}});
  QueryPtr filtered =
      Query::Select(agg, Predicate::ColCmpInt("P", CmpOp::kLe, 50));
  return Query::Project(filtered, {"shop"});
}

// A Select/Rename chain: the shard-distributable fragment.
QueryPtr Figure1Chain() {
  QueryPtr q = Query::Select(Query::Scan("PS"),
                             Predicate::ColCmpInt("price", CmpOp::kLe, 40));
  q = Query::Rename(q, "price", "price2");
  return Query::Select(q, Predicate::ColCmpInt("ps_sid", CmpOp::kGe, 2));
}

// The 1000-tuple stress table: integer primary key, a grouping column and
// a value column, random probabilities.
template <typename DB>
void LoadStressTable(DB* db) {
  Rng rng(12345);
  Schema schema({{"id", CellType::kInt},
                 {"g", CellType::kInt},
                 {"v", CellType::kInt}});
  std::vector<std::vector<Cell>> rows;
  std::vector<double> probs;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back({Cell(i), Cell(i % 37), Cell(rng.UniformInt(0, 20))});
    probs.push_back(rng.UniformDouble(0.05, 0.95));
  }
  db->AddTupleIndependentTable("T", schema, std::move(rows),
                               std::move(probs));
}

TEST(ShardRouterTest, FnvIsDeterministicAndInRange) {
  FnvShardRouter router;
  for (size_t shards : {1u, 2u, 5u, 8u}) {
    for (int64_t k = -50; k < 50; ++k) {
      size_t s = router.Route(Cell(k), shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, router.Route(Cell(k), shards));
    }
  }
  EXPECT_EQ(router.Route(Cell("abc"), 8), router.Route(Cell("abc"), 8));
  EXPECT_EQ(router.Route(Cell(1.5), 8), router.Route(Cell(1.5), 8));
}

TEST(ShardRouterTest, StableHashSeparatesTypesAndValues) {
  EXPECT_EQ(Cell(int64_t{7}).StableHash(), Cell(int64_t{7}).StableHash());
  EXPECT_NE(Cell(int64_t{7}).StableHash(), Cell(int64_t{8}).StableHash());
  EXPECT_NE(Cell(int64_t{7}).StableHash(), Cell("7").StableHash());
  EXPECT_NE(Cell("a").StableHash(), Cell("b").StableHash());
}

TEST(ShardRouterTest, ModuloRoutesByValueIncludingNegatives) {
  ModuloShardRouter router;
  EXPECT_EQ(router.Route(Cell(int64_t{7}), 4), 3u);
  EXPECT_EQ(router.Route(Cell(int64_t{-5}), 4), 3u);
  EXPECT_EQ(router.Route(Cell(int64_t{8}), 4), 0u);
}

TEST(ShardedDatabaseTest, PartitionsAreCompleteOrderPreservingAndRouted) {
  ShardedDatabase db(4, SemiringKind::kBool,
                     std::make_unique<ModuloShardRouter>());
  LoadStressTable(&db);
  ASSERT_EQ(db.NumRows("T"), 1000u);

  std::vector<size_t> counts = db.ShardRowCounts("T");
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 1000u);
  for (size_t s = 0; s < 4; ++s) {
    const PvcTable& part = db.shard(s).table("T");
    EXPECT_EQ(part.NumRows(), counts[s]);
    int64_t previous = -1;
    for (const Row& r : part.rows()) {
      int64_t id = r.cells[0].AsInt();
      // Modulo routing on the primary key, global order preserved.
      EXPECT_EQ(static_cast<size_t>(id % 4), s);
      EXPECT_GT(id, previous);
      previous = id;
    }
  }
}

TEST(ShardedDatabaseTest, VariablesAreGloballyScopedAndShared) {
  ShardedDatabase sharded(4);
  LoadFigure1(&sharded, 0.5);
  Database reference;
  LoadFigure1(&reference, 0.5);
  EXPECT_EQ(sharded.variables().size(), reference.variables().size());
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(&sharded.shard(s).variables(), &sharded.variables());
  }
  EXPECT_EQ(&sharded.coordinator().variables(), &sharded.variables());
}

TEST(ShardedDatabaseTest, PlanRoutingPicksTheDistributableFragment) {
  ShardedDatabase db(2);
  LoadFigure1(&db, 0.5);
  EXPECT_TRUE(db.Run(*Figure1Chain()).distributed());
  EXPECT_FALSE(db.Run(*Figure1Q1()).distributed());
  EXPECT_FALSE(db.Run(*Figure1Q2()).distributed());
  EXPECT_FALSE(db.RunDeterministic(*Figure1Chain()).distributed());
}

// The acceptance grid on the paper's running example: for every shard and
// thread count, the sharded engine reproduces the unsharded engine's
// result tables, exact probabilities, annotation distributions and
// approximation bounds bit for bit -- across coordinator plans (Q1, Q2)
// and distributed plans (the Select/Rename chain).
TEST(ShardedDatabaseTest, Figure1BitIdenticalAcrossShardAndThreadGrid) {
  Database reference;
  LoadFigure1(&reference, 0.3);
  std::vector<QueryPtr> queries = {Figure1Q1(), Figure1Q2(), Figure1Chain()};

  struct Expected {
    PvcTable table;
    std::vector<double> probabilities;
    std::vector<Distribution> distributions;
    std::vector<ProbabilityBounds> bounds;
  };
  ApproximateOptions approx;
  approx.node_budget = 64;
  std::vector<Expected> expected;
  for (const QueryPtr& q : queries) {
    Expected e;
    e.table = reference.Run(*q);
    e.probabilities = reference.TupleProbabilities(e.table);
    e.distributions = reference.AnnotationDistributions(e.table);
    e.bounds = reference.ApproximateTupleProbabilities(e.table, approx);
    expected.push_back(std::move(e));
  }

  for (size_t shards : kShardGrid) {
    for (int threads : kThreadGrid) {
      ShardedDatabase db(shards);
      LoadFigure1(&db, 0.3);
      db.eval_options().num_threads = threads;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                          << " threads=" << threads
                                          << " query=" << qi);
        const Expected& e = expected[qi];
        ShardedResult result = db.Run(*queries[qi]);
        ASSERT_EQ(result.NumRows(), e.table.NumRows());
        EXPECT_EQ(result.schema(), e.table.schema());
        for (size_t i = 0; i < result.NumRows(); ++i) {
          EXPECT_EQ(result.cells(i), e.table.row(i).cells) << "row " << i;
        }
        std::vector<double> probabilities = db.TupleProbabilities(result);
        ASSERT_EQ(probabilities.size(), e.probabilities.size());
        for (size_t i = 0; i < probabilities.size(); ++i) {
          EXPECT_EQ(probabilities[i], e.probabilities[i]) << "row " << i;
        }
        std::vector<Distribution> distributions =
            db.AnnotationDistributions(result);
        for (size_t i = 0; i < distributions.size(); ++i) {
          ExpectBitIdentical(distributions[i], e.distributions[i]);
        }
        std::vector<ProbabilityBounds> bounds =
            db.ApproximateTupleProbabilities(result, approx);
        ASSERT_EQ(bounds.size(), e.bounds.size());
        for (size_t i = 0; i < bounds.size(); ++i) {
          EXPECT_EQ(bounds[i].low, e.bounds[i].low) << "row " << i;
          EXPECT_EQ(bounds[i].high, e.bounds[i].high) << "row " << i;
        }
      }
    }
  }
}

// The same grid on the 1000-tuple stress table: base-table scatter-gather,
// a distributed selection, and a cross-shard grouped aggregate.
TEST(ShardedDatabaseTest, StressTableBitIdenticalAcrossShardAndThreadGrid) {
  Database reference;
  LoadStressTable(&reference);
  std::vector<double> expected_base =
      reference.TupleProbabilities(reference.table("T"));

  QueryPtr select = Query::Select(Query::Scan("T"),
                                  Predicate::ColCmpInt("v", CmpOp::kGe, 10));
  QueryPtr group = Query::GroupAgg(Query::Scan("T"), {"g"},
                                   {{AggKind::kCount, "", "n"}});
  PvcTable expected_select = reference.Run(*select);
  std::vector<double> expected_select_probs =
      reference.TupleProbabilities(expected_select);
  PvcTable expected_group = reference.Run(*group);
  ASSERT_EQ(expected_group.NumRows(), 37u);
  std::vector<double> expected_group_probs =
      reference.TupleProbabilities(expected_group);
  std::vector<Distribution> expected_group_dists =
      reference.AnnotationDistributions(expected_group);

  for (size_t shards : kShardGrid) {
    for (int threads : kThreadGrid) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                        << " threads=" << threads);
      ShardedDatabase db(shards);
      LoadStressTable(&db);
      db.eval_options().num_threads = threads;

      std::vector<double> base = db.TupleProbabilities("T");
      ASSERT_EQ(base.size(), expected_base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i], expected_base[i]) << "row " << i;
      }

      ShardedResult selected = db.Run(*select);
      EXPECT_TRUE(selected.distributed());
      ASSERT_EQ(selected.NumRows(), expected_select.NumRows());
      std::vector<double> select_probs = db.TupleProbabilities(selected);
      for (size_t i = 0; i < select_probs.size(); ++i) {
        EXPECT_EQ(selected.cells(i), expected_select.row(i).cells);
        EXPECT_EQ(select_probs[i], expected_select_probs[i]) << "row " << i;
      }

      ShardedResult grouped = db.Run(*group);
      EXPECT_FALSE(grouped.distributed());
      ASSERT_EQ(grouped.NumRows(), expected_group.NumRows());
      std::vector<double> group_probs = db.TupleProbabilities(grouped);
      std::vector<Distribution> group_dists =
          db.AnnotationDistributions(grouped);
      for (size_t i = 0; i < group_probs.size(); ++i) {
        EXPECT_EQ(grouped.cells(i), expected_group.row(i).cells);
        EXPECT_EQ(group_probs[i], expected_group_probs[i]) << "row " << i;
        ExpectBitIdentical(group_dists[i], expected_group_dists[i]);
      }
    }
  }
}

TEST(ShardedDatabaseTest, ConditionalAggregatesMatchTheUnshardedEngine) {
  Database reference;
  LoadFigure1(&reference, 0.4);
  QueryPtr q = Query::GroupAgg(Figure1Q1(), {"shop"},
                               {{AggKind::kMax, "price", "P"}});
  PvcTable expected = reference.Run(*q);

  ShardedDatabase db(4);
  LoadFigure1(&db, 0.4);
  db.eval_options().num_threads = 4;
  ShardedResult result = db.Run(*q);
  ASSERT_EQ(result.NumRows(), expected.NumRows());
  for (size_t i = 0; i < result.NumRows(); ++i) {
    Distribution a = db.ConditionalAggregateDistribution(result, i, "P");
    Distribution b =
        reference.ConditionalAggregateDistribution(expected, i, "P");
    ExpectBitIdentical(a, b);
  }
}

TEST(ShardedDatabaseTest, CsvLoadsShardTheSameRowsAsTheUnshardedLoad) {
  const char* csv =
      "kind:string,item:string,price:int,_prob\n"
      "tool,hammer,1299,0.9\n"
      "tool,wrench,899,0.7\n"
      "garden,shovel,2399,0.6\n";
  Database reference;
  {
    std::istringstream in(csv);
    CsvResult r = LoadCsvTable(&reference, "items", in);
    ASSERT_TRUE(r.ok) << r.error;
  }
  ShardedDatabase db(2);
  {
    std::istringstream in(csv);
    CsvResult r = LoadCsvTable(&db, "items", in);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.rows, 3u);
  }
  std::vector<double> expected =
      reference.TupleProbabilities(reference.table("items"));
  std::vector<double> actual = db.TupleProbabilities("items");
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
  std::vector<size_t> counts = db.ShardRowCounts("items");
  EXPECT_EQ(counts[0] + counts[1], 3u);
}

// Tables with a column named like the hidden row-id column earlier
// versions carried through distributed plans (which made chains over them,
// or renaming into that name, gather to the coordinator). Row identity is
// the annotation variable now, so any column name is an ordinary column.
template <typename DB>
void LoadRowIdNamedTables(DB* db) {
  Rng rng(777);
  Schema t_schema({{"id", CellType::kInt},
                   {"__pvcdb_rowid", CellType::kInt},
                   {"v", CellType::kInt}});
  Schema u_schema({{"id", CellType::kInt}, {"v", CellType::kInt}});
  std::vector<std::vector<Cell>> t_rows;
  std::vector<std::vector<Cell>> u_rows;
  std::vector<double> t_probs;
  std::vector<double> u_probs;
  for (int64_t i = 0; i < 200; ++i) {
    t_rows.push_back({Cell(i), Cell(199 - i), Cell(i % 7)});
    t_probs.push_back(rng.UniformDouble(0.05, 0.95));
    u_rows.push_back({Cell(i), Cell(i % 11)});
    u_probs.push_back(rng.UniformDouble(0.05, 0.95));
  }
  db->AddTupleIndependentTable("T", t_schema, std::move(t_rows),
                               std::move(t_probs));
  db->AddTupleIndependentTable("U", u_schema, std::move(u_rows),
                               std::move(u_probs));
}

std::vector<QueryPtr> RowIdNamedChains() {
  QueryPtr select = Query::Select(
      Query::Scan("T"), Predicate::ColCmpInt("__pvcdb_rowid", CmpOp::kGe, 60));
  QueryPtr renamed = Query::Select(
      Query::Rename(Query::Scan("T"), "__pvcdb_rowid", "rid"),
      Predicate::ColCmpInt("rid", CmpOp::kLt, 150));
  QueryPtr into = Query::Select(
      Query::Rename(Query::Scan("U"), "v", "__pvcdb_rowid"),
      Predicate::ColCmpInt("__pvcdb_rowid", CmpOp::kLe, 3));
  return {select, renamed, into};
}

TEST(ShardedDatabaseTest, ChainsOverAColumnNamedLikeTheOldRowIdRunDistributed) {
  Database reference;
  LoadRowIdNamedTables(&reference);
  for (size_t shards : kShardGrid) {
    ShardedDatabase db(shards);
    LoadRowIdNamedTables(&db);
    std::vector<QueryPtr> chains = RowIdNamedChains();
    for (size_t qi = 0; qi < chains.size(); ++qi) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                        << " query=" << qi);
      PvcTable expected = reference.Run(*chains[qi]);
      ASSERT_GT(expected.NumRows(), 0u);
      std::vector<double> expected_probs =
          reference.TupleProbabilities(expected);
      std::vector<Distribution> expected_dists =
          reference.AnnotationDistributions(expected);

      ShardedResult result = db.Run(*chains[qi]);
      EXPECT_TRUE(result.distributed());
      EXPECT_EQ(result.schema(), expected.schema());
      ASSERT_EQ(result.NumRows(), expected.NumRows());
      for (size_t i = 0; i < result.NumRows(); ++i) {
        EXPECT_EQ(result.cells(i), expected.row(i).cells) << "row " << i;
      }
      EXPECT_EQ(db.ResultToString(result),
                expected.ToString(&reference.pool()));
      EXPECT_EQ(db.TupleProbabilities(result), expected_probs);
      std::vector<Distribution> dists = db.AnnotationDistributions(result);
      ASSERT_EQ(dists.size(), expected_dists.size());
      for (size_t i = 0; i < dists.size(); ++i) {
        ExpectBitIdentical(dists[i], expected_dists[i]);
      }
    }
  }
}

// The served path: the same chains scatter to two worker processes and
// gather to the text and probabilities the in-process engine produces.
TEST(ShardedDatabaseTest, ServedChainsOverAColumnNamedLikeTheOldRowIdScatter) {
  char tmpl[] = "/tmp/pvcdb_shardtest_XXXXXX";
  char* made = mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  const std::vector<std::string> addrs = {dir + "/w0.sock", dir + "/w1.sock"};
  {
    StandaloneWorker worker0(addrs[0]);
    StandaloneWorker worker1(addrs[1]);
    ASSERT_GT(worker0.pid(), 0);
    ASSERT_GT(worker1.pid(), 0);
    std::vector<RemoteShard> workers;
    for (size_t s = 0; s < addrs.size(); ++s) {
      std::string error;
      Socket sock = ConnectWithRetry(addrs[s], 250, &error);
      ASSERT_TRUE(sock.valid()) << error;
      workers.emplace_back(static_cast<uint32_t>(s), std::move(sock), 0);
    }
    Coordinator coordinator(SemiringKind::kBool, std::move(workers), nullptr);
    LoadRowIdNamedTables(&coordinator);
    ShardedDatabase db(addrs.size());
    LoadRowIdNamedTables(&db);
    for (const QueryPtr& chain : RowIdNamedChains()) {
      ShardedResult expected = db.Run(*chain);
      QueryRun run = coordinator.Run(*chain);
      EXPECT_TRUE(run.distributed);
      EXPECT_TRUE(run.warnings.empty());
      EXPECT_EQ(run.text, db.ResultToString(expected));
      EXPECT_EQ(run.probabilities, db.TupleProbabilities(expected));
    }
    coordinator.Shutdown();
  }
  std::string cleanup = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
}

// A sharded row's variable is its identity, so every table keeps its rows
// strictly ascending by variable: loads and appends that would break the
// order are refused before anything changes.
TEST(ShardedDatabaseTest, NonIncreasingVariablesAreRefused) {
  for (size_t shards : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ShardedDatabase db(shards);
    for (int i = 0; i < 6; ++i) {
      VarId x = db.variables().AddBernoulli(0.5);
      db.coordinator().pool().Var(x);
    }
    Schema schema({{"k", CellType::kInt}, {"v", CellType::kInt}});
    auto rows = [](int64_t n) {
      std::vector<std::vector<Cell>> out;
      for (int64_t i = 0; i < n; ++i) out.push_back({Cell(i), Cell(i * 10)});
      return out;
    };
    EXPECT_THROW(db.AddVariableAnnotatedTable("T", schema, rows(3), {0, 2, 1}),
                 CheckError);
    EXPECT_THROW(db.AddVariableAnnotatedTable("T", schema, rows(2), {3, 3}),
                 CheckError);
    EXPECT_FALSE(db.HasTable("T"));

    db.AddVariableAnnotatedTable("T", schema, rows(2), {1, 3});
    EXPECT_THROW(db.AppendRowToTable("T", {Cell(int64_t{7}), Cell(int64_t{0})},
                                     2),
                 CheckError);
    EXPECT_THROW(db.AppendRowToTable("T", {Cell(int64_t{7}), Cell(int64_t{0})},
                                     3),
                 CheckError);
    EXPECT_EQ(db.NumRows("T"), 2u);
    size_t held = 0;
    for (size_t count : db.ShardRowCounts("T")) held += count;
    EXPECT_EQ(held, 2u);

    EXPECT_EQ(db.AppendRowToTable("T", {Cell(int64_t{7}), Cell(int64_t{0})},
                                  5),
              2u);
    EXPECT_EQ(db.TupleProbabilities("T"),
              (std::vector<double>{0.5, 0.5, 0.5}));
  }
}

TEST(ShardedDatabaseTest, DeterministicBaselineMatches) {
  Database reference;
  LoadFigure1(&reference, 0.5);
  PvcTable expected = reference.RunDeterministic(*Figure1Q1());

  ShardedDatabase db(4);
  LoadFigure1(&db, 0.5);
  ShardedResult result = db.RunDeterministic(*Figure1Q1());
  ASSERT_EQ(result.NumRows(), expected.NumRows());
  for (size_t i = 0; i < result.NumRows(); ++i) {
    EXPECT_EQ(result.cells(i), expected.row(i).cells);
  }
}

}  // namespace
}  // namespace pvcdb
