// Tests for the IVM subsystem (src/engine/view.h, src/engine/delta.h):
// random interleavings of inserts, deletes and probability updates against
// registered materialized views, asserting after *every* mutation that the
// view's tuples and its cached TupleProbabilities output are bit-identical
// to a from-scratch rebuild + re-evaluation on the same final state --
// unsharded and for shards in {1, 2, 4, 8} x threads in {1, 4}.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/query/ast.h"
#include "src/util/check.h"

namespace pvcdb {
namespace {

constexpr size_t kShardGrid[] = {1, 2, 4, 8};
constexpr int kThreadGrid[] = {1, 4};

// Ground truth for rebuilds: the current logical content of every table,
// plus the full variable registry. The registry (the probability space X)
// is part of the database state: a from-scratch rebuild replays variable
// creation in the original order with the *current* marginals -- the ids
// and the relative interning order of variables feed the pool's canonical
// expression forms, so this is what makes the rebuild's floating-point
// pipeline reproduce the mutated engine bit for bit.
struct TableSpec {
  std::string name;
  Schema schema;
  std::vector<std::vector<Cell>> rows;
  std::vector<VarId> row_vars;  ///< The variable annotating each row.
};

struct DbSpec {
  std::vector<TableSpec> tables;
  /// Every variable ever created, in creation order, with its current
  /// marginal (variables of deleted rows stay registered, as in the live
  /// engine).
  std::vector<double> var_probs;

  TableSpec& table(const std::string& name) {
    for (TableSpec& t : tables) {
      if (t.name == name) return t;
    }
    PVC_FAIL("no spec table " << name);
  }

  VarId NewVar(double p) {
    var_probs.push_back(p);
    return static_cast<VarId>(var_probs.size() - 1);
  }
};

// Replays the registry and interns every variable's pool node in creation
// order (matching the live engine, where Var nodes are interned as the
// variables appear), then loads the tables.
template <typename DB>
void RebuildFromSpec(DB* db, ExprPool* pool, const DbSpec& spec) {
  for (size_t x = 0; x < spec.var_probs.size(); ++x) {
    db->variables().AddBernoulli(spec.var_probs[x]);
    pool->Var(static_cast<VarId>(x));
  }
  for (const TableSpec& t : spec.tables) {
    db->AddVariableAnnotatedTable(t.name, t.schema, t.rows, t.row_vars);
  }
}

std::unique_ptr<Database> FreshDatabase(const DbSpec& spec, int threads) {
  auto db = std::make_unique<Database>();
  db->eval_options().num_threads = threads;
  RebuildFromSpec(db.get(), &db->pool(), spec);
  return db;
}

std::unique_ptr<ShardedDatabase> FreshSharded(const DbSpec& spec,
                                              size_t shards, int threads) {
  auto db = std::make_unique<ShardedDatabase>(shards);
  db->eval_options().num_threads = threads;
  RebuildFromSpec(db.get(), &db->coordinator().pool(), spec);
  return db;
}

// The stress spec: one driving table T plus join sides L and R.
DbSpec MakeSpec(std::mt19937* gen, size_t t_rows, size_t l_rows,
                size_t r_rows) {
  std::uniform_int_distribution<int64_t> group(0, 4);
  std::uniform_int_distribution<int64_t> value(0, 99);
  std::uniform_real_distribution<double> prob(0.05, 0.95);
  DbSpec spec;
  TableSpec t;
  t.name = "T";
  t.schema = Schema({{"id", CellType::kInt},
                     {"g", CellType::kInt},
                     {"v", CellType::kInt}});
  for (size_t i = 0; i < t_rows; ++i) {
    t.rows.push_back({Cell(static_cast<int64_t>(i)), Cell(group(*gen)),
                      Cell(value(*gen))});
    t.row_vars.push_back(spec.NewVar(prob(*gen)));
  }
  spec.tables.push_back(std::move(t));

  TableSpec l;
  l.name = "L";
  l.schema = Schema({{"lk", CellType::kInt}, {"lv", CellType::kInt}});
  for (size_t i = 0; i < l_rows; ++i) {
    l.rows.push_back({Cell(group(*gen)), Cell(value(*gen))});
    l.row_vars.push_back(spec.NewVar(prob(*gen)));
  }
  spec.tables.push_back(std::move(l));

  TableSpec r;
  r.name = "R";
  r.schema = Schema({{"rk", CellType::kInt}, {"rv", CellType::kInt}});
  for (size_t i = 0; i < r_rows; ++i) {
    r.rows.push_back({Cell(group(*gen)), Cell(value(*gen))});
    r.row_vars.push_back(spec.NewVar(prob(*gen)));
  }
  spec.tables.push_back(std::move(r));
  return spec;
}

QueryPtr ChainQuery() {
  return Query::Select(Query::Scan("T"),
                       Predicate::ColCmpInt("v", CmpOp::kGe, 30));
}

QueryPtr ChainRenameQuery() {
  QueryPtr q = Query::Select(Query::Scan("T"),
                             Predicate::ColCmpInt("v", CmpOp::kGe, 10));
  q = Query::Rename(q, "g", "g2");
  return Query::Select(q, Predicate::ColCmpInt("g2", CmpOp::kLe, 3));
}

QueryPtr ProjectQuery() {
  return Query::Project(
      Query::Select(Query::Scan("T"),
                    Predicate::ColCmpInt("v", CmpOp::kGe, 20)),
      {"g"});
}

QueryPtr JoinQuery() {
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kLe, Operand::Col("lv"), Operand::Col("rv")});
  return Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                       pred);
}

QueryPtr GroupQuery() {
  return Query::GroupAgg(Query::Scan("T"), {"g"},
                         {{AggKind::kCount, "", "n"}});
}

// One random mutation, applied to the live database and the spec alike.
// Returns a description for failure messages.
template <typename DB>
std::string MutateOnce(DB* db, DbSpec* spec, std::mt19937* gen,
                       int64_t* next_id) {
  std::uniform_int_distribution<int> op(0, 5);
  std::uniform_int_distribution<int64_t> group(0, 4);
  std::uniform_int_distribution<int64_t> value(0, 99);
  std::uniform_real_distribution<double> prob(0.05, 0.95);
  std::uniform_int_distribution<int> table_pick(0, 2);

  int o = op(*gen);
  if (o <= 2) {
    // Insert into a random table.
    TableSpec& t = spec->tables[table_pick(*gen)];
    std::vector<Cell> cells;
    if (t.name == "T") {
      cells = {Cell((*next_id)++), Cell(group(*gen)), Cell(value(*gen))};
    } else {
      cells = {Cell(group(*gen)), Cell(value(*gen))};
    }
    double p = prob(*gen);
    db->InsertTuple(t.name, cells, p);
    t.rows.push_back(cells);
    t.row_vars.push_back(spec->NewVar(p));
    return "insert into " + t.name;
  }
  if (o <= 4) {
    // Delete a random row of a random non-empty table. The row's variable
    // stays registered, exactly as in the live engine.
    for (int attempt = 0; attempt < 3; ++attempt) {
      TableSpec& t = spec->tables[table_pick(*gen)];
      if (t.rows.empty()) continue;
      std::uniform_int_distribution<size_t> pick(0, t.rows.size() - 1);
      size_t index = pick(*gen);
      db->DeleteRowAt(t.name, index);
      t.rows.erase(t.rows.begin() + index);
      t.row_vars.erase(t.row_vars.begin() + index);
      return "delete " + t.name + "[" + std::to_string(index) + "]";
    }
    return "delete (skipped: empty)";
  }
  // Probability update of a random row's variable; occasionally to the
  // support-changing boundaries 0 and 1.
  for (int attempt = 0; attempt < 3; ++attempt) {
    TableSpec& t = spec->tables[table_pick(*gen)];
    if (t.rows.empty()) continue;
    std::uniform_int_distribution<size_t> pick(0, t.rows.size() - 1);
    size_t index = pick(*gen);
    std::uniform_int_distribution<int> boundary(0, 9);
    int b = boundary(*gen);
    double p = b == 0 ? 0.0 : (b == 1 ? 1.0 : prob(*gen));
    VarId var = t.row_vars[index];
    db->UpdateProbability(var, p);
    spec->var_probs[var] = p;
    return "setprob " + t.name + "[" + std::to_string(index) + "] = " +
           std::to_string(p);
  }
  return "setprob (skipped: empty)";
}

// Data cells compare directly; aggregation cells hold pool-local ExprIds,
// which are meaningless across two databases -- their distributions are
// compared separately by the callers.
void ExpectSameCells(const std::vector<Cell>& a, const std::vector<Cell>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].type() == CellType::kAggExpr ||
        b[c].type() == CellType::kAggExpr) {
      EXPECT_EQ(a[c].type(), b[c].type()) << what << " cell " << c;
      continue;
    }
    EXPECT_TRUE(a[c] == b[c]) << what << " cell " << c;
  }
}

void ExpectSameDistribution(const Distribution& a, const Distribution& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first) << what;
    EXPECT_EQ(a.entries()[i].second, b.entries()[i].second) << what;
  }
}

// The view's cached tuples and probabilities must be bit-identical to a
// fresh evaluation of `query` on `fresh` (a from-scratch rebuild of the
// same logical state).
void ExpectViewMatchesFresh(Database* ivm, const std::string& name,
                            Database* fresh, const Query& query,
                            const std::string& what) {
  const PvcTable& view = ivm->ViewTable(name);
  PvcTable expected = fresh->Run(query);
  ASSERT_EQ(view.NumRows(), expected.NumRows()) << what;
  ASSERT_TRUE(view.schema() == expected.schema()) << what;
  for (size_t i = 0; i < view.NumRows(); ++i) {
    ExpectSameCells(view.row(i).cells, expected.row(i).cells,
                    what + " row " + std::to_string(i));
  }
  std::vector<double> view_probs = ivm->ViewProbabilities(name);
  std::vector<double> expected_probs = fresh->TupleProbabilities(expected);
  ASSERT_EQ(view_probs.size(), expected_probs.size()) << what;
  for (size_t i = 0; i < view_probs.size(); ++i) {
    EXPECT_EQ(view_probs[i], expected_probs[i])
        << what << " P[row " << i << "]";
  }
  // Aggregation columns: the expressions live in different pools, so
  // compare their (conditional) distributions instead.
  for (size_t c = 0; c < expected.schema().NumColumns(); ++c) {
    if (expected.schema().column(c).type != CellType::kAggExpr) continue;
    const std::string& column = expected.schema().column(c).name;
    for (size_t i = 0; i < expected.NumRows(); ++i) {
      ExpectSameDistribution(
          ivm->ConditionalAggregateDistribution(view, i, column),
          fresh->ConditionalAggregateDistribution(expected, i, column),
          what + " " + column + " | present, row " + std::to_string(i));
    }
  }
}

void ExpectShardedViewMatchesFresh(ShardedDatabase* ivm,
                                   const std::string& name,
                                   ShardedDatabase* fresh, const Query& query,
                                   const std::string& what) {
  ShardedResult view = ivm->ViewResult(name);
  ShardedResult expected = fresh->Run(query);
  ASSERT_EQ(view.NumRows(), expected.NumRows()) << what;
  ASSERT_TRUE(view.schema() == expected.schema()) << what;
  for (size_t i = 0; i < view.NumRows(); ++i) {
    ExpectSameCells(view.cells(i), expected.cells(i),
                    what + " row " + std::to_string(i));
  }
  std::vector<double> view_probs = ivm->ViewProbabilities(name);
  std::vector<double> expected_probs = fresh->TupleProbabilities(expected);
  ASSERT_EQ(view_probs.size(), expected_probs.size()) << what;
  for (size_t i = 0; i < view_probs.size(); ++i) {
    EXPECT_EQ(view_probs[i], expected_probs[i])
        << what << " P[row " << i << "]";
  }
  for (size_t c = 0; c < expected.schema().NumColumns(); ++c) {
    if (expected.schema().column(c).type != CellType::kAggExpr) continue;
    const std::string& column = expected.schema().column(c).name;
    for (size_t i = 0; i < expected.NumRows(); ++i) {
      ExpectSameDistribution(
          ivm->ConditionalAggregateDistribution(view, i, column),
          fresh->ConditionalAggregateDistribution(expected, i, column),
          what + " " + column + " | present, row " + std::to_string(i));
    }
  }
}

// -- Unsharded property tests ----------------------------------------------

struct NamedQuery {
  const char* name;
  QueryPtr query;
  MaterializedView::PlanKind plan;
};

std::vector<NamedQuery> AllViews() {
  return {
      {"v_chain", ChainQuery(), MaterializedView::PlanKind::kChain},
      {"v_rename", ChainRenameQuery(), MaterializedView::PlanKind::kChain},
      {"v_project", ProjectQuery(),
       MaterializedView::PlanKind::kProjectChain},
      {"v_join", JoinQuery(), MaterializedView::PlanKind::kJoin},
      {"v_group", GroupQuery(), MaterializedView::PlanKind::kRecompute},
  };
}

void RunUnshardedProperty(int threads, uint32_t seed, int steps) {
  std::mt19937 gen(seed);
  DbSpec spec = MakeSpec(&gen, 14, 12, 10);
  std::unique_ptr<Database> ivm = FreshDatabase(spec, threads);
  std::vector<NamedQuery> views = AllViews();
  for (const NamedQuery& v : views) {
    ivm->RegisterView(v.name, v.query);
    EXPECT_EQ(ivm->views().view(v.name).plan(), v.plan) << v.name;
  }
  int64_t next_id = static_cast<int64_t>(spec.table("T").rows.size());
  for (int step = 0; step < steps; ++step) {
    std::string op = MutateOnce(ivm.get(), &spec, &gen, &next_id);
    std::unique_ptr<Database> fresh = FreshDatabase(spec, threads);
    for (const NamedQuery& v : views) {
      ExpectViewMatchesFresh(ivm.get(), v.name, fresh.get(), *v.query,
                             std::string(v.name) + " after step " +
                                 std::to_string(step) + " (" + op + ")");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IvmPropertyTest, RandomMutationsSerial) {
  RunUnshardedProperty(/*threads=*/1, /*seed=*/1234, /*steps=*/40);
}

TEST(IvmPropertyTest, RandomMutationsThreaded) {
  RunUnshardedProperty(/*threads=*/4, /*seed=*/5678, /*steps=*/40);
}

// The maintained view must also match a recompute *within the same pool*
// (the engine's own Run on the mutated database).
TEST(IvmPropertyTest, ViewMatchesOwnRecompute) {
  std::mt19937 gen(42);
  DbSpec spec = MakeSpec(&gen, 14, 12, 10);
  std::unique_ptr<Database> ivm = FreshDatabase(spec, 1);
  QueryPtr join = JoinQuery();
  QueryPtr project = ProjectQuery();
  ivm->RegisterView("v_join", join);
  ivm->RegisterView("v_project", project);
  int64_t next_id = 14;
  for (int step = 0; step < 25; ++step) {
    MutateOnce(ivm.get(), &spec, &gen, &next_id);
    for (const auto& [name, query] :
         {std::pair<std::string, QueryPtr>{"v_join", join},
          {"v_project", project}}) {
      const PvcTable& view = ivm->ViewTable(name);
      PvcTable recomputed = ivm->Run(*query);
      ASSERT_EQ(view.NumRows(), recomputed.NumRows()) << name;
      for (size_t i = 0; i < view.NumRows(); ++i) {
        // Same pool: hash-consing makes equal annotations equal ids.
        EXPECT_EQ(view.row(i).annotation, recomputed.row(i).annotation)
            << name << " row " << i;
        ExpectSameCells(view.row(i).cells, recomputed.row(i).cells,
                        name + " row " + std::to_string(i));
      }
    }
  }
}

// -- Sharded grid ----------------------------------------------------------

TEST(IvmShardedTest, GridMatchesFreshRebuildAndUnsharded) {
  for (size_t shards : kShardGrid) {
    for (int threads : kThreadGrid) {
      std::mt19937 gen(900 + static_cast<uint32_t>(shards) * 10 +
                       static_cast<uint32_t>(threads));
      DbSpec spec = MakeSpec(&gen, 14, 12, 10);
      std::unique_ptr<ShardedDatabase> ivm =
          FreshSharded(spec, shards, threads);
      QueryPtr chain = ChainQuery();
      QueryPtr rename = ChainRenameQuery();
      QueryPtr group = GroupQuery();
      ivm->RegisterView("v_chain", chain);
      ivm->RegisterView("v_rename", rename);
      ivm->RegisterView("v_group", group);  // Coordinator fallback.
      int64_t next_id = 14;
      for (int step = 0; step < 12; ++step) {
        std::string op = MutateOnce(ivm.get(), &spec, &gen, &next_id);
        std::string what = "shards=" + std::to_string(shards) +
                           " threads=" + std::to_string(threads) +
                           " step " + std::to_string(step) + " (" + op + ")";
        std::unique_ptr<ShardedDatabase> fresh =
            FreshSharded(spec, shards, threads);
        std::unique_ptr<Database> unsharded = FreshDatabase(spec, 1);
        for (const auto& [name, query] :
             {std::pair<const char*, QueryPtr>{"v_chain", chain},
              {"v_rename", rename},
              {"v_group", group}}) {
          ExpectShardedViewMatchesFresh(ivm.get(), name, fresh.get(), *query,
                                        what + " " + name);
          if (::testing::Test::HasFatalFailure()) return;
          // Cross-check against the unsharded engine (the PR 3 contract).
          std::vector<double> sharded_probs = ivm->ViewProbabilities(name);
          std::vector<double> unsharded_probs =
              unsharded->TupleProbabilities(unsharded->Run(*query));
          ASSERT_EQ(sharded_probs.size(), unsharded_probs.size())
              << what << " " << name;
          for (size_t i = 0; i < sharded_probs.size(); ++i) {
            EXPECT_EQ(sharded_probs[i], unsharded_probs[i])
                << what << " " << name << " P[row " << i << "]";
          }
        }
      }
    }
  }
}

// -- Targeted cache behaviour ----------------------------------------------

TEST(IvmCacheTest, InsertOnlyCompilesTheNewTuple) {
  std::mt19937 gen(7);
  DbSpec spec = MakeSpec(&gen, 20, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<Database> db = FreshDatabase(spec, 1);
  db->RegisterView("v", ChainQuery());
  db->ViewProbabilities("v");  // Warm.
  const StepTwoCache::Stats& stats = db->views().view("v").step_two().stats();
  size_t warm_misses = stats.misses;
  // A surviving insert adds exactly one annotation to compile.
  db->InsertTuple("T", {Cell(int64_t{100}), Cell(int64_t{0}),
                        Cell(int64_t{90})},
                  0.5);
  std::vector<double> probs = db->ViewProbabilities("v");
  EXPECT_EQ(stats.misses, warm_misses + 1);
  EXPECT_EQ(probs.size(), db->ViewTable("v").NumRows());
}

TEST(IvmCacheTest, ProbabilityUpdateRefreshesOnlyMentioningTuples) {
  std::mt19937 gen(8);
  DbSpec spec = MakeSpec(&gen, 20, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<Database> db = FreshDatabase(spec, 1);
  db->RegisterView("v", ChainQuery());
  size_t view_rows = db->ViewTable("v").NumRows();
  ASSERT_GT(view_rows, 0u);
  db->ViewProbabilities("v");  // Warm.
  const StepTwoCache::Stats& stats = db->views().view("v").step_two().stats();
  size_t warm_misses = stats.misses;

  // Update a variable that occurs in the view: exactly one cached d-tree
  // mentions it (chain annotations are single variables). Find a base row
  // surviving the v >= 30 filter.
  size_t base_row = 0;
  const PvcTable& base = db->table("T");
  bool found = false;
  for (size_t i = 0; i < base.NumRows() && !found; ++i) {
    if (base.row(i).cells[2].AsInt() >= 30) {
      base_row = i;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  VarId var = spec.table("T").row_vars[base_row];
  db->UpdateProbability(var, 0.42);
  EXPECT_EQ(stats.refreshed, 1u);

  // No recompilation on the next pass -- refreshed in place.
  std::vector<double> probs = db->ViewProbabilities("v");
  EXPECT_EQ(stats.misses, warm_misses);

  // And the refreshed value matches a fresh rebuild bit for bit.
  DbSpec updated = spec;
  updated.var_probs[var] = 0.42;
  std::unique_ptr<Database> fresh = FreshDatabase(updated, 1);
  std::vector<double> expected =
      fresh->TupleProbabilities(fresh->Run(*ChainQuery()));
  ASSERT_EQ(probs.size(), expected.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], expected[i]) << "P[row " << i << "]";
  }
}

TEST(IvmCacheTest, SupportChangeDropsAndRecompiles) {
  std::mt19937 gen(9);
  DbSpec spec = MakeSpec(&gen, 10, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<Database> db = FreshDatabase(spec, 1);
  db->RegisterView("v", ChainQuery());
  db->ViewProbabilities("v");
  const StepTwoCache::Stats& stats = db->views().view("v").step_two().stats();

  const PvcTable& base = db->table("T");
  size_t base_row = 0;
  bool found = false;
  for (size_t i = 0; i < base.NumRows() && !found; ++i) {
    if (base.row(i).cells[2].AsInt() >= 30) {
      base_row = i;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  VarId var = spec.table("T").row_vars[base_row];
  db->UpdateProbability(var, 1.0);  // Support {0,1} -> {1}: entry dropped.
  EXPECT_EQ(stats.dropped, 1u);
  std::vector<double> probs = db->ViewProbabilities("v");

  DbSpec updated = spec;
  updated.var_probs[var] = 1.0;
  std::unique_ptr<Database> fresh = FreshDatabase(updated, 1);
  std::vector<double> expected =
      fresh->TupleProbabilities(fresh->Run(*ChainQuery()));
  ASSERT_EQ(probs.size(), expected.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], expected[i]) << "P[row " << i << "]";
  }
}

// The two join sides' key columns sit at different schema positions
// (left key at index 1, right key at index 0): probes must extract key
// cells with the probing side's own indices.
TEST(IvmPropertyTest, JoinViewWithAsymmetricKeyPositions) {
  std::mt19937 gen(77);
  std::uniform_int_distribution<int64_t> key(0, 3);
  std::uniform_int_distribution<int64_t> value(0, 99);
  std::uniform_real_distribution<double> prob(0.1, 0.9);

  Database db;
  Schema l_schema({{"lv", CellType::kInt}, {"lk", CellType::kInt}});
  Schema r_schema({{"rk", CellType::kInt}, {"rv", CellType::kInt}});
  std::vector<std::vector<Cell>> l_rows, r_rows;
  std::vector<double> l_probs, r_probs;
  for (int i = 0; i < 8; ++i) {
    l_rows.push_back({Cell(value(gen)), Cell(key(gen))});
    l_probs.push_back(prob(gen));
    r_rows.push_back({Cell(key(gen)), Cell(value(gen))});
    r_probs.push_back(prob(gen));
  }
  db.AddTupleIndependentTable("L", l_schema, l_rows, l_probs);
  db.AddTupleIndependentTable("R", r_schema, r_rows, r_probs);

  QueryPtr query = Query::Select(
      Query::Product(Query::Scan("L"), Query::Scan("R")),
      Predicate::ColEqCol("lk", "rk"));
  db.RegisterView("v", query);
  ASSERT_EQ(db.views().view("v").plan(), MaterializedView::PlanKind::kJoin);

  auto check = [&](const std::string& what) {
    const PvcTable& view = db.ViewTable("v");
    PvcTable expected = db.Run(*query);
    ASSERT_EQ(view.NumRows(), expected.NumRows()) << what;
    for (size_t i = 0; i < view.NumRows(); ++i) {
      EXPECT_EQ(view.row(i).annotation, expected.row(i).annotation)
          << what << " row " << i;
      ExpectSameCells(view.row(i).cells, expected.row(i).cells,
                      what + " row " + std::to_string(i));
    }
  };
  check("after registration");
  db.InsertTuple("L", {Cell(value(gen)), Cell(key(gen))}, 0.5);
  check("after left insert");
  db.InsertTuple("R", {Cell(key(gen)), Cell(value(gen))}, 0.5);
  check("after right insert");
  db.DeleteRowAt("L", 2);
  check("after left delete");
  db.DeleteRowAt("R", 5);
  check("after right delete");
}

// Insert/delete churn must not grow the step II cache without bound:
// dead entries (annotations of removed rows) are evicted once they
// dominate, keeping the cache O(live rows).
TEST(IvmCacheTest, ChurnPrunesDeadEntries) {
  std::mt19937 gen(21);
  DbSpec spec = MakeSpec(&gen, 10, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<Database> db = FreshDatabase(spec, 1);
  db->RegisterView("v", Query::Scan("T"));
  for (int cycle = 0; cycle < 100; ++cycle) {
    db->InsertTuple("T", {Cell(int64_t{1000 + cycle}), Cell(int64_t{0}),
                          Cell(int64_t{50})},
                    0.5);
    db->ViewProbabilities("v");
    db->DeleteRowAt("T", db->table("T").NumRows() - 1);
  }
  size_t live = db->ViewProbabilities("v").size();
  const StepTwoCache& cache = db->views().view("v").step_two();
  EXPECT_LE(cache.size(), 2 * live + 17);
  EXPECT_GT(cache.stats().pruned, 0u);
}

// EvalOptions::step_two_cache_capacity bounds the cache by LRU eviction;
// answers stay bit-identical to an unbounded cache (evicted rows are
// simply recompiled on the next access).
TEST(IvmCacheTest, LruCapacityBoundsCacheAndPreservesResults) {
  std::mt19937 gen(33);
  DbSpec spec = MakeSpec(&gen, 12, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<Database> bounded = FreshDatabase(spec, 1);
  std::unique_ptr<Database> unbounded = FreshDatabase(spec, 1);
  bounded->eval_options().step_two_cache_capacity = 4;
  bounded->RegisterView("v", Query::Scan("T"));
  unbounded->RegisterView("v", Query::Scan("T"));

  for (int round = 0; round < 3; ++round) {
    std::vector<double> lhs = bounded->ViewProbabilities("v");
    std::vector<double> rhs = unbounded->ViewProbabilities("v");
    EXPECT_EQ(lhs, rhs);
    const StepTwoCache& cache = bounded->views().view("v").step_two();
    EXPECT_LE(cache.size(), 4u);
  }
  const StepTwoCache& cache = bounded->views().view("v").step_two();
  EXPECT_GT(cache.stats().evicted, 0u);
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
  EXPECT_EQ(unbounded->views().view("v").step_two().stats().evicted, 0u);

  // Default capacity (0) stays unbounded.
  EXPECT_EQ(unbounded->views().view("v").step_two().size(),
            unbounded->table("T").NumRows());
}

// -- API behaviour ---------------------------------------------------------

TEST(IvmApiTest, DeleteTupleByKeyRemovesAllMatches) {
  Database db;
  Schema schema({{"k", CellType::kInt}, {"v", CellType::kInt}});
  db.AddTupleIndependentTable(
      "T", schema,
      {{Cell(int64_t{1}), Cell(int64_t{10})},
       {Cell(int64_t{2}), Cell(int64_t{20})},
       {Cell(int64_t{1}), Cell(int64_t{30})}},
      {0.5, 0.6, 0.7});
  db.RegisterView("v", Query::Scan("T"));
  EXPECT_EQ(db.DeleteTuple("T", Cell(int64_t{1})), 2u);
  EXPECT_EQ(db.table("T").NumRows(), 1u);
  EXPECT_EQ(db.ViewTable("v").NumRows(), 1u);
  EXPECT_EQ(db.ViewTable("v").row(0).cells[1].AsInt(), 20);
  EXPECT_EQ(db.DeleteTuple("T", Cell(int64_t{9})), 0u);
}

TEST(IvmApiTest, FailedReRegistrationPreservesTheExistingView) {
  Database db;
  Schema schema({{"k", CellType::kInt}});
  db.AddTupleIndependentTable("T", schema, {{Cell(int64_t{1})}}, {0.5});
  db.RegisterView("v", Query::Scan("T"));
  EXPECT_THROW(db.RegisterView("v", Query::Scan("missing")), CheckError);
  ASSERT_TRUE(db.HasView("v"));
  EXPECT_EQ(db.ViewTable("v").NumRows(), 1u);

  ShardedDatabase sharded(2);
  sharded.AddTupleIndependentTable("T", schema, {{Cell(int64_t{1})}}, {0.5});
  sharded.RegisterView("v", Query::Scan("T"));
  EXPECT_THROW(sharded.RegisterView("v", Query::Scan("missing")), CheckError);
  ASSERT_TRUE(sharded.HasView("v"));
  EXPECT_EQ(sharded.ViewResult("v").NumRows(), 1u);
}

TEST(IvmApiTest, TableReplacementInvalidatesViews) {
  Database db;
  Schema schema({{"k", CellType::kInt}});
  db.AddTupleIndependentTable("T", schema, {{Cell(int64_t{1})}}, {0.5});
  db.RegisterView("v", Query::Scan("T"));
  EXPECT_EQ(db.ViewTable("v").NumRows(), 1u);
  db.AddTupleIndependentTable(
      "T", schema, {{Cell(int64_t{1})}, {Cell(int64_t{2})}}, {0.5, 0.5});
  EXPECT_TRUE(db.views().view("v").stale());
  EXPECT_EQ(db.ViewTable("v").NumRows(), 2u);
}

TEST(IvmApiTest, ShardedInsertKeepsPlacementAndDistributedPlans) {
  std::mt19937 gen(11);
  DbSpec spec = MakeSpec(&gen, 12, 0, 0);
  spec.tables.resize(1);
  std::unique_ptr<ShardedDatabase> db = FreshSharded(spec, 4, 1);
  // The distributed chain sees the inserted row on its owning shard.
  QueryPtr chain = ChainQuery();
  ShardedResult before = db->Run(*chain);
  db->InsertTuple("T", {Cell(int64_t{200}), Cell(int64_t{1}),
                        Cell(int64_t{95})},
                  0.5);
  ShardedResult after = db->Run(*chain);
  EXPECT_EQ(after.NumRows(), before.NumRows() + 1);
  size_t total = 0;
  for (size_t count : db->ShardRowCounts("T")) total += count;
  EXPECT_EQ(total, db->NumRows("T"));
}

#ifndef NDEBUG
TEST(IvmGuardTest, MutationDuringEvaluationThrowsInDebug) {
  VariableTable table;
  table.AddBernoulli(0.5);
  VariableTable::EvalScope scope(table);
  EXPECT_THROW(table.AddBernoulli(0.5), CheckError);
  EXPECT_THROW(table.SetDistribution(0, Distribution::Bernoulli(0.2)),
               CheckError);
}
#endif

TEST(IvmGuardTest, MutationOutsideEvaluationIsFine) {
  VariableTable table;
  VarId x = table.AddBernoulli(0.5);
  { VariableTable::EvalScope scope(table); }
  table.SetDistribution(x, Distribution::Bernoulli(0.3));
  EXPECT_EQ(table.DistributionOf(x).ProbOf(1), 0.3);
}

}  // namespace
}  // namespace pvcdb
