// A result row's step II cost is the cost of its annotation, not of the
// pool it was interned in:
//   - bytes allocated by the per-row pipeline (IsolatedAnnotationDistribution)
//     and by CloneInto do not depend on the size of the source pool or on
//     how large the row's VarIds are (counted through a replaced global
//     operator new, so the checks are exact and independent of wall time);
//   - the single-variable shortcut of the pipeline is bit-identical to
//     clone -> compile -> probability pass, also inside StepTwoCache after a
//     probability update;
//   - the stream-free probability formatter of the reply renderer prints
//     exactly what a precision-17 std::ostream prints.

#include <atomic>
#include <cfloat>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dtree/compile.h"
#include "src/dtree/probability.h"
#include "src/engine/database.h"
#include "src/engine/delta.h"
#include "src/expr/expr.h"
#include "src/serve/server.h"
#include "src/table/pvc_table.h"
#include "src/util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_bytes{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocNoThrow(std::size_t n) noexcept {
  try {
    return CountedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every replaceable non-aligned form, so that each allocation and its
// release go through the same malloc/free pair (also under ASan).
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pvcdb {
namespace {

/// Bytes requested from operator new while `fn` runs.
template <typename Fn>
size_t BytesAllocatedBy(Fn&& fn) {
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_bytes.load(std::memory_order_relaxed);
}

/// A pool holding one variable node per variable of a table of
/// `num_vars` Bernoulli variables, and two result-row annotations over its
/// last three variables: the variable itself (a tuple-independent row) and
/// x * (y + z) (a join row). The annotations therefore carry the largest
/// VarIds and ExprIds of the pool.
struct PoolFixture {
  explicit PoolFixture(size_t num_vars) : pool(SemiringKind::kBool) {
    for (size_t i = 0; i < num_vars; ++i) {
      pool.Var(vars.AddBernoulli(0.05 + 0.9 * static_cast<double>(i % 7) / 7));
    }
    VarId last = static_cast<VarId>(num_vars - 1);
    one_var = pool.Var(last);
    three_vars = pool.MulS(pool.Var(last - 2),
                           pool.AddS(pool.Var(last - 1), pool.Var(last)));
  }

  ExprPool pool;
  VariableTable vars;
  ExprId one_var = kInvalidExpr;
  ExprId three_vars = kInvalidExpr;
};

/// The bytes each per-row operation allocates against `f`. Every operation
/// runs once before it is counted, so lazily registered metrics do not
/// count against the first pool measured.
struct RowCosts {
  size_t one_var_pipeline = 0;
  size_t three_var_pipeline = 0;
  size_t three_var_clone = 0;
};

RowCosts Measure(const PoolFixture& f) {
  CompileOptions options;
  auto pipeline = [&](ExprId e) {
    Distribution d = IsolatedAnnotationDistribution(f.pool, f.vars, e, options);
    EXPECT_FALSE(d.empty());
  };
  auto clone = [&] {
    ExprPool local(f.pool.semiring().kind());
    f.pool.CloneInto(&local, f.three_vars);
  };
  pipeline(f.one_var);
  pipeline(f.three_vars);
  clone();
  RowCosts costs;
  costs.one_var_pipeline = BytesAllocatedBy([&] { pipeline(f.one_var); });
  costs.three_var_pipeline = BytesAllocatedBy([&] { pipeline(f.three_vars); });
  costs.three_var_clone = BytesAllocatedBy(clone);
  return costs;
}

TEST(RowCostTest, PerRowBytesDoNotGrowWithThePool) {
  PoolFixture small(1000);
  PoolFixture large(200000);
  ASSERT_GE(large.pool.NumNodes(), 200000u);
  RowCosts s = Measure(small);
  RowCosts l = Measure(large);
  EXPECT_EQ(s.one_var_pipeline, l.one_var_pipeline);
  EXPECT_EQ(s.three_var_pipeline, l.three_var_pipeline);
  EXPECT_EQ(s.three_var_clone, l.three_var_clone);
  const size_t kBound = 64 * 1024;
  EXPECT_LT(l.one_var_pipeline, kBound);
  EXPECT_LT(l.three_var_pipeline, kBound);
  EXPECT_LT(l.three_var_clone, kBound);
  // Recorded so that a regression shows by how much.
  RecordProperty("one_var_pipeline_bytes", static_cast<int>(l.one_var_pipeline));
  RecordProperty("three_var_pipeline_bytes",
                 static_cast<int>(l.three_var_pipeline));
  RecordProperty("three_var_clone_bytes", static_cast<int>(l.three_var_clone));
}

// -- Single-variable shortcut ----------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameDistribution(const Distribution& a, const Distribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_TRUE(SameBits(a.entries()[i].second, b.entries()[i].second))
        << a.ToString() << " vs " << b.ToString();
  }
}

void ExpectSameTree(const DTree& a, const DTree& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (DTree::NodeId id = 0; id < a.size(); ++id) {
    DTreeNode x = a.node(id);
    DTreeNode y = b.node(id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.sort, y.sort);
    EXPECT_EQ(x.agg, y.agg);
    EXPECT_EQ(x.cmp, y.cmp);
    EXPECT_EQ(x.var, y.var);
    EXPECT_EQ(x.value, y.value);
    EXPECT_TRUE(x.children == y.children);
    EXPECT_TRUE(x.branch_values == y.branch_values);
  }
}

/// Clone -> compile -> probability pass: the general pipeline, which the
/// single-variable shortcut must reproduce bit for bit.
CompiledDistribution GeneralPipeline(const ExprPool& pool,
                                     const VariableTable& vars, ExprId e) {
  ExprPool local(pool.semiring().kind());
  ExprId cloned = pool.CloneInto(&local, e);
  CompiledDistribution out;
  out.tree = CompileToDTree(&local, &vars, cloned, CompileOptions());
  out.distribution = ComputeDistribution(out.tree, vars, local.semiring());
  return out;
}

std::vector<Distribution> SampleDistributions() {
  return {Distribution::Bernoulli(0.3), Distribution::Bernoulli(1.0 / 3),
          Distribution::Bernoulli(0.999999),
          Distribution::FromPairs({{0, 0.2}, {1, 0.3}, {2, 0.5}}),
          Distribution::FromPairs({{1, 0.1}, {3, 0.7}, {7, 0.2}})};
}

class SingleVariableTest : public ::testing::TestWithParam<SemiringKind> {};

TEST_P(SingleVariableTest, ShortcutMatchesTheGeneralPipeline) {
  ExprPool pool(GetParam());
  VariableTable vars;
  for (const Distribution& d : SampleDistributions()) {
    ExprId e = pool.Var(vars.Add(d));
    CompiledDistribution shortcut =
        IsolatedCompileAndDistribution(pool, vars, e, CompileOptions());
    CompiledDistribution general = GeneralPipeline(pool, vars, e);
    ExpectSameTree(shortcut.tree, general.tree);
    ExpectSameDistribution(shortcut.distribution, general.distribution);
    ExpectSameDistribution(
        ComputeDistribution(shortcut.tree, vars, pool.semiring()),
        general.distribution);
  }
}

TEST_P(SingleVariableTest, CacheRefreshAfterSetProbMatchesAFreshPass) {
  ExprPool pool(GetParam());
  VariableTable vars;
  PvcTable table(Schema({{"id", CellType::kInt}}));
  std::vector<Distribution> before = SampleDistributions();
  for (size_t i = 0; i < before.size(); ++i) {
    table.AddRow({Cell(static_cast<int64_t>(i))}, pool.Var(vars.Add(before[i])));
  }
  StepTwoCache cache;
  cache.Probabilities(pool, vars, table, CompileOptions(), EvalOptions());
  // New masses on the same supports: the cached one-leaf trees are refreshed
  // in place rather than dropped.
  std::vector<Distribution> after = {
      Distribution::Bernoulli(0.7), Distribution::Bernoulli(2.0 / 3),
      Distribution::Bernoulli(0.125),
      Distribution::FromPairs({{0, 0.6}, {1, 0.1}, {2, 0.3}}),
      Distribution::FromPairs({{1, 0.45}, {3, 0.45}, {7, 0.1}})};
  for (VarId x = 0; x < after.size(); ++x) {
    ASSERT_TRUE(SameSupport(vars.DistributionOf(x), after[x]));
    vars.SetDistribution(x, after[x]);
    cache.OnVariableUpdate(x, vars, pool.semiring(), /*same_support=*/true);
  }
  EXPECT_EQ(cache.stats().refreshed, after.size());
  std::vector<double> refreshed =
      cache.Probabilities(pool, vars, table, CompileOptions(), EvalOptions());
  StepTwoCache fresh_cache;
  std::vector<double> fresh = fresh_cache.Probabilities(
      pool, vars, table, CompileOptions(), EvalOptions());
  ASSERT_EQ(refreshed.size(), table.NumRows());
  ASSERT_EQ(fresh.size(), table.NumRows());
  for (size_t i = 0; i < table.NumRows(); ++i) {
    double general = NonZeroMass(
        GeneralPipeline(pool, vars, table.row(i).annotation).distribution);
    EXPECT_TRUE(SameBits(refreshed[i], general)) << i;
    EXPECT_TRUE(SameBits(fresh[i], general)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Semirings, SingleVariableTest,
                         ::testing::Values(SemiringKind::kBool,
                                           SemiringKind::kNatural));

// -- Reply formatting --------------------------------------------------------

std::string StreamPrecision17(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string Formatted(double v) {
  std::string out;
  AppendDouble17(&out, v);
  return out;
}

TEST(ReplyFormatTest, AppendDouble17MatchesAPrecision17Stream) {
  const std::vector<double> edges = {0.0,
                                     1.0,
                                     0.1,
                                     1.0 / 3,
                                     5e-324,
                                     DBL_MIN,
                                     1.0 - 1.0 / (uint64_t{1} << 53)};
  for (double v : edges) {
    EXPECT_EQ(Formatted(v), StreamPrecision17(v)) << StreamPrecision17(v);
  }
  Rng rng(20261020);
  for (int i = 0; i < 100000; ++i) {
    double v = rng.UniformDouble(0.0, 1.0);
    ASSERT_EQ(Formatted(v), StreamPrecision17(v)) << "draw " << i;
  }
  // Appends, never overwrites.
  std::string line = "P[row 0] = ";
  AppendDouble17(&line, 0.5);
  EXPECT_EQ(line, "P[row 0] = 0.5");
}

}  // namespace
}  // namespace pvcdb
