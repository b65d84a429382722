#include "src/dtree/joint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/naive/possible_worlds.h"
#include "src/util/rng.h"

namespace pvcdb {
namespace {

std::string SemiringName(SemiringKind kind) {
  return kind == SemiringKind::kBool ? "B" : "N";
}

TEST(JointTest, IndependentExpressionsFactorise) {
  ExprPool pool(SemiringKind::kBool);
  VariableTable vars;
  VarId x = vars.AddBernoulli(0.3);
  VarId y = vars.AddBernoulli(0.6);
  JointDistribution joint = ComputeJointDistribution(
      &pool, vars, {pool.Var(x), pool.Var(y)});
  EXPECT_NEAR((joint[{1, 1}]), 0.18, 1e-12);
  EXPECT_NEAR((joint[{0, 0}]), 0.28, 1e-12);
}

TEST(JointTest, PaperExampleSharedVariableDecomposition) {
  // Section 5 "Compiling Joint Probability Distributions": integer
  // variables a, b, c with non-zero probabilities for 1, 2 only; the joint
  // expression <a+b, a*c>; P[<3,2>] = Pa[2]Pb[1]Pc[1] + Pa[1]Pb[2]Pc[2].
  ExprPool pool(SemiringKind::kNatural);
  VariableTable vars;
  VarId a = vars.Add(Distribution::FromPairs({{1, 0.4}, {2, 0.6}}), "a");
  VarId b = vars.Add(Distribution::FromPairs({{1, 0.7}, {2, 0.3}}), "b");
  VarId c = vars.Add(Distribution::FromPairs({{1, 0.2}, {2, 0.8}}), "c");
  JointDistribution joint = ComputeJointDistribution(
      &pool, vars,
      {pool.AddS(pool.Var(a), pool.Var(b)),
       pool.MulS(pool.Var(a), pool.Var(c))});
  double expected = 0.6 * 0.7 * 0.2 + 0.4 * 0.3 * 0.8;
  EXPECT_NEAR((joint[{3, 2}]), expected, 1e-12);
}

TEST(JointTest, MatchesEnumerationOnRandomTriples) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    ExprPool pool(SemiringKind::kBool);
    VariableTable vars;
    std::vector<VarId> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(vars.AddBernoulli(rng.UniformDouble(0.2, 0.8)));
    }
    auto rand_expr = [&]() {
      std::vector<ExprId> lits;
      std::vector<int> picks = rng.SampleDistinct(5, 2);
      for (int p : picks) lits.push_back(pool.Var(ids[p]));
      return rng.Bernoulli(0.5) ? pool.MulS(lits) : pool.AddS(lits);
    };
    std::vector<ExprId> exprs = {rand_expr(), rand_expr(), rand_expr()};
    JointDistribution fast = ComputeJointDistribution(&pool, vars, exprs);
    JointDistribution slow = EnumerateJointDistribution(pool, vars, exprs);
    for (const auto& [tuple, p] : slow) {
      EXPECT_NEAR(fast[tuple], p, 1e-9);
    }
    double mass = 0;
    for (const auto& [tuple, p] : fast) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-9);
  }
}

TEST(JointTest, ConditionalAggregateDistribution) {
  // Group {x (x) 10 +MIN y (x) 20} with annotation [x + y != 0]:
  // conditioned on presence, MIN = 10 iff x, else 20.
  ExprPool pool(SemiringKind::kBool);
  VariableTable vars;
  VarId x = vars.AddBernoulli(0.5);
  VarId y = vars.AddBernoulli(0.5);
  ExprId alpha = pool.AddM(
      AggKind::kMin,
      pool.Tensor(pool.Var(x), pool.ConstM(AggKind::kMin, 10)),
      pool.Tensor(pool.Var(y), pool.ConstM(AggKind::kMin, 20)));
  ExprId ann = pool.Cmp(CmpOp::kNe, pool.AddS(pool.Var(x), pool.Var(y)),
                        pool.ConstS(0));
  Distribution d =
      ConditionalAggregateDistribution(&pool, vars, alpha, ann);
  // P[present] = 3/4. P[min=10 | present] = (1/2)/(3/4) = 2/3;
  // P[min=20 | present] = (1/4)/(3/4) = 1/3. No mass on +inf.
  EXPECT_NEAR(d.ProbOf(10), 2.0 / 3, 1e-12);
  EXPECT_NEAR(d.ProbOf(20), 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(d.ProbOf(kPosInf), 0.0);
  EXPECT_TRUE(d.IsNormalized(1e-9));
}

TEST(JointTest, ConditionalOnImpossibleAnnotationIsEmpty) {
  ExprPool pool(SemiringKind::kBool);
  VariableTable vars;
  VarId x = vars.AddBernoulli(0.5);
  ExprId alpha = pool.Tensor(pool.Var(x), pool.ConstM(AggKind::kMin, 10));
  ExprId never = pool.ConstS(0);
  Distribution d =
      ConditionalAggregateDistribution(&pool, vars, alpha, never);
  EXPECT_TRUE(d.empty());
}

// P[alpha = v | annotation != 0] by world enumeration.
Distribution EnumeratedConditional(const ExprPool& pool,
                                   const VariableTable& vars, ExprId alpha,
                                   ExprId annotation) {
  JointDistribution joint =
      EnumerateJointDistribution(pool, vars, {alpha, annotation});
  double present = 0.0;
  std::vector<Distribution::Entry> entries;
  for (const auto& [tuple, p] : joint) {
    if (tuple[1] == 0) continue;
    present += p;
    entries.push_back({tuple[0], p});
  }
  if (present <= 0.0) return Distribution();
  for (auto& e : entries) e.second /= present;
  return Distribution::FromPairs(std::move(entries));
}

void ExpectSameDistribution(const Distribution& actual,
                            const Distribution& expected,
                            const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context << "\nactual "
                                            << actual.ToString()
                                            << "\nexpected "
                                            << expected.ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.entries()[i].first, expected.entries()[i].first)
        << context;
    EXPECT_NEAR(actual.entries()[i].second, expected.entries()[i].second,
                1e-12)
        << context;
  }
}

// Random groups alpha = Sum_i Phi_i (x) v_i with the annotations step I and
// the query operators above it build: the group factor [Sum_i Phi_i != 0],
// optionally times HAVING factors [alpha theta c] / [c theta alpha], a
// joined tuple y, or a comparison on another aggregate; plus the ungrouped
// annotations 1 and [alpha theta c]. Members may share variables (joins),
// values include the monoid's neutral element (a member whose presence
// alpha cannot show), and under N some variables range over {0, 1, 2}.
TEST(JointTest, ConditionalAggregateMatchesEnumerationOnRandomGroups) {
  const AggKind kKinds[] = {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                            AggKind::kMax, AggKind::kProd};
  const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLe,
                        CmpOp::kGe, CmpOp::kLt, CmpOp::kGt};
  Rng rng(16);
  int nonempty = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    SemiringKind semiring =
        trial % 2 == 0 ? SemiringKind::kBool : SemiringKind::kNatural;
    AggKind agg = kKinds[(trial / 2) % 5];
    Monoid monoid(agg);
    ExprPool pool(semiring);
    VariableTable vars;
    auto new_var = [&]() -> ExprId {
      if (semiring == SemiringKind::kNatural && rng.Bernoulli(0.3)) {
        double p0 = rng.UniformDouble(0.1, 0.5);
        double p1 = rng.UniformDouble(0.1, 0.9 - p0);
        return pool.Var(vars.Add(
            Distribution::FromPairs({{0, p0}, {1, p1}, {2, 1.0 - p0 - p1}})));
      }
      return pool.Var(vars.AddBernoulli(rng.UniformDouble(0.1, 0.9)));
    };
    // Members: a fresh variable, or a join of a shared "order" variable
    // with a fresh one.
    std::vector<ExprId> shared = {new_var(), new_var()};
    int members = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<ExprId> phis;
    std::vector<ExprId> terms;
    for (int i = 0; i < members; ++i) {
      ExprId phi = rng.Bernoulli(0.5)
                       ? new_var()
                       : pool.MulS(shared[rng.UniformInt(0, 1)], new_var());
      int64_t value = 1;
      if (rng.Bernoulli(0.2)) {
        value = monoid.Neutral();
      } else if (agg != AggKind::kCount) {
        value = rng.UniformInt(agg == AggKind::kProd ? -2 : -3, 6);
      }
      phis.push_back(phi);
      terms.push_back(pool.Tensor(phi, pool.ConstM(agg, value)));
    }
    ExprId alpha = pool.AddM(agg, terms);
    auto having = [&]() {
      ExprId c = pool.ConstM(agg, rng.UniformInt(-2, 6));
      CmpOp op = kOps[rng.UniformInt(0, 5)];
      return rng.Bernoulli(0.5) ? pool.Cmp(op, alpha, c)
                                : pool.Cmp(op, c, alpha);
    };
    ExprId group = pool.Cmp(CmpOp::kNe, pool.AddS(phis), pool.ConstS(0));
    std::vector<ExprId> factors;
    int shape = static_cast<int>(rng.UniformInt(0, 6));
    switch (shape) {
      case 0:  // Ungrouped: 1_K.
        break;
      case 1:  // Ungrouped with HAVING.
        factors.push_back(having());
        break;
      case 2:
        factors.push_back(group);
        break;
      case 3:  // HAVING, possibly twice.
        factors.push_back(group);
        factors.push_back(having());
        if (rng.Bernoulli(0.3)) factors.push_back(having());
        break;
      case 4:  // Joined with another tuple: [S != 0] * y.
        factors.push_back(group);
        factors.push_back(rng.Bernoulli(0.5) ? new_var() : shared[0]);
        break;
      case 5: {  // HAVING on a different aggregate of the same group.
        std::vector<ExprId> counts;
        for (ExprId phi : phis) {
          counts.push_back(pool.Tensor(phi, pool.ConstM(AggKind::kCount, 1)));
        }
        factors.push_back(group);
        factors.push_back(pool.Cmp(CmpOp::kGe,
                                   pool.AddM(AggKind::kCount, counts),
                                   pool.ConstM(AggKind::kCount, 2)));
        break;
      }
      default:  // Joined and HAVING.
        factors.push_back(group);
        factors.push_back(new_var());
        factors.push_back(having());
        break;
    }
    ExprId annotation = pool.MulS(factors);
    std::string context = "trial " + std::to_string(trial) + " " +
                          SemiringName(semiring) + " " + AggKindName(agg) +
                          " shape " + std::to_string(shape);
    Distribution expected =
        EnumeratedConditional(pool, vars, alpha, annotation);
    Distribution actual =
        ConditionalAggregateDistribution(&pool, vars, alpha, annotation);
    ExpectSameDistribution(actual, expected, context);
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 1000);
}

TEST(JointTest, ConditionalNeutralMemberStillDecidesPresence) {
  // SUM over {x (x) 0, y (x) 5} under [x + y != 0]: alpha = 0 both when
  // only x is present (the tuple exists) and when neither is (it does
  // not), so presence cannot be read from alpha.
  ExprPool pool(SemiringKind::kBool);
  VariableTable vars;
  VarId x = vars.AddBernoulli(0.5);
  VarId y = vars.AddBernoulli(0.4);
  ExprId alpha = pool.AddM(
      AggKind::kSum, pool.Tensor(pool.Var(x), pool.ConstM(AggKind::kSum, 0)),
      pool.Tensor(pool.Var(y), pool.ConstM(AggKind::kSum, 5)));
  ExprId ann = pool.Cmp(CmpOp::kNe, pool.AddS(pool.Var(x), pool.Var(y)),
                        pool.ConstS(0));
  Distribution d = ConditionalAggregateDistribution(&pool, vars, alpha, ann);
  // P[present] = 1 - 0.5 * 0.6 = 0.7; P[SUM = 0, present] = 0.5 * 0.6.
  EXPECT_NEAR(d.ProbOf(0), 0.3 / 0.7, 1e-12);
  EXPECT_NEAR(d.ProbOf(5), 0.4 / 0.7, 1e-12);
  EXPECT_EQ(d.size(), 2u);
}

TEST(JointTest, SingleExpressionJointIsMarginal) {
  ExprPool pool(SemiringKind::kBool);
  VariableTable vars;
  VarId x = vars.AddBernoulli(0.25);
  JointDistribution joint =
      ComputeJointDistribution(&pool, vars, {pool.Var(x)});
  EXPECT_NEAR((joint[{1}]), 0.25, 1e-12);
  EXPECT_NEAR((joint[{0}]), 0.75, 1e-12);
}

}  // namespace
}  // namespace pvcdb
