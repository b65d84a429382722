#include "src/expr/expr.h"

#include <gtest/gtest.h>

#include "src/util/check.h"

namespace pvcdb {
namespace {

class ExprPoolTest : public ::testing::Test {
 protected:
  ExprPool bool_pool_{SemiringKind::kBool};
  ExprPool nat_pool_{SemiringKind::kNatural};
};

TEST_F(ExprPoolTest, HashConsingSharesEqualNodes) {
  ExprId a1 = bool_pool_.Var(0);
  ExprId a2 = bool_pool_.Var(0);
  EXPECT_EQ(a1, a2);
  ExprId s1 = bool_pool_.AddS(bool_pool_.Var(0), bool_pool_.Var(1));
  ExprId s2 = bool_pool_.AddS(bool_pool_.Var(1), bool_pool_.Var(0));
  EXPECT_EQ(s1, s2) << "sums are canonically sorted (commutativity)";
}

TEST_F(ExprPoolTest, ConstSCanonicalisesIntoCarrier) {
  EXPECT_EQ(bool_pool_.ConstS(7), bool_pool_.ConstS(1));
  EXPECT_NE(nat_pool_.ConstS(7), nat_pool_.ConstS(1));
}

TEST_F(ExprPoolTest, AddSFoldsConstantsAndDropsZero) {
  ExprId x = nat_pool_.Var(0);
  ExprId e = nat_pool_.AddS({x, nat_pool_.ConstS(0)});
  EXPECT_EQ(e, x) << "x + 0 = x";
  ExprId c = nat_pool_.AddS({nat_pool_.ConstS(2), nat_pool_.ConstS(3)});
  EXPECT_EQ(nat_pool_.node(c).kind, ExprKind::kConstS);
  EXPECT_EQ(nat_pool_.node(c).value, 5);
}

TEST_F(ExprPoolTest, EmptySumAndProductAreNeutral) {
  ExprId zero = nat_pool_.AddS(std::vector<ExprId>{});
  EXPECT_EQ(nat_pool_.node(zero).value, 0);
  ExprId one = nat_pool_.MulS(std::vector<ExprId>{});
  EXPECT_EQ(nat_pool_.node(one).value, 1);
}

TEST_F(ExprPoolTest, BooleanAbsorptionTruePlusAnything) {
  ExprId x = bool_pool_.Var(0);
  ExprId e = bool_pool_.AddS({x, bool_pool_.ConstS(1)});
  EXPECT_EQ(e, bool_pool_.ConstS(1)) << "1 + x = 1 under B";
}

TEST_F(ExprPoolTest, BooleanIdempotence) {
  ExprId x = bool_pool_.Var(0);
  EXPECT_EQ(bool_pool_.AddS(x, x), x) << "x + x = x in PosBool";
  EXPECT_EQ(bool_pool_.MulS(x, x), x) << "x * x = x in PosBool";
}

TEST_F(ExprPoolTest, NaturalSemiringKeepsMultiplicity) {
  ExprId x = nat_pool_.Var(0);
  ExprId sum = nat_pool_.AddS(x, x);
  EXPECT_NE(sum, x) << "x + x != x under N (bag semantics)";
  EXPECT_EQ(nat_pool_.node(sum).children().size(), 2u);
}

TEST_F(ExprPoolTest, MulSAnnihilatorAndNeutral) {
  ExprId x = bool_pool_.Var(0);
  EXPECT_EQ(bool_pool_.MulS({x, bool_pool_.ConstS(0)}),
            bool_pool_.ConstS(0));
  EXPECT_EQ(bool_pool_.MulS({x, bool_pool_.ConstS(1)}), x);
}

TEST_F(ExprPoolTest, SumsAndProductsFlatten) {
  ExprId x = nat_pool_.Var(0);
  ExprId y = nat_pool_.Var(1);
  ExprId z = nat_pool_.Var(2);
  ExprId nested = nat_pool_.AddS(nat_pool_.AddS(x, y), z);
  EXPECT_EQ(nat_pool_.node(nested).children().size(), 3u);
  ExprId flat = nat_pool_.AddS({x, y, z});
  EXPECT_EQ(nested, flat);
  ExprId nested_mul = nat_pool_.MulS(nat_pool_.MulS(x, y), z);
  EXPECT_EQ(nat_pool_.node(nested_mul).children().size(), 3u);
}

TEST_F(ExprPoolTest, VarSetsAreSortedUnions) {
  ExprId e = bool_pool_.AddS(
      {bool_pool_.MulS(bool_pool_.Var(5), bool_pool_.Var(2)),
       bool_pool_.Var(9)});
  EXPECT_EQ(bool_pool_.VarsOf(e), (std::vector<VarId>{2, 5, 9}));
}

TEST_F(ExprPoolTest, TensorLaws) {
  Monoid min_monoid(AggKind::kMin);
  ExprId x = bool_pool_.Var(0);
  ExprId m = bool_pool_.ConstM(AggKind::kMin, 7);
  // 0_S (x) m = 0_M.
  EXPECT_EQ(bool_pool_.Tensor(bool_pool_.ConstS(0), m),
            bool_pool_.ConstM(AggKind::kMin, min_monoid.Neutral()));
  // 1_S (x) m = m.
  EXPECT_EQ(bool_pool_.Tensor(bool_pool_.ConstS(1), m), m);
  // s (x) 0_M = 0_M even for variable s.
  ExprId neutral = bool_pool_.ConstM(AggKind::kMin, min_monoid.Neutral());
  EXPECT_EQ(bool_pool_.Tensor(x, neutral), neutral);
}

TEST_F(ExprPoolTest, TensorConstantFoldsUnderNaturalSemiring) {
  ExprId t = nat_pool_.Tensor(nat_pool_.ConstS(6),
                              nat_pool_.ConstM(AggKind::kSum, 5));
  EXPECT_EQ(nat_pool_.node(t).kind, ExprKind::kConstM);
  EXPECT_EQ(nat_pool_.node(t).value, 30);
}

TEST_F(ExprPoolTest, NestedTensorsMerge) {
  // s1 (x) (s2 (x) m) = (s1*s2) (x) m.
  ExprId x = bool_pool_.Var(0);
  ExprId y = bool_pool_.Var(1);
  ExprId m = bool_pool_.ConstM(AggKind::kMax, 9);
  ExprId nested = bool_pool_.Tensor(x, bool_pool_.Tensor(y, m));
  ExprId flat = bool_pool_.Tensor(bool_pool_.MulS(x, y), m);
  EXPECT_EQ(nested, flat);
}

TEST_F(ExprPoolTest, AddMFoldsConstantsPerMonoid) {
  ExprId a = bool_pool_.ConstM(AggKind::kMin, 4);
  ExprId b = bool_pool_.ConstM(AggKind::kMin, 9);
  ExprId m = bool_pool_.AddM(AggKind::kMin, a, b);
  EXPECT_EQ(m, bool_pool_.ConstM(AggKind::kMin, 4));
  ExprId s = bool_pool_.AddM(AggKind::kSum,
                             bool_pool_.ConstM(AggKind::kSum, 4),
                             bool_pool_.ConstM(AggKind::kSum, 9));
  EXPECT_EQ(s, bool_pool_.ConstM(AggKind::kSum, 13));
}

TEST_F(ExprPoolTest, AddMDropsNeutralTerms) {
  ExprId x = bool_pool_.Var(0);
  ExprId t = bool_pool_.Tensor(x, bool_pool_.ConstM(AggKind::kSum, 3));
  ExprId m = bool_pool_.AddM(AggKind::kSum,
                             {t, bool_pool_.ConstM(AggKind::kSum, 0)});
  EXPECT_EQ(m, t);
}

TEST_F(ExprPoolTest, AddMRequiresMatchingMonoids) {
  ExprId a = bool_pool_.ConstM(AggKind::kMin, 4);
  ExprId b = bool_pool_.ConstM(AggKind::kMax, 9);
  EXPECT_THROW(bool_pool_.AddM(AggKind::kMin, a, b), CheckError);
}

TEST_F(ExprPoolTest, AddMMinIdempotence) {
  ExprId x = bool_pool_.Var(0);
  ExprId t = bool_pool_.Tensor(x, bool_pool_.ConstM(AggKind::kMin, 3));
  EXPECT_EQ(bool_pool_.AddM(AggKind::kMin, t, t), t)
      << "alpha +MIN alpha = alpha";
  // But not for SUM:
  ExprId ts = bool_pool_.Tensor(x, bool_pool_.ConstM(AggKind::kSum, 3));
  EXPECT_NE(bool_pool_.AddM(AggKind::kSum, ts, ts), ts);
}

TEST_F(ExprPoolTest, CmpFoldsOnConstants) {
  ExprId t = bool_pool_.Cmp(CmpOp::kLe, bool_pool_.ConstM(AggKind::kMin, 3),
                            bool_pool_.ConstM(AggKind::kMin, 5));
  EXPECT_EQ(t, bool_pool_.ConstS(1));
  ExprId f = bool_pool_.Cmp(CmpOp::kGt, bool_pool_.ConstM(AggKind::kMin, 3),
                            bool_pool_.ConstM(AggKind::kMin, 5));
  EXPECT_EQ(f, bool_pool_.ConstS(0));
}

TEST_F(ExprPoolTest, CmpAcrossDifferentMonoidsAllowed) {
  // Experiment E compares MAX aggregates against SUM aggregates.
  ExprId x = bool_pool_.Var(0);
  ExprId y = bool_pool_.Var(1);
  ExprId lhs = bool_pool_.Tensor(x, bool_pool_.ConstM(AggKind::kMax, 5));
  ExprId rhs = bool_pool_.Tensor(y, bool_pool_.ConstM(AggKind::kSum, 9));
  ExprId c = bool_pool_.Cmp(CmpOp::kLe, lhs, rhs);
  EXPECT_EQ(bool_pool_.node(c).kind, ExprKind::kCmp);
}

TEST_F(ExprPoolTest, CmpRejectsMixedSorts) {
  ExprId x = bool_pool_.Var(0);
  ExprId m = bool_pool_.ConstM(AggKind::kMin, 3);
  EXPECT_THROW(bool_pool_.Cmp(CmpOp::kEq, x, m), CheckError);
}

TEST_F(ExprPoolTest, SortTagging) {
  ExprId x = bool_pool_.Var(0);
  EXPECT_EQ(bool_pool_.node(x).sort, ExprSort::kSemiring);
  ExprId m = bool_pool_.ConstM(AggKind::kMin, 3);
  EXPECT_EQ(bool_pool_.node(m).sort, ExprSort::kMonoid);
  ExprId t = bool_pool_.Tensor(x, m);
  EXPECT_EQ(bool_pool_.node(t).sort, ExprSort::kMonoid);
  ExprId c = bool_pool_.Cmp(CmpOp::kLe, t, m);
  EXPECT_EQ(bool_pool_.node(c).sort, ExprSort::kSemiring)
      << "[alpha theta beta] evaluates into the semiring (Eq. 2)";
}

TEST_F(ExprPoolTest, CountVarOccurrencesWeightsPaths) {
  // x(y + z) + x: x occurs twice, y and z once.
  ExprId x = nat_pool_.Var(0);
  ExprId y = nat_pool_.Var(1);
  ExprId z = nat_pool_.Var(2);
  ExprId e = nat_pool_.AddS(nat_pool_.MulS(x, nat_pool_.AddS(y, z)), x);
  std::unordered_map<VarId, double> counts;
  nat_pool_.CountVarOccurrences(e, &counts);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
  EXPECT_DOUBLE_EQ(counts[2], 1.0);
}

TEST_F(ExprPoolTest, ReachableSizeCountsDistinctNodes) {
  ExprId x = bool_pool_.Var(0);
  ExprId y = bool_pool_.Var(1);
  ExprId shared = bool_pool_.MulS(x, y);
  // shared appears conceptually twice but is one DAG node.
  ExprId e = bool_pool_.Cmp(
      CmpOp::kEq, bool_pool_.Tensor(shared, bool_pool_.ConstM(AggKind::kMin, 1)),
      bool_pool_.Tensor(shared, bool_pool_.ConstM(AggKind::kMin, 2)));
  size_t size = bool_pool_.ReachableSize(e);
  EXPECT_LE(size, 8u);
  EXPECT_GE(size, 6u);
}

TEST_F(ExprPoolTest, GroundExpressionsFoldToConstants) {
  // Every variable-free expression must be a constant node (the compiler
  // relies on this invariant).
  ExprId e = nat_pool_.AddM(
      AggKind::kMax,
      nat_pool_.Tensor(nat_pool_.ConstS(2), nat_pool_.ConstM(AggKind::kMax, 5)),
      nat_pool_.Tensor(nat_pool_.ConstS(0), nat_pool_.ConstM(AggKind::kMax, 9)));
  EXPECT_EQ(nat_pool_.node(e).kind, ExprKind::kConstM);
  EXPECT_EQ(nat_pool_.node(e).value, 5);
}

// Sequential variables and products of neighbouring variables hash to
// nearly sequential values before mixing; the intern table must still
// spread them, or every lookup landing in a run walks it to the end
// (unmixed, these 200k nodes form one run of about 108k slots).
TEST_F(ExprPoolTest, InternTableDoesNotClusterSequentialNodes) {
  constexpr VarId kVars = 100000;
  std::vector<ExprId> vars;
  std::vector<ExprId> products;
  for (VarId x = 0; x <= kVars; ++x) vars.push_back(bool_pool_.Var(x));
  for (VarId x = 0; x < kVars; ++x) {
    products.push_back(bool_pool_.MulS(vars[x], vars[x + 1]));
  }
  for (VarId x = 0; x <= kVars; ++x) {
    ASSERT_EQ(bool_pool_.Var(x), vars[x]) << "x" << x;
  }
  for (VarId x = 0; x < kVars; ++x) {
    ASSERT_EQ(bool_pool_.MulS(vars[x], vars[x + 1]), products[x]) << "x" << x;
  }
  EXPECT_EQ(bool_pool_.NumNodes(), 2 * kVars + 1);
  EXPECT_LE(bool_pool_.LongestOccupiedRun(), 200u);
}

}  // namespace
}  // namespace pvcdb
