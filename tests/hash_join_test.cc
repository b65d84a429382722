// The hash-join fast path must be semantically indistinguishable from the
// naive Select-over-Product pipeline: same tuples, same annotations.

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace pvcdb {
namespace {

// Runs Select(Product(l, r), pred) through both pipelines: the fast path
// (triggered by the Select-over-Product shape) and a forced naive path
// (materialise the product first, then select over the materialised
// intermediate registered as a temporary table).
class HashJoinTest : public ::testing::Test {
 protected:
  void FillTables(uint64_t seed, int left_rows, int right_rows,
                  int key_range) {
    Rng rng(seed);
    std::vector<std::vector<Cell>> l;
    std::vector<double> lp;
    for (int i = 0; i < left_rows; ++i) {
      l.push_back({Cell(rng.UniformInt(0, key_range)),
                   Cell(rng.UniformInt(0, 50))});
      lp.push_back(rng.UniformDouble(0.1, 0.9));
    }
    db_.AddTupleIndependentTable(
        "L", Schema({{"lk", CellType::kInt}, {"lv", CellType::kInt}}),
        std::move(l), std::move(lp));
    std::vector<std::vector<Cell>> r;
    std::vector<double> rp;
    for (int i = 0; i < right_rows; ++i) {
      r.push_back({Cell(rng.UniformInt(0, key_range)),
                   Cell(rng.UniformInt(0, 50))});
      rp.push_back(rng.UniformDouble(0.1, 0.9));
    }
    db_.AddTupleIndependentTable(
        "R", Schema({{"rk", CellType::kInt}, {"rv", CellType::kInt}}),
        std::move(r), std::move(rp));
  }

  // Reference result: product materialised first (under a fresh table
  // name), selection applied on a scan of the materialised product (no
  // fast path possible).
  PvcTable Reference(QueryPtr left, QueryPtr right, const Predicate& pred) {
    std::string name = "product" + std::to_string(++num_products_);
    db_.AddTable(name, db_.Run(*Query::Product(std::move(left),
                                               std::move(right))));
    return db_.Run(*Query::Select(Query::Scan(name), pred));
  }

  PvcTable Reference(const Predicate& pred) {
    return Reference(Query::Scan("L"), Query::Scan("R"), pred);
  }

  PvcTable FastJoin(QueryPtr left, QueryPtr right, const Predicate& pred) {
    return db_.Run(*Query::Select(
        Query::Product(std::move(left), std::move(right)), pred));
  }

  // Both pipelines emit left-major pairs with right rows in ascending
  // order, so the rows must also agree one by one.
  static void ExpectSameRowsInOrder(const PvcTable& a, const PvcTable& b) {
    ASSERT_EQ(a.NumRows(), b.NumRows());
    for (size_t i = 0; i < a.NumRows(); ++i) {
      EXPECT_EQ(a.row(i).cells, b.row(i).cells) << "row " << i;
      EXPECT_EQ(a.row(i).annotation, b.row(i).annotation) << "row " << i;
    }
  }

  static void ExpectSameRows(const PvcTable& a, const PvcTable& b) {
    ASSERT_EQ(a.NumRows(), b.NumRows());
    // Order may differ between pipelines; compare as multisets of
    // (cells, annotation id) -- annotations are hash-consed, so equal
    // expressions share ids.
    auto fingerprint = [](const PvcTable& t) {
      std::vector<std::pair<std::vector<std::string>, ExprId>> rows;
      for (const Row& r : t.rows()) {
        std::vector<std::string> cells;
        for (const Cell& c : r.cells) cells.push_back(c.ToString());
        rows.push_back({cells, r.annotation});
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(fingerprint(a), fingerprint(b));
  }

  Database db_;
  int num_products_ = 0;
};

TEST_F(HashJoinTest, EquiJoinMatchesNaive) {
  FillTables(1, 30, 40, 10);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, EquiJoinWithResidualAtoms) {
  FillTables(2, 25, 25, 6);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kLt, Operand::Col("lv"), Operand::Col("rv")});
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, ReversedOperandOrder) {
  FillTables(3, 20, 20, 5);
  Predicate pred = Predicate::ColEqCol("rk", "lk");  // right = left.
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, PureThetaJoinFallsBackCorrectly) {
  FillTables(4, 15, 15, 5);
  Predicate pred = Predicate::ColCmpCol("lv", CmpOp::kLe, "rv");
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, MultiKeyJoin) {
  FillTables(5, 30, 30, 4);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kEq, Operand::Col("lv"), Operand::Col("rv")});
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, ConstantAtomsStayInResidual) {
  FillTables(6, 20, 20, 5);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kEq, Operand::Col("lv"), Operand::Int(7)});
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     pred));
  ExpectSameRows(fast, Reference(pred));
}

TEST_F(HashJoinTest, EmptyPredicateIsCrossProduct) {
  FillTables(7, 5, 7, 3);
  PvcTable fast = db_.Run(*Query::Select(
      Query::Product(Query::Scan("L"), Query::Scan("R")), Predicate()));
  EXPECT_EQ(fast.NumRows(), 35u);
}

TEST_F(HashJoinTest, NoMatchesYieldsEmpty) {
  // Disjoint key ranges.
  db_.AddTupleIndependentTable("L", Schema({{"lk", CellType::kInt}}),
                               {{Cell(int64_t{1})}}, {0.5});
  db_.AddTupleIndependentTable("R", Schema({{"rk", CellType::kInt}}),
                               {{Cell(int64_t{2})}}, {0.5});
  PvcTable fast = db_.Run(
      *Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                     Predicate::ColEqCol("lk", "rk")));
  EXPECT_EQ(fast.NumRows(), 0u);
}

// Single-side data atoms filter the join inputs before rows are paired;
// the cross-side and aggregation-attribute atoms stay per pair, in
// predicate order.
TEST_F(HashJoinTest, SingleSideAtomsMatchNaiveRowForRow) {
  FillTables(11, 60, 60, 8);
  Predicate left_only = Predicate::ColEqCol("lk", "rk");
  left_only.And({CmpOp::kGe, Operand::Col("lv"), Operand::Int(20)});
  Predicate right_only = Predicate::ColCmpInt("rv", CmpOp::kLt, 30);
  right_only.And({CmpOp::kEq, Operand::Col("rk"), Operand::Col("lk")});
  Predicate both = Predicate::ColEqCol("lk", "rk");
  both.And({CmpOp::kNe, Operand::Int(7), Operand::Col("lv")});
  both.And({CmpOp::kLe, Operand::Col("lv"), Operand::Col("rv")});
  both.And({CmpOp::kGt, Operand::Col("rv"), Operand::Int(10)});
  Predicate theta = Predicate::ColCmpInt("lv", CmpOp::kLt, 25);
  theta.And({CmpOp::kGe, Operand::Col("rv"), Operand::Col("lv")});
  theta.And({CmpOp::kGe, Operand::Col("rv"), Operand::Int(15)});
  for (const Predicate& pred : {left_only, right_only, both, theta}) {
    SCOPED_TRACE(pred.ToString());
    PvcTable fast = FastJoin(Query::Scan("L"), Query::Scan("R"), pred);
    EXPECT_GT(fast.NumRows(), 0u);
    ExpectSameRowsInOrder(fast,
                          Reference(Query::Scan("L"), Query::Scan("R"), pred));
  }

  // An aggregation attribute on the left: `s >= 40` extends annotations
  // and stays per pair, between single-side atoms on both inputs.
  auto sums = [] {
    return Query::GroupAgg(Query::Scan("L"), {"lk"},
                           {{AggKind::kSum, "lv", "s"}});
  };
  Predicate agg = Predicate::ColEqCol("lk", "rk");
  agg.And({CmpOp::kLe, Operand::Col("lk"), Operand::Int(5)});
  agg.And({CmpOp::kGe, Operand::Col("s"), Operand::Int(40)});
  agg.And({CmpOp::kLt, Operand::Col("lk"), Operand::Col("rv")});
  agg.And({CmpOp::kGe, Operand::Col("rv"), Operand::Int(5)});
  PvcTable fast = FastJoin(sums(), Query::Scan("R"), agg);
  EXPECT_GT(fast.NumRows(), 0u);
  ExpectSameRowsInOrder(fast, Reference(sums(), Query::Scan("R"), agg));
}

// An int column against a string constant fails its type check, so it is
// no input filter: it stays per pair and throws once a pair reaches it.
TEST_F(HashJoinTest, MistypedSingleSideAtomStaysPerPair) {
  FillTables(14, 20, 20, 4);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kEq, Operand::Col("lv"), Operand::Str("x")});
  EXPECT_THROW(FastJoin(Query::Scan("L"), Query::Scan("R"), pred), CheckError);

  // A filter after the mistyped atom stays per pair too: at this point no
  // pair has been checked against it, and every pair still throws.
  Predicate later = pred;
  later.And({CmpOp::kGt, Operand::Col("lv"), Operand::Int(1000)});
  EXPECT_THROW(FastJoin(Query::Scan("L"), Query::Scan("R"), later),
               CheckError);

  // A filter before it rejects every row first, as it would per pair.
  Predicate earlier = Predicate::ColEqCol("lk", "rk");
  earlier.And({CmpOp::kGt, Operand::Col("lv"), Operand::Int(1000)});
  earlier.And({CmpOp::kEq, Operand::Col("lv"), Operand::Str("x")});
  EXPECT_EQ(FastJoin(Query::Scan("L"), Query::Scan("R"), earlier).NumRows(),
            0u);
}

TEST_F(HashJoinTest, MistypedAtomWithoutKeyMatchesYieldsEmpty) {
  db_.AddTupleIndependentTable("L", Schema({{"lk", CellType::kInt}}),
                               {{Cell(int64_t{1})}}, {0.5});
  db_.AddTupleIndependentTable("R", Schema({{"rk", CellType::kInt}}),
                               {{Cell(int64_t{2})}}, {0.5});
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kEq, Operand::Col("lk"), Operand::Str("x")});
  EXPECT_EQ(FastJoin(Query::Scan("L"), Query::Scan("R"), pred).NumRows(), 0u);
}

// A left-side atom that rejects every row leaves nothing to pair: the join
// interns at most the 0_K constant, not one product per key match.
TEST_F(HashJoinTest, RejectedInputRowsAreNeverPaired) {
  FillTables(15, 50, 50, 5);
  Predicate pred = Predicate::ColEqCol("lk", "rk");
  pred.And({CmpOp::kGt, Operand::Col("lv"), Operand::Int(1000)});
  size_t before = db_.pool().NumNodes();
  PvcTable fast = FastJoin(Query::Scan("L"), Query::Scan("R"), pred);
  EXPECT_EQ(fast.NumRows(), 0u);
  EXPECT_LE(db_.pool().NumNodes() - before, 1u);
}

}  // namespace
}  // namespace pvcdb
