// Query evaluation step I (Section 4): computing the tuples of the query
// result together with their semiring annotations and semimodule values,
// following the rewriting [[.]] of Figure 4:
//
//   - selection multiplies annotations with conditional expressions,
//   - projection and union sum the annotations of merged tuples,
//   - product multiplies the annotations of paired tuples,
//   - $ with grouping builds Sum_AGG(Phi (x) B) semimodule values per group
//     and annotates each group with [Sum_K Phi != 0_K],
//   - $ without grouping builds the same values over the whole input and
//     annotates the single result tuple with 1_K.
//
// Deterministic evaluation (the Q0 baseline of Experiment F) runs the same
// rewriting with every scanned tuple annotated 1_K: all constructed
// expressions then fold to constants, so no expression manipulation
// remains -- exactly the "no expression or probability computation" mode.

#ifndef PVCDB_QUERY_EVAL_H_
#define PVCDB_QUERY_EVAL_H_

#include <functional>
#include <optional>
#include <string>

#include "src/expr/expr.h"
#include "src/query/ast.h"
#include "src/table/pvc_table.h"

namespace pvcdb {

/// Resolves a base-table name to the table (owned elsewhere).
using TableResolver = std::function<const PvcTable&(const std::string&)>;

/// Evaluation mode: probabilistic ([[.]]) or deterministic (Q0).
enum class EvalMode : uint8_t { kProbabilistic, kDeterministic };

/// Engine-wide evaluation knobs, threaded from the Database facade through
/// step I (this evaluator) and step II (the batch probability methods).
struct EvalOptions {
  /// Thread count for the parallel paths; 0 (default) and 1 mean serial,
  /// negative means all hardware threads. Every parallel path is
  /// bit-identical to the serial one: pure per-tuple work (data-atom
  /// filtering, hash-join probing, per-tuple d-tree compilation and
  /// probability passes) fans out, while all ExprPool interning and every
  /// floating-point reduction stay on the calling thread in serial order.
  int num_threads = 0;
  /// Capacity bound of the per-view step II caches (StepTwoCache), in
  /// cached annotations; least-recently-used entries are evicted beyond
  /// it. 0 (default) keeps the caches unbounded.
  size_t step_two_cache_capacity = 0;
};

/// Evaluates Q queries over pvc-tables, producing result pvc-tables.
///
/// Operators read their inputs in place: a probabilistic Scan below an
/// operator is the resolver's table itself (borrowed, not copied; the
/// resolver's tables must outlive Eval), and every other child is
/// evaluated into a local table. Only rows an operator keeps are copied
/// into its result; a top-level Scan returns a copy, since the caller owns
/// the result. `engine.rows_scanned` counts every base row either way.
class QueryEvaluator {
 public:
  QueryEvaluator(ExprPool* pool, TableResolver resolver,
                 EvalMode mode = EvalMode::kProbabilistic,
                 EvalOptions options = EvalOptions());

  /// Evaluates `q`; checks Definition 5's constraints (projection, union
  /// and grouping over aggregation attributes are rejected).
  PvcTable Eval(const Query& q);

 private:
  /// The base table of Scan `q`, counted into `engine.rows_scanned`.
  const PvcTable& ResolveScan(const Query& q);

  /// An operator's input `q`: the base table itself for a probabilistic
  /// Scan, otherwise Eval(q) stored in `*storage`.
  const PvcTable& EvalInput(const Query& q, PvcTable* storage);

  PvcTable EvalScan(const Query& q);
  PvcTable EvalSelect(const Query& q);
  PvcTable EvalProject(const Query& q);
  PvcTable EvalRename(const Query& q);
  PvcTable EvalProduct(const Query& q);
  PvcTable EvalUnion(const Query& q);
  PvcTable EvalGroupAgg(const Query& q);

  /// Applies one predicate atom to a row: either filters on data values or
  /// extends the annotation with a conditional expression. Returns false
  /// when the row is statically excluded.
  bool ApplyAtom(const Schema& schema, const Atom& atom, Row* row);

  /// Fast path for Select(Product(l, r), pred): executes data-column
  /// equality atoms as a hash join instead of materialising the cross
  /// product. Residual data atoms decided by one side's rows alone (every
  /// column on that side, one int, double or string type on both operands)
  /// filter that input before rows are paired, so a rejected pair is never
  /// copied or interned; the remaining atoms apply per joined row, in
  /// predicate order. Rows come out left-major in probe order, right
  /// matches in ascending index. Semantics are identical to the naive
  /// pipeline.
  PvcTable EvalHashJoin(const Query& product, const Predicate& pred);

  ExprPool* pool_;
  TableResolver resolver_;
  EvalMode mode_;
  EvalOptions options_;
};

// -- Delta-aware entry points (incremental view maintenance,
//    src/engine/view.h): the per-row pieces of the evaluator, exposed so a
//    maintenance step can process a delta row through the exact pipeline a
//    full evaluation would, keeping incremental results bit-identical.

/// Applies one predicate atom to a row: data atoms filter (return value),
/// atoms touching an aggregation attribute extend the annotation with the
/// conditional expression [lhs theta rhs] (Figure 4's sigma rule). This is
/// the single implementation behind selection, the hash-join residual pass
/// and delta maintenance.
bool ApplyPredicateAtom(ExprPool* pool, const Schema& schema, const Atom& atom,
                        Row* row);

/// The hash-join execution split of Select(Product(l, r), pred): which
/// conjunction atoms run as cross-side data equi-keys and which remain
/// residual per-row atoms. Both the evaluator's hash join and the join-view
/// delta path derive their plans from this one function, so re-probing a
/// delta uses exactly the keys a full evaluation would.
struct EquiJoinPlan {
  struct Key {
    size_t left_index;
    size_t right_index;
  };
  std::vector<Key> keys;      ///< Hashable cross-side data equalities.
  std::vector<Atom> residual; ///< Everything else, applied per joined row.
};
EquiJoinPlan SplitEquiJoinAtoms(const Predicate& pred, const Schema& left,
                                const Schema& right);

// -- Shard-distributable fragment (scatter entry point, src/engine/shard.h)

/// The base table driving `q` when `q` is a Select/Rename chain over a
/// single Scan -- the fragment a sharded catalog evaluates per shard
/// against that table's partitions: both operators map each input row to
/// at most one output row, preserve order, and leave annotations of data
/// predicates untouched, so per-partition evaluation followed by a merge
/// on the driving rows' variables reproduces the unsharded result bit for
/// bit. Returns nullopt for every other shape (joins, projections, unions
/// and aggregates merge rows across partitions and must gather first).
std::optional<std::string> ShardDrivingTable(const Query& q);

}  // namespace pvcdb

#endif  // PVCDB_QUERY_EVAL_H_
