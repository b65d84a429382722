// Compilation of semiring / semimodule expressions into d-trees
// (Algorithm 1).
//
// The compiler repeatedly applies six decomposition rules, in order:
//   0. ground expressions become constant leaves;
//   1. a sum whose summands split into variable-disjoint groups becomes an
//      independent-sum node (+) -- groups are the connected components of
//      the summands' variable co-occurrence graph;
//   2. a product whose factors split into variable-disjoint groups becomes
//      an independent-product node (.); for single-component sums, read-once
//      common factors are extracted first (e.g. x*y1 + x*y2 = x*(y1 + y2)),
//      which factorises the read-once expressions arising from hierarchical
//      queries (cf. Example 14);
//   3. a tensor with independent sides becomes an (x) node;
//   4. a comparison with independent sides becomes a [theta] node (pruning
//      rules are applied first);
//   5. otherwise the expression is Shannon-expanded on one variable
//      (a |_|_x mutex node, Eq. 10); the default heuristic picks the
//      variable with the most occurrences, as in the paper.
//
// The engine is an iterative explicit-stack kernel: decomposition frames
// carry lazily materialised child subproblems (component regroupings and
// Shannon branches are built exactly when compilation reaches them, so the
// pool grows in the same order as the recursive formulation), the memo is a
// dense ExprId-indexed vector, and the per-expansion scratch (connected
// components, occurrence counting) is epoch-stamped instead of hashed and
// indexed by the variable's position among the root's variables -- no
// recursion depth limit, no per-node allocation on the hot path, and no
// scratch sized to the largest VarId of the database.

#ifndef PVCDB_DTREE_COMPILE_H_
#define PVCDB_DTREE_COMPILE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/dtree/dtree.h"
#include "src/expr/expr.h"
#include "src/prob/variable.h"
#include "src/util/rng.h"

namespace pvcdb {

/// How the Shannon-expansion variable is chosen (rule 5). The paper uses
/// most-occurrences; the alternatives exist for the ablation benchmarks.
enum class VarChoiceHeuristic : uint8_t {
  kMostOccurrences,
  kFirst,
  kRandom,
};

/// Knobs of the compiler; the defaults reproduce the paper's configuration.
struct CompileOptions {
  /// Enables decomposition rules 1-4 (disabling leaves only Shannon
  /// expansion; exponential, for ablation only).
  bool enable_independence = true;
  /// Enables read-once common-factor extraction inside single-component
  /// sums (rule 2's factorisation step).
  bool enable_factorization = true;
  /// Enables the conditional-expression pruning rules.
  bool enable_pruning = true;
  VarChoiceHeuristic heuristic = VarChoiceHeuristic::kMostOccurrences;
  /// Hard cap on the number of emitted d-tree nodes; exceeding it throws
  /// CheckError (compilation can be exponential in the worst case).
  size_t max_nodes = 10'000'000;
  uint64_t random_seed = 42;  ///< For VarChoiceHeuristic::kRandom.
};

/// Statistics of one compilation.
struct CompileStats {
  size_t mutex_expansions = 0;    ///< Number of Shannon expansions.
  size_t independence_splits = 0; ///< Rules 1-3 applications.
  size_t factorizations = 0;      ///< Common-factor extractions.
  size_t prunings = 0;            ///< Comparisons simplified by pruning.
};

/// Compiles expressions of one pool into d-trees (Algorithm 1).
class DTreeCompiler {
 public:
  /// Both `pool` and `variables` must outlive the compiler. The pool is
  /// mutated: decomposition materialises subexpressions.
  DTreeCompiler(ExprPool* pool, const VariableTable* variables,
                CompileOptions options = CompileOptions());

  /// Compiles `e`; Proposition 4 guarantees the result represents the same
  /// probability distribution. Throws CheckError when the node budget is
  /// exceeded.
  DTree Compile(ExprId e);

  const CompileStats& stats() const { return stats_; }

 private:
  /// Sentinel for "not yet compiled" in the dense memo.
  static constexpr DTree::NodeId kNoNode = static_cast<DTree::NodeId>(-1);

  /// One child subproblem of a decomposition frame. kCombine and kBranch
  /// children are materialised (regrouped / substituted) only when
  /// compilation reaches them, preserving the recursive formulation's pool
  /// growth order exactly.
  struct PendingChild {
    enum class Kind : uint8_t {
      kExpr,     ///< An existing expression id.
      kCombine,  ///< Regroup members_[begin, begin+count) under the parent op.
      kBranch,   ///< Substitute(parent expr, frame var, branch_value).
    };
    Kind kind = Kind::kExpr;
    ExprId expr = kInvalidExpr;  ///< Input (kExpr) or resolved id.
    bool resolved = false;
    uint32_t members_begin = 0;  ///< kCombine: range in the members arena.
    uint32_t members_count = 0;
    int64_t branch_value = 0;  ///< kBranch: substituted semiring value.
  };

  /// One decomposition in flight: the node under construction plus its
  /// pending child subproblems (a range in the shared pending_ arena, which
  /// grows and shrinks stack-like with the frame stack).
  struct Frame {
    ExprId expr = kInvalidExpr;
    DTreeNodeKind kind = DTreeNodeKind::kOplus;
    ExprSort sort = ExprSort::kSemiring;
    AggKind agg = AggKind::kSum;
    CmpOp cmp = CmpOp::kEq;
    VarId var = 0;
    bool redirect = false;      ///< Result is the sole child's node id.
    ExprKind combine_kind = ExprKind::kAddS;  ///< Op of kCombine children.
    uint32_t next = 0;
    uint32_t pending_begin = 0;
    uint32_t pending_count = 0;
    uint32_t members_base = 0;
  };

  /// Classifies `e` (rules 0-5): settles leaves immediately, pushes a
  /// decomposition frame otherwise.
  void Visit(ExprId e, DTree* out);
  void PushRedirect(ExprId e, ExprId target);
  void PushShannon(ExprId e, const ExprNode& n);
  void ResolveChild(const Frame& f, PendingChild* pc);

  DTree::NodeId MemoLookup(ExprId e) const {
    return e < memo_.size() ? memo_[e] : kNoNode;
  }
  void MemoStore(ExprId e, DTree::NodeId id) {
    if (e >= memo_.size()) memo_.resize(pool_->NumNodes(), kNoNode);
    memo_[e] = id;
  }

  VarId ChooseVariable(ExprId e);

  /// Position of `v` in root_vars_, searching from `*from` on (callers
  /// walking a sorted variable list narrow the search as they go); the
  /// per-variable scratch is indexed by it. Throws CheckError when `v` is
  /// not a variable of the compiled root.
  uint32_t VarSlot(VarId v, const VarId** from) const;
  uint32_t VarSlot(VarId v) const {
    const VarId* from = root_vars_.data();
    return VarSlot(v, &from);
  }

  /// Path-weighted occurrence counting over the DAG below `e` into the
  /// epoch-stamped occ_ scratch (read back via OccurrencesOf).
  void CountOccurrences(ExprId e);
  double OccurrencesOf(uint32_t slot) const;

  /// Groups `items` into connected components of shared variables; returns
  /// one vector of item indices per component.
  std::vector<std::vector<size_t>> Components(Span<ExprId> items);

  /// Read-once common-factor extraction for single-component sums (kAddS)
  /// and monoid sums of tensors (kAddM); nullopt when nothing factors.
  std::optional<ExprId> TryFactorSum(const ExprNode& n);
  std::optional<ExprId> TryFactorTensorSum(const ExprNode& n);

  ExprPool* pool_;
  const VariableTable* variables_;
  CompileOptions options_;
  CompileStats stats_;
  Rng rng_;

  /// Dense ExprId -> d-tree node memo (kNoNode when uncompiled).
  std::vector<DTree::NodeId> memo_;

  // Frame stack and its side arenas.
  std::vector<Frame> frames_;
  std::vector<PendingChild> pending_;
  std::vector<ExprId> members_;
  std::vector<DTree::NodeId> child_ids_;  // Scratch for AddNode specs.
  std::vector<int64_t> branch_scratch_;

  /// Sorted distinct variables of the expression being compiled. Every
  /// subproblem's variables are a subset, so the per-variable scratch below
  /// is indexed by position here and sized to the root, not to the largest
  /// VarId.
  std::vector<VarId> root_vars_;

  // Epoch-stamped scratch: connected components (per variable slot) and
  // occurrence counting (per node and per variable slot).
  std::vector<uint32_t> var_stamp_;
  std::vector<uint32_t> var_owner_;
  uint32_t var_epoch_ = 0;
  std::vector<size_t> uf_parent_;
  std::vector<uint32_t> comp_of_;

  std::vector<uint32_t> node_stamp_;
  std::vector<uint8_t> node_state_;
  std::vector<double> node_paths_;
  uint32_t node_epoch_ = 0;
  std::vector<ExprId> order_;
  std::vector<ExprId> dfs_stack_;

  std::vector<uint32_t> occ_stamp_;
  std::vector<double> occ_count_;
  uint32_t occ_epoch_ = 0;
};

/// Convenience one-shot compilation.
DTree CompileToDTree(ExprPool* pool, const VariableTable* variables, ExprId e,
                     CompileOptions options = CompileOptions());

/// Compiles each of `exprs` (annotations of independent result tuples, or
/// any other independent subproblems) into its own d-tree, fanning items
/// across up to `num_threads` threads (0 = serial, the ParallelFor
/// convention). Every item -- on the serial path too -- is first cloned
/// into a task-private pool, so `pool` is only read and the produced
/// d-trees and downstream probabilities are bit-identical for every thread
/// count. D-trees reference only VarIds, so they remain valid against
/// `variables` after their private pools are gone.
std::vector<DTree> CompileBatch(const ExprPool& pool,
                                const VariableTable* variables,
                                const std::vector<ExprId>& exprs,
                                CompileOptions options = CompileOptions(),
                                int num_threads = 0);

}  // namespace pvcdb

#endif  // PVCDB_DTREE_COMPILE_H_
