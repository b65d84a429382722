#include "src/dtree/joint.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/dtree/probability.h"
#include "src/util/check.h"

namespace pvcdb {

namespace {

class JointComputer {
 public:
  JointComputer(ExprPool* pool, const VariableTable& variables,
                const CompileOptions& options)
      : pool_(pool), variables_(variables), options_(options) {}

  JointDistribution Compute(const std::vector<ExprId>& exprs) {
    // Find a variable shared by at least two expressions.
    std::unordered_map<VarId, int> seen_in;
    VarId shared = 0;
    double best_count = -1.0;
    bool found = false;
    for (ExprId e : exprs) {
      for (VarId v : pool_->VarsOf(e)) {
        if (++seen_in[v] == 2) {
          found = true;
        }
      }
    }
    if (found) {
      // Among shared variables, pick the one with most occurrences overall
      // (the paper's mutex heuristic applied to the joint expression).
      std::unordered_map<VarId, double> counts;
      for (ExprId e : exprs) pool_->CountVarOccurrences(e, &counts);
      for (const auto& [v, k] : seen_in) {
        if (k >= 2 && counts[v] > best_count) {
          best_count = counts[v];
          shared = v;
        }
      }
      // Mutex decomposition on the shared variable (Eq. 10 lifted to
      // tuples of expressions).
      JointDistribution result;
      for (const auto& [s, p] : variables_.DistributionOf(shared).entries()) {
        std::vector<ExprId> branch;
        branch.reserve(exprs.size());
        for (ExprId e : exprs) branch.push_back(pool_->Substitute(e, shared, s));
        JointDistribution sub = Compute(branch);
        for (const auto& [tuple, q] : sub) {
          result[tuple] += p * q;
        }
      }
      return result;
    }
    // Pairwise independent: the joint is the product of marginals.
    std::vector<Distribution> marginals;
    marginals.reserve(exprs.size());
    for (ExprId e : exprs) {
      DTree tree = CompileToDTree(pool_, &variables_, e, options_);
      marginals.push_back(
          ComputeDistribution(tree, variables_, pool_->semiring()));
    }
    JointDistribution result;
    std::vector<int64_t> tuple(exprs.size());
    CrossProduct(marginals, 0, 1.0, &tuple, &result);
    return result;
  }

 private:
  void CrossProduct(const std::vector<Distribution>& marginals, size_t index,
                    double prob, std::vector<int64_t>* tuple,
                    JointDistribution* out) {
    if (index == marginals.size()) {
      (*out)[*tuple] += prob;
      return;
    }
    for (const auto& [v, p] : marginals[index].entries()) {
      (*tuple)[index] = v;
      CrossProduct(marginals, index + 1, prob * p, tuple, out);
    }
  }

  ExprPool* pool_;
  const VariableTable& variables_;
  CompileOptions options_;
};

// A HAVING factor [alpha theta c] (or [c theta alpha]) of the annotation,
// applied as a filter on the value of alpha.
struct ValueFilter {
  CmpOp op;
  int64_t constant;
  bool alpha_left;

  bool Accepts(int64_t v) const {
    return alpha_left ? EvalCmp(op, v, constant) : EvalCmp(op, constant, v);
  }
};

std::optional<ValueFilter> FilterOn(const ExprPool& pool, ExprId factor,
                                    ExprId alpha) {
  const ExprNode& n = pool.node(factor);
  if (n.kind != ExprKind::kCmp) return std::nullopt;
  ExprId lhs = n.child(0);
  ExprId rhs = n.child(1);
  if (lhs == alpha && pool.node(rhs).kind == ExprKind::kConstM) {
    return ValueFilter{n.cmp, pool.node(rhs).value, true};
  }
  if (rhs == alpha && pool.node(lhs).kind == ExprKind::kConstM) {
    return ValueFilter{n.cmp, pool.node(lhs).value, false};
  }
  return std::nullopt;
}

// The sum S of a group factor [S != 0] as step I builds it (Figure 4),
// kInvalidExpr for any other factor.
ExprId GroupSum(const ExprPool& pool, ExprId factor) {
  const ExprNode& n = pool.node(factor);
  if (n.kind != ExprKind::kCmp || n.cmp != CmpOp::kNe) return kInvalidExpr;
  const ExprNode& rhs = pool.node(n.child(1));
  if (rhs.kind != ExprKind::kConstS || rhs.value != 0) return kInvalidExpr;
  return n.child(0);
}

size_t SharedVars(Span<VarId> a, Span<VarId> b) {
  size_t shared = 0;
  const VarId* i = a.begin();
  const VarId* j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

// Rewrites a monoid-sorted expression over M into M x B, every constant m
// becoming (m, 0). m -> (m, 0) is a semimodule homomorphism, so the result
// evaluates to (alpha, 0) in every world.
ExprId LiftValue(ExprPool* pool, ExprId e, AggKind lifted) {
  const ExprNode n = pool->node(e);  // Copy: interning below.
  switch (n.kind) {
    case ExprKind::kConstM:
      return pool->ConstM(lifted, EncodeLifted(n.value, false));
    case ExprKind::kTensor:
      return pool->Tensor(n.child(0), LiftValue(pool, n.child(1), lifted));
    case ExprKind::kAddM: {
      std::vector<ExprId> terms;
      terms.reserve(n.num_children);
      for (ExprId c : n.children()) terms.push_back(LiftValue(pool, c, lifted));
      return pool->AddM(lifted, terms);
    }
    default:
      break;
  }
  PVC_FAIL("only monoid-sorted expressions lift to M x B");
}

}  // namespace

JointDistribution ComputeJointDistribution(ExprPool* pool,
                                           const VariableTable& variables,
                                           const std::vector<ExprId>& exprs,
                                           CompileOptions options) {
  PVC_CHECK(pool != nullptr);
  PVC_CHECK_MSG(!exprs.empty(), "joint distribution needs >= 1 expression");
  JointComputer computer(pool, variables, options);
  return computer.Compute(exprs);
}

Distribution ConditionalAggregateDistribution(ExprPool* pool,
                                              const VariableTable& variables,
                                              ExprId agg_expr,
                                              ExprId annotation,
                                              CompileOptions options) {
  PVC_CHECK(pool != nullptr);
  const AggKind agg = pool->node(agg_expr).agg;
  const AggKind lifted = LiftedKind(agg);

  // Split the annotation's factors into HAVING filters on alpha and the
  // rest, which decides presence.
  std::vector<ValueFilter> filters;
  std::vector<ExprId> rest;
  const ExprNode an = pool->node(annotation);
  Span<ExprId> factors = an.kind == ExprKind::kMulS
                             ? an.children()
                             : Span<ExprId>{&annotation, 1};
  for (ExprId f : factors) {
    std::optional<ValueFilter> filter = FilterOn(*pool, f, agg_expr);
    if (filter.has_value()) {
      filters.push_back(*filter);
    } else {
      rest.push_back(f);
    }
  }

  // Presence summands: the rest is non-zero iff one of them is. Only
  // whether a summand is non-zero reaches the flag, since s (x) (0_M, 1) =
  // (0_M, s != 0), and [S != 0] != 0 iff one of S's summands is. So the
  // group factor sharing the most variables with alpha gives way to S's
  // summands, each times the other factors: independent members of the
  // group stay independent components, as they are in alpha.
  size_t group = rest.size();
  size_t best_shared = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    ExprId sum = GroupSum(*pool, rest[i]);
    if (sum == kInvalidExpr) continue;
    size_t shared = SharedVars(pool->VarsOf(sum), pool->VarsOf(agg_expr));
    if (group == rest.size() || shared > best_shared) {
      group = i;
      best_shared = shared;
    }
  }
  std::vector<ExprId> summands;
  if (group == rest.size()) {
    summands.push_back(pool->MulS(rest));
  } else {
    ExprId sum = GroupSum(*pool, rest[group]);
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(group));
    ExprId others = pool->MulS(rest);
    const ExprNode sn = pool->node(sum);  // Copy: interning below.
    Span<ExprId> parts =
        sn.kind == ExprKind::kAddS ? sn.children() : Span<ExprId>{&sum, 1};
    for (ExprId s : parts) summands.push_back(pool->MulS(s, others));
  }

  // One expression over M x B: alpha's terms carry (v, 0), every presence
  // summand adds (0_M, 1).
  std::vector<ExprId> terms = {LiftValue(pool, agg_expr, lifted)};
  ExprId present =
      pool->ConstM(lifted, EncodeLifted(Monoid(agg).Neutral(), true));
  for (ExprId s : summands) terms.push_back(pool->Tensor(s, present));
  ExprId pair = pool->AddM(lifted, terms);
  DTree tree = CompileToDTree(pool, &variables, pair, options);
  Distribution joint = ComputeDistribution(tree, variables, pool->semiring());

  // P[alpha = v | Phi != 0] is the flag-1 part that passes every HAVING
  // filter, normalised.
  double present_mass = 0.0;
  std::vector<Distribution::Entry> entries;
  for (const auto& [code, p] : joint.entries()) {
    if (!LiftedPresent(code)) continue;
    int64_t v = LiftedValue(code);
    bool pass = true;
    for (const ValueFilter& filter : filters) pass = pass && filter.Accepts(v);
    if (!pass) continue;
    present_mass += p;
    entries.push_back({v, p});
  }
  if (present_mass <= 0.0) return Distribution();
  for (auto& e : entries) e.second /= present_mass;
  return Distribution::FromPairs(std::move(entries));
}

}  // namespace pvcdb
