// Joint probability distributions of several expressions (Section 5,
// "Compiling Joint Probability Distributions").
//
// Conditional aggregates. An aggregate's distribution given that its tuple
// is present, P[alpha = v | Phi != 0_S], compiles as ONE d-tree over the
// presence-lifted monoid M x B (src/algebra/monoid.h), whose sum combines
// values with M's own operation and ORs presence flags:
//   - every term Phi_i (x) v_i of alpha becomes Phi_i (x) (v_i, 0);
//   - a HAVING factor [alpha theta c] (either side) is not compiled: it
//     becomes a filter on v;
//   - every summand Phi'_j of the rest Phi' of the annotation adds
//     Phi'_j (x) (0_M, 1). A group factor [S != 0] contributes S's
//     summands (each times the other factors), so the members of a group
//     stay independent components, as in alpha itself.
// In every world the lifted sum evaluates to (alpha, Phi' != 0): the map
// m -> (m, 0) is a semimodule homomorphism, and s (x) (0_M, 1) = (0_M,
// s != 0). The flag, not alpha, records presence, which keeps the result
// exact even when members carry the neutral value (SUM 0, PROD 1). A HAVING
// factor depends on v alone, so filtering the flag-1 part of the root
// distribution is the same as conditioning on it. Algorithm 1 and Eqs. 4-9
// run unchanged over M x B, and Theorem 2 bounds the pass by the d-tree's
// size: a group of independent members, or of hierarchical joins such as
// orders x lineitem, compiles to a d-tree linear in the group.
//
// Only ComputeJointDistribution (AVG, sensitivity, RowJointDistribution)
// still mutex (Shannon) decomposes on shared variables until the
// expressions become pairwise independent, at which point the joint is the
// product of the marginals (each computed through its own d-tree).

#ifndef PVCDB_DTREE_JOINT_H_
#define PVCDB_DTREE_JOINT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/dtree/compile.h"
#include "src/expr/expr.h"
#include "src/prob/distribution.h"
#include "src/prob/variable.h"

namespace pvcdb {

/// A joint distribution over k expressions: value tuple -> probability.
using JointDistribution = std::map<std::vector<int64_t>, double>;

/// Computes the joint distribution of `exprs` (pairwise correlations
/// allowed). Worst-case exponential in the number of shared variables.
JointDistribution ComputeJointDistribution(ExprPool* pool,
                                           const VariableTable& variables,
                                           const std::vector<ExprId>& exprs,
                                           CompileOptions options =
                                               CompileOptions());

/// Distribution of the aggregate `agg_expr` conditioned on the tuple being
/// present, i.e. P[alpha = v | Phi != 0_S], through one d-tree over M x B
/// (see the file comment). Returns an empty distribution when
/// P[Phi != 0_S] = 0.
Distribution ConditionalAggregateDistribution(ExprPool* pool,
                                              const VariableTable& variables,
                                              ExprId agg_expr,
                                              ExprId annotation,
                                              CompileOptions options =
                                                  CompileOptions());

}  // namespace pvcdb

#endif  // PVCDB_DTREE_JOINT_H_
