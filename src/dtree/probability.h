// Bottom-up probability computation on d-trees (Theorem 2).
//
// Given the probability distributions of a d-tree's leaves (P_x for
// variable leaves, point masses for constants), the distribution of every
// inner node follows from Eqs. (4)-(9) by convolution ((+), (.), (x),
// [theta] nodes) and from Eq. (10) by weighted mixture (mutex nodes). The
// distribution of the d-tree is the distribution of its root and is
// computed in one bottom-up pass, each shared node once.
//
// The pass is an iterative explicit-stack kernel over (node, clamp bound)
// subproblems with a dense node-indexed memo -- no recursion depth limit
// on deep d-trees and no hashing per node. The pass is serial: callers
// that want parallelism run independent d-trees concurrently (one per
// result tuple), each through its own pass.
//
// For comparisons of bounded SUM/COUNT aggregates against a constant c,
// partial distributions are clamped at c+1 ("overflow" bucket): every value
// above c compares identically against c, so the clamp preserves the
// comparison's distribution while keeping supports of size O(c) -- this is
// what makes m-bounded SUM evaluation polynomial (Proposition 3).

#ifndef PVCDB_DTREE_PROBABILITY_H_
#define PVCDB_DTREE_PROBABILITY_H_

#include <cstdint>
#include <map>
#include <optional>

#include "src/algebra/semiring.h"
#include "src/dtree/dtree.h"
#include "src/prob/distribution.h"
#include "src/prob/variable.h"

namespace pvcdb {

/// Knobs of the probability computation.
struct ProbabilityOptions {
  /// Enables the c+1 overflow clamp for SUM/COUNT comparisons.
  bool enable_sum_clamping = true;
};

/// Computes the probability distribution of a compiled d-tree.
Distribution ComputeDistribution(const DTree& tree,
                                 const VariableTable& variables,
                                 const Semiring& semiring,
                                 ProbabilityOptions options =
                                     ProbabilityOptions());

/// Probability that a semiring-sorted d-tree evaluates to a non-zero
/// (present / true) value: P[Phi != 0_S].
double ProbabilityNonZero(const DTree& tree, const VariableTable& variables,
                          const Semiring& semiring,
                          ProbabilityOptions options = ProbabilityOptions());

}  // namespace pvcdb

#endif  // PVCDB_DTREE_PROBABILITY_H_
