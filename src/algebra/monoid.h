// Aggregation monoids (Definition 2) and the semimodule tensor action
// (Definition 4).
//
// The paper models aggregations as commutative monoids:
//   SUM   = (Z, +, 0)            COUNT = SUM over constant value 1
//   MIN   = (Z +- inf, min, +inf)  MAX = (Z +- inf, max, -inf)
//   PROD  = (Z, *, 1)
// Monoid values are int64_t; +-infinity are encoded by sentinels that the
// monoid operations treat as absorbing/neutral as appropriate.
//
// The tensor action s (x) m of a semiring element on a monoid value is
// "m added to itself s times" in the monoid (Example 6): for s in N,
//   s (x)_SUM m  = s * m          s (x)_PROD m = m^s
//   s (x)_MIN m  = m if s > 0 else +inf
//   s (x)_MAX m  = m if s > 0 else -inf
// For the Boolean semiring this degenerates to: 1 (x) m = m, 0 (x) m = 0_M.
//
// Each monoid M also has a presence-lifted twin M x B used only by step II
// to compile conditional aggregate distributions (src/dtree/joint.h). A pair
// (m, b) carries a value and a presence flag: (m, b) + (m', b') =
// (m +_M m', b OR b') and s (x) (m, b) = (s (x)_M m, b AND s != 0_S). Pairs
// are encoded in one int64_t as 2m + b (EncodeLifted), so the expression
// pool, the compiler and the probability pass handle them like any other
// monoid. The lifted kinds are never parsed, serialized or rendered.

#ifndef PVCDB_ALGEBRA_MONOID_H_
#define PVCDB_ALGEBRA_MONOID_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/algebra/semiring.h"

namespace pvcdb {

/// Aggregation kinds supported by the query language Q (Section 2.3).
enum class AggKind : uint8_t {
  kSum,    ///< SUM: (Z, +, 0).
  kCount,  ///< COUNT: SUM over the constant 1 per tuple.
  kMin,    ///< MIN: (Z U {+inf}, min, +inf).
  kMax,    ///< MAX: (Z U {-inf}, max, -inf).
  kProd,   ///< PROD: (Z, *, 1).
  // Presence-lifted monoids M x B (step II only; see the file comment).
  kSumLifted,
  kCountLifted,
  kMinLifted,
  kMaxLifted,
  kProdLifted,
};

/// Sentinel encodings of +infinity / -infinity used by MIN / MAX.
/// Half of the int64 range so that comparisons never overflow.
inline constexpr int64_t kPosInf = std::numeric_limits<int64_t>::max() / 2;
inline constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 2;

/// True for the presence-lifted kinds M x B.
bool IsLifted(AggKind kind);

/// The presence-lifted twin M x B of a base monoid M.
AggKind LiftedKind(AggKind base);

/// The base monoid M of a lifted kind M x B.
AggKind BaseKind(AggKind lifted);

/// Encodes the pair (m, present) of M x B as 2m + present. Checks that m
/// lies in [kNegInf, kPosInf], the range in which the encoding cannot
/// overflow (the sentinels themselves included).
int64_t EncodeLifted(int64_t m, bool present);

/// The M component of an encoded pair.
inline int64_t LiftedValue(int64_t code) { return code >> 1; }

/// The presence flag of an encoded pair.
inline bool LiftedPresent(int64_t code) { return (code & 1) != 0; }

/// Operations of one concrete aggregation monoid.
class Monoid {
 public:
  explicit Monoid(AggKind kind) : kind_(kind) {}

  AggKind kind() const { return kind_; }

  /// The neutral element 0_M (e.g. 0 for SUM, +inf for MIN; (0_M, 0) for
  /// a lifted kind).
  int64_t Neutral() const;

  /// Monoid addition m1 +_M m2 (e.g. min(m1, m2) for MIN).
  int64_t Plus(int64_t m1, int64_t m2) const;

  /// True when m +_M m = m for every m (MIN, MAX and their lifted twins).
  bool Idempotent() const;

  /// The tensor action s (x) m for a semiring value s (Definition 4).
  int64_t Tensor(const Semiring& semiring, int64_t s, int64_t m) const;

  std::string Name() const;

 private:
  AggKind kind_;
};

/// Comparison operators theta of conditional expressions [alpha theta beta].
enum class CmpOp : uint8_t { kEq, kNe, kLe, kGe, kLt, kGt };

/// Evaluates `a theta b` on (semiring or monoid) values; the +-inf
/// sentinels order correctly under plain integer comparison.
bool EvalCmp(CmpOp op, int64_t a, int64_t b);

/// Rendering of a comparison operator ("=", "!=", "<=", ...).
std::string CmpOpName(CmpOp op);

/// Rendering of an aggregation kind ("SUM", "MIN", ...).
std::string AggKindName(AggKind kind);

/// Renders a monoid value, using "inf"/"-inf" for the sentinels.
std::string MonoidValueToString(int64_t v);

}  // namespace pvcdb

#endif  // PVCDB_ALGEBRA_MONOID_H_
