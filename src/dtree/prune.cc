#include "src/dtree/prune.h"

#include <optional>
#include <vector>

#include "src/util/check.h"

namespace pvcdb {

namespace {

// Mirrors a comparison operator for swapped operands: a op b == b op' a.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLt;
  }
  PVC_FAIL("unknown comparison operator");
}

// The constant monoid value of a summand's value part: m for kConstM and
// for kTensor with a constant m-part; nullopt otherwise.
std::optional<int64_t> TermValue(const ExprPool& pool, ExprId term) {
  const ExprNode& n = pool.node(term);
  if (n.kind == ExprKind::kConstM) return n.value;
  if (n.kind == ExprKind::kTensor) {
    const ExprNode& m = pool.node(n.child(1));
    if (m.kind == ExprKind::kConstM) return m.value;
  }
  return std::nullopt;
}

// True when the term is "definitely present": its semiring part is a
// non-zero constant (e.g. a bare monoid constant). Such terms always
// contribute m to the aggregate.
bool TermAlwaysPresent(const ExprPool& pool, ExprId term) {
  const ExprNode& n = pool.node(term);
  if (n.kind == ExprKind::kConstM) return true;
  if (n.kind == ExprKind::kTensor) {
    const ExprNode& s = pool.node(n.child(0));
    return s.kind == ExprKind::kConstS &&
           s.value != pool.semiring().Zero();
  }
  return false;
}

// MIN-monoid keep-predicate: should a term with value m be kept when
// comparing [min ... op c]? Dropping a term never changes the verdict when
// the kept terms alone decide it (see DESIGN.md for the case analysis).
bool KeepForMin(CmpOp op, int64_t m, int64_t c) {
  switch (op) {
    case CmpOp::kLe:  // [min <= c] iff some present term <= c.
    case CmpOp::kEq:  // [min = c] decided by terms <= c.
    case CmpOp::kNe:
    case CmpOp::kGt:  // [min > c] iff no present term <= c.
      return m <= c;
    case CmpOp::kLt:  // [min < c] iff some present term < c.
    case CmpOp::kGe:  // [min >= c] iff no present term < c.
      return m < c;
  }
  PVC_FAIL("unknown comparison operator");
}

// MAX-monoid mirror of KeepForMin.
bool KeepForMax(CmpOp op, int64_t m, int64_t c) {
  switch (op) {
    case CmpOp::kGe:
    case CmpOp::kEq:
    case CmpOp::kNe:
    case CmpOp::kLt:
      return m >= c;
    case CmpOp::kGt:
    case CmpOp::kLe:
      return m > c;
  }
  PVC_FAIL("unknown comparison operator");
}

// Interval of values a semimodule sum can realise across worlds:
// [lo, hi] derived from its terms' constant values and from which terms
// are "always present" (constant non-zero semiring part). Returns false
// when the side's shape is not analysable (non-constant values, PROD,
// negative SUM addends, non-Boolean semiring for SUM).
struct ValueInterval {
  int64_t lo;
  int64_t hi;
};

bool SideInterval(const ExprPool& pool, ExprId side, ValueInterval* out) {
  const ExprNode& n = pool.node(side);
  if (n.sort != ExprSort::kMonoid) return false;
  std::vector<ExprId> terms;
  if (n.kind == ExprKind::kAddM) {
    terms.assign(n.children().begin(), n.children().end());
  } else {
    terms = {side};
  }
  const AggKind agg = n.agg;
  if (agg == AggKind::kProd) return false;
  Monoid monoid(agg);
  bool is_sum = agg == AggKind::kSum || agg == AggKind::kCount;
  if (is_sum && pool.semiring().kind() != SemiringKind::kBool) return false;
  // Aggregate over all terms and over the always-present subset.
  int64_t all = monoid.Neutral();
  int64_t always = monoid.Neutral();
  for (ExprId t : terms) {
    std::optional<int64_t> v = TermValue(pool, t);
    if (!v.has_value()) return false;
    if (is_sum && *v < 0) return false;
    all = monoid.Plus(all, *v);
    if (TermAlwaysPresent(pool, t)) always = monoid.Plus(always, *v);
  }
  switch (agg) {
    case AggKind::kMin:
      // Realised min lies between "every term present" and "only the
      // always-present terms".
      out->lo = all;
      out->hi = always;
      return true;
    case AggKind::kMax:
      out->lo = always;
      out->hi = all;
      return true;
    case AggKind::kSum:
    case AggKind::kCount:
      out->lo = always;
      out->hi = all;
      return true;
    case AggKind::kProd:
    case AggKind::kSumLifted:
    case AggKind::kCountLifted:
    case AggKind::kMinLifted:
    case AggKind::kMaxLifted:
    case AggKind::kProdLifted:
      return false;
  }
  return false;
}

// Decides `[l theta r]` from the two sides' value intervals when the
// verdict is world-independent; nullopt otherwise.
std::optional<bool> DecideFromIntervals(CmpOp op, ValueInterval l,
                                        ValueInterval r) {
  switch (op) {
    case CmpOp::kLe:
      if (l.hi <= r.lo) return true;
      if (l.lo > r.hi) return false;
      return std::nullopt;
    case CmpOp::kLt:
      if (l.hi < r.lo) return true;
      if (l.lo >= r.hi) return false;
      return std::nullopt;
    case CmpOp::kGe:
      if (l.lo >= r.hi) return true;
      if (l.hi < r.lo) return false;
      return std::nullopt;
    case CmpOp::kGt:
      if (l.lo > r.hi) return true;
      if (l.hi <= r.lo) return false;
      return std::nullopt;
    case CmpOp::kEq:
      if (l.lo == l.hi && r.lo == r.hi && l.lo == r.lo) return true;
      if (l.hi < r.lo || r.hi < l.lo) return false;
      return std::nullopt;
    case CmpOp::kNe:
      if (l.lo == l.hi && r.lo == r.hi && l.lo == r.lo) return false;
      if (l.hi < r.lo || r.hi < l.lo) return true;
      return std::nullopt;
  }
  PVC_FAIL("unknown comparison operator");
}

}  // namespace

ExprId PruneComparison(ExprPool& pool, ExprId e) {
  const ExprNode& n = pool.node(e);
  if (n.kind != ExprKind::kCmp) return e;

  ExprId lhs = n.child(0);
  ExprId rhs = n.child(1);
  CmpOp op = n.cmp;
  // Normalise the constant to the right-hand side.
  if (pool.node(lhs).kind == ExprKind::kConstM) {
    std::swap(lhs, rhs);
    op = MirrorOp(op);
  }
  const ExprNode& ln = pool.node(lhs);
  const ExprNode& rn = pool.node(rhs);
  // Two-sided comparisons (Experiment E's workloads): decide from the
  // sides' world-independent value intervals when possible -- e.g. once
  // the always-present part of a SUM side exceeds a MAX side's largest
  // term, [MAX <= SUM] is a tautology and compilation can stop. This is
  // what makes growing the SUM side of Figure 10(b) *cheaper*.
  if (ln.sort == ExprSort::kMonoid && rn.sort == ExprSort::kMonoid &&
      rn.kind != ExprKind::kConstM && ln.kind != ExprKind::kConstM) {
    ValueInterval li;
    ValueInterval ri;
    if (SideInterval(pool, lhs, &li) && SideInterval(pool, rhs, &ri)) {
      std::optional<bool> verdict = DecideFromIntervals(op, li, ri);
      if (verdict.has_value()) {
        return pool.ConstS(*verdict ? pool.semiring().One()
                                    : pool.semiring().Zero());
      }
    }
    return e;
  }
  if (rn.kind != ExprKind::kConstM || ln.sort != ExprSort::kMonoid) return e;
  const int64_t c = rn.value;

  // Collect the summands of the left-hand side (a single tensor/constant
  // counts as a one-term sum).
  std::vector<ExprId> terms;
  if (ln.kind == ExprKind::kAddM) {
    terms.assign(ln.children().begin(), ln.children().end());
  } else {
    terms = {lhs};
  }
  // All terms must have constant monoid values for the rules to apply.
  std::vector<int64_t> values;
  values.reserve(terms.size());
  for (ExprId t : terms) {
    std::optional<int64_t> v = TermValue(pool, t);
    if (!v.has_value()) return e;
    values.push_back(*v);
  }

  const AggKind agg = ln.agg;
  if (agg == AggKind::kMin || agg == AggKind::kMax) {
    std::vector<ExprId> kept;
    kept.reserve(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      bool keep = agg == AggKind::kMin ? KeepForMin(op, values[i], c)
                                       : KeepForMax(op, values[i], c);
      if (keep) kept.push_back(terms[i]);
    }
    if (kept.size() == terms.size()) return e;
    return pool.Cmp(op, pool.AddM(agg, std::move(kept)), rhs);
  }

  if (agg == AggKind::kSum || agg == AggKind::kCount) {
    // The bounds reasoning needs each phi_i to contribute m_i at most once,
    // i.e. Boolean-semiring annotations, and non-negative values.
    if (pool.semiring().kind() != SemiringKind::kBool) return e;
    int64_t total = 0;
    int64_t base = 0;  // Contribution of always-present terms.
    for (size_t i = 0; i < terms.size(); ++i) {
      if (values[i] < 0) return e;
      total += values[i];
      if (TermAlwaysPresent(pool, terms[i])) base += values[i];
    }
    // The realised aggregate always lies in [base, total].
    auto verdict = [&]() -> std::optional<bool> {
      switch (op) {
        case CmpOp::kLe:
          if (total <= c) return true;
          if (base > c) return false;
          return std::nullopt;
        case CmpOp::kLt:
          if (total < c) return true;
          if (base >= c) return false;
          return std::nullopt;
        case CmpOp::kGe:
          if (base >= c) return true;
          if (total < c) return false;
          return std::nullopt;
        case CmpOp::kGt:
          if (base > c) return true;
          if (total <= c) return false;
          return std::nullopt;
        case CmpOp::kEq:
          if (c < base || c > total) return false;
          if (base == total && base == c) return true;
          return std::nullopt;
        case CmpOp::kNe:
          if (c < base || c > total) return true;
          if (base == total && base == c) return false;
          return std::nullopt;
      }
      PVC_FAIL("unknown comparison operator");
    }();
    if (verdict.has_value()) {
      return pool.ConstS(*verdict ? pool.semiring().One()
                                  : pool.semiring().Zero());
    }
  }
  return e;
}

}  // namespace pvcdb
