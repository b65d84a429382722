#include "src/algebra/monoid.h"

#include <algorithm>

#include "src/util/check.h"

namespace pvcdb {

namespace {

// Lifted kinds follow the base kinds in the same order.
constexpr uint8_t kLiftOffset = static_cast<uint8_t>(AggKind::kSumLifted) -
                                static_cast<uint8_t>(AggKind::kSum);

}  // namespace

bool IsLifted(AggKind kind) { return kind >= AggKind::kSumLifted; }

AggKind LiftedKind(AggKind base) {
  PVC_CHECK_MSG(!IsLifted(base), "monoid is already lifted");
  return static_cast<AggKind>(static_cast<uint8_t>(base) + kLiftOffset);
}

AggKind BaseKind(AggKind lifted) {
  PVC_CHECK_MSG(IsLifted(lifted), "monoid is not lifted");
  return static_cast<AggKind>(static_cast<uint8_t>(lifted) - kLiftOffset);
}

int64_t EncodeLifted(int64_t m, bool present) {
  PVC_CHECK_MSG(m >= kNegInf && m <= kPosInf,
                "aggregate value " << m << " outside the lifted range");
  return 2 * m + (present ? 1 : 0);
}

int64_t Monoid::Neutral() const {
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      return 0;
    case AggKind::kMin:
      return kPosInf;
    case AggKind::kMax:
      return kNegInf;
    case AggKind::kProd:
      return 1;
    case AggKind::kSumLifted:
    case AggKind::kCountLifted:
    case AggKind::kMinLifted:
    case AggKind::kMaxLifted:
    case AggKind::kProdLifted:
      return EncodeLifted(Monoid(BaseKind(kind_)).Neutral(), false);
  }
  PVC_FAIL("unknown monoid kind");
}

int64_t Monoid::Plus(int64_t m1, int64_t m2) const {
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      return m1 + m2;
    case AggKind::kMin:
      return std::min(m1, m2);
    case AggKind::kMax:
      return std::max(m1, m2);
    case AggKind::kProd:
      return m1 * m2;
    case AggKind::kSumLifted:
    case AggKind::kCountLifted:
    case AggKind::kMinLifted:
    case AggKind::kMaxLifted:
    case AggKind::kProdLifted:
      return EncodeLifted(Monoid(BaseKind(kind_))
                              .Plus(LiftedValue(m1), LiftedValue(m2)),
                          LiftedPresent(m1) || LiftedPresent(m2));
  }
  PVC_FAIL("unknown monoid kind");
}

bool Monoid::Idempotent() const {
  AggKind base = IsLifted(kind_) ? BaseKind(kind_) : kind_;
  return base == AggKind::kMin || base == AggKind::kMax;
}

int64_t Monoid::Tensor(const Semiring& semiring, int64_t s, int64_t m) const {
  // s (x) m = m +_M ... +_M m, s times (Example 6). A value s outside
  // {0, 1} can only arise under the natural-number semiring.
  PVC_CHECK_MSG(semiring.Contains(s) || semiring.kind() == SemiringKind::kBool,
                "tensor with value outside semiring carrier: " << s);
  int64_t times = semiring.kind() == SemiringKind::kBool ? (s != 0 ? 1 : 0) : s;
  PVC_CHECK_MSG(times >= 0, "tensor requires a non-negative multiplier");
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kCount:
      return times * m;
    case AggKind::kMin:
      return times > 0 ? m : kPosInf;
    case AggKind::kMax:
      return times > 0 ? m : kNegInf;
    case AggKind::kProd: {
      int64_t result = 1;
      for (int64_t i = 0; i < times; ++i) result *= m;
      return result;
    }
    case AggKind::kSumLifted:
    case AggKind::kCountLifted:
    case AggKind::kMinLifted:
    case AggKind::kMaxLifted:
    case AggKind::kProdLifted:
      return EncodeLifted(
          Monoid(BaseKind(kind_)).Tensor(semiring, s, LiftedValue(m)),
          LiftedPresent(m) && times > 0);
  }
  PVC_FAIL("unknown monoid kind");
}

std::string Monoid::Name() const { return AggKindName(kind_); }

bool EvalCmp(CmpOp op, int64_t a, int64_t b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGe:
      return a >= b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kGt:
      return a > b;
  }
  PVC_FAIL("unknown comparison operator");
}

std::string CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kGt:
      return ">";
  }
  PVC_FAIL("unknown comparison operator");
}

std::string AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "SUM";
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kProd:
      return "PROD";
    case AggKind::kSumLifted:
    case AggKind::kCountLifted:
    case AggKind::kMinLifted:
    case AggKind::kMaxLifted:
    case AggKind::kProdLifted:
      return AggKindName(BaseKind(kind)) + "xB";  // Debug output only.
  }
  PVC_FAIL("unknown aggregation kind");
}

std::string MonoidValueToString(int64_t v) {
  if (v == kPosInf) return "inf";
  if (v == kNegInf) return "-inf";
  return std::to_string(v);
}

}  // namespace pvcdb
