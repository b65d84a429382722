#include "src/expr/print.h"

#include <string>

#include "src/util/check.h"

namespace pvcdb {

namespace {

// Precedence levels for parenthesisation: sum < product < atom.
enum Precedence { kSumPrec = 0, kProdPrec = 1, kAtomPrec = 2 };

class Printer {
 public:
  Printer(const ExprPool& pool, const VariableTable* variables)
      : pool_(pool), variables_(variables) {}

  void Print(ExprId e, int parent_prec, std::string* out) {
    const ExprNode& n = pool_.node(e);
    switch (n.kind) {
      case ExprKind::kVar:
        if (variables_ != nullptr) {
          out->append(variables_->NameOf(n.var()));
        } else {
          out->push_back('x');
          out->append(std::to_string(n.var()));
        }
        return;
      case ExprKind::kConstS:
        out->append(std::to_string(n.value));
        return;
      case ExprKind::kConstM:
        out->append(MonoidValueToString(n.value));
        return;
      case ExprKind::kAddS: {
        bool paren = parent_prec > kSumPrec;
        if (paren) out->push_back('(');
        bool first = true;
        for (ExprId c : n.children()) {
          if (!first) out->append(" + ");
          first = false;
          Print(c, kSumPrec + 1, out);
        }
        if (paren) out->push_back(')');
        return;
      }
      case ExprKind::kMulS: {
        bool paren = parent_prec > kProdPrec;
        if (paren) out->push_back('(');
        bool first = true;
        for (ExprId c : n.children()) {
          if (!first) out->push_back('*');
          first = false;
          Print(c, kProdPrec + 1, out);
        }
        if (paren) out->push_back(')');
        return;
      }
      case ExprKind::kTensor: {
        bool paren = parent_prec > kProdPrec;
        if (paren) out->push_back('(');
        Print(n.child(0), kProdPrec + 1, out);
        out->append(" (x) ");
        Print(n.child(1), kProdPrec + 1, out);
        if (paren) out->push_back(')');
        return;
      }
      case ExprKind::kAddM: {
        bool paren = parent_prec > kSumPrec;
        if (paren) out->push_back('(');
        bool first = true;
        for (ExprId c : n.children()) {
          if (!first) {
            out->append(" +");
            out->append(AggKindName(n.agg));
            out->push_back(' ');
          }
          first = false;
          Print(c, kSumPrec + 1, out);
        }
        if (paren) out->push_back(')');
        return;
      }
      case ExprKind::kCmp: {
        out->push_back('[');
        Print(n.child(0), kSumPrec, out);
        out->push_back(' ');
        out->append(CmpOpName(n.cmp));
        out->push_back(' ');
        Print(n.child(1), kSumPrec, out);
        out->push_back(']');
        return;
      }
    }
    PVC_FAIL("unknown expression kind");
  }

 private:
  const ExprPool& pool_;
  const VariableTable* variables_;
};

}  // namespace

std::string ExprToString(const ExprPool& pool, ExprId e,
                         const VariableTable* variables) {
  std::string out;
  Printer printer(pool, variables);
  printer.Print(e, kSumPrec, &out);
  return out;
}

}  // namespace pvcdb
