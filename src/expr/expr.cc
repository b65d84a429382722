#include "src/expr/expr.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/metrics.h"

namespace pvcdb {

namespace {

/// Free slot marker of the open-addressing intern table.
constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

// Distinct salts per node kind keep hashes of different kinds apart.
uint64_t KindSalt(ExprKind kind) {
  return 0x517cc1b727220a95ULL * (static_cast<uint64_t>(kind) + 1);
}

// murmur3's fmix64 finalizer: every input bit reaches every low bit.
uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

ExprPool::ExprPool(SemiringKind kind) : semiring_(kind) {}

const ExprNode& ExprPool::node(ExprId id) const {
  PVC_CHECK_MSG(id < nodes_.size(), "invalid expression id " << id);
  return nodes_[id];
}

bool ExprPool::IsConst(ExprId id) const {
  ExprKind k = node(id).kind;
  return k == ExprKind::kConstS || k == ExprKind::kConstM;
}

uint64_t ExprPool::NodeHash(ExprKind kind, ExprSort sort, AggKind agg,
                            CmpOp cmp, int64_t value, const ExprId* children,
                            uint32_t num_children) {
  uint64_t h = KindSalt(kind);
  h = HashCombine(h, static_cast<uint64_t>(sort));
  h = HashCombine(h, static_cast<uint64_t>(agg));
  h = HashCombine(h, static_cast<uint64_t>(cmp));
  h = HashCombine(h, std::hash<int64_t>()(value));
  for (uint32_t i = 0; i < num_children; ++i) h = HashCombine(h, children[i]);
  // HashCombine keeps sequential inputs (variable ids, child ids) nearly
  // sequential, and the table takes `h & mask` as the home slot; unmixed,
  // such nodes fill long runs of adjacent slots that every probe landing
  // in them walks to the end.
  return Fmix64(h);
}

void ExprPool::Rehash(size_t new_size) {
  table_.assign(new_size, kEmptySlot);
  size_t mask = new_size - 1;
  for (ExprId id = 0; id < nodes_.size(); ++id) {
    size_t i = nodes_[id].hash & mask;
    while (table_[i] != kEmptySlot) i = (i + 1) & mask;
    table_[i] = id;
  }
}

size_t ExprPool::LongestOccupiedRun() const {
  size_t n = table_.size();
  if (n == 0) return 0;
  // Start past a free slot (the load stays below 0.7), so a run that wraps
  // around the end of the table counts as one.
  size_t start = 0;
  while (table_[start] != kEmptySlot) ++start;
  size_t longest = 0;
  size_t run = 0;
  for (size_t k = 1; k <= n; ++k) {
    if (table_[(start + k) & (n - 1)] == kEmptySlot) {
      run = 0;
    } else {
      longest = std::max(longest, ++run);
    }
  }
  return longest;
}

void ExprPool::StoreVars(ExprNode* node, const VarId* vars, uint32_t n) {
  node->num_vars = n;
  if (n <= ExprNode::kInlineVars) {
    std::copy(vars, vars + n, node->inline_vars_);
  } else {
    node->vars_ptr_ = var_arena_.Append(vars, n);
  }
}

void ExprPool::FillVars(ExprNode* node, const ExprId* children, uint32_t n) {
  switch (node->kind) {
    case ExprKind::kVar: {
      VarId v = node->var();
      StoreVars(node, &v, 1);
      return;
    }
    case ExprKind::kConstS:
    case ExprKind::kConstM:
      node->num_vars = 0;
      return;
    default:
      break;
  }
  // Union of the children's (sorted distinct) variable sets. A node with a
  // single non-ground child shares that child's arena run outright.
  const ExprNode* single = nullptr;
  uint32_t non_ground = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const ExprNode& c = nodes_[children[i]];
    if (!c.IsGround()) {
      ++non_ground;
      single = &c;
    }
  }
  if (non_ground == 0) {
    node->num_vars = 0;
    return;
  }
  if (non_ground == 1) {
    if (single->num_vars > ExprNode::kInlineVars) {
      node->num_vars = single->num_vars;
      node->vars_ptr_ = single->vars_ptr_;
    } else {
      StoreVars(node, single->vars().data(), single->num_vars);
    }
    return;
  }
  scratch_vars_.clear();
  if (non_ground == 2 && n == 2) {
    Span<VarId> a = nodes_[children[0]].vars();
    Span<VarId> b = nodes_[children[1]].vars();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(scratch_vars_));
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      Span<VarId> cv = nodes_[children[i]].vars();
      scratch_vars_.insert(scratch_vars_.end(), cv.begin(), cv.end());
    }
    std::sort(scratch_vars_.begin(), scratch_vars_.end());
    scratch_vars_.erase(
        std::unique(scratch_vars_.begin(), scratch_vars_.end()),
        scratch_vars_.end());
  }
  StoreVars(node, scratch_vars_.data(),
            static_cast<uint32_t>(scratch_vars_.size()));
}

ExprId ExprPool::Intern(ExprKind kind, ExprSort sort, AggKind agg, CmpOp cmp,
                        int64_t value, const ExprId* children,
                        uint32_t num_children) {
  uint64_t h = NodeHash(kind, sort, agg, cmp, value, children, num_children);
  if (table_.empty()) Rehash(512);
  size_t mask = table_.size() - 1;
  size_t i = h & mask;
  for (;; i = (i + 1) & mask) {
    uint32_t slot = table_[i];
    if (slot == kEmptySlot) break;
    const ExprNode& cand = nodes_[slot];
    if (cand.hash == h && cand.kind == kind && cand.sort == sort &&
        cand.agg == agg && cand.cmp == cmp && cand.value == value &&
        cand.num_children == num_children &&
        std::equal(children, children + num_children,
                   cand.children().begin())) {
      return slot;
    }
  }
  ExprNode node;
  node.kind = kind;
  node.sort = sort;
  node.agg = agg;
  node.cmp = cmp;
  node.value = value;
  node.hash = h;
  node.num_children = num_children;
  if (num_children <= ExprNode::kInlineChildren) {
    std::copy(children, children + num_children, node.inline_children_);
  } else {
    node.children_ptr_ = child_arena_.Append(children, num_children);
  }
  FillVars(&node, children, num_children);
  ExprId id = static_cast<ExprId>(nodes_.size());
  PVC_CHECK_MSG(id != kInvalidExpr, "expression pool exhausted");
  nodes_.push_back(node);
  table_[i] = id;
  ++table_used_;
  PVCDB_COUNTER_ADD("engine.exprs_interned", 1);
  if ((table_used_ + 1) * 10 >= table_.size() * 7) Rehash(table_.size() * 2);
  return id;
}

ExprId ExprPool::Var(VarId x) {
  return Intern(ExprKind::kVar, ExprSort::kSemiring, AggKind::kSum,
                CmpOp::kEq, static_cast<int64_t>(x), nullptr, 0);
}

ExprId ExprPool::ConstS(int64_t s) {
  return Intern(ExprKind::kConstS, ExprSort::kSemiring, AggKind::kSum,
                CmpOp::kEq, semiring_.Canonical(s), nullptr, 0);
}

ExprId ExprPool::AddSRange(const ExprId* terms, size_t n) {
  // Flatten nested sums.
  std::vector<ExprId>& flat = scratch_flat_;
  flat.clear();
  for (size_t t = 0; t < n; ++t) {
    const ExprNode& tn = node(terms[t]);
    PVC_CHECK_MSG(tn.sort == ExprSort::kSemiring,
                  "AddS requires semiring-sorted terms");
    if (tn.kind == ExprKind::kAddS) {
      Span<ExprId> c = tn.children();
      flat.insert(flat.end(), c.begin(), c.end());
    } else {
      flat.push_back(terms[t]);
    }
  }
  // Fold constants; keep non-constants.
  int64_t const_sum = semiring_.Zero();
  std::vector<ExprId>& rest = scratch_rest_;
  rest.clear();
  for (ExprId t : flat) {
    const ExprNode& tn = nodes_[t];
    if (tn.kind == ExprKind::kConstS) {
      const_sum = semiring_.Plus(const_sum, tn.value);
    } else {
      rest.push_back(t);
    }
  }
  // Boolean absorption: 1 + Phi = 1.
  if (semiring_.kind() == SemiringKind::kBool && const_sum != 0) {
    return ConstS(1);
  }
  std::sort(rest.begin(), rest.end());
  if (semiring_.kind() == SemiringKind::kBool) {
    // Idempotence of OR in PosBool(X): x + x = x.
    rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  }
  if (const_sum != semiring_.Zero()) {
    rest.push_back(ConstS(const_sum));
    std::sort(rest.begin(), rest.end());
  }
  if (rest.empty()) return ConstS(semiring_.Zero());
  if (rest.size() == 1) return rest.front();
  return Intern(ExprKind::kAddS, ExprSort::kSemiring, AggKind::kSum,
                CmpOp::kEq, 0, rest.data(), static_cast<uint32_t>(rest.size()));
}

ExprId ExprPool::MulSRange(const ExprId* factors, size_t n) {
  std::vector<ExprId>& flat = scratch_flat_;
  flat.clear();
  for (size_t f = 0; f < n; ++f) {
    const ExprNode& fn = node(factors[f]);
    PVC_CHECK_MSG(fn.sort == ExprSort::kSemiring,
                  "MulS requires semiring-sorted factors");
    if (fn.kind == ExprKind::kMulS) {
      Span<ExprId> c = fn.children();
      flat.insert(flat.end(), c.begin(), c.end());
    } else {
      flat.push_back(factors[f]);
    }
  }
  int64_t const_prod = semiring_.One();
  std::vector<ExprId>& rest = scratch_rest_;
  rest.clear();
  for (ExprId f : flat) {
    const ExprNode& fn = nodes_[f];
    if (fn.kind == ExprKind::kConstS) {
      const_prod = semiring_.Times(const_prod, fn.value);
    } else {
      rest.push_back(f);
    }
  }
  if (const_prod == semiring_.Zero()) return ConstS(semiring_.Zero());
  std::sort(rest.begin(), rest.end());
  if (semiring_.kind() == SemiringKind::kBool) {
    // Idempotence of AND in PosBool(X): x * x = x.
    rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  }
  if (const_prod != semiring_.One()) {
    rest.push_back(ConstS(const_prod));
    std::sort(rest.begin(), rest.end());
  }
  if (rest.empty()) return ConstS(semiring_.One());
  if (rest.size() == 1) return rest.front();
  return Intern(ExprKind::kMulS, ExprSort::kSemiring, AggKind::kSum,
                CmpOp::kEq, 0, rest.data(), static_cast<uint32_t>(rest.size()));
}

ExprId ExprPool::ConstM(AggKind agg, int64_t m) {
  return Intern(ExprKind::kConstM, ExprSort::kMonoid, agg, CmpOp::kEq, m,
                nullptr, 0);
}

ExprId ExprPool::Tensor(ExprId s_expr, ExprId m_expr) {
  // Copies: interning below may reallocate the node vector.
  const ExprNode sn = node(s_expr);
  const ExprNode mn = node(m_expr);
  PVC_CHECK_MSG(sn.sort == ExprSort::kSemiring,
                "Tensor left operand must be semiring-sorted");
  PVC_CHECK_MSG(mn.sort == ExprSort::kMonoid,
                "Tensor right operand must be monoid-sorted");
  AggKind agg = mn.agg;
  Monoid monoid(agg);
  // s (x) 0_M = 0_M.
  if (mn.kind == ExprKind::kConstM && mn.value == monoid.Neutral()) {
    return m_expr;
  }
  if (sn.kind == ExprKind::kConstS) {
    // 0_S (x) m = 0_M; 1_S (x) m = m.
    if (sn.value == semiring_.Zero()) return ConstM(agg, monoid.Neutral());
    if (sn.value == semiring_.One()) return m_expr;
    if (mn.kind == ExprKind::kConstM) {
      return ConstM(agg, monoid.Tensor(semiring_, sn.value, mn.value));
    }
  }
  // (s1 (x) (s2 (x) m)) = (s1 * s2) (x) m.
  if (mn.kind == ExprKind::kTensor) {
    return Tensor(MulS(s_expr, mn.child(0)), mn.child(1));
  }
  ExprId children[2] = {s_expr, m_expr};
  return Intern(ExprKind::kTensor, ExprSort::kMonoid, agg, CmpOp::kEq, 0,
                children, 2);
}

ExprId ExprPool::AddMRange(AggKind agg, const ExprId* terms, size_t n) {
  Monoid monoid(agg);
  std::vector<ExprId>& flat = scratch_flat_;
  flat.clear();
  for (size_t t = 0; t < n; ++t) {
    const ExprNode& tn = node(terms[t]);
    PVC_CHECK_MSG(tn.sort == ExprSort::kMonoid,
                  "AddM requires monoid-sorted terms");
    PVC_CHECK_MSG(tn.agg == agg, "AddM requires terms of the same monoid, got "
                                     << AggKindName(tn.agg) << " vs "
                                     << AggKindName(agg));
    if (tn.kind == ExprKind::kAddM) {
      Span<ExprId> c = tn.children();
      flat.insert(flat.end(), c.begin(), c.end());
    } else {
      flat.push_back(terms[t]);
    }
  }
  int64_t const_sum = monoid.Neutral();
  std::vector<ExprId>& rest = scratch_rest_;
  rest.clear();
  for (ExprId t : flat) {
    const ExprNode& tn = nodes_[t];
    if (tn.kind == ExprKind::kConstM) {
      const_sum = monoid.Plus(const_sum, tn.value);
    } else {
      rest.push_back(t);
    }
  }
  std::sort(rest.begin(), rest.end());
  if (monoid.Idempotent()) {
    // Idempotence of min/max (and their lifted twins): alpha +_M alpha =
    // alpha.
    rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  }
  if (const_sum != monoid.Neutral()) {
    rest.push_back(ConstM(agg, const_sum));
    std::sort(rest.begin(), rest.end());
  }
  if (rest.empty()) return ConstM(agg, monoid.Neutral());
  if (rest.size() == 1) return rest.front();
  return Intern(ExprKind::kAddM, ExprSort::kMonoid, agg, CmpOp::kEq, 0,
                rest.data(), static_cast<uint32_t>(rest.size()));
}

ExprId ExprPool::Cmp(CmpOp op, ExprId lhs, ExprId rhs) {
  const ExprNode& ln = node(lhs);
  const ExprNode& rn = node(rhs);
  PVC_CHECK_MSG(ln.sort == rn.sort,
                "Cmp requires operands of the same sort (both semiring or "
                "both monoid)");
  if ((ln.kind == ExprKind::kConstS && rn.kind == ExprKind::kConstS) ||
      (ln.kind == ExprKind::kConstM && rn.kind == ExprKind::kConstM)) {
    return ConstS(EvalCmp(op, ln.value, rn.value) ? semiring_.One()
                                                  : semiring_.Zero());
  }
  ExprId children[2] = {lhs, rhs};
  return Intern(ExprKind::kCmp, ExprSort::kSemiring, AggKind::kSum, op, 0,
                children, 2);
}

ExprId ExprPool::Substitute(ExprId e, VarId x, int64_t s) {
  {
    Span<VarId> vs = VarsOf(e);
    if (!std::binary_search(vs.begin(), vs.end(), x)) return e;
  }
  // Epoch-stamped dense memo: within one call, (x, s) are fixed, so keying
  // on the node id suffices. Rewriting only visits nodes reachable from
  // `e`, all of which predate the call, so the memo never needs to cover
  // nodes created by the rewrite itself. Bumping the epoch resets the memo
  // in O(1); the explicit stack removes any recursion depth limit.
  if (subst_stamp_.size() < nodes_.size()) {
    subst_stamp_.resize(nodes_.size(), 0);
    subst_memo_.resize(nodes_.size());
  }
  if (++subst_epoch_ == 0) {
    std::fill(subst_stamp_.begin(), subst_stamp_.end(), 0u);
    subst_epoch_ = 1;
  }
  const uint32_t epoch = subst_epoch_;
  auto settled = [&](ExprId id) { return subst_stamp_[id] == epoch; };
  auto settle = [&](ExprId id, ExprId result) {
    subst_stamp_[id] = epoch;
    subst_memo_[id] = result;
  };
  // Nodes not mentioning x rewrite to themselves without a visit.
  auto trivially_self = [&](ExprId id) {
    Span<VarId> vs = nodes_[id].vars();
    return !std::binary_search(vs.begin(), vs.end(), x);
  };

  std::vector<ExprId>& stack = subst_stack_;
  stack.clear();
  stack.push_back(e);
  std::vector<ExprId> args;  // Rewritten children of the node being built.
  while (!stack.empty()) {
    ExprId id = stack.back();
    if (settled(id)) {
      stack.pop_back();
      continue;
    }
    const ExprNode n = nodes_[id];  // Copy: the pool grows below.
    if (n.kind == ExprKind::kVar) {
      // n.var() == x here (nodes without x never enter the stack).
      settle(id, ConstS(s));
      stack.pop_back();
      continue;
    }
    // Children first (left to right, hence pushed in reverse), mirroring
    // the substitution order of the recursive formulation so the rewritten
    // pool grows in the identical sequence.
    bool ready = true;
    Span<ExprId> kids = n.children();
    for (size_t i = kids.size(); i-- > 0;) {
      ExprId c = kids[i];
      if (settled(c)) continue;
      if (trivially_self(c)) {
        settle(c, c);
        continue;
      }
      stack.push_back(c);
      ready = false;
    }
    if (!ready) continue;
    ExprId result = kInvalidExpr;
    switch (n.kind) {
      case ExprKind::kVar:
      case ExprKind::kConstS:
      case ExprKind::kConstM:
        PVC_FAIL("constants contain no variables");
      case ExprKind::kAddS:
      case ExprKind::kMulS:
      case ExprKind::kAddM: {
        args.clear();
        for (ExprId c : kids) args.push_back(subst_memo_[c]);
        if (n.kind == ExprKind::kAddS) {
          result = AddSRange(args.data(), args.size());
        } else if (n.kind == ExprKind::kMulS) {
          result = MulSRange(args.data(), args.size());
        } else {
          result = AddMRange(n.agg, args.data(), args.size());
        }
        break;
      }
      case ExprKind::kTensor:
        result = Tensor(subst_memo_[kids[0]], subst_memo_[kids[1]]);
        break;
      case ExprKind::kCmp:
        result = Cmp(n.cmp, subst_memo_[kids[0]], subst_memo_[kids[1]]);
        break;
    }
    settle(id, result);
    stack.pop_back();
  }
  return subst_memo_[e];
}

ExprId ExprPool::CloneInto(ExprPool* dst, ExprId e) const {
  PVC_CHECK(dst != nullptr);
  PVC_CHECK_MSG(dst->semiring_.kind() == semiring_.kind(),
                "CloneInto requires pools over the same semiring");
  if (dst == this) return e;
  // The memo holds only the nodes below `e`, so a clone costs the size of
  // the cloned DAG, not of the source pool (a row's annotation is a few
  // nodes of a pool that may hold millions).
  std::unordered_map<ExprId, ExprId> memo;
  auto cloned = [&memo](ExprId id) { return memo.find(id) != memo.end(); };
  std::vector<ExprId> stack = {e};
  std::vector<ExprId> args;
  while (!stack.empty()) {
    ExprId id = stack.back();
    if (cloned(id)) {
      stack.pop_back();
      continue;
    }
    const ExprNode& n = nodes_[id];  // Only `dst` grows; `this` is stable.
    bool ready = true;
    Span<ExprId> kids = n.children();
    for (size_t i = kids.size(); i-- > 0;) {
      ExprId c = kids[i];
      if (!cloned(c)) {
        stack.push_back(c);
        ready = false;
      }
    }
    if (!ready) continue;
    ExprId result = kInvalidExpr;
    switch (n.kind) {
      case ExprKind::kVar:
        result = dst->Var(n.var());
        break;
      case ExprKind::kConstS:
        result = dst->ConstS(n.value);
        break;
      case ExprKind::kConstM:
        result = dst->ConstM(n.agg, n.value);
        break;
      case ExprKind::kAddS:
      case ExprKind::kMulS:
      case ExprKind::kAddM: {
        args.clear();
        for (ExprId c : kids) args.push_back(memo.at(c));
        if (n.kind == ExprKind::kAddS) {
          result = dst->AddSRange(args.data(), args.size());
        } else if (n.kind == ExprKind::kMulS) {
          result = dst->MulSRange(args.data(), args.size());
        } else {
          result = dst->AddMRange(n.agg, args.data(), args.size());
        }
        break;
      }
      case ExprKind::kTensor:
        result = dst->Tensor(memo.at(kids[0]), memo.at(kids[1]));
        break;
      case ExprKind::kCmp:
        result = dst->Cmp(n.cmp, memo.at(kids[0]), memo.at(kids[1]));
        break;
    }
    memo.emplace(id, result);
    stack.pop_back();
  }
  return memo.at(e);
}

void ExprPool::CountVarOccurrences(
    ExprId e, std::unordered_map<VarId, double>* counts) const {
  // Topological pass with path counting: a node reached over k distinct
  // paths contributes k occurrences per variable leaf, matching occurrence
  // counts in the expanded expression tree. Path counts are integer-valued
  // (sums of 1s), so the accumulation order cannot perturb them.
  std::vector<uint8_t> state(static_cast<size_t>(e) + 1, 0);
  std::vector<ExprId> order;  // Postorder: children precede parents.
  std::vector<ExprId> stack = {e};
  while (!stack.empty()) {
    ExprId id = stack.back();
    if (state[id] == 2) {
      stack.pop_back();
      continue;
    }
    if (state[id] == 0) {
      state[id] = 1;
      for (ExprId c : nodes_[id].children()) {
        if (state[c] == 0) stack.push_back(c);
      }
    } else {
      state[id] = 2;
      order.push_back(id);
      stack.pop_back();
    }
  }
  // Process in reverse (parents first) so parents distribute their path
  // counts to children.
  std::vector<double> paths(static_cast<size_t>(e) + 1, 0.0);
  paths[e] = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    ExprId id = *it;
    double p = paths[id];
    const ExprNode& n = nodes_[id];
    if (n.kind == ExprKind::kVar) {
      (*counts)[n.var()] += p;
    }
    for (ExprId c : n.children()) paths[c] += p;
  }
}

size_t ExprPool::ReachableSize(ExprId e) const {
  std::vector<uint8_t> visited(static_cast<size_t>(e) + 1, 0);
  std::vector<ExprId> stack = {e};
  size_t count = 0;
  while (!stack.empty()) {
    ExprId id = stack.back();
    stack.pop_back();
    if (visited[id]) continue;
    visited[id] = 1;
    ++count;
    for (ExprId c : nodes_[id].children()) stack.push_back(c);
  }
  return count;
}

}  // namespace pvcdb
