#include "src/dtree/compile.h"

#include <algorithm>
#include <utility>

#include "src/dtree/prune.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace pvcdb {

namespace {

// The multiset of semiring factors of a child of a sum: the factor list of
// a product node, or the node itself.
std::vector<ExprId> FactorsOf(const ExprPool& pool, ExprId e) {
  const ExprNode& n = pool.node(e);
  if (n.kind == ExprKind::kMulS) {
    Span<ExprId> c = n.children();  // Already sorted.
    return {c.begin(), c.end()};
  }
  return {e};
}

// Multiset difference a \ b over sorted ranges.
std::vector<ExprId> MultisetMinus(const std::vector<ExprId>& a,
                                  const std::vector<ExprId>& b) {
  std::vector<ExprId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Whether two sorted variable sets are disjoint.
bool SortedDisjoint(Span<VarId> a, Span<VarId> b) {
  const VarId* i = a.begin();
  const VarId* j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

DTreeCompiler::DTreeCompiler(ExprPool* pool, const VariableTable* variables,
                             CompileOptions options)
    : pool_(pool),
      variables_(variables),
      options_(options),
      rng_(options.random_seed) {
  PVC_CHECK(pool != nullptr && variables != nullptr);
}

DTree CompileToDTree(ExprPool* pool, const VariableTable* variables, ExprId e,
                     CompileOptions options) {
  DTreeCompiler compiler(pool, variables, options);
  return compiler.Compile(e);
}

std::vector<DTree> CompileBatch(const ExprPool& pool,
                                const VariableTable* variables,
                                const std::vector<ExprId>& exprs,
                                CompileOptions options, int num_threads) {
  std::vector<DTree> out(exprs.size());
  ParallelFor(num_threads, exprs.size(), [&](size_t i) {
    ExprPool local(pool.semiring().kind());
    ExprId e = pool.CloneInto(&local, exprs[i]);
    out[i] = CompileToDTree(&local, variables, e, options);
  });
  return out;
}

DTree DTreeCompiler::Compile(ExprId e) {
  memo_.assign(pool_->NumNodes(), kNoNode);
  Span<VarId> vars = pool_->VarsOf(e);
  root_vars_.assign(vars.begin(), vars.end());
  if (var_stamp_.size() < root_vars_.size()) {
    var_stamp_.resize(root_vars_.size(), 0);
    var_owner_.resize(root_vars_.size(), 0);
    occ_stamp_.resize(root_vars_.size(), 0);
    occ_count_.resize(root_vars_.size(), 0.0);
  }
  frames_.clear();
  pending_.clear();
  members_.clear();
  DTree out;
  Visit(e, &out);
  // Drive the frame stack: each iteration either materialises and descends
  // into the top frame's next child subproblem, or -- when every child is
  // compiled -- emits the frame's d-tree node. The emission order matches
  // the recursive formulation's postorder exactly.
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    if (f.next < f.pending_count) {
      PendingChild& pc = pending_[f.pending_begin + f.next];
      if (!pc.resolved) {
        ResolveChild(f, &pc);
        pc.resolved = true;
      }
      if (MemoLookup(pc.expr) != kNoNode) {
        ++f.next;
        continue;
      }
      Visit(pc.expr, &out);
      continue;
    }
    DTree::NodeId result;
    if (f.redirect) {
      result = MemoLookup(pending_[f.pending_begin].expr);
    } else {
      child_ids_.clear();
      branch_scratch_.clear();
      for (uint32_t i = 0; i < f.pending_count; ++i) {
        const PendingChild& pc = pending_[f.pending_begin + i];
        child_ids_.push_back(MemoLookup(pc.expr));
        if (f.kind == DTreeNodeKind::kMutex) {
          branch_scratch_.push_back(pc.branch_value);
        }
      }
      result = out.AddNode(f.kind, f.sort, f.agg, f.cmp, f.var, 0,
                           {child_ids_.data(), child_ids_.size()},
                           {branch_scratch_.data(), branch_scratch_.size()});
    }
    MemoStore(f.expr, result);
    pending_.resize(f.pending_begin);
    members_.resize(f.members_base);
    frames_.pop_back();
  }
  out.set_root(MemoLookup(e));
  return out;
}

void DTreeCompiler::Visit(ExprId e, DTree* out) {
  PVC_CHECK_MSG(out->size() < options_.max_nodes,
                "d-tree node budget exceeded (" << options_.max_nodes << ")");
  if (MemoLookup(e) != kNoNode) return;

  // Pruning (rule 4 preamble): simplify conditional expressions first.
  if (options_.enable_pruning && pool_->node(e).kind == ExprKind::kCmp) {
    ExprId pruned = PruneComparison(*pool_, e);
    if (pruned != e) {
      ++stats_.prunings;
      PushRedirect(e, pruned);
      return;
    }
  }

  const ExprNode n = pool_->node(e);  // Copy: the pool grows below.
  switch (n.kind) {
    case ExprKind::kVar:
      MemoStore(e, out->AddNode(DTreeNodeKind::kLeafVar, ExprSort::kSemiring,
                                AggKind::kSum, CmpOp::kEq, n.var(), 0, {},
                                {}));
      return;
    case ExprKind::kConstS:
    case ExprKind::kConstM:
      MemoStore(e, out->AddNode(DTreeNodeKind::kLeafConst, n.sort, n.agg,
                                CmpOp::kEq, 0, n.value, {}, {}));
      return;
    case ExprKind::kAddS:
    case ExprKind::kAddM: {
      if (!options_.enable_independence) {
        PushShannon(e, n);
        return;
      }
      Span<ExprId> kids = n.children();
      std::vector<std::vector<size_t>> components = Components(kids);
      if (components.size() > 1) {
        // Rule 1: independent sum.
        ++stats_.independence_splits;
        Frame f;
        f.expr = e;
        f.kind = DTreeNodeKind::kOplus;
        f.sort = n.sort;
        f.agg = n.agg;
        f.combine_kind = n.kind;
        f.pending_begin = static_cast<uint32_t>(pending_.size());
        f.members_base = static_cast<uint32_t>(members_.size());
        for (const std::vector<size_t>& comp : components) {
          PendingChild pc;
          pc.kind = PendingChild::Kind::kCombine;
          pc.members_begin = static_cast<uint32_t>(members_.size());
          for (size_t idx : comp) members_.push_back(kids[idx]);
          pc.members_count = static_cast<uint32_t>(comp.size());
          pending_.push_back(pc);
        }
        f.pending_count = static_cast<uint32_t>(components.size());
        frames_.push_back(f);
        return;
      }
      // Single component: attempt read-once common-factor extraction.
      if (options_.enable_factorization) {
        std::optional<ExprId> factored = n.kind == ExprKind::kAddS
                                             ? TryFactorSum(n)
                                             : TryFactorTensorSum(n);
        if (factored.has_value() && *factored != e) {
          ++stats_.factorizations;
          PushRedirect(e, *factored);
          return;
        }
      }
      PushShannon(e, n);
      return;
    }
    case ExprKind::kMulS: {
      if (!options_.enable_independence) {
        PushShannon(e, n);
        return;
      }
      Span<ExprId> kids = n.children();
      std::vector<std::vector<size_t>> components = Components(kids);
      if (components.size() > 1) {
        // Rule 2: independent product.
        ++stats_.independence_splits;
        Frame f;
        f.expr = e;
        f.kind = DTreeNodeKind::kOdot;
        f.sort = ExprSort::kSemiring;
        f.combine_kind = ExprKind::kMulS;
        f.pending_begin = static_cast<uint32_t>(pending_.size());
        f.members_base = static_cast<uint32_t>(members_.size());
        for (const std::vector<size_t>& comp : components) {
          PendingChild pc;
          pc.kind = PendingChild::Kind::kCombine;
          pc.members_begin = static_cast<uint32_t>(members_.size());
          for (size_t idx : comp) members_.push_back(kids[idx]);
          pc.members_count = static_cast<uint32_t>(comp.size());
          pending_.push_back(pc);
        }
        f.pending_count = static_cast<uint32_t>(components.size());
        frames_.push_back(f);
        return;
      }
      PushShannon(e, n);
      return;
    }
    case ExprKind::kTensor: {
      if (options_.enable_independence &&
          SortedDisjoint(pool_->VarsOf(n.child(0)),
                         pool_->VarsOf(n.child(1)))) {
        // Rule 3: independent tensor.
        ++stats_.independence_splits;
        Frame f;
        f.expr = e;
        f.kind = DTreeNodeKind::kOtimes;
        f.sort = ExprSort::kMonoid;
        f.agg = n.agg;
        f.pending_begin = static_cast<uint32_t>(pending_.size());
        f.members_base = static_cast<uint32_t>(members_.size());
        for (int i = 0; i < 2; ++i) {
          PendingChild pc;
          pc.kind = PendingChild::Kind::kExpr;
          pc.expr = n.child(i);
          pc.resolved = true;
          pending_.push_back(pc);
        }
        f.pending_count = 2;
        frames_.push_back(f);
        return;
      }
      PushShannon(e, n);
      return;
    }
    case ExprKind::kCmp: {
      if (options_.enable_independence &&
          SortedDisjoint(pool_->VarsOf(n.child(0)),
                         pool_->VarsOf(n.child(1)))) {
        // Rule 4: independent comparison.
        ++stats_.independence_splits;
        Frame f;
        f.expr = e;
        f.kind = DTreeNodeKind::kCmp;
        f.sort = ExprSort::kSemiring;
        f.cmp = n.cmp;
        f.pending_begin = static_cast<uint32_t>(pending_.size());
        f.members_base = static_cast<uint32_t>(members_.size());
        for (int i = 0; i < 2; ++i) {
          PendingChild pc;
          pc.kind = PendingChild::Kind::kExpr;
          pc.expr = n.child(i);
          pc.resolved = true;
          pending_.push_back(pc);
        }
        f.pending_count = 2;
        frames_.push_back(f);
        return;
      }
      PushShannon(e, n);
      return;
    }
  }
  PVC_FAIL("unknown expression kind");
}

void DTreeCompiler::PushRedirect(ExprId e, ExprId target) {
  Frame f;
  f.expr = e;
  f.redirect = true;
  f.pending_begin = static_cast<uint32_t>(pending_.size());
  f.members_base = static_cast<uint32_t>(members_.size());
  PendingChild pc;
  pc.kind = PendingChild::Kind::kExpr;
  pc.expr = target;
  pc.resolved = true;
  pending_.push_back(pc);
  f.pending_count = 1;
  frames_.push_back(f);
}

void DTreeCompiler::PushShannon(ExprId e, const ExprNode& n) {
  VarId x = ChooseVariable(e);
  ++stats_.mutex_expansions;
  const Distribution& px = variables_->DistributionOf(x);
  Frame f;
  f.expr = e;
  f.kind = DTreeNodeKind::kMutex;
  f.sort = n.sort;
  f.agg = n.agg;
  f.var = x;
  f.pending_begin = static_cast<uint32_t>(pending_.size());
  f.members_base = static_cast<uint32_t>(members_.size());
  for (const auto& entry : px.entries()) {
    PendingChild pc;
    pc.kind = PendingChild::Kind::kBranch;
    pc.branch_value = entry.first;
    pending_.push_back(pc);
  }
  f.pending_count = static_cast<uint32_t>(px.size());
  frames_.push_back(f);
}

void DTreeCompiler::ResolveChild(const Frame& f, PendingChild* pc) {
  switch (pc->kind) {
    case PendingChild::Kind::kExpr:
      return;
    case PendingChild::Kind::kBranch:
      pc->expr = pool_->Substitute(f.expr, f.var, pc->branch_value);
      return;
    case PendingChild::Kind::kCombine: {
      const ExprId* m = members_.data() + pc->members_begin;
      switch (f.combine_kind) {
        case ExprKind::kAddS:
          pc->expr = pool_->AddSRange(m, pc->members_count);
          return;
        case ExprKind::kMulS:
          pc->expr = pool_->MulSRange(m, pc->members_count);
          return;
        case ExprKind::kAddM:
          pc->expr = pool_->AddMRange(f.agg, m, pc->members_count);
          return;
        default:
          PVC_FAIL("unexpected combine kind");
      }
    }
  }
  PVC_FAIL("unknown pending-child kind");
}

std::vector<std::vector<size_t>> DTreeCompiler::Components(
    Span<ExprId> items) {
  size_t n = items.size();
  uf_parent_.resize(n);
  for (size_t i = 0; i < n; ++i) uf_parent_[i] = i;
  auto find = [this](size_t x) {
    while (uf_parent_[x] != x) {
      uf_parent_[x] = uf_parent_[uf_parent_[x]];
      x = uf_parent_[x];
    }
    return x;
  };
  if (++var_epoch_ == 0) {
    std::fill(var_stamp_.begin(), var_stamp_.end(), 0u);
    var_epoch_ = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    const VarId* from = root_vars_.data();
    for (VarId v : pool_->VarsOf(items[i])) {
      uint32_t slot = VarSlot(v, &from);
      if (var_stamp_[slot] != var_epoch_) {
        var_stamp_[slot] = var_epoch_;
        var_owner_[slot] = static_cast<uint32_t>(i);
      } else {
        uf_parent_[find(i)] = find(var_owner_[slot]);
      }
    }
  }
  comp_of_.assign(n, static_cast<uint32_t>(-1));
  std::vector<std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) {
    size_t root = find(i);
    if (comp_of_[root] == static_cast<uint32_t>(-1)) {
      comp_of_[root] = static_cast<uint32_t>(components.size());
      components.emplace_back();
    }
    components[comp_of_[root]].push_back(i);
  }
  return components;
}

void DTreeCompiler::CountOccurrences(ExprId e) {
  size_t n = pool_->NumNodes();
  if (node_stamp_.size() < n) {
    node_stamp_.resize(n, 0);
    node_state_.resize(n, 0);
    node_paths_.resize(n, 0.0);
  }
  if (++node_epoch_ == 0) {
    std::fill(node_stamp_.begin(), node_stamp_.end(), 0u);
    node_epoch_ = 1;
  }
  if (++occ_epoch_ == 0) {
    std::fill(occ_stamp_.begin(), occ_stamp_.end(), 0u);
    occ_epoch_ = 1;
  }
  order_.clear();
  dfs_stack_.clear();
  dfs_stack_.push_back(e);
  while (!dfs_stack_.empty()) {
    ExprId id = dfs_stack_.back();
    uint8_t state = node_stamp_[id] == node_epoch_ ? node_state_[id] : 0;
    if (state == 2) {
      dfs_stack_.pop_back();
      continue;
    }
    if (state == 0) {
      node_stamp_[id] = node_epoch_;
      node_state_[id] = 1;
      node_paths_[id] = 0.0;
      for (ExprId c : pool_->node(id).children()) {
        if (node_stamp_[c] != node_epoch_) dfs_stack_.push_back(c);
      }
    } else {
      node_state_[id] = 2;
      order_.push_back(id);
      dfs_stack_.pop_back();
    }
  }
  // Parents first: distribute path counts down the DAG, accumulating the
  // per-variable occurrence totals. Path counts are integer-valued, so the
  // accumulation order cannot perturb them.
  node_paths_[e] = 1.0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    ExprId id = *it;
    double p = node_paths_[id];
    const ExprNode& nd = pool_->node(id);
    if (nd.kind == ExprKind::kVar) {
      uint32_t slot = VarSlot(nd.var());
      if (occ_stamp_[slot] != occ_epoch_) {
        occ_stamp_[slot] = occ_epoch_;
        occ_count_[slot] = p;
      } else {
        occ_count_[slot] += p;
      }
    }
    for (ExprId c : nd.children()) node_paths_[c] += p;
  }
}

uint32_t DTreeCompiler::VarSlot(VarId v, const VarId** from) const {
  const VarId* end = root_vars_.data() + root_vars_.size();
  const VarId* it = *from;
  // A subproblem's variables are often a contiguous run of the root's:
  // the next slot is then the answer and no search runs.
  if (it == end || *it != v) {
    it = std::lower_bound(it, end, v);
    PVC_CHECK_MSG(it != end && *it == v, "variable "
                                             << v
                                             << " is not a variable of the "
                                                "compiled root");
  }
  *from = it + 1;
  return static_cast<uint32_t>(it - root_vars_.data());
}

double DTreeCompiler::OccurrencesOf(uint32_t slot) const {
  return occ_stamp_[slot] == occ_epoch_ ? occ_count_[slot] : 0.0;
}

VarId DTreeCompiler::ChooseVariable(ExprId e) {
  Span<VarId> vars = pool_->VarsOf(e);
  PVC_CHECK(!vars.empty());
  switch (options_.heuristic) {
    case VarChoiceHeuristic::kFirst:
      return vars.front();
    case VarChoiceHeuristic::kRandom:
      return vars[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(vars.size()) - 1))];
    case VarChoiceHeuristic::kMostOccurrences: {
      CountOccurrences(e);
      VarId best = vars.front();
      double best_count = -1.0;
      // Deterministic tie-break on the smaller id: iterate the sorted list.
      const VarId* from = root_vars_.data();
      for (VarId v : vars) {
        double c = OccurrencesOf(VarSlot(v, &from));
        if (c > best_count) {
          best = v;
          best_count = c;
        }
      }
      return best;
    }
  }
  PVC_FAIL("unknown variable-choice heuristic");
}

std::optional<ExprId> DTreeCompiler::TryFactorSum(const ExprNode& n) {
  // Common semiring factor: x*a + x*b = x*(a + b).
  Span<ExprId> kids = n.children();
  std::vector<ExprId> common = FactorsOf(*pool_, kids.front());
  for (size_t i = 1; i < kids.size() && !common.empty(); ++i) {
    std::vector<ExprId> fi = FactorsOf(*pool_, kids[i]);
    std::vector<ExprId> inter;
    std::set_intersection(common.begin(), common.end(), fi.begin(), fi.end(),
                          std::back_inserter(inter));
    common = std::move(inter);
  }
  // Never factor out ground factors; constants are already canonicalised
  // by the smart constructors.
  common.erase(std::remove_if(
                   common.begin(), common.end(),
                   [&](ExprId f) { return pool_->node(f).IsGround(); }),
               common.end());
  if (common.empty()) return std::nullopt;
  std::vector<ExprId> residuals;
  residuals.reserve(kids.size());
  for (ExprId c : kids) {
    std::vector<ExprId> rest = MultisetMinus(FactorsOf(*pool_, c), common);
    residuals.push_back(pool_->MulS(rest));
  }
  return pool_->MulS(pool_->MulS(common), pool_->AddS(residuals));
}

std::optional<ExprId> DTreeCompiler::TryFactorTensorSum(const ExprNode& n) {
  // Common semiring factor across tensor terms:
  // (x*a) (x) m1 +op (x*b) (x) m2 = x (x) (a (x) m1 +op b (x) m2).
  Span<ExprId> kids = n.children();
  std::vector<ExprId> common;
  bool first = true;
  for (ExprId c : kids) {
    const ExprNode& cn = pool_->node(c);
    if (cn.kind != ExprKind::kTensor) return std::nullopt;
    std::vector<ExprId> fi = FactorsOf(*pool_, cn.child(0));
    if (first) {
      common = std::move(fi);
      first = false;
    } else {
      std::vector<ExprId> inter;
      std::set_intersection(common.begin(), common.end(), fi.begin(),
                            fi.end(), std::back_inserter(inter));
      common = std::move(inter);
    }
    if (common.empty()) return std::nullopt;
  }
  common.erase(std::remove_if(
                   common.begin(), common.end(),
                   [&](ExprId f) { return pool_->node(f).IsGround(); }),
               common.end());
  if (common.empty()) return std::nullopt;
  std::vector<ExprId> residuals;
  residuals.reserve(kids.size());
  for (ExprId c : kids) {
    const ExprNode cn = pool_->node(c);  // Copy: interning below.
    std::vector<ExprId> rest =
        MultisetMinus(FactorsOf(*pool_, cn.child(0)), common);
    residuals.push_back(pool_->Tensor(pool_->MulS(rest), cn.child(1)));
  }
  return pool_->Tensor(pool_->MulS(common), pool_->AddM(n.agg, residuals));
}

}  // namespace pvcdb
