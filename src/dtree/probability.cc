#include "src/dtree/probability.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace pvcdb {

namespace {

// No-clamp sentinel for memo keys.
constexpr int64_t kNoClamp = std::numeric_limits<int64_t>::min();

// A (node, clamp bound) subproblem; its distribution is a pure function of
// the d-tree, the variable table, and the semiring.
using SubtreeKey = std::pair<DTree::NodeId, int64_t>;

// -- Iterative bottom-up kernel --------------------------------------------
//
// Computes (node, clamp) subproblem distributions with an explicit frame
// stack and a dense node-indexed memo (one inline slot per node plus an
// overflow map for the rare second clamp bound). Reductions fold children
// left to right exactly like the recursive formulation.
class Kernel {
 public:
  Kernel(const DTree& tree, const VariableTable& variables,
         const Semiring& semiring, const ProbabilityOptions& options)
      : tree_(tree),
        variables_(variables),
        semiring_(semiring),
        options_(options),
        slots_(tree.size()),
        clamp_safe_(tree.size(), 0) {}

  /// The distribution of subproblem (id, clamp).
  const Distribution& Compute(DTree::NodeId id, int64_t clamp) {
    Run(id, clamp);
    return *Find(id, clamp);
  }

 private:
  struct Slot {
    int64_t clamp = 0;
    bool filled = false;
    Distribution dist;
  };

  struct Frame {
    DTree::NodeId node = 0;
    int64_t clamp = kNoClamp;        ///< The subproblem's own clamp key.
    int64_t child_clamp = kNoClamp;  ///< Clamp of children / lhs side.
    int64_t rhs_clamp = kNoClamp;    ///< Clamp of the rhs side (kCmp).
    uint32_t next = 0;
    uint32_t mix_begin = 0;
    Distribution acc;
  };

  const Distribution* Find(DTree::NodeId id, int64_t clamp) const {
    const Slot& s = slots_[id];
    if (s.filled && s.clamp == clamp) return &s.dist;
    if (s.filled) {
      auto it = overflow_.find({id, clamp});
      if (it != overflow_.end()) return &it->second;
    }
    return nullptr;
  }

  void Store(DTree::NodeId id, int64_t clamp, Distribution dist) {
    Slot& s = slots_[id];
    if (!s.filled) {
      s.filled = true;
      s.clamp = clamp;
      s.dist = std::move(dist);
      return;
    }
    if (s.clamp == clamp) return;
    overflow_.emplace(SubtreeKey{id, clamp}, std::move(dist));
  }

  /// Pushes subproblem (id, clamp), or settles it immediately (leaves).
  void Push(DTree::NodeId id, int64_t clamp) {
    const DTreeNode n = tree_.node(id);
    switch (n.kind) {
      case DTreeNodeKind::kLeafVar:
        Store(id, clamp, variables_.DistributionOf(n.var));
        return;
      case DTreeNodeKind::kLeafConst:
        Store(id, clamp,
              ApplyClamp(Distribution::Point(n.value), ClampBoundFor(n, clamp)));
        return;
      default:
        break;
    }
    Frame f;
    f.node = id;
    f.clamp = clamp;
    f.mix_begin = static_cast<uint32_t>(mix_arena_.size());
    switch (n.kind) {
      case DTreeNodeKind::kOplus:
      case DTreeNodeKind::kMutex:
      case DTreeNodeKind::kOtimes:
        f.child_clamp = ClampBoundFor(n, clamp);
        break;
      case DTreeNodeKind::kOdot:
        f.child_clamp = kNoClamp;
        break;
      case DTreeNodeKind::kCmp: {
        auto [lhs_clamp, rhs_clamp] = CmpClampBounds(n);
        f.child_clamp = lhs_clamp;
        f.rhs_clamp = rhs_clamp;
        break;
      }
      default:
        PVC_FAIL("unexpected leaf");
    }
    frames_.push_back(std::move(f));
  }

  /// The (child, clamp) subproblem frame `f` needs next.
  SubtreeKey ChildKey(const Frame& f, const DTreeNode& n) const {
    switch (n.kind) {
      case DTreeNodeKind::kOplus:
      case DTreeNodeKind::kMutex:
        return {n.children[f.next], f.child_clamp};
      case DTreeNodeKind::kOdot:
        return {n.children[f.next], kNoClamp};
      case DTreeNodeKind::kOtimes:
        return {n.children[f.next], f.next == 0 ? kNoClamp : f.child_clamp};
      case DTreeNodeKind::kCmp:
        return {n.children[f.next], f.next == 0 ? f.child_clamp : f.rhs_clamp};
      default:
        PVC_FAIL("unexpected leaf frame");
    }
  }

  void Run(DTree::NodeId root, int64_t root_clamp) {
    PVC_CHECK(frames_.empty());
    Push(root, root_clamp);
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const DTreeNode n = tree_.node(f.node);
      if (f.next < n.children.size()) {
        SubtreeKey key = ChildKey(f, n);
        const Distribution* child = Find(key.first, key.second);
        if (child == nullptr) {
          Push(key.first, key.second);
          continue;
        }
        Fold(&f, n, *child);
        ++f.next;
        continue;
      }
      Distribution result = Finalize(&f, n);
      mix_arena_.resize(f.mix_begin);
      DTree::NodeId id = f.node;
      int64_t clamp = f.clamp;
      frames_.pop_back();
      Store(id, clamp, std::move(result));
    }
  }

  /// Folds the freshly available child distribution into the frame,
  /// left to right.
  void Fold(Frame* f, const DTreeNode& n, const Distribution& child) {
    switch (n.kind) {
      case DTreeNodeKind::kOplus: {
        if (f->next == 0) {
          f->acc = child;
          return;
        }
        if (n.sort == ExprSort::kSemiring) {
          f->acc = f->acc.Convolve(child, [this](int64_t a, int64_t b) {
            return semiring_.Plus(a, b);
          });
        } else {
          Monoid monoid(n.agg);
          f->acc = f->acc.Convolve(child, [&monoid](int64_t a, int64_t b) {
            return monoid.Plus(a, b);
          });
        }
        f->acc = ApplyClamp(std::move(f->acc), f->child_clamp);
        return;
      }
      case DTreeNodeKind::kOdot: {
        if (f->next == 0) {
          f->acc = child;
          return;
        }
        f->acc = f->acc.Convolve(child, [this](int64_t a, int64_t b) {
          return semiring_.Times(a, b);
        });
        return;
      }
      case DTreeNodeKind::kOtimes: {
        if (f->next == 0) {
          f->acc = child;
          return;
        }
        Monoid monoid(n.agg);
        f->acc = f->acc.Convolve(child, [this, &monoid](int64_t a, int64_t b) {
          return monoid.Tensor(semiring_, a, b);
        });
        return;
      }
      case DTreeNodeKind::kCmp: {
        if (f->next == 0) {
          f->acc = child;
          return;
        }
        CmpOp op = n.cmp;
        const Semiring& semiring = semiring_;
        f->acc = f->acc.Convolve(child, [op, &semiring](int64_t a, int64_t b) {
          return EvalCmp(op, a, b) ? semiring.One() : semiring.Zero();
        });
        return;
      }
      case DTreeNodeKind::kMutex: {
        double weight =
            variables_.DistributionOf(n.var).ProbOf(n.branch_values[f->next]);
        mix_arena_.emplace_back(weight, child);
        return;
      }
      default:
        PVC_FAIL("unexpected leaf frame");
    }
  }

  Distribution Finalize(Frame* f, const DTreeNode& n) {
    switch (n.kind) {
      case DTreeNodeKind::kOplus: {
        PVC_CHECK(!n.children.empty());
        return std::move(f->acc);
      }
      case DTreeNodeKind::kOdot:
        PVC_CHECK(!n.children.empty());
        return std::move(f->acc);
      case DTreeNodeKind::kOtimes:
        return ApplyClamp(std::move(f->acc), f->child_clamp);
      case DTreeNodeKind::kCmp:
        return std::move(f->acc);
      case DTreeNodeKind::kMutex:
        return Distribution::Mix(mix_arena_.data() + f->mix_begin,
                                 mix_arena_.size() - f->mix_begin);
      default:
        PVC_FAIL("unexpected leaf frame");
    }
  }

  // The clamp bounds applied to the two sides of a kCmp node (the c+1
  // overflow-bucket optimisation of Proposition 3).
  std::pair<int64_t, int64_t> CmpClampBounds(const DTreeNode& n) {
    int64_t lhs_clamp = kNoClamp;
    int64_t rhs_clamp = kNoClamp;
    if (options_.enable_sum_clamping) {
      DTree::NodeId lhs = n.children[0];
      DTree::NodeId rhs = n.children[1];
      const DTreeNode ln = tree_.node(lhs);
      const DTreeNode rn = tree_.node(rhs);
      if (rn.kind == DTreeNodeKind::kLeafConst && rn.value >= 0 &&
          ln.sort == ExprSort::kMonoid &&
          (ln.agg == AggKind::kSum || ln.agg == AggKind::kCount) &&
          ClampSafe(lhs)) {
        lhs_clamp = rn.value;
      }
      if (ln.kind == DTreeNodeKind::kLeafConst && ln.value >= 0 &&
          rn.sort == ExprSort::kMonoid &&
          (rn.agg == AggKind::kSum || rn.agg == AggKind::kCount) &&
          ClampSafe(rhs)) {
        rhs_clamp = ln.value;
      }
    }
    return {lhs_clamp, rhs_clamp};
  }

  // Clamps SUM/COUNT values at bound+1 so values beyond the comparison
  // constant share one overflow bucket.
  static Distribution ApplyClamp(Distribution d, int64_t clamp) {
    if (clamp == kNoClamp) return d;
    return d.Map([clamp](int64_t v) { return std::min(v, clamp + 1); });
  }

  // Whether clamping may be propagated into this subtree: it requires a
  // SUM/COUNT-sorted monoid subtree whose constants are all non-negative
  // (a negative addend could move an overflowed partial sum back below the
  // bound, which the single overflow bucket cannot represent). Iterative
  // over the dense tri-state cache (0 unknown, 1 safe, 2 unsafe).
  bool ClampSafe(DTree::NodeId root) {
    if (clamp_safe_[root] != 0) return clamp_safe_[root] == 1;
    safe_stack_.clear();
    safe_stack_.push_back(root);
    while (!safe_stack_.empty()) {
      DTree::NodeId id = safe_stack_.back();
      if (clamp_safe_[id] != 0) {
        safe_stack_.pop_back();
        continue;
      }
      const DTreeNode n = tree_.node(id);
      if ((n.sort == ExprSort::kMonoid &&
           !(n.agg == AggKind::kSum || n.agg == AggKind::kCount)) ||
          (n.kind == DTreeNodeKind::kLeafConst &&
           n.sort == ExprSort::kMonoid && n.value < 0)) {
        clamp_safe_[id] = 2;
        safe_stack_.pop_back();
        continue;
      }
      // Semiring-sorted children (e.g. the left side of a tensor) do not
      // contribute monoid values; only monoid-sorted children are checked.
      bool ready = true;
      bool safe = true;
      for (DTree::NodeId c : n.children) {
        const DTreeNode cn = tree_.node(c);
        if (cn.sort != ExprSort::kMonoid) continue;
        if (clamp_safe_[c] == 0) {
          safe_stack_.push_back(c);
          ready = false;
        } else if (clamp_safe_[c] == 2) {
          safe = false;
        }
      }
      if (!ready) continue;
      clamp_safe_[id] = safe ? 1 : 2;
      safe_stack_.pop_back();
    }
    return clamp_safe_[root] == 1;
  }

  // Propagates a clamp bound into a node: only monoid-sorted SUM/COUNT
  // nodes carry the clamp further down.
  int64_t ClampBoundFor(const DTreeNode& n, int64_t clamp) {
    if (clamp == kNoClamp) return kNoClamp;
    if (n.kind == DTreeNodeKind::kMutex || n.kind == DTreeNodeKind::kCmp) {
      // Mutex nodes keep the ambient clamp for their (same-sort) branches;
      // comparisons reset it (they decide their own clamps).
      return n.kind == DTreeNodeKind::kMutex ? clamp : kNoClamp;
    }
    if (n.sort == ExprSort::kMonoid &&
        (n.agg == AggKind::kSum || n.agg == AggKind::kCount)) {
      return clamp;
    }
    return kNoClamp;
  }

  const DTree& tree_;
  const VariableTable& variables_;
  const Semiring& semiring_;
  ProbabilityOptions options_;

  std::vector<Slot> slots_;
  std::map<SubtreeKey, Distribution> overflow_;
  std::vector<uint8_t> clamp_safe_;
  std::vector<Frame> frames_;
  std::vector<std::pair<double, Distribution>> mix_arena_;
  std::vector<DTree::NodeId> safe_stack_;
};

}  // namespace

Distribution ComputeDistribution(const DTree& tree,
                                 const VariableTable& variables,
                                 const Semiring& semiring,
                                 ProbabilityOptions options) {
  PVC_CHECK_MSG(tree.size() > 0, "cannot compute distribution of empty tree");
  Kernel kernel(tree, variables, semiring, options);
  return kernel.Compute(tree.root(), kNoClamp);
}

double ProbabilityNonZero(const DTree& tree, const VariableTable& variables,
                          const Semiring& semiring,
                          ProbabilityOptions options) {
  Distribution d = ComputeDistribution(tree, variables, semiring, options);
  double zero = d.ProbOf(0);
  return std::max(0.0, d.TotalMass() - zero);
}

}  // namespace pvcdb
