#include "src/query/eval.h"

#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace pvcdb {

namespace {

// Hash of a subset of cells, for grouping.
struct RowKey {
  std::vector<Cell> cells;

  bool operator==(const RowKey& other) const { return cells == other.cells; }
};

struct RowKeyHash {
  size_t operator()(const RowKey& key) const {
    size_t seed = 0;
    for (const Cell& c : key.cells) seed = HashCombine(seed, c.Hash());
    return seed;
  }
};

// Compares two data cells; the comparison's type rules are strict (matching
// types only; kEq/kNe additionally allowed between any equal types).
bool CompareDataCells(CmpOp op, const Cell& a, const Cell& b) {
  PVC_CHECK_MSG(a.type() == b.type(),
                "type mismatch in comparison: " << a.ToString() << " vs "
                                                << b.ToString());
  switch (a.type()) {
    case CellType::kInt:
      return EvalCmp(op, a.AsInt(), b.AsInt());
    case CellType::kDouble: {
      double x = a.AsDouble();
      double y = b.AsDouble();
      switch (op) {
        case CmpOp::kEq:
          return x == y;
        case CmpOp::kNe:
          return x != y;
        case CmpOp::kLe:
          return x <= y;
        case CmpOp::kGe:
          return x >= y;
        case CmpOp::kLt:
          return x < y;
        case CmpOp::kGt:
          return x > y;
      }
      PVC_FAIL("unknown comparison operator");
    }
    case CellType::kString: {
      int cmp = a.AsString().compare(b.AsString());
      switch (op) {
        case CmpOp::kEq:
          return cmp == 0;
        case CmpOp::kNe:
          return cmp != 0;
        case CmpOp::kLe:
          return cmp <= 0;
        case CmpOp::kGe:
          return cmp >= 0;
        case CmpOp::kLt:
          return cmp < 0;
        case CmpOp::kGt:
          return cmp > 0;
      }
      PVC_FAIL("unknown comparison operator");
    }
    default:
      PVC_FAIL("cannot compare cells of this type");
  }
}

// A predicate operand with its column resolved to an index of one schema.
struct ResolvedOperand {
  const Cell* constant = nullptr;  // Set for constant operands...
  size_t index = 0;                // ...column index otherwise.

  const Cell& Of(const Row& r) const {
    return constant != nullptr ? *constant : r.cells[index];
  }
};

ResolvedOperand ResolveOperand(const Operand& o, const Schema& schema) {
  ResolvedOperand r;
  if (o.kind() == Operand::Kind::kColumn) {
    r.index = schema.IndexOf(o.column());
  } else {
    r.constant = &o.constant();
  }
  return r;
}

// The type of `o` on `schema`; nullopt for a column `schema` lacks.
std::optional<CellType> OperandType(const Operand& o, const Schema& schema) {
  if (o.kind() != Operand::Kind::kColumn) return o.constant().type();
  std::optional<size_t> index = schema.Find(o.column());
  if (!index.has_value()) return std::nullopt;
  return schema.column(*index).type;
}

// True when both types are known and the same int, double or string type:
// CompareDataCells cannot fail its type check on such operands.
bool SameDataType(std::optional<CellType> a, std::optional<CellType> b) {
  return a.has_value() && b.has_value() && *a == *b &&
         (*a == CellType::kInt || *a == CellType::kDouble ||
          *a == CellType::kString);
}

// True when `atom` is a data comparison decided by `schema`'s rows alone:
// at least one column operand, every column on `schema`, and operands of
// one data type.
bool DecidedBy(const Atom& atom, const Schema& schema) {
  return (atom.lhs.kind() == Operand::Kind::kColumn ||
          atom.rhs.kind() == Operand::Kind::kColumn) &&
         SameDataType(OperandType(atom.lhs, schema),
                      OperandType(atom.rhs, schema));
}

// True when ApplyPredicateAtom cannot throw on `atom` over rows of
// `schema`: a data comparison of one data type, or a comparison of
// aggregation attributes with each other or with integers.
bool CannotThrow(const Atom& atom, const Schema& schema) {
  std::optional<CellType> lt = OperandType(atom.lhs, schema);
  std::optional<CellType> rt = OperandType(atom.rhs, schema);
  if (lt == CellType::kAggExpr || rt == CellType::kAggExpr) {
    auto agg_or_int = [](std::optional<CellType> t) {
      return t == CellType::kAggExpr || t == CellType::kInt;
    };
    return agg_or_int(lt) && agg_or_int(rt);
  }
  return SameDataType(lt, rt);
}

// A predicate atom with its operands resolved against one schema.
struct ResolvedAtom {
  CmpOp op;
  ResolvedOperand lhs;
  ResolvedOperand rhs;

  /// The data comparison on row `r` (both operands data cells).
  bool Holds(const Row& r) const {
    return CompareDataCells(op, lhs.Of(r), rhs.Of(r));
  }
};

ResolvedAtom ResolveAtom(const Atom& atom, const Schema& schema) {
  return {atom.op, ResolveOperand(atom.lhs, schema),
          ResolveOperand(atom.rhs, schema)};
}

// Per row of `table`, whether it passes every data atom of `atoms` (pure,
// so the rows fan out across threads).
std::vector<uint8_t> PassingRows(const PvcTable& table,
                                 const std::vector<ResolvedAtom>& atoms,
                                 int num_threads) {
  std::vector<uint8_t> pass(table.NumRows(), 1);
  if (atoms.empty()) return pass;
  ParallelFor(num_threads, table.NumRows(), [&](size_t i) {
    const Row& r = table.row(i);
    for (const ResolvedAtom& a : atoms) {
      if (!a.Holds(r)) {
        pass[i] = 0;
        return;
      }
    }
  });
  return pass;
}

}  // namespace

bool ApplyPredicateAtom(ExprPool* pool, const Schema& schema, const Atom& atom,
                        Row* row) {
  auto resolve = [&](const Operand& o) -> const Cell& {
    if (o.kind() == Operand::Kind::kColumn) {
      return row->cells[schema.IndexOf(o.column())];
    }
    return o.constant();
  };
  const Cell& lhs = resolve(atom.lhs);
  const Cell& rhs = resolve(atom.rhs);
  bool lhs_agg = lhs.type() == CellType::kAggExpr;
  bool rhs_agg = rhs.type() == CellType::kAggExpr;
  if (!lhs_agg && !rhs_agg) {
    // Plain data comparison: filter.
    return CompareDataCells(atom.op, lhs, rhs);
  }
  // Theta-comparison involving an aggregation attribute: extend the
  // annotation with the conditional expression [lhs theta rhs] (Figure 4's
  // sigma rule).
  auto as_expr = [&](const Cell& c, const Cell& other_agg) -> ExprId {
    if (c.type() == CellType::kAggExpr) return c.AsAgg();
    PVC_CHECK_MSG(c.type() == CellType::kInt,
                  "aggregation attributes compare against integers "
                  "(fixed-point encode decimals); got "
                      << c.ToString());
    // The constant joins the comparison as a monoid constant of the other
    // side's monoid.
    AggKind agg = pool->node(other_agg.AsAgg()).agg;
    return pool->ConstM(agg, c.AsInt());
  };
  ExprId lhs_expr = lhs_agg ? lhs.AsAgg() : as_expr(lhs, rhs);
  ExprId rhs_expr = rhs_agg ? rhs.AsAgg() : as_expr(rhs, lhs);
  ExprId cond = pool->Cmp(atom.op, lhs_expr, rhs_expr);
  row->annotation = pool->MulS(row->annotation, cond);
  return true;
}

EquiJoinPlan SplitEquiJoinAtoms(const Predicate& pred, const Schema& left,
                                const Schema& right) {
  EquiJoinPlan plan;
  for (const Atom& atom : pred.atoms()) {
    bool hashable = false;
    if (atom.op == CmpOp::kEq &&
        atom.lhs.kind() == Operand::Kind::kColumn &&
        atom.rhs.kind() == Operand::Kind::kColumn) {
      std::optional<size_t> ll = left.Find(atom.lhs.column());
      std::optional<size_t> lr = left.Find(atom.rhs.column());
      std::optional<size_t> rl = right.Find(atom.lhs.column());
      std::optional<size_t> rr = right.Find(atom.rhs.column());
      // Only same-typed data columns are hashable; mismatches fall back to
      // the residual path so they fail with the same diagnostics as a
      // plain selection.
      auto hashable_pair = [&](size_t li, size_t ri) {
        return left.column(li).type != CellType::kAggExpr &&
               left.column(li).type == right.column(ri).type;
      };
      if (ll.has_value() && rr.has_value() && hashable_pair(*ll, *rr)) {
        plan.keys.push_back({*ll, *rr});
        hashable = true;
      } else if (lr.has_value() && rl.has_value() &&
                 hashable_pair(*lr, *rl)) {
        plan.keys.push_back({*lr, *rl});
        hashable = true;
      }
    }
    if (!hashable) plan.residual.push_back(atom);
  }
  return plan;
}

QueryEvaluator::QueryEvaluator(ExprPool* pool, TableResolver resolver,
                               EvalMode mode, EvalOptions options)
    : pool_(pool),
      resolver_(std::move(resolver)),
      mode_(mode),
      options_(options) {
  PVC_CHECK(pool != nullptr);
}

PvcTable QueryEvaluator::Eval(const Query& q) {
  switch (q.op()) {
    case QueryOp::kScan:
      return EvalScan(q);
    case QueryOp::kSelect:
      return EvalSelect(q);
    case QueryOp::kProject:
      return EvalProject(q);
    case QueryOp::kRename:
      return EvalRename(q);
    case QueryOp::kProduct:
      return EvalProduct(q);
    case QueryOp::kUnion:
      return EvalUnion(q);
    case QueryOp::kGroupAgg:
      return EvalGroupAgg(q);
  }
  PVC_FAIL("unknown query operator");
}

const PvcTable& QueryEvaluator::ResolveScan(const Query& q) {
  const PvcTable& base = resolver_(q.table_name());
  PVCDB_COUNTER_ADD("engine.rows_scanned", base.NumRows());
  return base;
}

const PvcTable& QueryEvaluator::EvalInput(const Query& q, PvcTable* storage) {
  if (q.op() == QueryOp::kScan && mode_ == EvalMode::kProbabilistic) {
    return ResolveScan(q);
  }
  *storage = Eval(q);
  return *storage;
}

PvcTable QueryEvaluator::EvalScan(const Query& q) {
  const PvcTable& base = ResolveScan(q);
  if (mode_ == EvalMode::kProbabilistic) return base;
  // Q0: evaluate on the deterministic database -- every tuple is present.
  PvcTable out{base.schema()};
  ExprId one = pool_->ConstS(pool_->semiring().One());
  for (const Row& r : base.rows()) {
    out.AddRow(r.cells, one);
  }
  return out;
}

bool QueryEvaluator::ApplyAtom(const Schema& schema, const Atom& atom,
                               Row* row) {
  return ApplyPredicateAtom(pool_, schema, atom, row);
}

PvcTable QueryEvaluator::EvalSelect(const Query& q) {
  // Hash-join fast path: Select directly over a Product with at least one
  // cross-side data equality executes as an equi-join, avoiding the
  // materialised cross product (same result, including annotations).
  if (q.child(0)->op() == QueryOp::kProduct) {
    return EvalHashJoin(*q.child(0), q.predicate());
  }
  PvcTable storage;
  const PvcTable& input = EvalInput(*q.child(0), &storage);
  PvcTable out{input.schema()};
  ExprId zero = pool_->ConstS(pool_->semiring().Zero());
  const Schema& schema = input.schema();
  const std::vector<Atom>& atoms = q.predicate().atoms();

  // Classify the atoms once: an atom over data cells only is a pure filter;
  // an atom touching an aggregation attribute extends the annotation
  // (Figure 4's sigma rule) and must stay on the interning thread.
  std::vector<ResolvedAtom> resolved;
  std::vector<bool> is_data_atom;
  size_t first_extending = atoms.size();  // First annotation-extending atom.
  for (const Atom& atom : atoms) {
    resolved.push_back(ResolveAtom(atom, schema));
    is_data_atom.push_back(
        *OperandType(atom.lhs, schema) != CellType::kAggExpr &&
        *OperandType(atom.rhs, schema) != CellType::kAggExpr);
    if (!is_data_atom.back() && first_extending == atoms.size()) {
      first_extending = is_data_atom.size() - 1;
    }
  }

  // Phase 1 (parallel, pure): per row, the first failing data atom in
  // predicate order (atoms.size() when all pass). Atoms after the first
  // failure are not evaluated, matching the serial short-circuit.
  size_t n = input.NumRows();
  std::vector<size_t> first_fail(n, atoms.size());
  ParallelFor(options_.num_threads, n, [&](size_t i) {
    const Row& r = input.row(i);
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (!is_data_atom[j]) continue;
      if (!resolved[j].Holds(r)) {
        first_fail[i] = j;
        break;
      }
    }
  });

  // Phase 2 (serial): replay the annotation-extending atoms in the original
  // atom order up to the first failure -- the exact ExprPool interning
  // sequence of a serial run -- and emit surviving rows in input order.
  for (size_t i = 0; i < n; ++i) {
    // Rejected before any annotation-extending atom: the row interns
    // nothing, so it is never copied.
    if (first_fail[i] < first_extending) continue;
    Row candidate = input.row(i);
    bool keep = true;
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j == first_fail[i]) {
        keep = false;
        break;
      }
      if (is_data_atom[j]) continue;  // Passed in phase 1.
      ApplyAtom(schema, atoms[j], &candidate);
    }
    // Rows whose annotation folded to 0_K are absent from every world.
    if (keep && candidate.annotation != zero) {
      out.AddRow(std::move(candidate));
    }
  }
  return out;
}

PvcTable QueryEvaluator::EvalHashJoin(const Query& product,
                                      const Predicate& pred) {
  PvcTable left_storage, right_storage;
  const PvcTable& left = EvalInput(*product.child(0), &left_storage);
  const PvcTable& right = EvalInput(*product.child(1), &right_storage);

  // Split the conjunction into hashable cross-side data equalities and
  // residual atoms (applied per joined row, exactly as EvalSelect would).
  EquiJoinPlan plan =
      SplitEquiJoinAtoms(pred, left.schema(), right.schema());
  const std::vector<EquiJoinPlan::Key>& keys = plan.keys;

  std::vector<Column> columns = left.schema().columns();
  for (const Column& c : right.schema().columns()) {
    PVC_CHECK_MSG(!left.schema().Find(c.name).has_value(),
                  "product requires disjoint column names; '"
                      << c.name << "' occurs on both sides (use Rename)");
    columns.push_back(c);
  }
  Schema out_schema{std::move(columns)};
  PvcTable out{out_schema};
  ExprId zero = pool_->ConstS(pool_->semiring().Zero());

  // A residual data atom decided by one input's rows alone filters that
  // input before any row is paired: it never touches an annotation, so the
  // pairs it rejects would only have cost a cell copy and a MulS each.
  // Moving stops at the first kept atom that may throw, so every pair that
  // reaches a throwing atom reaches it exactly as without the move.
  std::vector<ResolvedAtom> left_atoms, right_atoms;
  std::vector<Atom> residual;
  bool movable = true;
  for (const Atom& atom : plan.residual) {
    if (movable && DecidedBy(atom, left.schema())) {
      left_atoms.push_back(ResolveAtom(atom, left.schema()));
    } else if (movable && DecidedBy(atom, right.schema())) {
      right_atoms.push_back(ResolveAtom(atom, right.schema()));
    } else {
      residual.push_back(atom);
      movable = movable && CannotThrow(atom, out_schema);
    }
  }
  std::vector<uint8_t> left_pass =
      PassingRows(left, left_atoms, options_.num_threads);
  std::vector<uint8_t> right_pass =
      PassingRows(right, right_atoms, options_.num_threads);

  auto emit = [&](const Row& l, const Row& r) {
    Row candidate;
    candidate.cells.reserve(l.cells.size() + r.cells.size());
    candidate.cells.insert(candidate.cells.end(), l.cells.begin(),
                           l.cells.end());
    candidate.cells.insert(candidate.cells.end(), r.cells.begin(),
                           r.cells.end());
    candidate.annotation = pool_->MulS(l.annotation, r.annotation);
    for (const Atom& atom : residual) {
      if (!ApplyAtom(out_schema, atom, &candidate)) return;
    }
    if (candidate.annotation != zero) out.AddRow(std::move(candidate));
  };

  if (keys.empty()) {
    // Pure theta-join: fall back to nested loops.
    for (size_t i = 0; i < left.NumRows(); ++i) {
      if (!left_pass[i]) continue;
      for (size_t j = 0; j < right.NumRows(); ++j) {
        if (right_pass[j]) emit(left.row(i), right.row(j));
      }
    }
    return out;
  }

  // Build on the right side, probe with the left.
  std::unordered_map<RowKey, std::vector<size_t>, RowKeyHash> build;
  for (size_t j = 0; j < right.NumRows(); ++j) {
    if (!right_pass[j]) continue;
    RowKey key;
    key.cells.reserve(keys.size());
    for (const EquiJoinPlan::Key& k : keys) {
      key.cells.push_back(right.row(j).cells[k.right_index]);
    }
    build[std::move(key)].push_back(j);
  }
  // Phase 1 (parallel, pure): hash every probe-side key and look it up in
  // the build table, which is read-only from here on.
  size_t n = left.NumRows();
  std::vector<const std::vector<size_t>*> matches(n, nullptr);
  ParallelFor(options_.num_threads, n, [&](size_t i) {
    if (!left_pass[i]) return;
    const Row& l = left.row(i);
    RowKey key;
    key.cells.reserve(keys.size());
    for (const EquiJoinPlan::Key& k : keys) key.cells.push_back(l.cells[k.left_index]);
    auto it = build.find(key);
    if (it != build.end()) matches[i] = &it->second;
  });
  // Phase 2 (serial): emit joined rows in probe order, so annotation
  // interning and row order are identical to a serial run.
  for (size_t i = 0; i < n; ++i) {
    if (matches[i] == nullptr) continue;
    for (size_t j : *matches[i]) emit(left.row(i), right.row(j));
  }
  return out;
}

PvcTable QueryEvaluator::EvalProject(const Query& q) {
  PvcTable storage;
  const PvcTable& input = EvalInput(*q.child(0), &storage);
  const Schema& in_schema = input.schema();
  std::vector<Column> columns;
  std::vector<size_t> indices;
  for (const std::string& name : q.columns()) {
    size_t idx = in_schema.IndexOf(name);
    PVC_CHECK_MSG(in_schema.column(idx).type != CellType::kAggExpr,
                  "Definition 5: projection on aggregation attribute '"
                      << name << "'");
    columns.push_back(in_schema.column(idx));
    indices.push_back(idx);
  }
  PvcTable out{Schema(std::move(columns))};
  // Merge duplicate projected tuples; annotations sum (Figure 4's pi rule).
  std::unordered_map<RowKey, size_t, RowKeyHash> groups;
  std::vector<std::pair<RowKey, std::vector<ExprId>>> ordered;
  for (const Row& r : input.rows()) {
    RowKey key;
    key.cells.reserve(indices.size());
    for (size_t idx : indices) key.cells.push_back(r.cells[idx]);
    auto [it, inserted] = groups.emplace(key, ordered.size());
    if (inserted) {
      ordered.push_back({std::move(key), {}});
    }
    ordered[it->second].second.push_back(r.annotation);
  }
  for (auto& [key, annotations] : ordered) {
    out.AddRow(std::move(key.cells), pool_->AddS(std::move(annotations)));
  }
  return out;
}

PvcTable QueryEvaluator::EvalRename(const Query& q) {
  PvcTable storage;
  const PvcTable& input = EvalInput(*q.child(0), &storage);
  const Schema& in_schema = input.schema();
  size_t idx = in_schema.IndexOf(q.rename_from());
  std::vector<Column> columns = in_schema.columns();
  columns.push_back({q.rename_to(), in_schema.column(idx).type});
  PvcTable out{Schema(std::move(columns))};
  for (const Row& r : input.rows()) {
    std::vector<Cell> cells = r.cells;
    cells.push_back(r.cells[idx]);
    out.AddRow(std::move(cells), r.annotation);
  }
  return out;
}

PvcTable QueryEvaluator::EvalProduct(const Query& q) {
  PvcTable left_storage, right_storage;
  const PvcTable& left = EvalInput(*q.child(0), &left_storage);
  const PvcTable& right = EvalInput(*q.child(1), &right_storage);
  std::vector<Column> columns = left.schema().columns();
  for (const Column& c : right.schema().columns()) {
    PVC_CHECK_MSG(!left.schema().Find(c.name).has_value(),
                  "product requires disjoint column names; '"
                      << c.name << "' occurs on both sides (use Rename)");
    columns.push_back(c);
  }
  PvcTable out{Schema(std::move(columns))};
  for (const Row& l : left.rows()) {
    for (const Row& r : right.rows()) {
      std::vector<Cell> cells = l.cells;
      cells.insert(cells.end(), r.cells.begin(), r.cells.end());
      out.AddRow(std::move(cells), pool_->MulS(l.annotation, r.annotation));
    }
  }
  return out;
}

PvcTable QueryEvaluator::EvalUnion(const Query& q) {
  PvcTable left_storage, right_storage;
  const PvcTable& left = EvalInput(*q.child(0), &left_storage);
  const PvcTable& right = EvalInput(*q.child(1), &right_storage);
  PVC_CHECK_MSG(left.schema() == right.schema(),
                "union requires identical schemas: "
                    << left.schema().ToString() << " vs "
                    << right.schema().ToString());
  for (const Column& c : left.schema().columns()) {
    PVC_CHECK_MSG(c.type != CellType::kAggExpr,
                  "Definition 5: union over aggregation attribute '"
                      << c.name << "'");
  }
  PvcTable out{left.schema()};
  // Duplicate tuples across both sides merge; annotations sum (Figure 4).
  std::unordered_map<RowKey, size_t, RowKeyHash> groups;
  std::vector<std::pair<RowKey, std::vector<ExprId>>> ordered;
  auto add_rows = [&](const PvcTable& t) {
    for (const Row& r : t.rows()) {
      RowKey key{r.cells};
      auto [it, inserted] = groups.emplace(key, ordered.size());
      if (inserted) {
        ordered.push_back({std::move(key), {}});
      }
      ordered[it->second].second.push_back(r.annotation);
    }
  };
  add_rows(left);
  add_rows(right);
  for (auto& [key, annotations] : ordered) {
    out.AddRow(std::move(key.cells), pool_->AddS(std::move(annotations)));
  }
  return out;
}

std::optional<std::string> ShardDrivingTable(const Query& q) {
  const Query* cur = &q;
  while (true) {
    switch (cur->op()) {
      case QueryOp::kScan:
        return cur->table_name();
      case QueryOp::kSelect:
        // The hash-join fast path only triggers on Select-over-Product,
        // which is not part of this fragment.
        cur = cur->child(0).get();
        break;
      case QueryOp::kRename:
        cur = cur->child(0).get();
        break;
      default:
        return std::nullopt;
    }
  }
}

PvcTable QueryEvaluator::EvalGroupAgg(const Query& q) {
  PvcTable storage;
  const PvcTable& input = EvalInput(*q.child(0), &storage);
  const Schema& in_schema = input.schema();

  std::vector<Column> columns;
  std::vector<size_t> group_indices;
  for (const std::string& name : q.columns()) {
    size_t idx = in_schema.IndexOf(name);
    PVC_CHECK_MSG(in_schema.column(idx).type != CellType::kAggExpr,
                  "Definition 5: grouping on aggregation attribute '" << name
                                                                      << "'");
    columns.push_back(in_schema.column(idx));
    group_indices.push_back(idx);
  }
  struct AggInput {
    AggKind agg;
    std::optional<size_t> index;  // nullopt: COUNT(*) aggregates 1.
  };
  std::vector<AggInput> agg_inputs;
  for (const AggSpec& spec : q.aggs()) {
    columns.push_back({spec.output_column, CellType::kAggExpr});
    AggInput in;
    in.agg = spec.agg;
    if (spec.agg == AggKind::kCount && spec.input_column.empty()) {
      in.index = std::nullopt;
    } else {
      size_t idx = in_schema.IndexOf(spec.input_column);
      PVC_CHECK_MSG(in_schema.column(idx).type == CellType::kInt,
                    "aggregation input '"
                        << spec.input_column
                        << "' must be an integer column (fixed-point encode "
                           "decimals)");
      in.index = idx;
    }
    agg_inputs.push_back(in);
  }
  PvcTable out{Schema(std::move(columns))};

  struct GroupAcc {
    RowKey key;
    std::vector<ExprId> annotations;
    std::vector<std::vector<ExprId>> agg_terms;  // One list per AggSpec.
  };
  std::unordered_map<RowKey, size_t, RowKeyHash> groups;
  std::vector<GroupAcc> ordered;
  const bool grouped = !group_indices.empty();
  if (!grouped) {
    // The $-without-grouping rule always produces exactly one tuple.
    GroupAcc acc;
    acc.agg_terms.resize(agg_inputs.size());
    ordered.push_back(std::move(acc));
  }
  for (const Row& r : input.rows()) {
    size_t slot = 0;
    if (grouped) {
      RowKey key;
      key.cells.reserve(group_indices.size());
      for (size_t idx : group_indices) key.cells.push_back(r.cells[idx]);
      auto [it, inserted] = groups.emplace(key, ordered.size());
      if (inserted) {
        GroupAcc acc;
        acc.key = std::move(key);
        acc.agg_terms.resize(agg_inputs.size());
        ordered.push_back(std::move(acc));
      }
      slot = it->second;
    }
    GroupAcc& acc = ordered[slot];
    acc.annotations.push_back(r.annotation);
    for (size_t a = 0; a < agg_inputs.size(); ++a) {
      const AggInput& in = agg_inputs[a];
      int64_t value = in.index.has_value() ? r.cells[*in.index].AsInt() : 1;
      if (in.agg == AggKind::kCount) value = 1;
      acc.agg_terms[a].push_back(
          pool_->Tensor(r.annotation, pool_->ConstM(in.agg, value)));
    }
  }
  ExprId one = pool_->ConstS(pool_->semiring().One());
  ExprId zero_s = pool_->ConstS(pool_->semiring().Zero());
  for (GroupAcc& acc : ordered) {
    std::vector<Cell> cells = std::move(acc.key.cells);
    for (size_t a = 0; a < agg_inputs.size(); ++a) {
      ExprId value = pool_->AddM(agg_inputs[a].agg, std::move(acc.agg_terms[a]));
      cells.push_back(Cell::Agg(value));
    }
    // With grouping, the tuple exists iff its group is non-empty:
    // [Sum_K Phi != 0_K] (Figure 4). Without grouping the annotation is 1_K.
    ExprId annotation =
        grouped ? pool_->Cmp(CmpOp::kNe, pool_->AddS(std::move(acc.annotations)),
                             zero_s)
                : one;
    out.AddRow(std::move(cells), annotation);
  }
  return out;
}

}  // namespace pvcdb
