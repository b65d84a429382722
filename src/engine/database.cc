#include "src/engine/database.h"

#include <utility>

#include "src/engine/delta.h"
#include "src/engine/wal.h"
#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace pvcdb {

Distribution IsolatedAnnotationDistribution(const ExprPool& source,
                                            const VariableTable& variables,
                                            ExprId annotation,
                                            const CompileOptions& options) {
  // One pipeline for every facade and the step II cache alike (delta.h).
  return IsolatedCompileAndDistribution(source, variables, annotation, options)
      .distribution;
}

Database::Database(SemiringKind semiring)
    : pool_(semiring), variables_(std::make_shared<VariableTable>()) {}

Database::Database(std::shared_ptr<VariableTable> variables,
                   SemiringKind semiring)
    : pool_(semiring), variables_(std::move(variables)) {
  PVC_CHECK(variables_ != nullptr);
}

void Database::AddTable(const std::string& name, PvcTable table) {
  tables_[name] = std::move(table);
  views_.OnTableReplaced(name);
}

PvcTable& Database::MutableTable(const std::string& name) {
  auto it = tables_.find(name);
  PVC_CHECK_MSG(it != tables_.end(), "no table named '" << name << "'");
  return it->second;
}

ViewContext Database::Context() {
  return ViewContext{
      &pool_,
      [this](const std::string& name) -> const PvcTable& {
        return table(name);
      },
      eval_options_};
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

const PvcTable& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  PVC_CHECK_MSG(it != tables_.end(), "no table named '" << name << "'");
  return it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

void Database::AddTupleIndependentTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, std::vector<double> probabilities) {
  PVC_CHECK_MSG(rows.size() == probabilities.size(),
                "one probability per row required");
  // Build the record before the rows are consumed: the load is one atomic
  // mutation -- the fresh variables in creation order plus the table.
  WalRecord record;
  if (wal_ != nullptr) {
    VarId base = static_cast<VarId>(variables_->size());
    std::vector<VarId> vars;
    vars.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      record.ops.push_back(
          WalOp::RegisterVariable(name + "#" + std::to_string(i),
                                  Distribution::Bernoulli(probabilities[i])));
      vars.push_back(base + static_cast<VarId>(i));
    }
    record.ops.push_back(
        WalOp::CreateTable(name, schema, "", rows, std::move(vars)));
  }
  PvcTable table{std::move(schema)};
  for (size_t i = 0; i < rows.size(); ++i) {
    VarId x = variables_->AddBernoulli(probabilities[i],
                                       name + "#" + std::to_string(i));
    table.AddRow(std::move(rows[i]), pool_.Var(x));
  }
  AddTable(name, std::move(table));
  if (wal_ != nullptr) LogWalRecord(wal_, record);
}

void Database::AddVariableAnnotatedTable(const std::string& name,
                                         Schema schema,
                                         std::vector<std::vector<Cell>> rows,
                                         const std::vector<VarId>& vars) {
  PVC_CHECK_MSG(rows.size() == vars.size(), "one variable per row required");
  WalRecord record;
  if (wal_ != nullptr) {
    record.ops.push_back(WalOp::CreateTable(name, schema, "", rows, vars));
  }
  PvcTable table{std::move(schema)};
  for (size_t i = 0; i < rows.size(); ++i) {
    PVC_CHECK_MSG(vars[i] < variables_->size(),
                  "unknown variable id " << vars[i]);
    table.AddRow(std::move(rows[i]), pool_.Var(vars[i]));
  }
  AddTable(name, std::move(table));
  if (wal_ != nullptr) LogWalRecord(wal_, record);
}

namespace {

void CheckRowShape(const Schema& schema, const std::vector<Cell>& cells) {
  PVC_CHECK_MSG(cells.size() == schema.NumColumns(),
                "row arity " << cells.size() << " does not match schema "
                             << schema.NumColumns());
  for (size_t i = 0; i < cells.size(); ++i) {
    PVC_CHECK_MSG(cells[i].type() == schema.column(i).type,
                  "cell " << i << " (" << cells[i].ToString()
                          << ") does not match column '"
                          << schema.column(i).name << "'");
  }
}

}  // namespace

size_t Database::AppendRowToTable(const std::string& table,
                                  std::vector<Cell> cells,
                                  ExprId annotation) {
  PvcTable& t = MutableTable(table);
  CheckRowShape(t.schema(), cells);
  size_t index = t.NumRows();
  TableDelta delta;
  delta.kind = DeltaKind::kInsert;
  delta.table = table;
  delta.row_index = index;
  delta.cells = cells;
  delta.annotation = annotation;
  t.AddRow(std::move(cells), annotation);
  views_.Apply(delta, Context());
  return index;
}

size_t Database::InsertTuple(const std::string& table,
                             std::vector<Cell> cells, double p) {
  // Validate the row before touching the (possibly shared) variable
  // registry: a failed insert must not leave an orphaned variable behind,
  // or the registry would diverge from a from-scratch rebuild of the
  // final state.
  PvcTable& t = MutableTable(table);
  CheckRowShape(t.schema(), cells);
  // One atomic record: the fresh Bernoulli variable plus the row insert
  // that interns it. A crash tears the whole mutation or none of it.
  WalRecord record;
  if (wal_ != nullptr) {
    record.ops.push_back(
        WalOp::RegisterVariable(table + "#" + std::to_string(t.NumRows()),
                                Distribution::Bernoulli(p)));
    record.ops.push_back(WalOp::InsertRow(
        table, cells, static_cast<VarId>(variables_->size())));
  }
  VarId x = variables_->AddBernoulli(
      p, table + "#" + std::to_string(t.NumRows()));
  size_t index = AppendRowToTable(table, std::move(cells), pool_.Var(x));
  if (wal_ != nullptr) LogWalRecord(wal_, record);
  return index;
}

void Database::DeleteRowAt(const std::string& table, size_t row_index) {
  PvcTable& t = MutableTable(table);
  PVC_CHECK_MSG(row_index < t.NumRows(),
                "row index " << row_index << " out of range");
  TableDelta delta;
  delta.kind = DeltaKind::kDelete;
  delta.table = table;
  delta.row_index = row_index;
  delta.cells = t.row(row_index).cells;
  t.DeleteRow(row_index);
  views_.Apply(delta, Context());
  if (wal_ != nullptr) {
    WalRecord record;
    record.ops.push_back(WalOp::DeleteRow(table, row_index));
    LogWalRecord(wal_, record);
  }
}

size_t Database::DeleteTuple(const std::string& table, const Cell& key) {
  return DeleteRowsMatchingKey(
      MutableTable(table), key,
      [&](size_t index) { DeleteRowAt(table, index); });
}

void Database::UpdateProbability(VarId var, double p) {
  Distribution next = Distribution::Bernoulli(p);
  bool same_support = SameSupport(variables_->DistributionOf(var), next);
  variables_->SetDistribution(var, std::move(next));
  views_.OnVariableUpdate(var, *variables_, pool_.semiring(), same_support);
  if (wal_ != nullptr) {
    WalRecord record;
    record.ops.push_back(WalOp::UpdateProbability(var, p));
    LogWalRecord(wal_, record);
  }
}

const PvcTable& Database::RegisterView(const std::string& name,
                                       QueryPtr query) {
  // Log only after the registration succeeds: a rejected query (unknown
  // table, bad schema) throws out of Register and must never reach the
  // log, or replay would throw too.
  const PvcTable& result = views_.Register(name, query, Context());
  if (wal_ != nullptr) {
    WalRecord record;
    record.ops.push_back(WalOp::RegisterView(name, std::move(query)));
    LogWalRecord(wal_, record);
  }
  return result;
}

void Database::DropView(const std::string& name) {
  bool existed = views_.Has(name);
  views_.Drop(name);
  if (existed && wal_ != nullptr) {
    WalRecord record;
    record.ops.push_back(WalOp::DropView(name));
    LogWalRecord(wal_, record);
  }
}

const PvcTable& Database::ViewTable(const std::string& name) {
  return views_.Table(name, Context());
}

std::vector<double> Database::ViewProbabilities(const std::string& name) {
  // Refresh a stale view before opening the evaluation scope -- the
  // recompute itself only reads tables, never the variable registry.
  views_.Table(name, Context());
  VariableTable::EvalScope scope(*variables_);
  return views_.Probabilities(name, *variables_, compile_options_, Context());
}

PvcTable Database::Run(const Query& q) {
  PVCDB_SPAN(step1_span, "step1");
  QueryEvaluator evaluator(
      &pool_, [this](const std::string& name) -> const PvcTable& {
        return table(name);
      },
      EvalMode::kProbabilistic, eval_options_);
  return evaluator.Eval(q);
}

PvcTable Database::RunDeterministic(const Query& q) {
  QueryEvaluator evaluator(
      &pool_, [this](const std::string& name) -> const PvcTable& {
        return table(name);
      },
      EvalMode::kDeterministic, eval_options_);
  return evaluator.Eval(q);
}

Distribution Database::DistributionOfExpr(ExprId e) {
  VariableTable::EvalScope scope(*variables_);
  DTree tree = CompileToDTree(&pool_, variables_.get(), e, compile_options_);
  return ComputeDistribution(tree, *variables_, pool_.semiring());
}

double Database::TupleProbability(const Row& row) {
  return NonZeroMass(DistributionOfExpr(row.annotation));
}

Distribution Database::AnnotationDistribution(const Row& row) {
  return DistributionOfExpr(row.annotation);
}

std::vector<Distribution> Database::AnnotationDistributions(
    const PvcTable& table) {
  VariableTable::EvalScope scope(*variables_);
  std::vector<Distribution> out(table.NumRows());
  // Each row clones its annotation into a task-private pool, so the shared
  // pool is only read and the per-row pipeline is identical on the serial
  // and the threaded path.
  ParallelFor(eval_options_.num_threads, table.NumRows(), [&](size_t i) {
    out[i] = IsolatedAnnotationDistribution(pool_, *variables_,
                                            table.row(i).annotation,
                                            compile_options_);
  });
  return out;
}

std::vector<double> Database::TupleProbabilities(const PvcTable& table) {
  std::vector<Distribution> distributions = AnnotationDistributions(table);
  std::vector<double> out;
  out.reserve(distributions.size());
  for (const Distribution& d : distributions) {
    out.push_back(NonZeroMass(d));
  }
  return out;
}

std::vector<ProbabilityBounds> Database::ApproximateTupleProbabilities(
    const PvcTable& table, ApproximateOptions options) {
  VariableTable::EvalScope scope(*variables_);
  std::vector<ExprId> annotations;
  annotations.reserve(table.NumRows());
  for (const Row& row : table.rows()) annotations.push_back(row.annotation);
  return ApproximateBatch(pool_, *variables_, annotations, options,
                          eval_options_.num_threads);
}

Distribution Database::AggregateDistribution(const PvcTable& table,
                                             size_t row_index,
                                             const std::string& column) {
  const Cell& cell = table.CellAt(row_index, column);
  PVC_CHECK_MSG(cell.type() == CellType::kAggExpr,
                "'" << column << "' is not an aggregation column");
  return DistributionOfExpr(cell.AsAgg());
}

Distribution Database::ConditionalAggregateDistribution(
    const PvcTable& table, size_t row_index, const std::string& column) {
  const Cell& cell = table.CellAt(row_index, column);
  PVC_CHECK_MSG(cell.type() == CellType::kAggExpr,
                "'" << column << "' is not an aggregation column");
  VariableTable::EvalScope scope(*variables_);
  return pvcdb::ConditionalAggregateDistribution(
      &pool_, *variables_, cell.AsAgg(), table.row(row_index).annotation,
      compile_options_);
}

JointDistribution Database::RowJointDistribution(const PvcTable& table,
                                                 size_t row_index) {
  VariableTable::EvalScope scope(*variables_);
  const Row& row = table.row(row_index);
  std::vector<ExprId> exprs;
  for (size_t i = 0; i < table.schema().NumColumns(); ++i) {
    if (table.schema().column(i).type == CellType::kAggExpr) {
      exprs.push_back(row.cells[i].AsAgg());
    }
  }
  exprs.push_back(row.annotation);
  return ComputeJointDistribution(&pool_, *variables_, exprs,
                                  compile_options_);
}

}  // namespace pvcdb
