#include "src/engine/shard.h"

#include <algorithm>
#include <utility>

#include "src/engine/wal.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace pvcdb {

const char kShardRowIdColumn[] = "__pvcdb_rowid";

namespace {

/// File-local alias; see the declaration in shard.h.
constexpr const char* kRowIdColumn = kShardRowIdColumn;

/// Detaches the coordinator's WAL writer for the guarded scope. Used where
/// the sharded facade logs a richer record itself (table loads carry the
/// routing key column; view replacement is one logical op, not
/// drop-then-register) and the coordinator's own logging must stay quiet.
class WalDetachGuard {
 public:
  explicit WalDetachGuard(Database* db) : db_(db), wal_(db->wal()) {
    db_->set_wal(nullptr);
  }
  ~WalDetachGuard() { db_->set_wal(wal_); }

  WalWriter* wal() const { return wal_; }

 private:
  Database* db_;
  WalWriter* wal_;
};

}  // namespace

size_t FnvShardRouter::Route(const Cell& key, size_t num_shards) const {
  return static_cast<size_t>(key.StableHash() % num_shards);
}

size_t ModuloShardRouter::Route(const Cell& key, size_t num_shards) const {
  int64_t k = key.AsInt() % static_cast<int64_t>(num_shards);
  if (k < 0) k += static_cast<int64_t>(num_shards);
  return static_cast<size_t>(k);
}

const std::vector<Cell>& ShardedResult::cells(size_t i) const {
  PVC_CHECK_MSG(i < order_.size(), "result row " << i << " out of range");
  const auto& [part, row] = order_[i];
  return parts_[part].row(row).cells;
}

ShardedDatabase::ShardedDatabase(size_t num_shards, SemiringKind semiring,
                                 std::unique_ptr<ShardRouter> router)
    : router_(router != nullptr ? std::move(router)
                                : std::make_unique<FnvShardRouter>()),
      coordinator_(semiring) {
  PVC_CHECK_MSG(num_shards >= 1, "a sharded database needs >= 1 shard");
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Database>(
        coordinator_.shared_variables(), semiring));
  }
}

const Database& ShardedDatabase::shard(size_t s) const {
  PVC_CHECK_MSG(s < shards_.size(), "shard index " << s << " out of range");
  return *shards_[s];
}

void ShardedDatabase::AddTupleIndependentTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, std::vector<double> probabilities,
    const std::string& key_column) {
  PVC_CHECK_MSG(schema.NumColumns() > 0, "cannot shard a zero-column table");
  size_t key_index = key_column.empty() ? 0 : schema.IndexOf(key_column);

  // The sharded load logs its own record (it must carry the routing key
  // column), so the coordinator's WAL stays detached for the inner call.
  WalRecord record;
  std::string key_name = schema.column(key_index).name;
  VarId var_base = static_cast<VarId>(variables().size());
  size_t num_rows = rows.size();
  std::vector<VarId> vars;
  vars.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    vars.push_back(var_base + static_cast<VarId>(i));
  }
  if (wal() != nullptr) {
    for (size_t i = 0; i < num_rows; ++i) {
      record.ops.push_back(
          WalOp::RegisterVariable(name + "#" + std::to_string(i),
                                  Distribution::Bernoulli(probabilities[i])));
    }
    record.ops.push_back(
        WalOp::CreateTable(name, schema, key_name, rows, vars));
  }

  {
    // The coordinator performs the exact load an unsharded Database would:
    // Bernoulli variables are created in global row order, so VarIds match
    // the unsharded engine's.
    WalDetachGuard guard(&coordinator_);
    coordinator_.AddTupleIndependentTable(name, std::move(schema),
                                          std::move(rows),
                                          std::move(probabilities));
  }
  PartitionLoadedTable(name, key_index, vars);
  if (wal() != nullptr) LogWalRecord(wal(), record);
}

void ShardedDatabase::AddVariableAnnotatedTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, const std::vector<VarId>& vars,
    const std::string& key_column) {
  PVC_CHECK_MSG(schema.NumColumns() > 0, "cannot shard a zero-column table");
  size_t key_index = key_column.empty() ? 0 : schema.IndexOf(key_column);
  WalRecord record;
  if (wal() != nullptr) {
    record.ops.push_back(WalOp::CreateTable(
        name, schema, schema.column(key_index).name, rows, vars));
  }
  {
    WalDetachGuard guard(&coordinator_);
    coordinator_.AddVariableAnnotatedTable(name, std::move(schema),
                                           std::move(rows), vars);
  }
  PartitionLoadedTable(name, key_index, vars);
  if (wal() != nullptr) LogWalRecord(wal(), record);
}

void ShardedDatabase::PartitionLoadedTable(const std::string& name,
                                           size_t key_index,
                                           const std::vector<VarId>& vars) {
  const PvcTable& logical = coordinator_.table(name);
  std::vector<size_t> assignment =
      AssignShards(logical, key_index, [&](const Cell& key) {
        size_t s = router_->Route(key, shards_.size());
        PVC_CHECK_MSG(s < shards_.size(),
                      "router '" << router_->name() << "' returned shard "
                                 << s << " for " << shards_.size()
                                 << " shards");
        return s;
      });

  std::vector<PvcTable> partitions;
  partitions.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    partitions.emplace_back(logical.schema());
  }
  std::vector<std::pair<uint32_t, uint32_t>> placement;
  placement.reserve(logical.NumRows());
  for (size_t i = 0; i < logical.NumRows(); ++i) {
    size_t s = assignment[i];
    placement.emplace_back(static_cast<uint32_t>(s),
                           static_cast<uint32_t>(partitions[s].NumRows()));
    // The shard re-interns the row's variable in its own pool; the VarId --
    // and hence every probability downstream -- is the global one.
    partitions[s].AddRow(logical.row(i).cells,
                         shards_[s]->pool().Var(vars[i]));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->AddTable(name, std::move(partitions[s]));
  }
  placements_[name] = std::move(placement);
  key_columns_[name] = key_index;
  augmented_cache_.erase(name);
  // Re-seed per-shard views of the replaced table (the coordinator's
  // registry invalidates its own views through AddTable).
  for (auto& view : sharded_views_) {
    if (view->driving == name) SeedShardedView(view.get());
  }
}

bool ShardedDatabase::HasTable(const std::string& name) const {
  return coordinator_.HasTable(name);
}

std::vector<std::string> ShardedDatabase::TableNames() const {
  return coordinator_.TableNames();
}

size_t ShardedDatabase::NumRows(const std::string& name) const {
  return coordinator_.table(name).NumRows();
}

std::string ShardedDatabase::KeyColumnName(const std::string& name) const {
  auto it = key_columns_.find(name);
  PVC_CHECK_MSG(it != key_columns_.end(),
                "no sharded table named '" << name << "'");
  return coordinator_.table(name).schema().column(it->second).name;
}

std::vector<size_t> ShardedDatabase::ShardRowCounts(
    const std::string& name) const {
  std::vector<size_t> counts(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    counts[s] = shards_[s]->table(name).NumRows();
  }
  return counts;
}

const std::vector<std::pair<uint32_t, uint32_t>>&
ShardedDatabase::PlacementOf(const std::string& name) const {
  auto it = placements_.find(name);
  PVC_CHECK_MSG(it != placements_.end(),
                "no sharded table named '" << name << "'");
  return it->second;
}

void ShardedDatabase::SyncShardOptions() {
  for (auto& shard : shards_) {
    shard->eval_options() = coordinator_.eval_options();
    shard->compile_options() = coordinator_.compile_options();
  }
}

ShardedResult ShardedDatabase::CoordinatorResult(PvcTable table) const {
  ShardedResult result;
  result.schema_ = table.schema();
  result.order_.reserve(table.NumRows());
  for (size_t i = 0; i < table.NumRows(); ++i) {
    result.order_.emplace_back(0, static_cast<uint32_t>(i));
  }
  result.parts_.push_back(std::move(table));
  result.distributed_ = false;
  return result;
}

ShardedResult ShardedDatabase::Run(const Query& q) {
  SyncShardOptions();
  std::optional<std::string> driving = ShardDrivingTable(q);
  if (driving.has_value() && placements_.count(*driving) > 0 &&
      !coordinator_.table(*driving).schema().Find(kRowIdColumn).has_value() &&
      !QueryMentionsColumn(q, kRowIdColumn)) {
    return RunDistributed(q, *driving);
  }
  // Gather: joins, projections, unions and aggregates merge rows across
  // partitions; the coordinator replays the unsharded engine bit for bit.
  return CoordinatorResult(coordinator_.Run(q));
}

ShardedResult ShardedDatabase::RunDeterministic(const Query& q) {
  return CoordinatorResult(coordinator_.RunDeterministic(q));
}

const std::vector<PvcTable>& ShardedDatabase::AugmentedPartitionsOf(
    const std::string& table) {
  auto it = augmented_cache_.find(table);
  if (it != augmented_cache_.end()) return it->second;
  // Placement is fixed at load time, so the partitions extended with the
  // provenance column are built once per table and reused by every
  // distributed query (invalidated when the table is replaced).
  const std::vector<std::pair<uint32_t, uint32_t>>& placement =
      PlacementOf(table);
  std::vector<std::vector<int64_t>> global_ids(shards_.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    global_ids[placement[i].first].push_back(static_cast<int64_t>(i));
  }
  std::vector<PvcTable> augmented;
  augmented.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const PvcTable& partition = shards_[s]->table(table);
    std::vector<Column> columns = partition.schema().columns();
    columns.push_back({kRowIdColumn, CellType::kInt});
    PvcTable part{Schema(std::move(columns))};
    for (size_t j = 0; j < partition.NumRows(); ++j) {
      std::vector<Cell> cells = partition.row(j).cells;
      cells.emplace_back(global_ids[s][j]);
      part.AddRow(std::move(cells), partition.row(j).annotation);
    }
    augmented.push_back(std::move(part));
  }
  return augmented_cache_.emplace(table, std::move(augmented)).first->second;
}

ShardedDatabase::DistributedParts ShardedDatabase::EvalDistributed(
    const Query& q, const std::string& table) {
  // Scatter: each shard evaluates the chain against its partition extended
  // with the hidden provenance column, interning only into its own pool.
  const std::vector<PvcTable>& augmented = AugmentedPartitionsOf(table);
  std::vector<PvcTable> results(shards_.size());
  const EvalOptions& options = coordinator_.eval_options();
  ParallelFor(options.num_threads, shards_.size(), [&](size_t s) {
    QueryEvaluator evaluator(
        &shards_[s]->pool(),
        [&](const std::string& name) -> const PvcTable& {
          if (name == table) return augmented[s];
          return shards_[s]->table(name);
        },
        EvalMode::kProbabilistic, options);
    results[s] = evaluator.Eval(q);
  });

  // Gather: strip the provenance column and merge on driving-row order,
  // which is exactly the row order of the unsharded evaluation (Select and
  // Rename emit surviving rows in input order).
  size_t rowid_index = results[0].schema().IndexOf(kRowIdColumn);
  std::vector<Column> out_columns = results[0].schema().columns();
  out_columns.erase(out_columns.begin() + rowid_index);

  DistributedParts out;
  out.schema = Schema{std::move(out_columns)};
  out.parts.reserve(shards_.size());
  out.global.resize(shards_.size());
  struct Survivor {
    int64_t global_row;
    uint32_t part;
    uint32_t row;
  };
  std::vector<Survivor> survivors;
  for (size_t s = 0; s < shards_.size(); ++s) {
    PvcTable stripped{out.schema};
    for (size_t j = 0; j < results[s].NumRows(); ++j) {
      const Row& r = results[s].row(j);
      int64_t global_row = r.cells[rowid_index].AsInt();
      survivors.push_back({global_row, static_cast<uint32_t>(s),
                           static_cast<uint32_t>(j)});
      out.global[s].push_back(global_row);
      std::vector<Cell> cells = r.cells;
      cells.erase(cells.begin() + rowid_index);
      stripped.AddRow(std::move(cells), r.annotation);
    }
    out.parts.push_back(std::move(stripped));
  }
  std::sort(survivors.begin(), survivors.end(),
            [](const Survivor& a, const Survivor& b) {
              return a.global_row < b.global_row;
            });
  out.order.reserve(survivors.size());
  for (const Survivor& s : survivors) {
    out.order.emplace_back(s.part, s.row);
  }
  return out;
}

ShardedResult ShardedDatabase::RunDistributed(const Query& q,
                                              const std::string& table) {
  DistributedParts parts = EvalDistributed(q, table);
  ShardedResult result;
  result.schema_ = std::move(parts.schema);
  result.distributed_ = true;
  result.parts_ = std::move(parts.parts);
  result.order_ = std::move(parts.order);
  return result;
}

std::vector<ShardedDatabase::PartRef> ShardedDatabase::PartsOf(
    const ShardedResult& result) const {
  std::vector<PartRef> parts;
  parts.reserve(result.parts_.size());
  for (size_t p = 0; p < result.parts_.size(); ++p) {
    const ExprPool& pool = result.distributed_ ? shards_[p]->pool()
                                               : coordinator_.pool();
    parts.push_back({&result.parts_[p], &pool});
  }
  return parts;
}

std::vector<ShardedDatabase::PartRef> ShardedDatabase::PartsOfTable(
    const std::string& name) const {
  std::vector<PartRef> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    parts.push_back({&shard->table(name), &shard->pool()});
  }
  return parts;
}

std::vector<Distribution> ShardedDatabase::DistributionsImpl(
    const std::vector<PartRef>& parts,
    const std::vector<std::pair<uint32_t, uint32_t>>& order) {
  // Database's per-row pipeline, with the clone source being the pool of
  // the part that owns the row. The gather is positional (out[i]), i.e.
  // global row order.
  VariableTable::EvalScope scope(variables());
  std::vector<Distribution> out(order.size());
  const VariableTable& vars = variables();
  CompileOptions compile_options = coordinator_.compile_options();
  ParallelFor(coordinator_.eval_options().num_threads, order.size(),
              [&](size_t i) {
                const auto& [part, row] = order[i];
                const PartRef& ref = parts[part];
                out[i] = IsolatedAnnotationDistribution(
                    *ref.pool, vars, ref.table->row(row).annotation,
                    compile_options);
              });
  return out;
}

std::vector<ProbabilityBounds> ShardedDatabase::ApproximateImpl(
    const std::vector<PartRef>& parts,
    const std::vector<std::pair<uint32_t, uint32_t>>& order,
    ApproximateOptions options) {
  VariableTable::EvalScope scope(variables());
  std::vector<ProbabilityBounds> out(order.size());
  const VariableTable* vars = &variables();
  ParallelFor(coordinator_.eval_options().num_threads, order.size(),
              [&](size_t i) {
                const auto& [part, row] = order[i];
                const PartRef& ref = parts[part];
                ExprPool local(ref.pool->semiring().kind());
                ExprId e = ref.pool->CloneInto(&local,
                                               ref.table->row(row).annotation);
                out[i] = ApproximateProbability(&local, *vars, e, options);
              });
  return out;
}

std::vector<double> ShardedDatabase::TupleProbabilities(
    const ShardedResult& result) {
  SyncShardOptions();
  std::vector<Distribution> distributions =
      DistributionsImpl(PartsOf(result), result.order_);
  std::vector<double> out;
  out.reserve(distributions.size());
  for (const Distribution& d : distributions) {
    out.push_back(NonZeroMass(d));
  }
  return out;
}

std::vector<Distribution> ShardedDatabase::AnnotationDistributions(
    const ShardedResult& result) {
  SyncShardOptions();
  return DistributionsImpl(PartsOf(result), result.order_);
}

std::vector<ProbabilityBounds> ShardedDatabase::ApproximateTupleProbabilities(
    const ShardedResult& result, ApproximateOptions options) {
  SyncShardOptions();
  return ApproximateImpl(PartsOf(result), result.order_, options);
}

std::vector<double> ShardedDatabase::TupleProbabilities(
    const std::string& name) {
  SyncShardOptions();
  std::vector<Distribution> distributions =
      DistributionsImpl(PartsOfTable(name), PlacementOf(name));
  std::vector<double> out;
  out.reserve(distributions.size());
  for (const Distribution& d : distributions) {
    out.push_back(NonZeroMass(d));
  }
  return out;
}

std::vector<Distribution> ShardedDatabase::AnnotationDistributions(
    const std::string& name) {
  SyncShardOptions();
  return DistributionsImpl(PartsOfTable(name), PlacementOf(name));
}

std::vector<ProbabilityBounds> ShardedDatabase::ApproximateTupleProbabilities(
    const std::string& name, ApproximateOptions options) {
  SyncShardOptions();
  return ApproximateImpl(PartsOfTable(name), PlacementOf(name), options);
}

Distribution ShardedDatabase::ConditionalAggregateDistribution(
    const ShardedResult& result, size_t row_index, const std::string& column) {
  PVC_CHECK_MSG(!result.distributed_,
                "aggregation columns only occur on coordinator-evaluated "
                "results (aggregates always gather)");
  PVC_CHECK_MSG(row_index < result.NumRows(),
                "result row " << row_index << " out of range");
  return coordinator_.ConditionalAggregateDistribution(
      result.parts_[0], result.order_[row_index].second, column);
}

// -- Mutations --------------------------------------------------------------

size_t ShardedDatabase::InsertTuple(const std::string& table,
                                    std::vector<Cell> cells, double p) {
  auto key_it = key_columns_.find(table);
  PVC_CHECK_MSG(key_it != key_columns_.end(),
                "no sharded table named '" << table << "'");
  PVC_CHECK_MSG(key_it->second < cells.size(),
                "row is missing its key cell");

  // The coordinator replays the unsharded mutation: the fresh Bernoulli
  // variable gets the next global id, and coordinator-registered views
  // absorb the delta. It also logs the [variable, insert] WAL record,
  // which is all replay needs (the key column was recorded at load time).
  VarId x = static_cast<VarId>(variables().size());
  size_t global_row = coordinator_.InsertTuple(table, cells, p);
  RouteAppendedRow(table, key_it->second, cells, x, global_row);
  return global_row;
}

size_t ShardedDatabase::AppendRowToTable(const std::string& table,
                                         std::vector<Cell> cells, VarId var) {
  auto key_it = key_columns_.find(table);
  PVC_CHECK_MSG(key_it != key_columns_.end(),
                "no sharded table named '" << table << "'");
  PVC_CHECK_MSG(key_it->second < cells.size(),
                "row is missing its key cell");
  PVC_CHECK_MSG(var < variables().size(),
                "unknown variable id " << var);
  size_t global_row = coordinator_.AppendRowToTable(
      table, cells, coordinator_.pool().Var(var));
  RouteAppendedRow(table, key_it->second, cells, var, global_row);
  return global_row;
}

void ShardedDatabase::RouteAppendedRow(const std::string& table,
                                       size_t key_index,
                                       const std::vector<Cell>& cells,
                                       VarId var, size_t global_row) {
  // Route the row to its shard, exactly as the load would.
  size_t s = router_->Route(cells[key_index], shards_.size());
  size_t shard_row = shards_[s]->table(table).NumRows();
  ExprId shard_annotation = shards_[s]->pool().Var(var);
  shards_[s]->AppendRowToTable(table, cells, shard_annotation);
  placements_[table].emplace_back(static_cast<uint32_t>(s),
                                  static_cast<uint32_t>(shard_row));

  // Keep the cached provenance-extended partition consistent (appends
  // carry the maximal global id, so in-place extension preserves order).
  auto aug = augmented_cache_.find(table);
  if (aug != augmented_cache_.end()) {
    std::vector<Cell> extended = cells;
    extended.emplace_back(static_cast<int64_t>(global_row));
    aug->second[s].AddRow(std::move(extended), shard_annotation);
  }

  for (auto& view : sharded_views_) {
    if (view->driving == table) {
      ApplyShardedViewInsert(view.get(), s, global_row, cells,
                             shard_annotation);
    }
  }
}

void ShardedDatabase::DeleteRowAt(const std::string& table,
                                  size_t row_index) {
  auto it = placements_.find(table);
  PVC_CHECK_MSG(it != placements_.end(),
                "no sharded table named '" << table << "'");
  std::vector<std::pair<uint32_t, uint32_t>>& placement = it->second;
  PVC_CHECK_MSG(row_index < placement.size(),
                "row index " << row_index << " out of range");
  auto [s, shard_row] = placement[row_index];

  coordinator_.DeleteRowAt(table, row_index);
  // Shard engines have no views of their own; this only drops the row.
  shards_[s]->DeleteRowAt(table, shard_row);
  placement.erase(placement.begin() + row_index);
  for (auto& [ps, pr] : placement) {
    if (ps == s && pr > shard_row) --pr;
  }
  // Global row ids above the deleted row shift; the provenance-extended
  // partitions are rebuilt from the placement on next use.
  augmented_cache_.erase(table);

  for (auto& view : sharded_views_) {
    if (view->driving == table) {
      ApplyShardedViewDelete(view.get(), row_index);
    }
  }
}

size_t ShardedDatabase::DeleteTuple(const std::string& table,
                                    const Cell& key) {
  return DeleteRowsMatchingKey(
      coordinator_.table(table), key,
      [&](size_t index) { DeleteRowAt(table, index); });
}

void ShardedDatabase::UpdateProbability(VarId var, double p) {
  bool same_support =
      SameSupport(variables().DistributionOf(var), Distribution::Bernoulli(p));
  // Updates the shared registry and the coordinator-registered views.
  coordinator_.UpdateProbability(var, p);
  const Semiring& semiring = coordinator_.pool().semiring();
  for (auto& view : sharded_views_) {
    for (StepTwoCache& cache : view->caches) {
      cache.OnVariableUpdate(var, variables(), semiring, same_support);
    }
  }
}

// -- Materialized views -----------------------------------------------------

ShardedDatabase::ShardedView* ShardedDatabase::FindShardedView(
    const std::string& name) {
  for (auto& view : sharded_views_) {
    if (view->name == name) return view.get();
  }
  return nullptr;
}

void ShardedDatabase::SeedShardedView(ShardedView* view) {
  SyncShardOptions();
  DistributedParts parts = EvalDistributed(*view->query, view->driving);
  view->schema = std::move(parts.schema);
  view->parts = std::move(parts.parts);
  view->global = std::move(parts.global);
  view->order = std::move(parts.order);
  view->caches.clear();
  view->caches.resize(shards_.size());
}

void ShardedDatabase::RegisterView(const std::string& name, QueryPtr query) {
  // Like ViewRegistry::Register, build the replacement before dropping
  // any existing view of the name: a failing registration leaves the old
  // view (sharded or coordinator) untouched.
  std::optional<std::string> driving = ShardDrivingTable(*query);
  if (driving.has_value() && placements_.count(*driving) > 0 &&
      !coordinator_.table(*driving).schema().Find(kRowIdColumn).has_value() &&
      !QueryMentionsColumn(*query, kRowIdColumn)) {
    auto view = std::make_unique<ShardedView>();
    view->name = name;
    view->query = query;
    view->driving = *driving;
    SeedShardedView(view.get());
    {
      // Replacement is ONE logical op: the inner drop must not log its own
      // record (replay's RegisterView handles replacing the old name).
      WalDetachGuard guard(&coordinator_);
      DropView(name);
    }
    sharded_views_.push_back(std::move(view));
    if (wal() != nullptr) {
      WalRecord record;
      record.ops.push_back(WalOp::RegisterView(name, std::move(query)));
      LogWalRecord(wal(), record);
    }
    return;
  }
  SyncShardOptions();
  // The coordinator logs the kRegisterView record itself; retiring a
  // same-name per-shard view below is part of the same logical op.
  coordinator_.RegisterView(name, std::move(query));
  // The name may previously have named a per-shard view; retire it only
  // now that the replacement exists.
  for (auto it = sharded_views_.begin(); it != sharded_views_.end(); ++it) {
    if ((*it)->name == name) {
      sharded_views_.erase(it);
      break;
    }
  }
}

bool ShardedDatabase::HasView(const std::string& name) const {
  for (const auto& view : sharded_views_) {
    if (view->name == name) return true;
  }
  return coordinator_.HasView(name);
}

void ShardedDatabase::DropView(const std::string& name) {
  for (auto it = sharded_views_.begin(); it != sharded_views_.end(); ++it) {
    if ((*it)->name == name) {
      sharded_views_.erase(it);
      if (wal() != nullptr) {
        WalRecord record;
        record.ops.push_back(WalOp::DropView(name));
        LogWalRecord(wal(), record);
      }
      return;
    }
  }
  // Logs through the coordinator (only when the view exists).
  coordinator_.DropView(name);
}

std::vector<std::string> ShardedDatabase::ViewNames() const {
  std::vector<std::string> names;
  for (const auto& view : sharded_views_) names.push_back(view->name);
  for (const std::string& name : coordinator_.ViewNames()) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::pair<std::string, QueryPtr>> ShardedDatabase::ViewCatalog()
    const {
  std::vector<std::pair<std::string, QueryPtr>> catalog;
  for (const auto& view : sharded_views_) {
    catalog.emplace_back(view->name, view->query);
  }
  for (const std::string& name : coordinator_.ViewNames()) {
    catalog.emplace_back(name, coordinator_.views().view(name).query());
  }
  return catalog;
}

void ShardedDatabase::ApplyShardedViewInsert(
    ShardedView* view, size_t shard, size_t global_row,
    const std::vector<Cell>& cells, ExprId shard_annotation) {
  // Evaluate the chain on the delta row alone, against its
  // provenance-extended schema in the owning shard's pool -- the same
  // per-row pipeline as unsharded chain views (EvalChainOnSingleRow) and
  // the distributed scatter (chains over base partitions intern nothing,
  // so the shard pool is undisturbed when the row is filtered out).
  const PvcTable& partition = shards_[shard]->table(view->driving);
  std::vector<Column> columns = partition.schema().columns();
  columns.push_back({kRowIdColumn, CellType::kInt});
  Schema augmented{std::move(columns)};
  Row delta_row;
  delta_row.cells = cells;
  delta_row.cells.emplace_back(static_cast<int64_t>(global_row));
  delta_row.annotation = shard_annotation;
  std::optional<Row> out = EvalChainOnSingleRow(
      &shards_[shard]->pool(), *view->query, view->driving, augmented,
      delta_row, coordinator_.eval_options());
  if (!out.has_value()) return;

  // Strip the provenance cell like the distributed gather does: the
  // rowid column sits right after the base columns (selects preserve
  // column order, renames only append), i.e. at the base arity.
  size_t rowid_index = partition.schema().NumColumns();
  PVC_CHECK_MSG(out->cells.size() == view->schema.NumColumns() + 1,
                "chain output arity does not match the view schema");
  out->cells.erase(out->cells.begin() + rowid_index);
  // The delta row has the maximal global id: append everywhere.
  view->order.emplace_back(
      static_cast<uint32_t>(shard),
      static_cast<uint32_t>(view->parts[shard].NumRows()));
  view->parts[shard].AddRow(std::move(*out));
  view->global[shard].push_back(static_cast<int64_t>(global_row));
}

void ShardedDatabase::ApplyShardedViewDelete(ShardedView* view,
                                             size_t global_row) {
  int64_t g = static_cast<int64_t>(global_row);
  // The order is ascending in global id; find the derived row, if any.
  auto pos = std::lower_bound(
      view->order.begin(), view->order.end(), g,
      [&](const std::pair<uint32_t, uint32_t>& entry, int64_t value) {
        return view->global[entry.first][entry.second] < value;
      });
  if (pos != view->order.end() &&
      view->global[pos->first][pos->second] == g) {
    auto [s, r] = *pos;
    view->parts[s].DeleteRow(r);
    view->global[s].erase(view->global[s].begin() + r);
    view->order.erase(pos);
    for (auto& [os, orow] : view->order) {
      if (os == s && orow > r) --orow;
    }
  }
  // Later driving rows shifted down by one.
  for (std::vector<int64_t>& ids : view->global) {
    for (int64_t& id : ids) {
      if (id > g) --id;
    }
  }
}

ShardedResult ShardedDatabase::ViewResult(const std::string& name) {
  if (ShardedView* view = FindShardedView(name)) {
    ShardedResult result;
    result.schema_ = view->schema;
    result.parts_ = view->parts;
    result.order_ = view->order;
    result.distributed_ = true;
    return result;
  }
  return CoordinatorResult(coordinator_.ViewTable(name));
}

std::vector<double> ShardedDatabase::ViewProbabilities(
    const std::string& name) {
  ShardedView* view = FindShardedView(name);
  if (view == nullptr) return coordinator_.ViewProbabilities(name);
  SyncShardOptions();
  VariableTable::EvalScope scope(variables());
  const EvalOptions& eval_options = coordinator_.eval_options();
  const CompileOptions& options = coordinator_.compile_options();
  // Per-shard cached passes (the identical per-row pipeline), gathered in
  // global row order.
  std::vector<std::vector<double>> per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    per_shard[s] = view->caches[s].Probabilities(
        shards_[s]->pool(), variables(), view->parts[s], options,
        eval_options);
  }
  std::vector<double> out;
  out.reserve(view->order.size());
  for (const auto& [s, r] : view->order) {
    out.push_back(per_shard[s][r]);
  }
  return out;
}

std::vector<ShardedDatabase::ViewInfo> ShardedDatabase::ViewInfos() {
  std::vector<ViewInfo> infos;
  for (const auto& view : sharded_views_) {
    ViewInfo info;
    info.name = view->name;
    info.plan = "chain (per shard)";
    info.rows = view->order.size();
    for (size_t s = 0; s < view->caches.size(); ++s) {
      info.cache_entries += view->caches[s].LiveEntries(view->parts[s]);
    }
    infos.push_back(std::move(info));
  }
  for (const std::string& name : coordinator_.ViewNames()) {
    const MaterializedView& view = coordinator_.views().view(name);
    ViewInfo info;
    info.name = name;
    info.plan = MaterializedView::PlanName(view.plan());
    info.rows = coordinator_.ViewTable(name).NumRows();
    info.cache_entries =
        view.step_two().LiveEntries(coordinator_.ViewTable(name));
    infos.push_back(std::move(info));
  }
  return infos;
}

std::string ShardedDatabase::ResultToString(
    const ShardedResult& result) const {
  if (!result.distributed_) {
    // Coordinator results render exactly like the unsharded engine's.
    return result.parts_[0].ToString(&coordinator_.pool());
  }
  // Distributed results gather into a scratch pool for rendering only
  // (annotations of the distributable fragment are single variables, so
  // the rendering matches the unsharded one as well).
  ExprPool scratch(coordinator_.pool().semiring().kind());
  PvcTable gathered{result.schema_};
  for (const auto& [part, row] : result.order_) {
    const Row& r = result.parts_[part].row(row);
    gathered.AddRow(r.cells,
                    shards_[part]->pool().CloneInto(&scratch, r.annotation));
  }
  return gathered.ToString(&scratch);
}

}  // namespace pvcdb
