// Sharded databases: tables hash-partitioned by key across N inner
// Database shards, with scatter-gather evaluation (engineering extension;
// the paper's tuple-independent model makes per-tuple step II work
// embarrassingly parallel across partitions, and partitioning decides
// *where* each tuple's work runs).
//
// Topology and contracts:
//
//  - One shared VariableTable (Database's shared-variables load hook):
//    random-variable ids are globally scoped, so annotations that mention
//    variables owned by different shards -- join results, cross-shard
//    aggregates -- keep their correlations intact.
//  - Tables are hash-partitioned on a key column through a pluggable
//    ShardRouter (default: FNV-1a on the primary key, the table's first
//    column). Partitions preserve global row order within each shard.
//  - A row's identity is the variable that annotates it. Every row of a
//    sharded table has its own variable, created in global row order and
//    never renumbered, so each table and each partition is strictly
//    ascending by variable, and merging partitions on the variable gives
//    the unsharded row order (RowVar, MergeByVar below). Loads and appends
//    that would break the order throw CheckError.
//  - A coordinator Database holds the gathered logical tables and replays
//    exactly the load/interning sequence of an unsharded engine. This is a
//    deliberate trade-off: keeping a full coordinator copy (2x memory) is
//    what makes cross-shard operators bit-identical to the unsharded
//    engine. Out-of-process shards and a copy-free coordinator require
//    relaxing bitwise identity to epsilon agreement for cross-shard
//    merges -- the ROADMAP names that as the follow-up.
//
// Every public result is *bit-identical* to the single-database engine at
// any shard count and any thread count:
//
//  - Step I scatter: Select/Rename chains over one sharded table (the
//    fragment of ShardDrivingTable) evaluate per shard against that
//    shard's partition, read in place -- annotations pass through these
//    operators untouched, so shard-local evaluation plus a merge on the
//    rows' variables reproduces the unsharded result exactly. All other
//    queries (joins, projections, unions, aggregates merge rows across
//    partitions) gather to the coordinator, whose pool state matches the
//    unsharded engine's bit for bit.
//  - Step II scatter: the batch probability passes fan result rows across
//    PR 2's ThreadPool; each row clones its annotation from the pool of
//    the engine that produced it into a task-private ExprPool and runs the
//    identical compile + probability pipeline, and the gather writes
//    results in global row order.

#ifndef PVCDB_ENGINE_SHARD_H_
#define PVCDB_ENGINE_SHARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"

namespace pvcdb {

/// The identity of a row of a sharded table, or of a chain over one: the
/// variable annotating it (see the file comment). Shared with the
/// out-of-process engines (src/engine/coordinator.h,
/// src/engine/shard_worker.h). Throws CheckError when `annotation` is not a
/// single variable.
VarId RowVar(const ExprPool& pool, ExprId annotation);

/// Index of the row of `table` annotated by `var`, or nullopt when no row
/// is. `table` must be ascending by RowVar (binary search).
std::optional<size_t> FindRowByVar(const ExprPool& pool, const PvcTable& table,
                                   VarId var);

/// Throws CheckError unless `vars` is strictly increasing: the row order a
/// sharded table `table` must keep.
void CheckVarsAscending(const std::string& table,
                        const std::vector<VarId>& vars);

/// Throws CheckError unless `var` exceeds the variable of every row of
/// `rows` (ascending by RowVar in `pool`), i.e. may annotate a row appended
/// to the sharded table `table`.
void CheckAppendedVar(const std::string& table, const ExprPool& pool,
                      const PvcTable& rows, VarId var);

/// Routing policy: which shard owns a row, given its key cell. Routes must
/// be pure functions of (key, num_shards) -- placement is recomputed on
/// reload and must agree across processes.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// Shard index in [0, num_shards) for a row with key cell `key`.
  virtual size_t Route(const Cell& key, size_t num_shards) const = 0;

  /// Human-readable policy name (diagnostics / shell output).
  virtual std::string name() const = 0;
};

/// Default router: platform-independent FNV-1a over the key cell's
/// canonical bytes (Cell::StableHash), modulo the shard count.
class FnvShardRouter : public ShardRouter {
 public:
  size_t Route(const Cell& key, size_t num_shards) const override;
  std::string name() const override { return "fnv1a"; }
};

/// Integer-key router: key % num_shards. Placement is obvious from the
/// data, which makes tests and skew experiments easy to set up.
class ModuloShardRouter : public ShardRouter {
 public:
  size_t Route(const Cell& key, size_t num_shards) const override;
  std::string name() const override { return "modulo"; }
};

/// A query result over a sharded database: row partitions that live in the
/// pools of the engines that produced them (the N shards for distributed
/// plans, the coordinator otherwise), plus the global row order. Pass it
/// back to the ShardedDatabase batch methods for probabilities; the cells
/// are readable directly.
class ShardedResult {
 public:
  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return order_.size(); }

  /// Data cells of global row `i`.
  const std::vector<Cell>& cells(size_t i) const;

  /// True when the rows live on the shards (distributed step I plan);
  /// false when they live on the coordinator.
  bool distributed() const { return distributed_; }

 private:
  friend class ShardedDatabase;

  Schema schema_;
  std::vector<PvcTable> parts_;  ///< Per shard, or a single coordinator part.
  bool distributed_ = false;
  /// Global row order: (part index, row index within the part).
  std::vector<std::pair<uint32_t, uint32_t>> order_;
};

/// A database hash-partitioned across `num_shards` inner Databases over one
/// shared probability space. See the file comment for the semantics; the
/// API mirrors the Database facade.
class ShardedDatabase {
 public:
  /// `router` defaults to FnvShardRouter.
  explicit ShardedDatabase(size_t num_shards,
                           SemiringKind semiring = SemiringKind::kBool,
                           std::unique_ptr<ShardRouter> router = nullptr);

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const ShardRouter& router() const { return *router_; }

  /// The shared variable registry (one probability space for all shards).
  VariableTable& variables() { return coordinator_.variables(); }
  const VariableTable& variables() const { return coordinator_.variables(); }

  /// Engine-wide knobs, mirrored to every shard before each scatter.
  EvalOptions& eval_options() { return coordinator_.eval_options(); }
  const EvalOptions& eval_options() const {
    return coordinator_.eval_options();
  }
  CompileOptions& compile_options() { return coordinator_.compile_options(); }

  /// The coordinator: gathered logical tables, bit-identical to an
  /// unsharded Database loaded with the same sequence.
  Database& coordinator() { return coordinator_; }
  const Database& coordinator() const { return coordinator_; }

  /// Durability hook (src/engine/wal.h): attaches the writer to the
  /// coordinator, through which every mutation routes -- so inserts,
  /// deletes and probability updates log exactly like the unsharded
  /// engine's. Table loads and view registration log at this level (they
  /// carry sharded-only state: the routing key column, per-shard views).
  void set_wal(WalWriter* wal) { coordinator_.set_wal(wal); }
  WalWriter* wal() const { return coordinator_.wal(); }

  /// Shard `s`'s engine (partition tables + shard-local pool).
  const Database& shard(size_t s) const;

  // -- Catalog ------------------------------------------------------------

  /// Registers a tuple-independent table: one fresh Bernoulli variable per
  /// row, created in global row order (ids identical to an unsharded
  /// load), rows routed to shards by the cell in `key_column` (default:
  /// the first column, the conventional primary key).
  void AddTupleIndependentTable(const std::string& name, Schema schema,
                                std::vector<std::vector<Cell>> rows,
                                std::vector<double> probabilities,
                                const std::string& key_column = "");

  /// Rebuild / replication hook mirroring
  /// Database::AddVariableAnnotatedTable: rows annotated by *existing*
  /// variables of the shared registry, routed by `key_column`. `vars` must
  /// be strictly increasing (CheckError otherwise, with nothing changed).
  void AddVariableAnnotatedTable(const std::string& name, Schema schema,
                                 std::vector<std::vector<Cell>> rows,
                                 const std::vector<VarId>& vars,
                                 const std::string& key_column = "");

  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;
  size_t NumRows(const std::string& name) const;

  /// Name of the column rows of `name` are routed by (capture hook for
  /// snapshots: reloading with this key reproduces the placement).
  std::string KeyColumnName(const std::string& name) const;

  /// Rows per shard for `name` (skew diagnostics; sums to NumRows).
  std::vector<size_t> ShardRowCounts(const std::string& name) const;

  // -- Mutations (the IVM delta engine; see src/engine/view.h) --------------
  //
  // Deltas route through the ShardRouter exactly like the initial load:
  // the coordinator replays the unsharded mutation (shared variable
  // creation in global row order, coordinator view maintenance), only the
  // owning shard's partition changes, and per-shard views absorb the delta
  // locally. All results remain bit-identical to a from-scratch sharded
  // rebuild of the final state.

  /// Appends a tuple with a fresh Bernoulli variable; the row is routed by
  /// its key-column cell. Returns the new global row index.
  size_t InsertTuple(const std::string& table, std::vector<Cell> cells,
                     double p);

  /// Replay hook mirroring Database::AppendRowToTable: appends a row
  /// annotated with the *existing* shared variable `var`, routed exactly
  /// like InsertTuple. `var` must exceed the variable of every row of the
  /// table (CheckError otherwise, with nothing changed). Never writes to
  /// the WAL (it is what WAL replay calls).
  size_t AppendRowToTable(const std::string& table, std::vector<Cell> cells,
                          VarId var);

  /// Removes the row at global index `row_index`: the coordinator's row,
  /// and the owning shard's row with the same variable.
  void DeleteRowAt(const std::string& table, size_t row_index);

  /// Removes every row whose first-column cell equals `key`; returns the
  /// number of rows removed.
  size_t DeleteTuple(const std::string& table, const Cell& key);

  /// Replaces variable `var`'s distribution with Bernoulli(p) and
  /// refreshes / drops the affected cached step II results everywhere.
  void UpdateProbability(VarId var, double p);

  // -- Materialized views (src/engine/view.h) -------------------------------
  //
  // The distributable Select/Rename fragment is cached *per shard*: each
  // shard keeps its partition of the view plus its own step II cache, and
  // deltas touch only the owning shard. Every other query shape registers
  // on the coordinator's ViewRegistry (which replays the unsharded engine
  // bit for bit).

  void RegisterView(const std::string& name, QueryPtr query);
  bool HasView(const std::string& name) const;
  void DropView(const std::string& name);
  std::vector<std::string> ViewNames() const;

  /// (name, query) of every registered view, per-shard views first --
  /// the order snapshot capture records and recovery re-registers them in
  /// (the two registries intern into disjoint pools, so this order is
  /// bit-identity-safe regardless of original interleaving).
  std::vector<std::pair<std::string, QueryPtr>> ViewCatalog() const;

  /// Snapshot of the view's cached step I result in global row order.
  ShardedResult ViewResult(const std::string& name);

  /// Cached per-row P[Phi != 0_S] of the view in global row order,
  /// bit-identical to TupleProbabilities(ViewResult(name)).
  std::vector<double> ViewProbabilities(const std::string& name);

  /// One diagnostics line per registered view (shell `views` command).
  struct ViewInfo {
    std::string name;
    std::string plan;  ///< "chain (per shard)" or the coordinator plan.
    size_t rows = 0;
    size_t cache_entries = 0;  ///< Step II cache entries (all shards).
  };
  std::vector<ViewInfo> ViewInfos();

  // -- Step I: computing result tuples ------------------------------------

  /// Evaluates `q`: per shard for the distributable fragment
  /// (ShardDrivingTable over a sharded table), on the coordinator
  /// otherwise. Identical rows in identical order either way.
  ShardedResult Run(const Query& q);

  /// The Q0 deterministic baseline (always coordinator-evaluated:
  /// annotations fold to constants, there is nothing to distribute).
  ShardedResult RunDeterministic(const Query& q);

  // -- Step II: scatter-gather probability passes --------------------------

  /// P[Phi != 0_S] per row of `result`, in global row order.
  std::vector<double> TupleProbabilities(const ShardedResult& result);

  /// Annotation distribution per row of `result`, in global row order.
  std::vector<Distribution> AnnotationDistributions(
      const ShardedResult& result);

  /// Interval bounds per row of `result` (Boolean semiring only).
  std::vector<ProbabilityBounds> ApproximateTupleProbabilities(
      const ShardedResult& result,
      ApproximateOptions options = ApproximateOptions());

  /// Base-table overloads: the same passes over the partitions of the
  /// sharded table `name`, each shard's rows computed from its own pool.
  std::vector<double> TupleProbabilities(const std::string& name);
  std::vector<Distribution> AnnotationDistributions(const std::string& name);
  std::vector<ProbabilityBounds> ApproximateTupleProbabilities(
      const std::string& name,
      ApproximateOptions options = ApproximateOptions());

  /// P[alpha = v | Phi != 0_S] for an aggregation column of a
  /// coordinator-evaluated result (aggregates always gather, so
  /// distributed results have no aggregation columns).
  Distribution ConditionalAggregateDistribution(const ShardedResult& result,
                                                size_t row_index,
                                                const std::string& column);

  /// Tabular rendering of a result in global row order (annotations are
  /// rendered through a scratch pool; probabilities are unaffected).
  std::string ResultToString(const ShardedResult& result) const;

 private:
  /// One row partition and the pool its annotations live in.
  struct PartRef {
    const PvcTable* table;
    const ExprPool* pool;
  };

  /// A per-shard materialized view of the distributable fragment: the
  /// shard parts of the result (each ascending by RowVar) and one step II
  /// cache per shard (annotation ids are pool-local).
  struct ShardedView {
    std::string name;
    QueryPtr query;
    std::string driving;  ///< The sharded base table the chain scans.
    std::vector<PvcTable> parts;
    std::vector<StepTwoCache> caches;  ///< One per shard.
  };

  /// The distributed step I evaluation shared by Run() and the per-shard
  /// view seed: the chain evaluated on every shard's partition in place.
  std::vector<PvcTable> EvalDistributed(const Query& q);

  /// Partitions the coordinator's freshly (re)loaded `name` across the
  /// shards (each row annotated by `vars[i]` re-interned into its shard's
  /// pool) and refreshes the key column and dependent views.
  void PartitionLoadedTable(const std::string& name, size_t key_index,
                            const std::vector<VarId>& vars);

  /// The routing tail shared by InsertTuple and AppendRowToTable: sends
  /// the already-appended coordinator row to its shard and its per-shard
  /// views.
  void RouteAppendedRow(const std::string& table, size_t key_index,
                        const std::vector<Cell>& cells, VarId var);

  ShardedView* FindShardedView(const std::string& name);
  /// Builds / rebuilds `view`'s cached parts from the current partitions.
  void SeedShardedView(ShardedView* view);
  void ApplyShardedViewInsert(ShardedView* view, size_t shard,
                              const std::vector<Cell>& cells,
                              ExprId shard_annotation);

  /// `parts[s]` read through shard `s`'s pool (distributed results and
  /// per-shard views).
  std::vector<PartRef> ShardParts(const std::vector<PvcTable>& parts) const;
  std::vector<PartRef> PartsOf(const ShardedResult& result) const;
  std::vector<PartRef> PartsOfTable(const std::string& name) const;

  /// Global row order of per-shard parts: the merge of their rows on
  /// RowVar.
  static std::vector<std::pair<uint32_t, uint32_t>> MergeByVar(
      const std::vector<PartRef>& parts);

  ShardedResult CoordinatorResult(PvcTable table) const;
  ShardedResult RunDistributed(const Query& q);

  /// Copies the engine-wide knobs onto every shard (serial; called before
  /// each scatter so option mutations through eval_options() take effect
  /// everywhere).
  void SyncShardOptions();

  std::vector<Distribution> DistributionsImpl(
      const std::vector<PartRef>& parts,
      const std::vector<std::pair<uint32_t, uint32_t>>& order);
  std::vector<ProbabilityBounds> ApproximateImpl(
      const std::vector<PartRef>& parts,
      const std::vector<std::pair<uint32_t, uint32_t>>& order,
      ApproximateOptions options);

  std::unique_ptr<ShardRouter> router_;
  Database coordinator_;
  std::vector<std::unique_ptr<Database>> shards_;
  /// Per sharded table: the key column rows are routed by (deltas must use
  /// the load-time routing).
  std::map<std::string, size_t> key_columns_;
  /// Per-shard views of the distributable fragment, registration order.
  std::vector<std::unique_ptr<ShardedView>> sharded_views_;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_SHARD_H_
