// Delta processing for the IVM subsystem (src/engine/view.h): typed table
// deltas, the shared step II result cache, and the per-row compile +
// probability pipeline both engine facades build on.
//
// The design follows DBToaster-style view maintenance split along the
// paper's two steps:
//
//   step I  -- a mutation to a base pvc-table is a TableDelta; materialized
//              views apply it incrementally where their plan allows
//              (see MaterializedView) and fall back to recompute otherwise.
//   step II -- per-tuple d-trees and probabilities are memoized in a
//              StepTwoCache keyed by the tuple's annotation expression
//              (hash-consing makes the ExprId a perfect structural key), so
//              an insert only compiles the new tuples' annotations, and a
//              variable-probability update re-runs only the bottom-up
//              probability pass of cached d-trees that mention the updated
//              VarId (found through the cache's var -> annotation inverted
//              index).
//
// Everything here preserves the engine's bit-identity contract: a cached
// probability is the output of exactly the per-row pipeline
// (IsolatedCompileAndDistribution) an uncached batch pass would run, and a
// refreshed-after-update probability re-runs the pass on a d-tree that a
// fresh compile would reproduce node for node (compilation branches only on
// variable *support*, which a probability update within the same support
// does not change; support changes drop the entry instead).

#ifndef PVCDB_ENGINE_DELTA_H_
#define PVCDB_ENGINE_DELTA_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dtree/compile.h"
#include "src/dtree/dtree.h"
#include "src/dtree/probability.h"
#include "src/expr/expr.h"
#include "src/prob/variable.h"
#include "src/query/eval.h"
#include "src/table/pvc_table.h"

namespace pvcdb {

/// Kind of a base-table mutation.
enum class DeltaKind : uint8_t { kInsert, kDelete };

/// One base-table mutation, routed to every registered view. Probability
/// updates are not TableDeltas -- they leave step I untouched (annotations
/// are symbolic) and flow through StepTwoCache::OnVariableUpdate instead.
struct TableDelta {
  DeltaKind kind = DeltaKind::kInsert;
  std::string table;
  /// Insert: index of the appended row (== NumRows - 1 after the append).
  /// Delete: index the removed row had; later rows shifted down by one.
  size_t row_index = 0;
  /// The inserted / removed row's data cells.
  std::vector<Cell> cells;
  /// Insert only: the new row's annotation in the owning pool.
  ExprId annotation = kInvalidExpr;
};

/// A compiled per-tuple step II result: the d-tree (valid independently of
/// the task-private pool it was compiled in -- it references only VarIds)
/// and its probability distribution.
struct CompiledDistribution {
  DTree tree;
  Distribution distribution;
};

/// The per-row step II pipeline behind every probability pass and cache
/// fill: clone the annotation from `source` into a task-private pool,
/// compile it, run the bottom-up probability pass. `source` is only read,
/// so concurrent calls against one pool are safe.
CompiledDistribution IsolatedCompileAndDistribution(
    const ExprPool& source, const VariableTable& variables, ExprId annotation,
    const CompileOptions& options);

/// True when both distributions have the same support (value sets); the
/// condition under which a cached d-tree survives a distribution update.
bool SameSupport(const Distribution& a, const Distribution& b);

/// The shared delete-by-key scan of Database::DeleteTuple and
/// ShardedDatabase::DeleteTuple: invokes `delete_at` for every row of
/// `table` whose first-column cell equals `key`, in descending index
/// order (so earlier hit indices stay valid across the deletes). Returns
/// the number of rows deleted.
size_t DeleteRowsMatchingKey(const PvcTable& table, const Cell& key,
                             const std::function<void(size_t)>& delete_at);

/// Memo of per-tuple step II results for one expression pool, keyed by
/// annotation ExprId, with a var -> annotations inverted index for targeted
/// refresh on probability updates and an LRU recency list for bounded
/// operation. Not thread-safe; the owning facade serializes mutations, and
/// batch fills fan only the pure per-row pipeline across threads.
class StepTwoCache {
 public:
  struct Stats {
    size_t hits = 0;       ///< Rows answered from the cache.
    size_t misses = 0;     ///< Rows that compiled a new d-tree.
    size_t refreshed = 0;  ///< Entries re-evaluated after a var update.
    size_t dropped = 0;    ///< Entries dropped (support change).
    size_t pruned = 0;     ///< Dead entries evicted (insert/delete churn).
    size_t evicted = 0;    ///< Entries evicted by the LRU capacity bound.
  };

  /// P[Phi != 0_S] for every row of `table`, in row order: cached entries
  /// answer directly, misses run the per-row pipeline fanned across up to
  /// `eval_options.num_threads` threads and are memoized. Bit-identical to
  /// an uncached batch pass at any thread count. When insert/delete churn
  /// has grown the cache well past the live row count, dead entries
  /// (annotations no row references any more) are evicted first, bounding
  /// the cache by O(live rows) across any mutation history; on top of
  /// that, `eval_options.step_two_cache_capacity` (when non-zero) bounds
  /// the cache absolutely, evicting least-recently-used entries.
  std::vector<double> Probabilities(const ExprPool& pool,
                                    const VariableTable& variables,
                                    const PvcTable& table,
                                    const CompileOptions& options,
                                    const EvalOptions& eval_options);

  /// A variable's distribution changed. With `same_support`, every cached
  /// entry mentioning `var` re-runs the bottom-up probability pass on its
  /// stored d-tree (the tree a fresh compile would rebuild); otherwise
  /// those entries are dropped and recompile lazily on next access.
  void OnVariableUpdate(VarId var, const VariableTable& variables,
                        const Semiring& semiring, bool same_support);

  void Clear();
  size_t size() const { return entries_.size(); }
  /// Number of distinct annotations of `table`'s current rows with a cache
  /// entry. Unlike size(), this excludes dead entries left behind by
  /// deleted rows, so the count is a deterministic function of the current
  /// state (the "N cached d-trees" diagnostic), not of print history.
  size_t LiveEntries(const PvcTable& table) const;
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    CompiledDistribution compiled;
    double probability = 0.0;
    /// Position in lru_ (front = most recently used).
    std::list<ExprId>::iterator lru_it;
  };

  /// Moves `it`'s entry to the front of the recency list.
  void Touch(Entry* entry);
  /// Erases an entry and its recency node (var_index_ lists keep stale
  /// ids; they miss harmlessly on lookup, exactly like the drop path).
  void Erase(std::unordered_map<ExprId, Entry>::iterator it);
  /// Applies the LRU capacity bound (0 = unbounded).
  void EnforceCapacity(size_t capacity);

  std::unordered_map<ExprId, Entry> entries_;
  /// Inverted index: var -> annotations of cached entries mentioning it.
  std::unordered_map<VarId, std::vector<ExprId>> var_index_;
  /// Recency order of entries_ keys, most recent first.
  std::list<ExprId> lru_;
  Stats stats_;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_DELTA_H_
