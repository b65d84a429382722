#include "src/engine/delta.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace pvcdb {

CompiledDistribution IsolatedCompileAndDistribution(
    const ExprPool& source, const VariableTable& variables, ExprId annotation,
    const CompileOptions& options) {
  ExprPool local(source.semiring().kind());
  ExprId e = source.CloneInto(&local, annotation);
  CompiledDistribution out;
  // This runs once per result row, so exact spans would double the
  // instrumentation bill of cheap annotations: sample 1 in 8 (the trace
  // receives the x8-scaled estimate; see PVCDB_SPAN_SAMPLED).
  {
    PVCDB_SPAN_SAMPLED(compile_span, "compile", 8);
    out.tree = CompileToDTree(&local, &variables, e, options);
  }
  PVCDB_COUNTER_ADD("engine.dtrees_compiled", 1);
  {
    PVCDB_SPAN_SAMPLED(step2_span, "step2", 8);
    out.distribution =
        ComputeDistribution(out.tree, variables, local.semiring());
  }
  return out;
}

size_t DeleteRowsMatchingKey(const PvcTable& table, const Cell& key,
                             const std::function<void(size_t)>& delete_at) {
  PVC_CHECK_MSG(table.schema().NumColumns() > 0, "zero-column table");
  std::vector<size_t> hits;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (table.row(i).cells[0] == key) hits.push_back(i);
  }
  for (size_t i = hits.size(); i-- > 0;) {
    delete_at(hits[i]);
  }
  return hits.size();
}

bool SameSupport(const Distribution& a, const Distribution& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.entries()[i].first != b.entries()[i].first) return false;
  }
  return true;
}

void StepTwoCache::Touch(Entry* entry) {
  if (entry->lru_it != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, entry->lru_it);
  }
}

void StepTwoCache::Erase(std::unordered_map<ExprId, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void StepTwoCache::EnforceCapacity(size_t capacity) {
  if (capacity == 0) return;
  while (entries_.size() > capacity) {
    ExprId victim = lru_.back();
    auto it = entries_.find(victim);
    PVC_CHECK_MSG(it != entries_.end(), "LRU list out of sync");
    Erase(it);
    ++stats_.evicted;
    PVCDB_COUNTER_ADD("cache.evicted", 1);
  }
}

size_t StepTwoCache::LiveEntries(const PvcTable& table) const {
  std::unordered_map<ExprId, char> counted;
  counted.reserve(table.NumRows());
  size_t live = 0;
  for (const Row& row : table.rows()) {
    if (!counted.emplace(row.annotation, 0).second) continue;
    if (entries_.count(row.annotation) > 0) ++live;
  }
  return live;
}

std::vector<double> StepTwoCache::Probabilities(
    const ExprPool& pool, const VariableTable& variables,
    const PvcTable& table, const CompileOptions& options,
    const EvalOptions& eval_options) {
  size_t n = table.NumRows();

  // Eviction: deleted rows leave dead entries behind (every insert mints
  // a fresh variable, so annotations of removed rows never come back).
  // Once those dominate the cache, drop everything the current rows do
  // not reference -- churn then cannot grow the cache beyond O(n).
  if (entries_.size() > 2 * n + 16) {
    std::unordered_map<ExprId, char> live;
    live.reserve(n);
    for (size_t i = 0; i < n; ++i) live.emplace(table.row(i).annotation, 0);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (live.count(it->first) == 0) {
        auto victim = it++;
        Erase(victim);
        ++stats_.pruned;
        PVCDB_COUNTER_ADD("cache.pruned", 1);
      } else {
        ++it;
      }
    }
    for (auto it = var_index_.begin(); it != var_index_.end();) {
      std::vector<ExprId>& list = it->second;
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](ExprId a) { return live.count(a) == 0; }),
                 list.end());
      it = list.empty() ? var_index_.erase(it) : std::next(it);
    }
  }

  // Distinct missing annotations, in first-occurrence row order (duplicate
  // tuples share one annotation id thanks to hash-consing). Hits are
  // touched to the front of the recency list.
  std::vector<ExprId> missing;
  {
    std::unordered_map<ExprId, size_t> seen;
    for (size_t i = 0; i < n; ++i) {
      ExprId a = table.row(i).annotation;
      auto hit = entries_.find(a);
      if (hit != entries_.end()) {
        Touch(&hit->second);
        continue;
      }
      if (seen.count(a) > 0) continue;
      seen.emplace(a, missing.size());
      missing.push_back(a);
    }
  }

  // Pure phase: the per-row pipeline per missing annotation, fanned across
  // threads exactly like an uncached batch pass.
  std::vector<CompiledDistribution> compiled(missing.size());
  ParallelFor(eval_options.num_threads, missing.size(), [&](size_t i) {
    compiled[i] =
        IsolatedCompileAndDistribution(pool, variables, missing[i], options);
  });

  // Serial phase: memoize and index the new entries. An annotation that
  // was dropped (support change) and recompiled may already sit in some
  // lists -- de-duplicate so drop/recompile cycles cannot grow the index
  // or refresh an entry twice.
  for (size_t i = 0; i < missing.size(); ++i) {
    Entry entry;
    entry.probability = NonZeroMass(compiled[i].distribution);
    entry.compiled = std::move(compiled[i]);
    lru_.push_front(missing[i]);
    entry.lru_it = lru_.begin();
    for (VarId v : pool.VarsOf(missing[i])) {
      std::vector<ExprId>& list = var_index_[v];
      if (std::find(list.begin(), list.end(), missing[i]) == list.end()) {
        list.push_back(missing[i]);
      }
    }
    entries_.emplace(missing[i], std::move(entry));
  }
  stats_.misses += missing.size();
  stats_.hits += n - missing.size();
  PVCDB_COUNTER_ADD("cache.misses", missing.size());
  PVCDB_COUNTER_ADD("cache.hits", n - missing.size());

  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = entries_.find(table.row(i).annotation);
    PVC_CHECK_MSG(it != entries_.end(), "missing step II cache entry");
    out.push_back(it->second.probability);
  }

  // Bound the cache only after answering: rows beyond the capacity still
  // get exact answers this round, they just are not retained.
  EnforceCapacity(eval_options.step_two_cache_capacity);
  return out;
}

void StepTwoCache::OnVariableUpdate(VarId var, const VariableTable& variables,
                                    const Semiring& semiring,
                                    bool same_support) {
  auto it = var_index_.find(var);
  if (it == var_index_.end()) return;
  if (!same_support) {
    // The d-tree's mutex branches enumerate the old support; drop the
    // entries and recompile lazily. The inverted-index lists of the other
    // variables keep stale ids -- harmless, they miss on lookup.
    for (ExprId a : it->second) {
      auto entry = entries_.find(a);
      if (entry == entries_.end()) continue;
      Erase(entry);
      ++stats_.dropped;
      PVCDB_COUNTER_ADD("cache.dropped", 1);
    }
    var_index_.erase(it);
    return;
  }
  for (ExprId a : it->second) {
    auto entry = entries_.find(a);
    if (entry == entries_.end()) continue;  // Dropped earlier.
    entry->second.compiled.distribution = ComputeDistribution(
        entry->second.compiled.tree, variables, semiring);
    entry->second.probability =
        NonZeroMass(entry->second.compiled.distribution);
    ++stats_.refreshed;
    PVCDB_COUNTER_ADD("cache.refreshed", 1);
  }
}

void StepTwoCache::Clear() {
  entries_.clear();
  var_index_.clear();
  lru_.clear();
}

}  // namespace pvcdb
