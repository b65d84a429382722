// Step II hot-path benchmark: d-tree compilation + probability throughput,
// dominated by the expression/d-tree kernels rather than by step I.
//
//   hotpath_skewed_batch  A batch of annotations with one giant outlier
//                         (the shape that serializes tuple-level
//                         parallelism): every row runs the engine's per-row
//                         pipeline -- clone into a task-private pool,
//                         compile, bottom-up probability -- serially, so
//                         the series isolates single-thread kernel
//                         throughput. Reports rows/s, ns per d-tree node
//                         and the number of heap allocations per pass
//                         (counted by this binary's operator new override).
//
// Determinism: every run re-checks the per-row probabilities against the
// first run and exits non-zero on any divergence, so CI smoke runs double
// as a regression check.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dtree/compile.h"
#include "src/dtree/probability.h"
#include "src/expr/expr.h"
#include "src/prob/variable.h"
#include "src/util/parallel.h"

// -- Allocation counting ----------------------------------------------------
//
// Overriding the global allocation functions in the bench binary counts
// every heap allocation of the whole process (library code included).
// Relaxed atomics keep the overhead to a few nanoseconds per allocation.

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using pvcdb::CompileOptions;
using pvcdb::CompileToDTree;
using pvcdb::ComputeDistribution;
using pvcdb::Distribution;
using pvcdb::DTree;
using pvcdb::ExprId;
using pvcdb::ExprPool;
using pvcdb::NonZeroMass;
using pvcdb::SemiringKind;
using pvcdb::VariableTable;
using pvcdb::VarId;

// Deterministic per-variable probability in (0.05, 0.95).
double VarProb(size_t i) { return 0.05 + 0.9 * ((i * 37 + 11) % 97) / 96.0; }

// A fresh Bernoulli variable.
VarId FreshVar(VariableTable* vars) {
  return vars->AddBernoulli(VarProb(vars->size()));
}

// Read-once clause: OR of `terms` ANDs of `width` fresh variables each.
// Compiles purely with independence rules (no Shannon expansion).
ExprId ReadOnceOr(ExprPool* pool, VariableTable* vars, size_t terms,
                  size_t width) {
  std::vector<ExprId> sum;
  sum.reserve(terms);
  for (size_t t = 0; t < terms; ++t) {
    std::vector<ExprId> factors;
    factors.reserve(width);
    for (size_t f = 0; f < width; ++f) {
      factors.push_back(pool->Var(FreshVar(vars)));
    }
    sum.push_back(pool->MulS(std::move(factors)));
  }
  return pool->AddS(std::move(sum));
}

// Chain clause: x_0*x_1 + x_1*x_2 + ... + x_{len-1}*x_len over fresh
// adjacent variables. Non-hierarchical, so compilation Shannon-expands
// (mutex nodes) and exercises Substitute + the occurrence heuristic.
ExprId Chain(ExprPool* pool, VariableTable* vars, size_t len) {
  std::vector<VarId> xs;
  xs.reserve(len + 1);
  for (size_t i = 0; i <= len; ++i) xs.push_back(FreshVar(vars));
  std::vector<ExprId> sum;
  sum.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    sum.push_back(pool->MulS(pool->Var(xs[i]), pool->Var(xs[i + 1])));
  }
  return pool->AddS(std::move(sum));
}

// The skewed batch: `small` alternating read-once / chain annotations plus
// one giant annotation (an OR of many chains and read-once clauses).
struct Workload {
  ExprPool pool{SemiringKind::kBool};
  VariableTable vars;
  std::vector<ExprId> annotations;  // Last entry is the giant one.
};

void BuildSkewedBatch(Workload* w, size_t small, size_t giant_chains,
                      size_t chain_len) {
  for (size_t i = 0; i < small; ++i) {
    if (i % 2 == 0) {
      w->annotations.push_back(ReadOnceOr(&w->pool, &w->vars, 4, 3));
    } else {
      w->annotations.push_back(Chain(&w->pool, &w->vars, 8));
    }
  }
  // The giant: an OR of independent chains plus a read-once bulk. Each
  // chain compiles to a deep mutex subtree, so the giant's d-tree has many
  // medium-size independent branches.
  std::vector<ExprId> parts;
  parts.reserve(giant_chains + 1);
  for (size_t c = 0; c < giant_chains; ++c) {
    parts.push_back(Chain(&w->pool, &w->vars, chain_len));
  }
  parts.push_back(ReadOnceOr(&w->pool, &w->vars, 4 * giant_chains, 3));
  w->annotations.push_back(w->pool.AddS(std::move(parts)));
}

// The engine's per-row step II pipeline (clone -> compile -> probability),
// identical to IsolatedCompileAndDistribution but with the d-tree size
// surfaced for the ns/node metric.
Distribution RowPipeline(const ExprPool& source, const VariableTable& vars,
                         ExprId annotation, size_t* dtree_nodes) {
  ExprPool local(source.semiring().kind());
  ExprId e = source.CloneInto(&local, annotation);
  DTree tree = CompileToDTree(&local, &vars, e, CompileOptions());
  *dtree_nodes += tree.size();
  return ComputeDistribution(tree, vars, local.semiring());
}

int RunSkewedBatch(bool json, bool smoke, bool full) {
  size_t small = smoke ? 48 : (full ? 1024 : 384);
  size_t giant_chains = smoke ? 8 : (full ? 96 : 48);
  size_t chain_len = smoke ? 16 : 24;
  int runs = smoke ? 3 : 5;

  Workload w;
  BuildSkewedBatch(&w, small, giant_chains, chain_len);

  std::vector<double> reference;
  size_t dtree_nodes = 0;
  size_t allocations = 0;
  bool identical = true;

  auto stats = pvcdb_bench::TimeRuns(runs, [&](int run) {
    size_t nodes = 0;
    size_t allocs_before = g_allocations.load(std::memory_order_relaxed);
    std::vector<double> probs;
    probs.reserve(w.annotations.size());
    for (ExprId a : w.annotations) {
      probs.push_back(NonZeroMass(RowPipeline(w.pool, w.vars, a, &nodes)));
    }
    size_t allocs_after = g_allocations.load(std::memory_order_relaxed);
    if (run == 0) {
      reference = probs;
      dtree_nodes = nodes;
      allocations = allocs_after - allocs_before;
    } else if (probs != reference) {
      identical = false;
    }
  });

  double rows_per_second =
      stats.mean_seconds > 0 ? w.annotations.size() / stats.mean_seconds : 0;
  double ns_per_node =
      dtree_nodes > 0 ? stats.mean_seconds * 1e9 / dtree_nodes : 0;

  if (json) {
    pvcdb_bench::JsonParams params;
    params.Set("shards", 0)
        .Set("threads", 1)
        .Set("rows", static_cast<int64_t>(w.annotations.size()))
        .Set("giant_chains", static_cast<int64_t>(giant_chains))
        .Set("dtree_nodes", static_cast<int64_t>(dtree_nodes))
        .Set("pool_nodes", static_cast<int64_t>(w.pool.NumNodes()))
        .Set("rows_per_second", rows_per_second)
        .Set("ns_per_node", ns_per_node)
        .Set("allocations", static_cast<int64_t>(allocations))
        .Set("bit_identical", identical ? "true" : "false")
        .Set("hardware_threads",
             static_cast<int64_t>(pvcdb::DefaultThreadCount()));
    pvcdb_bench::PrintJsonRecord("hotpath_skewed_batch", params, stats);
  } else {
    pvcdb_bench::TablePrinter table({"rows", "dtree nodes", "mean s",
                                     "rows/s", "ns/node", "allocations"});
    table.PrintRow({std::to_string(w.annotations.size()),
                    std::to_string(dtree_nodes),
                    pvcdb_bench::FormatSeconds(stats.mean_seconds),
                    pvcdb_bench::FormatDouble(rows_per_second, 1),
                    pvcdb_bench::FormatDouble(ns_per_node, 1),
                    std::to_string(allocations)});
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: skewed-batch probabilities diverged across runs\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = pvcdb_bench::JsonMode(argc, argv);
  bool smoke = pvcdb_bench::SmokeMode(argc, argv);
  bool full = pvcdb_bench::FullMode(argc, argv);
  return RunSkewedBatch(json, smoke, full);
}
