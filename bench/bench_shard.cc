// Sharded scatter-gather scaling curve (src/engine/shard.h): end-to-end
// query evaluation + batch probability computation over a tuple-independent
// table, swept over shards x threads.
//
// Two series:
//   shard_query  -- GroupAgg COUNT per group (coordinator gather) followed
//                   by the scatter-gather TupleProbabilities pass: the
//                   step II d-tree work per group fans across threads.
//   shard_select -- a distributed Select chain (per-shard step I) followed
//                   by the scatter-gather pass over the surviving rows.
//
// Throughput is reported as base-table rows per second through the full
// pipeline. Every configuration's probabilities are compared bit-for-bit
// against the shards=1, threads=1 reference; any divergence fails the run.
// CI captures the JSON-lines output as BENCH_shard.json and gates the
// normalized 4-way shard_query throughput and the normalized 1-shard,
// 1-thread shard_select throughput (the per-row step II cost) against the
// committed baseline (scripts/check_bench_trajectory.py).
//
// Flags: --smoke (tiny grid, for ctest), --full (larger grid), --json.

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/shard.h"
#include "src/query/ast.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace {

using namespace pvcdb;
using namespace pvcdb_bench;

struct Config {
  int64_t rows;
  int64_t groups;
  int runs;
  std::vector<size_t> shard_grid;
  std::vector<int> thread_grid;
};

void LoadTable(ShardedDatabase* db, const Config& config) {
  Rng rng(424242);
  Schema schema({{"id", CellType::kInt},
                 {"g", CellType::kInt},
                 {"v", CellType::kInt}});
  std::vector<std::vector<Cell>> rows;
  std::vector<double> probs;
  rows.reserve(config.rows);
  for (int64_t i = 0; i < config.rows; ++i) {
    rows.push_back({Cell(i), Cell(i % config.groups),
                    Cell(rng.UniformInt(0, 100))});
    probs.push_back(rng.UniformDouble(0.05, 0.95));
  }
  db->AddTupleIndependentTable("T", schema, std::move(rows),
                               std::move(probs));
}

struct SeriesPoint {
  RunStats stats;
  std::vector<double> probabilities;
};

// One configuration of one series: returns timing and the probabilities of
// the final run for the bit-identity check.
SeriesPoint Measure(const Config& config, size_t shards, int threads,
                    const Query& query) {
  ShardedDatabase db(shards);
  LoadTable(&db, config);
  db.eval_options().num_threads = threads;
  SeriesPoint point;
  point.stats = TimeRuns(config.runs, [&](int) {
    ShardedResult result = db.Run(query);
    point.probabilities = db.TupleProbabilities(result);
  });
  return point;
}

// Sweeps one series over the shards x threads grid; dies on any bitwise
// divergence from the serial single-shard reference.
void RunSeries(const char* name, const Config& config, const Query& query,
               bool json) {
  std::vector<double> reference;
  std::unique_ptr<TablePrinter> table;
  if (!json) {
    std::cout << "\n### " << name << " (rows=" << config.rows
              << ", groups=" << config.groups << ", runs=" << config.runs
              << ")\n\n";
    table = std::make_unique<TablePrinter>(std::vector<std::string>{
        "shards", "threads", "time [s]", "rows/s", "speedup",
        "bit-identical"});
  }
  double base_seconds = 0.0;
  for (size_t shards : config.shard_grid) {
    for (int threads : config.thread_grid) {
      SeriesPoint point = Measure(config, shards, threads, query);
      bool is_reference = reference.empty();
      if (is_reference) {
        reference = point.probabilities;
        base_seconds = point.stats.mean_seconds;
      }
      bool identical = point.probabilities == reference;
      double rows_per_second =
          point.stats.mean_seconds > 0.0
              ? static_cast<double>(config.rows) / point.stats.mean_seconds
              : 0.0;
      double speedup = point.stats.mean_seconds > 0.0
                           ? base_seconds / point.stats.mean_seconds
                           : 0.0;
      if (json) {
        JsonParams params;
        params.Set("shards", static_cast<int64_t>(shards))
            .Set("threads", threads)
            .Set("rows", config.rows)
            .Set("groups", config.groups)
            .Set("rows_per_second", rows_per_second)
            .Set("speedup_vs_serial", speedup)
            .Set("bit_identical", identical ? "true" : "false")
            .Set("hardware_threads",
                 static_cast<int64_t>(DefaultThreadCount()));
        PrintJsonRecord(name, params, point.stats);
      } else {
        table->PrintRow({std::to_string(shards), std::to_string(threads),
                         FormatSeconds(point.stats.mean_seconds),
                         FormatDouble(rows_per_second, 0),
                         FormatDouble(speedup, 2),
                         identical ? "yes" : "NO"});
      }
      if (!identical) {
        std::cerr << "ERROR: " << name << " at shards=" << shards
                  << " threads=" << threads
                  << " diverged from the serial single-shard reference\n";
        std::exit(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool full = FullMode(argc, argv);
  bool smoke = SmokeMode(argc, argv);
  bool json = JsonMode(argc, argv);
  if (!json) {
    std::cout << "# Sharded scatter-gather scaling "
              << "(bit-identity enforced per point)\n";
  }

  // Group sizes (rows/groups) are chosen so the per-group COUNT
  // distribution pass -- quadratic in the group size -- dominates the
  // timing; sub-millisecond configurations would make the CI regression
  // gate noise-bound.
  Config config;
  if (smoke) {
    config = {400, 20, 2, {1, 2}, {1, 2}};
  } else if (full) {
    config = {50000, 50, 5, {1, 2, 4, 8}, {1, 4}};
  } else {
    config = {20000, 40, 3, {1, 2, 4, 8}, {1, 4}};
  }

  QueryPtr group_query = Query::GroupAgg(
      Query::Scan("T"), {"g"}, {{AggKind::kCount, "", "n"}});
  RunSeries("shard_query", config, *group_query, json);

  QueryPtr select_query = Query::Select(
      Query::Scan("T"), Predicate::ColCmpInt("v", CmpOp::kGe, 15));
  RunSeries("shard_select", config, *select_query, json);
  return 0;
}
