// Pure helpers of the benchmark: sample summaries, span self-time
// arithmetic and `stats --json` delta parsing. No I/O; unit-tested in
// perfbench/tests/pvcbench_test.cc.

#ifndef PVCBENCH_STATS_H_
#define PVCBENCH_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pvcbench {

// -- Samples ----------------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted` (q in (0, 100]): the
/// sample at 1-based rank ceil(q/100 * n). 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples
/// (n - rank). A tail percentile is only reported as supported when at
/// least ten samples lie beyond it: p99 needs n >= 1000.
size_t SamplesBeyond(size_t n, double q);

/// The highest percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 75, 50
/// with at least `min_beyond` samples beyond it; 0 when even p50 is not.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Median of `values` (mean of the two middle values for even n).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// -- Spans ------------------------------------------------------------------

/// One timed interval of the traced replay. `parent` indexes the enclosing
/// span in the same vector (-1 for a root); `command` is the id of the
/// command it belongs to (-1 outside any command).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int command = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span). For
/// properly nested spans the self times of a tree sum to its root's
/// duration.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// -- `stats --json` ---------------------------------------------------------

/// One parsed `stats --json` reply: counters and gauges by metric name,
/// histograms as (observation count, sum). Names keep their "shard<N>."
/// prefixes (the coordinator's view of each worker registry).
struct StatsSnapshot {
  std::map<std::string, double> values;
  std::map<std::string, std::pair<double, double>> histograms;
};

/// Parses the JSON Lines text of `stats --json`. Lines that are not metric
/// records are ignored.
StatsSnapshot ParseStatsJson(const std::string& text);

/// `metric` summed over the unprefixed (server process) entry and every
/// "shard<N>." entry.
double StatsTotal(const StatsSnapshot& s, const std::string& metric);

/// StatsTotal(after) - StatsTotal(before).
double StatsDelta(const StatsSnapshot& before, const StatsSnapshot& after,
                  const std::string& metric);

/// Mean of the observations a histogram received between the snapshots
/// (summed over all prefixes); 0 when it received none.
double HistogramDeltaMean(const StatsSnapshot& before,
                          const StatsSnapshot& after,
                          const std::string& metric);

// -- Diagnostics ------------------------------------------------------------

/// "line N: expected '...' / actual '...'" for the first line where the two
/// texts differ (or where one ends first); empty when they are equal.
std::string FirstDifference(const std::string& expected,
                            const std::string& actual);

}  // namespace pvcbench

#endif  // PVCBENCH_STATS_H_
