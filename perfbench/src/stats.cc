#include "perfbench/src/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace pvcbench {

namespace {

size_t NearestRank(size_t n, double q) {
  double rank = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  if (rank < 1.0) rank = 1.0;
  if (rank > static_cast<double>(n)) rank = static_cast<double>(n);
  return static_cast<size_t>(rank);
}

// The value following `key` in one JSON Lines record, as text up to the
// next ',' or '}' (strings returned without their quotes).
bool FieldText(const std::string& line, const std::string& key,
               std::string* out) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos < line.size() && line[pos] == '"') {
    size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(pos + 1, end - pos - 1);
    return true;
  }
  size_t end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return false;
  *out = line.substr(pos, end - pos);
  return true;
}

// True when `name` is "shard<digits>." + metric.
bool IsShardEntry(const std::string& name, const std::string& metric) {
  static const std::string kPrefix = "shard";
  if (name.size() <= kPrefix.size() + metric.size() + 1) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  size_t i = kPrefix.size();
  size_t digits = 0;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
    ++digits;
  }
  if (digits == 0 || i >= name.size() || name[i] != '.') return false;
  return name.compare(i + 1, std::string::npos, metric) == 0;
}

template <typename Map, typename Fn>
void ForEachEntry(const Map& map, const std::string& metric, Fn fn) {
  for (const auto& [name, value] : map) {
    if (name == metric || IsShardEntry(name, metric)) fn(value);
  }
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  static const double kLadder[] = {99.9, 99.5, 99.0, 98.0,
                                   95.0, 90.0, 75.0, 50.0};
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    double lo = spans[i].start_ms;
    double hi = spans[i].end_ms;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (const auto& [s, e] : kids) {
      double cs = std::max(s, lo);
      double ce = std::min(e, hi);
      if (ce <= cs) continue;
      if (open && cs <= run_end) {
        run_end = std::max(run_end, ce);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = cs;
      run_end = ce;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

StatsSnapshot ParseStatsJson(const std::string& text) {
  StatsSnapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::string name;
    std::string type;
    if (!FieldText(line, "metric", &name) || !FieldText(line, "type", &type)) {
      continue;
    }
    if (type == "histogram") {
      std::string count;
      std::string sum;
      if (FieldText(line, "count", &count) && FieldText(line, "sum", &sum)) {
        snap.histograms[name] = {std::strtod(count.c_str(), nullptr),
                                 std::strtod(sum.c_str(), nullptr)};
      }
    } else {
      std::string value;
      if (FieldText(line, "value", &value)) {
        snap.values[name] = std::strtod(value.c_str(), nullptr);
      }
    }
  }
  return snap;
}

double StatsTotal(const StatsSnapshot& s, const std::string& metric) {
  double total = 0.0;
  ForEachEntry(s.values, metric, [&](double v) { total += v; });
  return total;
}

double StatsDelta(const StatsSnapshot& before, const StatsSnapshot& after,
                  const std::string& metric) {
  return StatsTotal(after, metric) - StatsTotal(before, metric);
}

double HistogramDeltaMean(const StatsSnapshot& before,
                          const StatsSnapshot& after,
                          const std::string& metric) {
  double count = 0.0;
  double sum = 0.0;
  ForEachEntry(after.histograms, metric, [&](const std::pair<double, double>& h) {
    count += h.first;
    sum += h.second;
  });
  ForEachEntry(before.histograms, metric,
               [&](const std::pair<double, double>& h) {
                 count -= h.first;
                 sum -= h.second;
               });
  return count > 0.0 ? sum / count : 0.0;
}

std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  if (expected == actual) return std::string();
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (size_t line = 1;; ++line) {
    bool has_e = static_cast<bool>(std::getline(e, el));
    bool has_a = static_cast<bool>(std::getline(a, al));
    if (!has_e && !has_a) {
      // Equal line by line: the texts differ only in a trailing newline.
      return "line " + std::to_string(line) +
             ": texts differ only in their final newline";
    }
    if (has_e != has_a || el != al) {
      return "line " + std::to_string(line) + ": expected '" +
             (has_e ? el : std::string("<end of text>")) + "' / actual '" +
             (has_a ? al : std::string("<end of text>")) + "'";
    }
  }
}

}  // namespace pvcbench
