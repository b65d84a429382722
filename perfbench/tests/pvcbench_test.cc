// Unit tests of the benchmark's own arithmetic and inputs. The smoke runs
// of each workload against the real server are separate ctest entries
// (perfbench/CMakeLists.txt, -DPVCBENCH_TESTS=ON).

#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/util/metrics.h"

namespace pvcbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = Iota(1000);
  EXPECT_EQ(Percentile(v, 50.0), 500.0);
  EXPECT_EQ(Percentile(v, 99.0), 990.0);
  EXPECT_EQ(Percentile(v, 100.0), 1000.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, TenSamplesBeyondP99NeedAThousand) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 98.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(200, 20), 90.0);
}

TEST(PercentileTest, MedianAndMean) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

Span MakeSpan(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  s.command = 0;
  return s;
}

TEST(SelfTimeTest, NestedSelfTimesAddUpToTheRoot) {
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9].
  std::vector<Span> spans = {MakeSpan("root", 0, 10, -1),
                             MakeSpan("a", 1, 4, 0), MakeSpan("a1", 2, 3, 1),
                             MakeSpan("b", 5, 9, 0)};
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2] + self[3], 10.0);
}

TEST(SelfTimeTest, OverlappingChildrenCoverTheirUnionOnce) {
  std::vector<Span> spans = {MakeSpan("root", 0, 10, -1),
                             MakeSpan("a", 1, 3, 0), MakeSpan("b", 2, 5, 0),
                             MakeSpan("c", 7, 8, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 5.0);  // 10 - |[1,5] u [7,8]|.
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  std::vector<Span> spans = {MakeSpan("root", 0, 10, -1),
                             MakeSpan("late", 8, 12, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 8.0);
}

TEST(StatsJsonTest, ParsesTheProgramsOwnRendering) {
  std::vector<pvcdb::MetricSnapshot> entries(4);
  entries[0].name = "engine.rows_scanned";
  entries[0].counter_value = 100;
  entries[1].name = "server.live_connections";
  entries[1].kind = pvcdb::MetricSnapshot::Kind::kGauge;
  entries[1].gauge_value = -3;
  entries[2].name = "coord.scatter.ms";
  entries[2].kind = pvcdb::MetricSnapshot::Kind::kHistogram;
  entries[2].bounds = {1.0, 10.0};
  entries[2].bucket_counts = {3, 1, 0};
  entries[2].observations = 4;
  entries[2].sum = 8.5;
  entries[3].name = "shard0.engine.rows_scanned";
  entries[3].counter_value = 40;
  StatsSnapshot s = ParseStatsJson(pvcdb::RenderMetricsJson(entries));
  EXPECT_EQ(s.values.at("engine.rows_scanned"), 100.0);
  EXPECT_EQ(s.values.at("server.live_connections"), -3.0);
  EXPECT_EQ(s.histograms.at("coord.scatter.ms").first, 4.0);
  EXPECT_EQ(s.histograms.at("coord.scatter.ms").second, 8.5);
  EXPECT_EQ(StatsTotal(s, "engine.rows_scanned"), 140.0);
}

TEST(StatsJsonTest, DeltasSumTheServerAndEveryShardPrefix) {
  const std::string before =
      "{\"metric\": \"net.bytes_in\", \"type\": \"counter\", \"value\": 10}\n"
      "{\"metric\": \"shard0.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 5}\n"
      "{\"metric\": \"shard1.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 7}\n"
      "{\"metric\": \"coord.scatter.ms\", \"type\": \"histogram\", "
      "\"count\": 2, \"sum\": 3, \"buckets\": [{\"le\": 1, \"count\": 2}]}\n";
  const std::string after =
      "{\"metric\": \"net.bytes_in\", \"type\": \"counter\", \"value\": 30}\n"
      "{\"metric\": \"shard0.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 15}\n"
      "{\"metric\": \"shard1.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 17}\n"
      "{\"metric\": \"shard12.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 1}\n"
      "{\"metric\": \"shard.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 1000}\n"
      "{\"metric\": \"xshard0.net.bytes_in\", \"type\": \"counter\", "
      "\"value\": 1000}\n"
      "{\"metric\": \"net.bytes_in_total\", \"type\": \"counter\", "
      "\"value\": 1000}\n"
      "{\"metric\": \"coord.scatter.ms\", \"type\": \"histogram\", "
      "\"count\": 6, \"sum\": 11, \"buckets\": [{\"le\": 1, \"count\": 9}]}\n"
      "not a metric line\n";
  StatsSnapshot b = ParseStatsJson(before);
  StatsSnapshot a = ParseStatsJson(after);
  EXPECT_EQ(StatsDelta(b, a, "net.bytes_in"), 41.0);  // 20 + 10 + 10 + 1.
  EXPECT_EQ(StatsDelta(b, a, "net.frames_in"), 0.0);
  EXPECT_DOUBLE_EQ(HistogramDeltaMean(b, a, "coord.scatter.ms"), 2.0);
  EXPECT_EQ(HistogramDeltaMean(b, b, "coord.scatter.ms"), 0.0);
}

TEST(FirstDifferenceTest, NamesTheFirstDifferingLine) {
  EXPECT_EQ(FirstDifference("a\nb\n", "a\nb\n"), "");
  EXPECT_EQ(FirstDifference("a\nb\nc\n", "a\nx\nc\n"),
            "line 2: expected 'b' / actual 'x'");
  EXPECT_EQ(FirstDifference("a\n", "a\nb\n"),
            "line 2: expected '<end of text>' / actual 'b'");
  EXPECT_EQ(FirstDifference("a\n", "a"),
            "line 2: texts differ only in their final newline");
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char dir[] = "pvcbench_test_XXXXXX";  // Under the working directory.
    ASSERT_NE(::mkdtemp(dir), nullptr);
    dir_ = dir;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string dir_;
};

TEST_F(WorkloadTest, ChainReadPoolHasTheSeededMix) {
  Workload w = MakeWorkload("chain_read", 3, dir_);
  ASSERT_EQ(w.pool.size(), 256u);
  size_t points = 0;
  for (const Command& c : w.pool) {
    if (c.text.find("k = ") != std::string::npos) ++points;
    EXPECT_FALSE(c.write);
  }
  EXPECT_EQ(points, 128u);
  Workload again = MakeWorkload("chain_read", 3, dir_);
  for (size_t i = 0; i < w.pool.size(); ++i) {
    EXPECT_EQ(w.pool[i].text, again.pool[i].text);
  }
  ClientStream a(w, 0);
  ClientStream b(w, 0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.Next().text, b.Next().text);
}

TEST_F(WorkloadTest, DurableClientsDeleteOnlyTheirOwnLiveInserts) {
  Workload w = MakeWorkload("durable_mix", 5, dir_);
  std::set<int64_t> vars_of[kClients];
  for (int client = 0; client < kClients; ++client) {
    ClientStream stream(w, client);
    std::vector<std::string> live;
    size_t writes = 0;
    for (int i = 0; i < 2000; ++i) {
      Command c = stream.Next();
      if (!c.write) continue;
      ++writes;
      if (c.text.rfind("insert items ", 0) == 0) {
        std::string key = c.text.substr(13, c.text.find(' ', 13) - 13);
        EXPECT_EQ(std::stoll(key) / 1000000, client + 1);
        live.push_back(key);
      } else if (c.text.rfind("delete items ", 0) == 0) {
        ASSERT_FALSE(live.empty());
        EXPECT_EQ(c.text, "delete items " + live.front());
        live.erase(live.begin());
        EXPECT_EQ(c.ack, "deleted 1 rows from items\n");
      } else {
        ASSERT_EQ(c.text.rfind("setprob x", 0), 0u);
        int64_t var = std::stoll(c.text.substr(9));
        vars_of[client].insert(var);
        EXPECT_EQ(c.ack.rfind("P[items#" + std::to_string(var) + " = 1] = ", 0),
                  0u);
      }
    }
    EXPECT_GT(writes, 800u);  // 50% of the mix.
  }
  // No variable is updated by two clients.
  for (int a = 0; a < kClients; ++a) {
    EXPECT_GT(vars_of[a].size(), 100u);
    for (int b = a + 1; b < kClients; ++b) {
      for (int64_t var : vars_of[a]) EXPECT_EQ(vars_of[b].count(var), 0u);
    }
  }
}

TEST_F(WorkloadTest, AggReadPoolUsesEveryShape) {
  Workload w = MakeWorkload("agg_read", 2, dir_);
  ASSERT_EQ(w.pool.size(), 64u);
  size_t joins = 0;
  for (const Command& c : w.pool) {
    if (c.text.find("o_custkey = ") != std::string::npos) ++joins;
  }
  EXPECT_EQ(joins, 8u);
  EXPECT_EQ(w.loads.size(), 8u);
}

}  // namespace
}  // namespace pvcbench
