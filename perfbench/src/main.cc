// pvcbench: the repository benchmark program. See perfbench/README.md.
//
//   pvcbench --workload <chain_read|agg_read|durable_mix> --seed <n>
//            --seconds <s> --trace <0|1> --server <pvcdb_server binary>
//            --workdir <dir>
//
// --trace 0 measures the end-to-end metrics of the served workload;
// --trace 1 attributes time and work to layers (in-process replay, counter
// deltas, a served run with the slow-query log on). Every reply is checked.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed check is printed (workload, seed, command index and text,
// first differing line) and the exit code is 1.

#include <signal.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/served.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"

namespace pvcbench {
namespace {

constexpr int kSetups = 3;             // setup_s is their median.
constexpr int kWatchdogSeconds = 170;  // Stay inside the 180 s run budget.
const char kSocket[] = "s.sock";       // Relative: short whatever the cwd.

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Failure> failures;
  std::vector<std::string> notes;  ///< Failed checks outside the clients.
  std::vector<Metric> metrics;     ///< The JSON result.
  std::vector<std::string> lines;  ///< Human-readable report.

  void Absorb(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const Failure& f : r.failures) {
      if (failures.size() < 10) failures.push_back(f);
    }
  }
  void Fail(const std::string& note) {
    ++failed;
    ++attempted;
    notes.push_back(note);
  }
};

std::atomic<pid_t> g_live_server{-1};

void Watchdog(int) {
  pid_t pid = g_live_server.load();
  if (pid > 0) ::kill(-pid, SIGKILL);
  const char msg[] = "pvcbench: watchdog expired; server killed\n";
  ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  (void)ignored;
  ::_exit(3);
}

std::string Format(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Jiffies per /proc/stat "cpu" column: user nice system idle iowait irq
// softirq steal.
std::vector<double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<double> out;
  double v = 0.0;
  while (out.size() < 8 && in >> v) out.push_back(v);
  out.resize(8, 0.0);
  return out;
}

// Machine-wide CPU use between two CpuJiffies() readings: a host that
// steals or a neighbour that loads the machine shows up here.
std::string CpuUse(const std::vector<double>& a, const std::vector<double>& b) {
  double d[8];
  double total = 0.0;
  for (size_t i = 0; i < 8; ++i) {
    d[i] = b[i] - a[i];
    total += d[i];
  }
  if (total <= 0.0) return "unavailable";
  return "user " + Fixed(100.0 * (d[0] + d[1]) / total, 1) + "%, system " +
         Fixed(100.0 * (d[2] + d[5] + d[6]) / total, 1) + "%, idle " +
         Fixed(100.0 * (d[3] + d[4]) / total, 1) + "%, steal " +
         Fixed(100.0 * d[7] / total, 1) + "%";
}

std::string FileSystemName(const std::string& path) {
  struct statfs s;
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53UL: return "ext2/ext3/ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::vector<std::string> ServerArgs(const Workload& w, const std::string& dir,
                                    bool slow_log) {
  std::vector<std::string> args = {"--listen", kSocket, "--shards",
                                   std::to_string(kShards), "--quiet"};
  if (w.durable) {
    args.push_back("--open");
    args.push_back(dir);
  }
  if (slow_log) {
    args.push_back("--slow-query-ms");
    args.push_back("0");
  }
  return args;
}

/// A running server with its tables loaded, views registered and one
/// warm-up command answered.
struct LiveServer {
  ServerProcess process;
  Client admin;
  double setup_seconds = 0.0;
  std::string log;
};

bool Call(Client* client, const std::string& line, std::string* text,
          std::string* error) {
  pvcdb::ClientReplyMsg reply;
  if (!client->Call(line, &reply, error)) return false;
  if (!reply.ok) {
    *error = "'" + line + "' failed: " + reply.text;
    return false;
  }
  *text = reply.text;
  return true;
}

bool StartAndSetUp(const Options& opt, const Workload& w,
                   const std::string& dir, bool slow_log, const std::string& log,
                   LiveServer* live, std::string* error) {
  Clock::time_point start = Clock::now();
  live->log = log;
  if (!live->process.Start(opt.server, ServerArgs(w, dir, slow_log), log,
                           error)) {
    return false;
  }
  g_live_server.store(live->process.pid());
  // The server forks its workers before it listens: a connection means
  // the workers are up.
  if (!live->admin.Connect(kSocket, error)) return false;
  std::string text;
  for (const auto& [table, file] : w.loads) {
    if (!Call(&live->admin, "load " + table + " " + file, &text, error)) {
      return false;
    }
  }
  for (const std::string& line : w.setup) {
    if (!Call(&live->admin, line, &text, error)) return false;
  }
  if (!Call(&live->admin, w.warmup, &text, error)) return false;
  live->setup_seconds = SecondsSince(start);
  return true;
}

bool Shutdown(LiveServer* live, std::string* error) {
  pvcdb::ClientReplyMsg reply;
  std::string ignored;
  live->admin.Call("shutdown", &reply, &ignored);
  bool clean = live->process.Stop(20000);
  g_live_server.store(-1);
  if (!clean) *error = "server did not shut down cleanly (log: " + live->log + ")";
  return clean;
}

// Read workloads: the pool once, in order, checked against the first-pass
// references (see References).
void Prewarm(LiveServer* live, const Workload& w, const References* refs,
             Report* report) {
  if (refs == nullptr) return;
  for (size_t i = 0; i < w.pool.size(); ++i) {
    const Command& command = w.pool[i];
    pvcdb::ClientReplyMsg reply;
    std::string detail;
    if (!live->admin.Call(command.text, &reply, &detail)) {
      report->Fail("pre-warm #" + std::to_string(i) + " '" + command.text +
                   "': " + detail);
      return;
    }
    detail = CheckReply(command, reply, &refs->first_pass);
    if (detail.empty()) {
      ++report->attempted;
    } else {
      report->Fail("pre-warm #" + std::to_string(i) + " '" + command.text +
                   "': " + detail);
    }
  }
}

double WarmupSeconds(const Options& opt) {
  return std::min(1.0, std::max(0.2, opt.seconds / 10.0));
}

// Starts and sets up a server, pre-warms it, connects the clients of `loop`
// and runs the warm-up phase. False, with the failure recorded, when a step
// fails.
bool ReadyToMeasure(const Options& opt, const Workload& w,
                    const References* refs, const std::string& dir,
                    bool slow_log, const std::string& log, LiveServer* live,
                    ClosedLoop* loop, Report* report) {
  std::string error;
  if (!StartAndSetUp(opt, w, dir, slow_log, log, live, &error)) {
    report->Fail("set-up: " + error);
    return false;
  }
  Prewarm(live, w, refs, report);
  if (!loop->Connect(kSocket, &error)) {
    report->Fail("client connect: " + error);
    return false;
  }
  report->Absorb(loop->RunPhase(WarmupSeconds(opt)));
  return true;
}

std::string Samples(size_t n) {
  double q = HighestSupportedPercentile(n);
  return "n=" + std::to_string(n) + ", highest supported percentile p" +
         Fixed(q, 1) + ", " + std::to_string(SamplesBeyond(n, 99.0)) +
         " samples beyond p99";
}

// Durable: what the live server acknowledged must survive a restart. Shuts
// `live` down, recovers a fresh server from its directory and compares the
// final-check replies byte for byte.
void RestartCheck(const Options& opt, const Workload& w, LiveServer* live,
                  Report* report) {
  std::string error;
  size_t failed_before = report->failed;
  std::vector<std::string> before;
  for (const std::string& line : w.final_checks) {
    std::string text;
    if (!Call(&live->admin, line, &text, &error)) report->Fail(error);
    before.push_back(text);
  }
  if (!Shutdown(live, &error)) report->Fail(error);
  LiveServer restarted;
  restarted.log = "server-restart.log";
  std::string dir = "db" + std::to_string(kSetups - 1);
  if (!restarted.process.Start(opt.server, ServerArgs(w, dir, false),
                               restarted.log, &error)) {
    report->Fail("restart: " + error);
    return;
  }
  g_live_server.store(restarted.process.pid());
  if (!restarted.admin.Connect(kSocket, &error)) {
    report->Fail("restart: " + error);
    return;
  }
  for (size_t i = 0; i < w.final_checks.size(); ++i) {
    std::string text;
    if (!Call(&restarted.admin, w.final_checks[i], &text, &error)) {
      report->Fail("after restart: " + error);
    } else if (text != before[i]) {
      report->Fail("after restart, '" + w.final_checks[i] +
                   "' differs from the live server at " +
                   FirstDifference(before[i], text));
    }
  }
  if (!Shutdown(&restarted, &error)) report->Fail(error);
  report->lines.push_back(
      std::string("restart check: ") +
      (report->failed == failed_before ? "passed" : "FAILED") + " (" +
      std::to_string(w.final_checks.size()) +
      " replies compared with a fresh --open recovery)");
}

// -- Untraced run: the end-to-end metrics -----------------------------------

void RunUntraced(const Options& opt, const Workload& w,
                 const References* refs, Report* report) {
  std::string error;
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetups; ++i) {
    LiveServer live;
    if (!StartAndSetUp(opt, w, "db" + std::to_string(i), false,
                       "server-" + std::to_string(i) + ".log", &live,
                       &error)) {
      report->Fail("set-up " + std::to_string(i) + ": " + error);
      return;
    }
    setups.push_back(live.setup_seconds);
    if (!Shutdown(&live, &error)) {
      report->Fail(error);
      return;
    }
  }
  // The last set-up stays up for the measurement.
  LiveServer live;
  ClosedLoop loop(w, refs ? &refs->steady : nullptr, kClients);
  if (!ReadyToMeasure(opt, w, refs, "db" + std::to_string(kSetups - 1), false,
                      "server-" + std::to_string(kSetups - 1) + ".log",
                      &live, &loop, report)) {
    return;
  }
  setups.push_back(live.setup_seconds);
  std::string workers;
  if (!Call(&live.admin, "workers", &workers, &error)) {
    report->Fail(error);
    return;
  }
  std::vector<double> cpu_before = CpuJiffies();
  PhaseResult r = loop.RunPhase(opt.seconds);
  std::vector<double> cpu_after = CpuJiffies();
  report->Absorb(r);

  double rss = PeakRssMb(live.process.pid());
  for (pid_t pid : ParseWorkerPids(workers)) rss += PeakRssMb(pid);

  if (w.durable) {
    RestartCheck(opt, w, &live, report);
  } else if (!Shutdown(&live, &error)) {
    report->Fail(error);
  }

  std::sort(r.read_ms.begin(), r.read_ms.end());
  std::sort(r.write_ms.begin(), r.write_ms.end());
  double done = static_cast<double>(r.read_ms.size() + r.write_ms.size());
  // qps is the median over the tenths of the window, so a short stall of
  // the host moves it less than the whole-window mean.
  std::vector<double> slices(10, 0.0);
  for (double t : r.done_s) {
    size_t s = static_cast<size_t>(t / r.seconds * 10.0);
    slices[std::min<size_t>(s, 9)] += 10.0 / r.seconds;
  }
  report->metrics = {
      {"setup_s", Median(setups), "s"},
      {"qps", Median(slices), "1/s"},
      {"read_p50_ms", Percentile(r.read_ms, 50.0), "ms"},
      {"read_p99_ms", Percentile(r.read_ms, 99.0), "ms"},
      {"peak_rss_mb", rss, "MiB"},
  };
  std::vector<std::string>& out = report->lines;
  std::string setup_list;
  for (double s : setups) setup_list += " " + Fixed(s, 4);
  out.push_back("setup_s samples:" + setup_list);
  out.push_back("read samples: " + Samples(r.read_ms.size()));
  std::string slice_list;
  for (double q : slices) slice_list += " " + Fixed(q, 1);
  out.push_back("qps per tenth of the window:" + slice_list +
                "; over the whole window " + Fixed(done / r.seconds, 1));
  out.push_back("machine cpu during the window: " +
                CpuUse(cpu_before, cpu_after));
  if (w.durable) {
    out.push_back("write_p50_ms = " + Fixed(Percentile(r.write_ms, 50.0), 4) +
                  " ms");
    out.push_back("write_p99_ms = " + Fixed(Percentile(r.write_ms, 99.0), 4) +
                  " ms");
    out.push_back("write samples: " + Samples(r.write_ms.size()));
  }
}

// -- Traced run: the per-layer metrics --------------------------------------

struct SlowLog {
  double service_ms_sum = 0.0;
  size_t lines = 0;
};

SlowLog ParseSlowLog(const std::string& path, std::streamoff from,
                     std::streamoff to) {
  SlowLog out;
  std::ifstream in(path, std::ios::binary);
  in.seekg(from);
  std::string line;
  while (in.tellg() >= 0 && in.tellg() < to && std::getline(in, line)) {
    const std::string key = "pvcdb slow-query total_ms=";
    if (line.compare(0, key.size(), key) != 0) continue;
    out.service_ms_sum += std::strtod(line.c_str() + key.size(), nullptr);
    ++out.lines;
  }
  return out;
}

std::streamoff FileSize(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::streamoff>(size);
}

void RunTraced(const Options& opt, const Workload& w,
               const References* refs, Report* report) {
  std::string error;
  // Three parts of --seconds each: the untraced window, the traced window
  // and the replay, so a traced run takes about as long as an untraced one.
  const double part = std::max(0.5, opt.seconds / 3.0);

  // 1. Untraced served baseline for the tracing overhead.
  double plain_qps = 0.0;
  {
    LiveServer live;
    ClosedLoop loop(w, refs ? &refs->steady : nullptr, kClients);
    if (!ReadyToMeasure(opt, w, refs, "db0", false, "server-plain.log", &live,
                        &loop, report)) {
      return;
    }
    PhaseResult r = loop.RunPhase(part);
    report->Absorb(r);
    plain_qps = static_cast<double>(r.read_ms.size() + r.write_ms.size()) / part;
    if (!Shutdown(&live, &error)) report->Fail(error);
  }

  // 2. Served run with the slow-query log on every command, between two
  // `stats --json` snapshots.
  LiveServer live;
  ClosedLoop loop(w, refs ? &refs->steady : nullptr, kClients);
  if (!ReadyToMeasure(opt, w, refs, "db1", true, "server-traced.log", &live,
                      &loop, report)) {
    return;
  }
  std::string before_text;
  std::string after_text;
  if (!Call(&live.admin, "stats --json", &before_text, &error)) {
    report->Fail(error);
  }
  std::streamoff log_from = FileSize(live.log);
  PhaseResult r = loop.RunPhase(part);
  report->Absorb(r);
  std::streamoff log_to = FileSize(live.log);
  if (!Call(&live.admin, "stats --json", &after_text, &error)) {
    report->Fail(error);
  }
  if (!Shutdown(&live, &error)) report->Fail(error);
  StatsSnapshot before = ParseStatsJson(before_text);
  StatsSnapshot after = ParseStatsJson(after_text);
  SlowLog slow = ParseSlowLog(live.log, log_from, log_to);

  // 3. The in-process replay.
  ReplayResult replay = RunReplay(w, refs, part, "trace.jsonl");
  report->attempted += replay.commands;
  report->failed += replay.failed;
  for (const Failure& f : replay.failures) {
    Failure tagged = f;
    tagged.detail = "(in-process replay) " + f.detail;
    report->failures.push_back(tagged);
  }

  double reads = static_cast<double>(r.reads_done);
  double writes = static_cast<double>(r.writes_done);
  double commands = std::max(1.0, reads + writes);
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto delta = [&](const char* metric) {
    return StatsDelta(before, after, metric);
  };
  std::vector<double> latencies = r.read_ms;
  latencies.insert(latencies.end(), r.write_ms.begin(), r.write_ms.end());
  double service = per(slow.service_ms_sum, static_cast<double>(slow.lines));
  double traced_qps = static_cast<double>(latencies.size()) / part;
  double incremental = delta("views.incremental_applies");
  double hits = delta("cache.hits");
  std::map<std::string, double> m = replay.metrics;
  m["query.rows_scanned_per_read"] = per(delta("engine.rows_scanned"), reads);
  m["engine.scatter_ms"] = HistogramDeltaMean(before, after, "coord.scatter.ms");
  m["engine.fsyncs_per_write"] = per(delta("wal.fsyncs"), writes);
  m["engine.wal_bytes_per_write"] = per(delta("wal.append_bytes"), writes);
  m["engine.view_incremental_share"] =
      per(incremental, incremental + delta("views.recompute_fallbacks"));
  m["engine.cache_hit_share"] = per(hits, hits + delta("cache.misses"));
  m["engine.degraded_fallbacks"] = delta("coord.degraded_fallbacks");
  m["dtree.compiles_per_cmd"] = delta("engine.dtrees_compiled") / commands;
  m["expr.interned_per_cmd"] = delta("engine.exprs_interned") / commands;
  m["serve.service_ms"] = service;
  m["serve.wait_ms"] = Mean(latencies) - service;
  m["serve.trace_overhead_share"] = 1.0 - per(traced_qps, plain_qps);
  m["net.bytes_per_cmd"] =
      (delta("net.bytes_in") + delta("net.bytes_out")) / commands;
  m["net.frames_per_cmd"] =
      (delta("net.frames_in") + delta("net.frames_out")) / commands;
  m["net.timeouts"] = delta("net.timeouts");
  m["net.retries"] = delta("net.retries");
  m["net.crc_failures"] = delta("net.crc_failures");

  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"query.parse_ms", "ms"},
      {"query.rows_scanned_per_read", "count"},
      {"engine.step1_ms", "ms"},
      {"engine.render_ms", "ms"},
      {"engine.step2_ms", "ms"},
      {"engine.cond_agg_ms", "ms"},
      {"engine.scatter_ms", "ms"},
      {"engine.mutation_ms", "ms"},
      {"engine.view_print_ms", "ms"},
      {"engine.other_ms", "ms"},
      {"engine.wal_append_ms", "ms"},
      {"engine.wal_sync_ms", "ms"},
      {"engine.fsyncs_per_write", "count"},
      {"engine.wal_bytes_per_write", "bytes"},
      {"engine.view_incremental_share", "share"},
      {"engine.cache_hit_share", "share"},
      {"engine.degraded_fallbacks", "count"},
      {"dtree.compile_ms", "ms"},
      {"dtree.prob_ms", "ms"},
      {"dtree.nodes_per_row", "count"},
      {"dtree.shannon_per_row", "count"},
      {"dtree.compiles_per_cmd", "count"},
      {"expr.clone_ms", "ms"},
      {"expr.interned_per_cmd", "count"},
      {"expr.pool_nodes", "count"},
      {"serve.service_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.inprocess_ms", "ms"},
      {"serve.reply_bytes_per_read", "bytes"},
      {"serve.trace_overhead_share", "share"},
      {"net.bytes_per_cmd", "bytes"},
      {"net.frames_per_cmd", "count"},
      {"net.timeouts", "count"},
      {"net.retries", "count"},
      {"net.crc_failures", "count"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    report->metrics.push_back({name, m[name], unit});
  }

  // The trace, read as shares of the replayed in-process time.
  std::vector<std::string>& out = report->lines;
  out.push_back("served traced window: " + std::to_string(r.reads_done) +
                " reads, " + std::to_string(r.writes_done) + " writes, " +
                std::to_string(slow.lines) + " slow-query lines; qps " +
                Fixed(traced_qps, 1) + " traced vs " + Fixed(plain_qps, 1) +
                " untraced");
  out.push_back("in-process replay: " + std::to_string(replay.commands) +
                " commands (" + std::to_string(replay.writes) +
                " writes), mean " +
                Fixed(per(replay.command_ms,
                          static_cast<double>(replay.commands)),
                      3) +
                " ms; spans in trace.jsonl; serve.inprocess_ms - "
                "(serve.self_ms + engine span metrics) = " +
                Format(replay.unaccounted_ms) + " ms");
  std::vector<std::pair<double, std::string>> shares;
  for (const auto& [name, ms] : replay.self_ms) {
    shares.push_back({ms, name});
  }
  std::sort(shares.rbegin(), shares.rend());
  for (const auto& [ms, name] : shares) {
    bool probe = name.compare(0, 6, "probe.") == 0 ||
                 name.compare(0, 6, "dtree.") == 0 ||
                 name.compare(0, 5, "expr.") == 0;
    out.push_back("  self " + name + " = " + Fixed(ms, 2) + " ms" +
                  (probe ? " (d-tree probe, outside commands)"
                         : " (" + Fixed(100.0 * per(ms, replay.command_ms), 1) +
                               "% of in-process time)"));
  }
  auto self = [&](const std::map<std::string, double>& by_name,
                  const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };
  if (w.name == "agg_read") {
    double cond = self(replay.self_ms, "engine.cond_agg");
    bool largest = true;
    for (const auto& [ms, name] : shares) {
      if (name != "engine.cond_agg" && name.compare(0, 7, "engine.") == 0 &&
          ms > cond) {
        largest = false;
      }
    }
    out.push_back(std::string("split: engine.cond_agg is ") +
                  (largest ? "" : "NOT ") + "the largest share (" +
                  Fixed(100.0 * per(cond, replay.command_ms), 1) + "%)");
  } else if (w.name == "chain_read") {
    double engine = self(replay.self_ms, "engine.step1") +
                    self(replay.self_ms, "engine.render") +
                    self(replay.self_ms, "engine.step2");
    double serve = self(replay.self_ms, "serve.execute");
    out.push_back(std::string("split: step1 + render + step2 = ") +
                  Fixed(100.0 * per(engine, replay.command_ms), 1) +
                  "% vs serve self " +
                  Fixed(100.0 * per(serve, replay.command_ms), 1) + "% (" +
                  (engine > serve ? "largest" : "NOT largest") + ")");
  } else {
    double mut = self(replay.write_self_ms, "engine.mutation") +
                 self(replay.write_self_ms, "engine.wal_append") +
                 self(replay.write_self_ms, "engine.wal_sync");
    double share = per(mut, replay.write_command_ms);
    out.push_back("split: mutation + WAL spans = " + Fixed(100.0 * share, 1) +
                  "% of write commands' in-process time (" +
                  (share > 0.5 ? "dominant" : "NOT dominant") + ")");
  }
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pvcbench: %s needs a value\n", arg.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opt->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--server") {
      opt->server = value;
    } else if (arg == "--workdir") {
      opt->workdir = value;
    } else {
      std::fprintf(stderr, "pvcbench: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      std::fprintf(stderr, "pvcbench: %s needs a number, not '%s'\n",
                   arg.c_str(), value.c_str());
      return false;
    }
  }
  if (!IsWorkloadName(opt->workload)) {
    std::fprintf(stderr,
                 "pvcbench: --workload must be chain_read, agg_read or "
                 "durable_mix\n");
    return false;
  }
  if (!(opt->seconds > 0.0) || (opt->trace != 0 && opt->trace != 1)) {
    std::fprintf(stderr, "pvcbench: need --seconds > 0 and --trace 0|1\n");
    return false;
  }
  if (opt->server.empty() || ::access(opt->server.c_str(), X_OK) != 0 ||
      opt->workdir.empty()) {
    std::fprintf(stderr,
                 "pvcbench: --server must name the pvcdb_server binary and "
                 "--workdir a scratch directory\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;
  opt.server = std::filesystem::absolute(opt.server).string();
  std::filesystem::path dir =
      std::filesystem::absolute(opt.workdir) / opt.workload;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec || ::chdir(dir.c_str()) != 0) {
    std::fprintf(stderr, "pvcbench: cannot use %s\n", dir.c_str());
    return 2;
  }
  pvcdb::IgnoreSigPipe();
  BecomeSubreaper();
  ::signal(SIGALRM, Watchdog);
  ::alarm(kWatchdogSeconds);

  Clock::time_point start = Clock::now();
  Workload w = MakeWorkload(opt.workload, opt.seed, ".");
  Report report;
  References refs;
  std::string error;
  if (!w.durable && !ComputeReferences(w, kShards, &refs, &error)) {
    report.Fail("reference: " + error);
  } else if (opt.trace == 0) {
    RunUntraced(opt, w, w.durable ? nullptr : &refs, &report);
  } else {
    RunTraced(opt, w, w.durable ? nullptr : &refs, &report);
  }

  std::printf("workload %s, seed %llu, %s run of %.3g s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", opt.seconds,
              opt.trace ? " (two served thirds + in-process replay)" : "");
  for (const std::string& d : w.description) std::printf("  %s\n", d.c_str());
  std::printf(
      "environment: nproc %ld, cpu \"%s\", build %s, %d shards (forked "
      "workers), %d closed-loop clients, working-directory fs %s, flush "
      "policy %s\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), PVCBENCH_BUILD_TYPE,
      kShards, kClients, FileSystemName(".").c_str(),
      w.durable ? "fsync per acknowledged mutation (default, no --group-commit)"
                : "none (volatile server)");
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  for (const Metric& metric : report.metrics) {
    std::printf("%s = %s %s\n", metric.name.c_str(),
                Format(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("failed_share = %s (%zu failed of %zu attempted)\n",
              Format(report.attempted > 0
                         ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 0.0)
                  .c_str(),
              report.failed, report.attempted);
  std::printf("wall time %.1f s\n", SecondsSince(start));

  bool correct = report.failed == 0;
  if (!correct) {
    for (const Failure& f : report.failures) {
      std::fprintf(stderr,
                   "FAILED: workload %s seed %llu client %d command #%zu "
                   "'%s': %s\n",
                   w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                   f.client, f.index, f.command.c_str(), f.detail.c_str());
    }
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "FAILED: workload %s seed %llu: %s\n",
                   w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                   note.c_str());
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    json += (i > 0 ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            Format(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pvcbench

int main(int argc, char** argv) { return pvcbench::Main(argc, argv); }
