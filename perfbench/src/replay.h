// The traced in-process replay: the workload's own seeded commands run
// single-threaded through ExecuteCommand over a benchmark-side ServeBackend
// that forwards to the engine exactly as InProcessBackend does, with a span
// around every backend call and around the engine calls InProcessBackend
// makes. Durable workloads attach a DurableSession whose file system times
// every WAL append and fsync. A d-tree probe re-runs each result row through
// CloneInto -> DTreeCompiler::Compile -> ComputeDistribution and checks it
// against IsolatedAnnotationDistribution bit for bit. Spans stay in memory
// and are written out when the replay ends.

#ifndef PVCBENCH_REPLAY_H_
#define PVCBENCH_REPLAY_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/served.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"

namespace pvcbench {

/// In-memory span recorder for one thread. Spans nest by scope: the parent
/// of a new span is the innermost open one.
class Tracer {
 public:
  Tracer();

  /// Spans opened until EndCommand() carry command id `id`.
  void BeginCommand(int id) { command_ = id; }
  void EndCommand() { command_ = -1; }

  int Open(const char* name);
  void Close(int span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int command_ = -1;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

struct ReplayResult {
  size_t commands = 0;
  size_t reads = 0;
  size_t writes = 0;
  size_t failed = 0;
  std::vector<Failure> failures;
  /// Per-layer metrics measured in process (see README.md).
  std::map<std::string, double> metrics;
  /// Self time per span name, summed over every replayed command (ms).
  std::map<std::string, double> self_ms;
  /// Summed in-process time of the replayed commands (root spans, ms).
  double command_ms = 0.0;
  /// The same two sums over the write commands alone.
  std::map<std::string, double> write_self_ms;
  double write_command_ms = 0.0;
  /// serve.inprocess_ms minus the sum of the reported per-command self-time
  /// metrics (serve.self_ms and the engine span metrics), ms per command.
  double unaccounted_ms = 0.0;
};

/// The reference replies of the pool commands: ExecuteCommand over an
/// InProcessBackend on a ShardedDatabase with `shards` shards, loaded from
/// the same CSV files.
///
/// Replies render annotations through the expression pool, whose ids (and
/// so the order of terms in a rendered sum) depend on which commands ran
/// before. Every server therefore first runs the pool once in order (the
/// pre-warm pass; its replies must equal `first_pass`). After that pass
/// every node any pool command interns exists, so replies no longer depend
/// on the order two clients interleave in; they must equal `steady`, the
/// replies of a second in-order pass.
struct References {
  std::vector<std::string> first_pass;
  std::vector<std::string> steady;
};

/// Replays the workload from the working directory (which holds its CSV
/// inputs; the durable replay directory is created there): loads and
/// set-up; for read workloads the untraced pre-warm pass (the pool once in
/// order, checked against `refs->first_pass`, as every server gets it);
/// then, traced, the clients' seeded streams interleaved round-robin, read
/// replies checked against `refs->steady`. Stops after `max_seconds`.
/// `refs` is null for durable workloads. Writes the spans to `trace_path`
/// as JSON Lines. A span inside a command that no reported metric covers,
/// or reported self times that do not add up to serve.inprocess_ms, is a
/// failure.
ReplayResult RunReplay(const Workload& workload, const References* refs,
                       double max_seconds, const std::string& trace_path);

/// False + `*error` when a load or command fails.
bool ComputeReferences(const Workload& workload, size_t shards,
                       References* out, std::string* error);

}  // namespace pvcbench

#endif  // PVCBENCH_REPLAY_H_
