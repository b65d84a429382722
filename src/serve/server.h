// The pvcdb front-end server: accepts many concurrent shell clients over
// one listening socket and executes their commands against a serving
// backend -- either a Coordinator over out-of-process shard workers (the
// normal mode) or an in-process ShardedDatabase (the bit-identity
// reference mode, used by tests).
//
// Consistency model: commands execute one at a time on the server's single
// thread (the poll loop dispatches a complete command frame, runs it to
// completion, sends the reply, then returns to poll). Reads are therefore
// snapshot-consistent -- a SELECT never observes a half-applied mutation --
// and mutations from concurrent clients serialize in arrival order,
// streaming through the IVM delta path like their shell counterparts.
// Parallelism lives *inside* a command: the distributed scatter fans out
// to every worker before collecting any reply.
//
// ExecuteCommand is the single rendering path shared by both backends and
// by the local pvcdb_shell; the e2e test compares its output byte for byte
// between a RemoteBackend and a local InProcessBackend. Probabilities print
// at precision 17, so text equality is double bit-equality.
//
// Durability is wired in through ServerConfig::open_dir: the server opens
// (or recovers) a DurableSession over the durable directory, logs every
// served mutation to its WAL before acknowledging, and -- in the default
// remote mode -- attaches the session to the Coordinator so recovery
// replays history into the coordinator's replica and shard logs without
// touching workers (ReconcileWorkers then tail- or full-resyncs each one).
// ServerConfig::group_commit_ms batches WAL fsyncs: replies to commands
// that appended unsynced WAL records are queued and sent only after one
// fsync covering the whole commit window.

#ifndef PVCDB_SERVE_SERVER_H_
#define PVCDB_SERVE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/coordinator.h"
#include "src/engine/csv.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/net/protocol.h"

namespace pvcdb {

/// The command surface ExecuteCommand runs against. Both implementations
/// compute every number through the same per-row step II pipeline, so
/// their rendered replies agree bit for bit.
class ServeBackend {
 public:
  virtual ~ServeBackend() = default;

  /// The logical catalog (schemas, variable registry, gathered tables).
  virtual const Database& catalog() const = 0;
  virtual size_t num_shards() const = 0;
  virtual std::vector<size_t> ShardRowCounts(const std::string& name) = 0;

  virtual CsvResult LoadCsv(const std::string& table,
                            const std::string& path) = 0;
  virtual QueryRun RunQuery(const Query& q) = 0;
  virtual Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                                      const std::string& column) = 0;
  virtual void Insert(const std::string& table, std::vector<Cell> cells,
                      double p) = 0;
  virtual size_t Delete(const std::string& table, const Cell& key) = 0;
  virtual void SetProb(VarId var, double p) = 0;
  virtual size_t RegisterView(const std::string& name, QueryPtr query,
                              std::vector<std::string>* warnings) = 0;
  virtual bool HasView(const std::string& name) = 0;
  virtual QueryRun PrintView(const std::string& name) = 0;
  virtual std::vector<ShardedDatabase::ViewInfo> ViewInfos() = 0;

  /// Text of the `workers` command (worker liveness / pids).
  virtual std::string Workers() = 0;
  /// `respawn <s>`: replaces a down worker. False + message on failure.
  virtual bool Respawn(size_t shard, std::string* message) = 0;

  /// `threads`: pushes the evaluation thread count into the engine (and,
  /// for remote workers, over the wire via kSetOptions). The second
  /// argument is unused: both backends ignore it and ExecuteCommand
  /// passes 0. It survives only because the benchmark's replay backend
  /// overrides this signature; a change to the benchmark drops it.
  virtual void SetEvalOptions(int num_threads, int intra_tree_threads) = 0;

  /// `stats`: one snapshot of every metric this backend can see. The
  /// in-process backend reads the process registry; the remote backend
  /// additionally gathers each live worker's registry over kStatsRequest
  /// (entries prefixed "shard<N>."). Pure observation -- never logged,
  /// never advances worker (lsn, chain).
  virtual std::vector<MetricSnapshot> StatsSnapshot() = 0;
};

/// Reference backend over an in-process ShardedDatabase (does not own it).
class InProcessBackend : public ServeBackend {
 public:
  explicit InProcessBackend(ShardedDatabase* db) : db_(db) {}

  const Database& catalog() const override { return db_->coordinator(); }
  size_t num_shards() const override { return db_->num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    return db_->ShardRowCounts(name);
  }
  CsvResult LoadCsv(const std::string& table,
                    const std::string& path) override {
    return LoadCsvTableFromFile(db_, table, path);
  }
  QueryRun RunQuery(const Query& q) override;
  Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                              const std::string& column) override;
  void Insert(const std::string& table, std::vector<Cell> cells,
              double p) override {
    db_->InsertTuple(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const Cell& key) override {
    return db_->DeleteTuple(table, key);
  }
  void SetProb(VarId var, double p) override {
    db_->UpdateProbability(var, p);
  }
  size_t RegisterView(const std::string& name, QueryPtr query,
                      std::vector<std::string>* warnings) override;
  bool HasView(const std::string& name) override { return db_->HasView(name); }
  QueryRun PrintView(const std::string& name) override;
  std::vector<ShardedDatabase::ViewInfo> ViewInfos() override {
    return db_->ViewInfos();
  }
  std::string Workers() override;
  bool Respawn(size_t shard, std::string* message) override;
  void SetEvalOptions(int num_threads, int /*intra_tree_threads*/) override {
    db_->eval_options().num_threads = num_threads;
  }
  std::vector<MetricSnapshot> StatsSnapshot() override {
    return MetricsRegistry::Global().Snapshot();
  }

 private:
  ShardedDatabase* db_;
};

/// Serving backend over a Coordinator of remote workers (does not own it).
class RemoteBackend : public ServeBackend {
 public:
  explicit RemoteBackend(Coordinator* coordinator)
      : coordinator_(coordinator) {}

  const Database& catalog() const override { return coordinator_->local(); }
  size_t num_shards() const override { return coordinator_->num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    return coordinator_->ShardRowCounts(name);
  }
  CsvResult LoadCsv(const std::string& table,
                    const std::string& path) override {
    return LoadCsvTableFromFile(coordinator_, table, path);
  }
  QueryRun RunQuery(const Query& q) override { return coordinator_->Run(q); }
  Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                              const std::string& column) override {
    return coordinator_->ConditionalAggregateDistribution(run, row_index,
                                                          column);
  }
  void Insert(const std::string& table, std::vector<Cell> cells,
              double p) override {
    coordinator_->InsertTuple(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const Cell& key) override {
    return coordinator_->DeleteTuple(table, key);
  }
  void SetProb(VarId var, double p) override {
    coordinator_->UpdateProbability(var, p);
  }
  size_t RegisterView(const std::string& name, QueryPtr query,
                      std::vector<std::string>* warnings) override {
    return coordinator_->RegisterView(name, std::move(query), warnings);
  }
  bool HasView(const std::string& name) override {
    return coordinator_->HasView(name);
  }
  QueryRun PrintView(const std::string& name) override {
    return coordinator_->PrintView(name);
  }
  std::vector<ShardedDatabase::ViewInfo> ViewInfos() override {
    return coordinator_->ViewInfos();
  }
  std::string Workers() override;
  bool Respawn(size_t shard, std::string* message) override;
  void SetEvalOptions(int num_threads, int /*intra_tree_threads*/) override {
    coordinator_->SetEvalOptions(num_threads);
  }
  std::vector<MetricSnapshot> StatsSnapshot() override {
    return coordinator_->AggregatedStats();
  }

 private:
  Coordinator* coordinator_;
};

/// Mutable per-session state beyond the backend: the durable session (for
/// `save` / `log`) and the session-level thread knob (`threads`). Null
/// members render those commands unavailable.
struct ServeSession {
  DurableSession* durable = nullptr;
  int num_threads = 0;
};

/// Parses and executes one shell command line against `backend`, rendering
/// the full reply text with probabilities at precision 17. The one command
/// interpreter: pvcdb_server runs it for every client, and pvcdb_shell for
/// every command but its own `shards` / `open` / `quit`. Sets `*shutdown`
/// when the command was `shutdown`. Never throws. `session` may be null (a
/// serving surface with no durable directory and no thread knobs, as in
/// unit tests).
ClientReplyMsg ExecuteCommand(ServeBackend* backend, const std::string& line,
                              bool* shutdown, ServeSession* session = nullptr);

struct ServerConfig {
  std::string listen_address;
  size_t num_shards = 1;
  SemiringKind semiring = SemiringKind::kBool;
  /// Reference mode: serve an in-process ShardedDatabase instead of
  /// out-of-process workers (bit-identity baseline).
  bool in_process = false;
  /// Standalone worker endpoints to dial, one per shard. Empty: fork one
  /// worker process per shard over a socketpair.
  std::vector<std::string> worker_addresses;
  bool quiet = false;
  /// Durable directory: recover it when it holds state, else create it,
  /// and log every served mutation before acknowledging. Empty: volatile.
  std::string open_dir;
  /// Group-commit window in milliseconds. Negative: fsync on every WAL
  /// append, acknowledge immediately. >= 0: appends stay unsynced and the
  /// affected replies queue until one fsync at window expiry covers them
  /// all (0 = sync on the next poll-loop pass). Ignored without open_dir.
  int group_commit_ms = -1;
  /// Slow-query threshold in milliseconds. Commands whose total wall time
  /// meets it emit one structured line on stderr and bump
  /// `server.slow_queries`. Negative: disabled.
  double slow_query_ms = -1.0;
  /// When non-empty: the final metrics snapshot is written here as JSON
  /// Lines (one metric per line) on clean shutdown.
  std::string metrics_dump;
  /// Deadline (ms) for every coordinator -> worker RPC frame send/receive.
  /// Negative: block forever (the pre-fault-tolerance behaviour). A
  /// timed-out worker is marked down and served around (degraded replies
  /// from the local replica); mutations are never blind-retried.
  int rpc_timeout_ms = -1;
  /// Heartbeat interval (ms): the poll loop pings every worker this often,
  /// walking failures suspect -> down. Negative: disabled.
  int heartbeat_ms = -1;
  /// Respawn down workers from the heartbeat cycle (backoff-paced, circuit
  /// breaker on repeated failures). Requires heartbeat_ms >= 0 to fire.
  bool auto_respawn = false;
  /// Evict clients idle (no bytes received) for this long (ms). Negative:
  /// never. Evicted clients see an orderly close ("server closed
  /// connection" in the shell).
  int client_idle_ms = -1;
};

/// Runs the front-end server until a client sends `shutdown`. Returns 0 on
/// clean shutdown, 1 on a startup failure.
int RunServer(const ServerConfig& config);

}  // namespace pvcdb

#endif  // PVCDB_SERVE_SERVER_H_
