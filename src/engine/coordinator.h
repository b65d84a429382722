// Coordinator: the out-of-process counterpart of ShardedDatabase
// (src/engine/shard.h), driving the same scatter-gather over RemoteShard
// connections to shard worker processes instead of over in-process shard
// engines.
//
// Like the in-process facade, the coordinator keeps a FULL local Database
// replica that replays exactly the load / interning sequence of an
// unsharded engine -- the documented 2x memory trade-off that buys
// bit-identity. Everything that gathers in process (joins, projections,
// aggregates, unions) evaluates on that replica; only the distributable
// Select/Rename fragment (ShardDrivingTable) scatters to the workers. The
// workers compute each surviving row's probability themselves through
// IsolatedAnnotationDistribution -- the per-row step II pipeline that is
// independent of pool history -- so the gathered numbers are bit-identical
// to the in-process scatter at any shard count.
//
// A row's identity is its annotation variable (src/engine/shard.h): the
// coordinator keeps no placement map. A row's owner is the router's pure
// function of its key cell, its variable is read from the replica's
// annotation, appends and deletes go to the owning worker only, and the
// gather merges chain rows by variable.
//
// Degraded mode: any transport failure marks that worker down (WorkerDown)
// and every distributed path falls back to the local replica, with a
// "warning: worker N down..." line attached to the result. Values stay
// bit-identical -- chains intern nothing into the pool, so the fallback
// leaves the replica's pool exactly as the healthy path would. A down
// worker stays down until Respawn() hands the coordinator a fresh
// connection (via the server-supplied spawner), after which the worker is
// resynced -- by a tail replay when possible, by a full rebuild otherwise.
//
// Durability plane (protocol v2): every mutating request shipped to a
// worker is first appended to that shard's in-memory log (ShardLog), the
// coordinator-side mirror of the (lsn, chain) position the worker tracks.
// The log is what a correct worker at this shard must have applied, entry
// for entry -- so after a worker reconnect (standalone worker surviving a
// coordinator restart) or a respawn, ResyncWorker can ask the worker for
// its position (kReplayTail), prove with the chain CRC that its state is a
// prefix of the log, and ship just the missing tail (kShipWal) instead of
// retransmitting every partition. Any mismatch -- blank worker, diverged
// chain, log trimmed past the worker's position -- falls back to kReset
// plus a full rebuild from the replica's consolidated state, which also
// rebases the log so later tails stay valid.
//
// Variable sync is eager: FlushVars appends one kSyncVars entry to EVERY
// shard log (and ships it to live workers) before any data-plane entry
// that could reference a new variable. Because the flush points are
// functions of the logical mutation sequence alone, a recovery replay
// (DurableSession reapplying WAL records with replaying_ set, sends
// suppressed) reconstructs logs byte-identical to the ones a never-crashed
// coordinator would hold -- which is exactly what makes the post-recovery
// kReplayTail proof against surviving workers sound.

#ifndef PVCDB_ENGINE_COORDINATOR_H_
#define PVCDB_ENGINE_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/remote_shard.h"
#include "src/engine/shard.h"
#include "src/engine/wal.h"
#include "src/net/backoff.h"
#include "src/util/metrics.h"

namespace pvcdb {

/// Knobs of the coordinator's fault-tolerance plane (server flags
/// --rpc-timeout-ms / --heartbeat-ms / --auto-respawn). Heartbeats and
/// auto-respawn run inside HeartbeatTick(), driven by the server's poll
/// loop — or directly by tests, which also substitute `clock`.
struct FaultToleranceOptions {
  /// Deadline for every worker RPC frame send/receive; kNoDeadline blocks
  /// forever (the pre-fault-tolerance behaviour).
  int rpc_deadline_ms = kNoDeadline;
  /// Heartbeat interval; < 0 disables the cycle (ticks become no-ops).
  int heartbeat_ms = -1;
  /// Consecutive missed beats before a worker is reported down (one miss
  /// reports it suspect).
  int down_after_misses = 2;
  /// Respawn+resync a down worker from the heartbeat cycle, paced by
  /// `respawn_backoff` and fused by the circuit breaker below.
  bool auto_respawn = false;
  /// Circuit breaker: this many respawn failures within `respawn_window_ms`
  /// leave the shard degraded (no further respawn attempts until the
  /// window drains) instead of respawn-thrashing.
  int respawn_max_failures = 3;
  uint64_t respawn_window_ms = 10000;
  BackoffPolicy respawn_backoff;
  /// Mock seam for tests; nullptr means Clock::Real().
  Clock* clock = nullptr;

  FaultToleranceOptions() {
    // Respawns are expensive (fork/dial + resync): pace them in hundreds
    // of milliseconds, not the connect-race defaults.
    respawn_backoff.base_ms = 100;
    respawn_backoff.max_ms = 5000;
  }
};

/// Health of one worker as the heartbeat cycle sees it. kSuspect after the
/// first missed beat (or any failed RPC between beats), kDown after
/// `down_after_misses` consecutive misses, kDegraded when the respawn
/// circuit breaker is open (the shard serves from the coordinator's local
/// replica until the window drains).
enum class WorkerHealth : uint8_t { kHealthy, kSuspect, kDown, kDegraded };

const char* WorkerHealthName(WorkerHealth health);

/// One executed query (or view print) over the coordinator: the rendered
/// tuples, the per-row probabilities in global row order, and where the
/// rows came from. `local_result` is valid only when !distributed (it is
/// what conditional aggregate distributions are computed against;
/// distributed chain results never have aggregation columns).
struct QueryRun {
  Schema schema;
  std::string text;
  std::vector<double> probabilities;
  bool distributed = false;
  PvcTable local_result{Schema{}};
  std::vector<std::string> warnings;  ///< Degraded-mode notices, if any.
  /// Producer-private state kept alive with the run (the in-process
  /// backend parks its ShardedResult here for aggregate follow-ups).
  std::shared_ptr<void> backend_state;
};

/// Outcome of one worker resync (a respawn or a post-recovery reconcile):
/// whether the worker needed a full rebuild, and how many mutation entries
/// / payload bytes were shipped to bring it current.
struct ResyncStats {
  bool full = false;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

class Coordinator {
 public:
  /// Replaces a down worker: connects/spawns shard `shard` and fills
  /// `*out` with a fresh, NOT yet handshaken RemoteShard. False + error on
  /// failure. Supplied by the server (which knows whether workers are
  /// forked children or standalone processes to re-dial).
  using WorkerSpawner =
      std::function<bool(uint32_t shard, RemoteShard* out, std::string* error)>;

  /// Takes ownership of one connected RemoteShard per shard and performs
  /// the kHello handshake on each (a failed handshake marks that worker
  /// down; the coordinator still starts, degraded).
  Coordinator(SemiringKind semiring, std::vector<RemoteShard> workers,
              WorkerSpawner spawner);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  size_t num_shards() const { return workers_.size(); }

  /// The full local replica (catalog, schemas, variable registry). Pool
  /// state is bit-identical to an in-process ShardedDatabase coordinator
  /// fed the same command sequence.
  Database& local() { return local_; }
  const Database& local() const { return local_; }

  // -- Durability ----------------------------------------------------------

  /// Attaches / detaches the write-ahead log. Records are written by the
  /// replica (every coordinator mutation replays on it first), plus one
  /// coordinator-level kRegisterView record for distributable views, which
  /// never materialize on the replica.
  void set_wal(WalWriter* wal) { local_.set_wal(wal); }
  WalWriter* wal() const { return local_.wal(); }

  /// Recovery replay mode: mutations rebuild the replica and the per-shard
  /// logs, but nothing is sent to workers (ReconcileWorkers squares them up
  /// afterwards).
  void BeginReplay() { replaying_ = true; }
  void EndReplay() { replaying_ = false; }
  bool replaying() const { return replaying_; }

  /// Applies one recovered WAL op (the serving-stack counterpart of the
  /// Database-level ApplyWalOp in src/engine/snapshot.h). kReshard ops are
  /// ignored: in server mode topology is deployment configuration.
  void ApplyRecoveredOp(const WalOp& op);

  /// Rebuild hook: registers a table whose rows are annotated by existing
  /// variables (snapshot kCreateTable replay), then partitions it across
  /// the shard logs / live workers exactly like a fresh load. `vars` must
  /// be strictly increasing (CheckError otherwise, with nothing changed).
  void AddVariableAnnotatedTable(const std::string& name, Schema schema,
                                 std::vector<std::vector<Cell>> rows,
                                 const std::vector<VarId>& vars,
                                 const std::string& key_column);

  /// Replay hook (kInsertRow) mirroring ShardedDatabase::AppendRowToTable:
  /// appends a row annotated with the existing variable `var` to the
  /// replica and ships it to the owning worker. `var` must exceed the
  /// variable of every row of the table (CheckError otherwise, with
  /// nothing changed). Returns the new row's index.
  size_t AppendRowToTable(const std::string& table, std::vector<Cell> cells,
                          VarId var);

  /// Resyncs every live worker against its shard log after a recovery
  /// replay: a tail replay when the worker's (lsn, chain) position proves
  /// its state is a log prefix, a kReset + full rebuild otherwise. One
  /// human-readable summary line per worker in `*lines` (may be null).
  void ReconcileWorkers(std::vector<std::string>* lines);

  /// Snapshot-capture hooks (see CaptureState(const Coordinator&)).
  std::string KeyColumnName(const std::string& name) const;
  std::vector<std::pair<std::string, QueryPtr>> ViewCatalog() const;

  // -- Evaluation knobs ----------------------------------------------------

  /// Sets the replica's EvalOptions and broadcasts them to every live
  /// worker (kSetOptions). Not logged: every thread count computes
  /// bit-identical results, so parallelism is session state, not durable
  /// state; resyncs re-send the current options.
  void SetEvalOptions(int num_threads);

  // -- Catalog ------------------------------------------------------------

  /// Registers a tuple-independent table, routed by its first column:
  /// loads the local replica (fresh Bernoulli variables in global row
  /// order), then partitions across the live workers.
  void AddTupleIndependentTable(const std::string& name, Schema schema,
                                std::vector<std::vector<Cell>> rows,
                                std::vector<double> probabilities);

  bool HasTable(const std::string& name) const {
    return local_.HasTable(name);
  }
  std::vector<std::string> TableNames() const { return local_.TableNames(); }
  size_t NumRows(const std::string& name) const {
    return local_.table(name).NumRows();
  }

  /// Rows per shard (routed from the replica, so it is exact even while
  /// workers are down).
  std::vector<size_t> ShardRowCounts(const std::string& name) const;

  // -- Mutations (stream through IVM on replica, owning worker, views) ----

  size_t InsertTuple(const std::string& table, std::vector<Cell> cells,
                     double p);
  size_t DeleteTuple(const std::string& table, const Cell& key);
  void UpdateProbability(VarId var, double p);

  // -- Queries ------------------------------------------------------------

  /// Evaluates `q`: scattered to the workers for the distributable
  /// fragment (all workers up), on the local replica otherwise. Rendered
  /// text and probabilities are bit-identical either way.
  QueryRun Run(const Query& q);

  /// P[alpha = v | present] for an aggregation column of a
  /// non-distributed run.
  Distribution ConditionalAggregateDistribution(const QueryRun& run,
                                                size_t row_index,
                                                const std::string& column);

  // -- Materialized views -------------------------------------------------

  /// Registers a view; the distributable fragment becomes a
  /// worker-maintained chain view (kRegisterChainView to every live
  /// worker), everything else registers on the local replica. Returns the
  /// view's row count.
  size_t RegisterView(const std::string& name, QueryPtr query,
                      std::vector<std::string>* warnings);

  bool HasView(const std::string& name) const;

  /// Drops a view by name (remote chain view or replica view). Replay
  /// target for kDropView records.
  void DropView(const std::string& name);

  /// The view's tuples + cached probabilities (kViewProbs scatter for
  /// remote views; replica caches otherwise).
  QueryRun PrintView(const std::string& name);

  /// One diagnostics line per view, remote chain views first (matching
  /// ShardedDatabase::ViewInfos order and plan naming).
  std::vector<ShardedDatabase::ViewInfo> ViewInfos();

  // -- Worker management --------------------------------------------------

  bool WorkerUp(size_t s) const { return !workers_[s].down(); }
  pid_t WorkerPid(size_t s) const { return workers_[s].pid(); }

  /// Spawns a replacement for worker `s` and resyncs it: a standalone
  /// worker that kept its state gets a tail replay, a fresh blank worker
  /// gets the full rebuild. `stats` (optional) reports which path ran and
  /// how much was shipped.
  bool Respawn(size_t s, std::string* error, ResyncStats* stats = nullptr);

  /// Best-effort kShutdown broadcast to every live worker.
  void Shutdown();

  // -- Observability -------------------------------------------------------

  /// The coordinator's own metrics-registry snapshot plus every live
  /// worker's (kStatsRequest scatter), worker entries prefixed
  /// "shard<N>.". Down workers are skipped; stats reads never mark a
  /// worker down and never touch the durability plane.
  std::vector<MetricSnapshot> AggregatedStats();

  /// Reads worker `s`'s durability position via kReplayTail (a pure probe;
  /// the worker's log and chain are unchanged). False when the worker is
  /// down or the probe fails.
  bool WorkerTail(size_t s, uint64_t* lsn, uint32_t* chain);

  // -- Fault tolerance -----------------------------------------------------

  /// Installs the fault-tolerance plane: sets RpcOptions{rpc_deadline_ms}
  /// on every stub (including future Respawn replacements) and arms the
  /// per-worker heartbeat / respawn-backoff / circuit-breaker state.
  void ConfigureFaultTolerance(const FaultToleranceOptions& options);
  const FaultToleranceOptions& fault_tolerance_options() const {
    return ft_options_;
  }

  /// One heartbeat cycle: pings every live worker (kPing/kPong with a
  /// fresh nonce), walks failing workers suspect -> down, and -- when
  /// auto_respawn is armed -- attempts backoff-paced respawns of down
  /// workers unless their circuit breaker is open. Mutations are never
  /// blind-retried here: respawn recovery goes through ResyncWorker's
  /// (lsn, chain) probe. Appends human-readable transition lines to
  /// `*lines` (may be null). No-op before ConfigureFaultTolerance.
  void HeartbeatTick(std::vector<std::string>* lines = nullptr);

  /// Worker `s`'s health as the heartbeat plane sees it. Before
  /// ConfigureFaultTolerance this degrades to kHealthy/kDown straight from
  /// the stub's transport state.
  WorkerHealth Health(size_t s) const;

  /// Per-shard (end_lsn, end_chain) of the mutation logs -- the position a
  /// fully caught-up worker holds right now. Captured into snapshots so
  /// recovery can RebaseShardLogs and keep tail-resync working across a
  /// checkpoint.
  std::vector<std::pair<uint64_t, uint32_t>> ShardTails() const;

  /// Re-anchors every shard log at the recorded checkpoint tails: the
  /// entries synthesized while rebuilding the replica from the snapshot
  /// are dropped and each log's base becomes the (lsn, chain) position a
  /// live worker that survived the restart actually holds, so the WAL-tail
  /// replay that follows appends with matching continuity and
  /// ReconcileWorkers can prove a (possibly empty) tail instead of forcing
  /// a full resync. No-op when the tail count does not match the topology
  /// (a changed shard count needs the full rebuild anyway).
  void RebaseShardLogs(
      const std::vector<std::pair<uint64_t, uint32_t>>& tails);

 private:
  struct RemoteView {
    std::string name;
    std::string driving;
    QueryPtr query;
  };

  /// The coordinator-side mirror of one worker's applied-mutation history:
  /// the suffix of logged entries still held in memory, anchored at
  /// (base_lsn, base_chain). chain_at(lsn) reproduces the worker's chain
  /// CRC at any retained position, which is the kReplayTail proof.
  struct ShardLog {
    struct Entry {
      MsgKind kind;
      std::string payload;
      uint32_t chain;  ///< Chain value after applying this entry.
    };
    uint64_t base_lsn = 0;
    uint32_t base_chain = 0;
    std::deque<Entry> entries;
    uint64_t bytes = 0;  ///< Retained payload bytes (the trim metric).

    uint64_t end_lsn() const { return base_lsn + entries.size(); }
    uint32_t end_chain() const {
      return entries.empty() ? base_chain : entries.back().chain;
    }
    /// `lsn` must be in [base_lsn, end_lsn].
    uint32_t chain_at(uint64_t lsn) const;
    void Append(MsgKind kind, std::string payload);
    /// Drops oldest entries until <= `max_bytes` are retained (a worker
    /// behind the new base needs a full resync; correctness is unaffected).
    void TrimTo(uint64_t max_bytes);
    void Clear();
  };

  /// True when `q` can scatter: the same predicate as ShardedDatabase::Run.
  bool Distributable(const Query& q, std::string* driving) const;

  /// Appends one kSyncVars entry covering every not-yet-logged variable to
  /// EVERY shard log (shipping it to live workers), so any data-plane
  /// entry that follows can reference them. No-op when all variables are
  /// logged. The eager discipline keeps recovery-replayed logs
  /// byte-identical to live ones (see the file comment).
  void FlushVars();

  /// The single mutating-send path: appends (kind, payload) to shard `s`'s
  /// log, then -- unless replaying or the worker is down -- ships it,
  /// expecting kOk. Transport failure marks the worker down; a worker-side
  /// CheckError marks it diverged. The entry is retained either way (the
  /// log records what a correct worker must have applied). Returns true
  /// when the worker acked.
  bool LogAndShip(size_t s, MsgKind kind, const std::string& payload);

  /// Shared tail of table registration: records the key column of the
  /// replica table `name` and ships one kLoadPartition per shard.
  void PartitionAndShip(const std::string& name, size_t key_index);

  /// Shared tail of row insertion: the routed kAppendRow to the owning
  /// shard.
  void ShipAppendedRow(const std::string& table, size_t key_index,
                       const std::vector<Cell>& cells, VarId var);

  /// Brings worker `s` (up, freshly handshaken or reconnected) in line
  /// with its shard log: kReplayTail position probe, then either a
  /// kShipWal tail replay or kReset + full rebuild (which rebases the
  /// log). Re-sends the current EvalOptions either way. False + error when
  /// the worker died mid-resync.
  bool ResyncWorker(size_t s, ResyncStats* stats, std::string* error);

  /// Best-effort kSetOptions to worker `s` with the replica's current
  /// EvalOptions.
  void SendOptionsTo(size_t s);

  /// Sends `kind` to every live worker (send-all-then-recv-all scatter)
  /// and decodes each reply into `replies[s]`. Returns false if any worker
  /// was down or died mid-scatter (partial replies are drained so
  /// sequencing survives). A worker-side CheckError is rethrown after the
  /// drain -- the caller's request was bad, the workers are fine.
  template <typename Reply>
  bool Scatter(MsgKind kind, const std::string& payload, MsgKind expect,
               std::vector<Reply>* replies);

  /// Merges per-worker chain rows by variable -- the unsharded row order --
  /// and renders them through a scratch pool (annotations of the
  /// distributable fragment are single variables, so the rendering matches
  /// the replica's).
  QueryRun GatherChainRows(const Schema& schema,
                           std::vector<ChainResultMsg> replies);

  /// The local fallback for a distributable chain: evaluate on the
  /// replica, compute per-row probabilities through the identical isolated
  /// pipeline. Bit-identical values; chains intern nothing, so the
  /// replica's pool is undisturbed.
  QueryRun EvalChainLocally(const Query& q);

  /// Every worker's partition of `name`, routed from the replica.
  std::vector<LoadPartitionMsg> PartitionsOf(const std::string& name) const;

  void DeleteRowAt(const std::string& table, size_t row_index);

  RemoteView* FindRemoteView(const std::string& name);
  std::string DownWarning(const char* what) const;

  /// Bumps the per-shard scatter-request counter "coord.shard<N>.requests"
  /// (counter pointers resolved lazily and cached; no-op with metrics
  /// disabled).
  void CountShardRequest(size_t s);

  /// Marks `s` down after a state-divergence error (a healthy worker
  /// rejected a mutation it should have accepted -- its replica state can
  /// no longer be trusted).
  void MarkDiverged(size_t s, const std::string& why);

  /// Heartbeat-plane bookkeeping for one worker (armed by
  /// ConfigureFaultTolerance).
  struct WorkerHealthState {
    int misses = 0;  ///< Consecutive missed beats; 0 while healthy.
    bool circuit_open = false;  ///< Cached breaker verdict (for Health()).
    uint64_t next_respawn_at_ms = 0;  ///< Backoff gate for the next attempt.
    ExponentialBackoff respawn_backoff;
    std::unique_ptr<CircuitBreaker> breaker;
  };

  SemiringKind semiring_;
  FnvShardRouter router_;
  Database local_;
  std::vector<RemoteShard> workers_;
  WorkerSpawner spawner_;
  std::vector<ShardLog> logs_;  ///< One applied-mutation log per shard.
  size_t logged_vars_ = 0;      ///< Variables covered by kSyncVars entries.
  bool replaying_ = false;      ///< Recovery replay: log, don't send.
  /// Per sharded table: the key column rows are routed by.
  std::map<std::string, size_t> key_columns_;
  std::vector<RemoteView> remote_views_;
  /// Lazily resolved "coord.shard<N>.requests" counters, one per shard.
  std::vector<Counter*> shard_request_counters_;
  FaultToleranceOptions ft_options_;
  /// Empty until ConfigureFaultTolerance; one entry per worker afterwards.
  std::vector<WorkerHealthState> health_;
  uint64_t next_ping_nonce_ = 1;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_COORDINATOR_H_
