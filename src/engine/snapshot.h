// Point-in-time snapshots and crash recovery (the durability layer's
// upper half; the WAL is the lower half, src/engine/wal.h).
//
// A snapshot serializes an engine's complete logical state -- semiring,
// shard topology, the variable registry in creation order with current
// marginals, every base table with its row variables and routing key, and
// every registered view -- as a *rebuild script* of WAL ops. Restoring a
// snapshot replays that script through the engine's rebuild hooks, the
// exact replay shape whose bit-identity to a live mutated engine the IVM
// oracle (tests/ivm_test.cc) proves. Materialized view caches are not
// persisted: re-registering the views rebuilds step I results and step II
// caches from scratch, bit-identical to the never-crashed engine.
//
// DurableSession ties the two halves together. A durable directory holds
// one active generation g:
//
//   snapshot-0000000g       full state when the generation opened
//   wal-0000000g.log        every mutation since
//
// Recovery picks the newest generation whose snapshot validates, rebuilds
// the engine from it, truncates the WAL's torn tail (first bad length /
// CRC / payload), replays the surviving records, and resumes appending.
// Checkpoint() writes generation g+1 (tmp file + atomic rename), switches
// to a fresh WAL and deletes generation g -- a crash anywhere in between
// leaves at least one recoverable generation on disk.

#ifndef PVCDB_ENGINE_SNAPSHOT_H_
#define PVCDB_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/engine/wal.h"
#include "src/util/io.h"

namespace pvcdb {

class Coordinator;

/// An engine's complete logical state: topology plus the rebuild script
/// (kRegisterVariable ops in creation order, then kCreateTable per table,
/// then kRegisterView in registration order).
struct EngineState {
  SemiringKind semiring = SemiringKind::kBool;
  uint64_t num_shards = 0;  ///< 0 = single Database, else ShardedDatabase.
  std::vector<WalOp> ops;
  /// Server mode only: per-shard (end_lsn, end_chain) of the coordinator's
  /// mutation logs at capture time -- the durability position a caught-up
  /// worker holds. Recovery rebases the rebuilt logs here
  /// (Coordinator::RebaseShardLogs) so workers that survived the restart
  /// tail-resync across the checkpoint instead of taking a full rebuild.
  /// Empty for non-coordinator captures and for v1 (PVCSNP01) snapshots.
  std::vector<std::pair<uint64_t, uint32_t>> shard_tails;
};

/// Captures the engine's current logical state.
EngineState CaptureState(const Database& db);
EngineState CaptureState(const ShardedDatabase& db);
/// Server mode: the coordinator's replica plus its placement bookkeeping
/// (key columns, remote chain views) describe the full logical state.
EngineState CaptureState(const Coordinator& coordinator);

/// Applies one replayable op to exactly one engine (`db` or `sharded`
/// non-null). kReshard is a topology change, handled by RebuildEngine.
void ApplyWalOp(const WalOp& op, Database* db, ShardedDatabase* sharded);

/// Rebuilds the engine held in `*db` or `*sharded` (exactly one set) at
/// `num_shards` shards (0 = single Database): captures its state, replays
/// it into a fresh engine and carries the evaluation / compile options
/// over. Reads no file, so a table whose CSV is gone survives. The old
/// engine is replaced only once the new one is complete.
void RebuildEngine(uint64_t num_shards, std::unique_ptr<Database>* db,
                   std::unique_ptr<ShardedDatabase>* sharded);

/// Serializes `state` into a self-validating snapshot file image
/// (magic + length + CRC32C + body).
std::string EncodeSnapshot(const EngineState& state);

/// Validates and decodes a snapshot file image; false when the image is
/// torn, corrupt or malformed (recovery then falls back to the previous
/// generation).
bool DecodeSnapshot(const std::string& data, EngineState* state);

struct DurableConfig {
  std::string dir;
  FileSystem* fs = nullptr;  ///< DefaultFileSystem() when null.
  bool sync = false;         ///< fsync after every WAL append / snapshot.
};

struct DurableStats {
  uint32_t generation = 0;
  bool recovered = false;       ///< Opened via Recover().
  bool tail_truncated = false;  ///< Recovery cut a torn WAL tail.
  uint64_t replayed_records = 0;
  uint64_t wal_records = 0;  ///< Including replayed ones.
  uint64_t wal_bytes = 0;
};

/// One durable engine: owns the Database *or* ShardedDatabase, the active
/// WAL writer, and the generation protocol of the directory.
class DurableSession {
 public:
  /// True when `dir` holds at least one snapshot file (valid or not).
  static bool HasState(FileSystem* fs, const std::string& dir);

  /// Starts a fresh durable directory at generation 0 holding `initial`
  /// (typically CaptureState of a live engine being made durable). Fails
  /// when the directory already holds state. nullptr + `*error` on failure.
  static std::unique_ptr<DurableSession> Create(const DurableConfig& config,
                                                const EngineState& initial,
                                                std::string* error);

  /// Recovers from an existing durable directory: newest valid snapshot,
  /// torn WAL tail truncated, surviving records replayed.
  static std::unique_ptr<DurableSession> Recover(const DurableConfig& config,
                                                 std::string* error);

  /// Attached mode (server durability): the session wraps an externally
  /// owned Coordinator instead of owning an engine. CreateAttached starts
  /// a fresh directory from the coordinator's current state (typically
  /// blank at server startup); RecoverAttached replays the newest snapshot
  /// + WAL tail INTO the coordinator (which must be freshly constructed)
  /// with its replay mode set, so nothing is sent to workers -- the server
  /// calls Coordinator::ReconcileWorkers afterwards. Topology is
  /// deployment configuration in this mode: Reshard() fails and recovered
  /// kReshard records are ignored (history re-partitions over the current
  /// worker set).
  static std::unique_ptr<DurableSession> CreateAttached(
      const DurableConfig& config, Coordinator* coordinator,
      std::string* error);
  static std::unique_ptr<DurableSession> RecoverAttached(
      const DurableConfig& config, Coordinator* coordinator,
      std::string* error);

  ~DurableSession();

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  bool is_sharded() const { return sharded_ != nullptr; }
  Database* db() { return db_.get(); }
  ShardedDatabase* sharded() { return sharded_.get(); }
  bool attached() const { return attached_ != nullptr; }

  /// The active WAL writer (group-commit callers use WalWriter::Sync to
  /// batch fsyncs; see ServerConfig::group_commit_ms).
  WalWriter* wal() { return wal_.get(); }

  /// Writes generation g+1 (snapshot of the current state + fresh WAL) and
  /// deletes generation g. On failure the session keeps running on the old
  /// generation.
  bool Checkpoint(std::string* error);

  /// Logs a kReshard record and rebuilds the engine with `num_shards`
  /// shards (0 = single Database), preserving evaluation / compile options.
  /// Replayed on recovery, so the topology survives restarts.
  bool Reshard(uint64_t num_shards, std::string* error);

  DurableStats stats() const;
  const std::string& dir() const { return config_.dir; }

 private:
  explicit DurableSession(DurableConfig config);

  static std::unique_ptr<DurableSession> RecoverImpl(
      const DurableConfig& config, Coordinator* attached, std::string* error);

  std::string SnapshotPath(uint32_t generation) const;
  std::string WalPath(uint32_t generation) const;
  uint64_t CurrentShardCount() const;
  EngineState CaptureCurrent() const;
  /// Rebuilds db_/sharded_ from `state` (WAL detached during the rebuild).
  void BuildFromState(const EngineState& state);
  void AttachWal();
  bool WriteSnapshot(uint32_t generation, const EngineState& state,
                     std::string* error);
  /// Best-effort removal of all generation files except `keep`.
  void RemoveOtherGenerations(uint32_t keep);

  DurableConfig config_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShardedDatabase> sharded_;
  Coordinator* attached_ = nullptr;  ///< Externally owned (server mode).
  std::unique_ptr<WalWriter> wal_;
  uint32_t generation_ = 0;
  bool recovered_ = false;
  bool tail_truncated_ = false;
  uint64_t replayed_records_ = 0;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_SNAPSHOT_H_
