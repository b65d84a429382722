#include "src/engine/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/engine/coordinator.h"
#include "src/util/check.h"
#include "src/util/codec.h"
#include "src/util/crc32c.h"
#include "src/util/metrics.h"

namespace pvcdb {
namespace {

// v2 prepends the per-shard (end_lsn, end_chain) tails to the op script;
// v1 snapshots (no tails) still decode, they just cost surviving workers a
// full resync after the restart.
constexpr char kSnapshotMagic[] = "PVCSNP02";
constexpr char kSnapshotMagicV1[] = "PVCSNP01";
constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = 16;  // magic + u32 body_len + u32 crc.

std::string GenerationSuffix(uint32_t generation) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08u", generation);
  return buffer;
}

bool ParseGeneration(const std::string& name, const std::string& prefix,
                     const std::string& suffix, uint32_t* generation) {
  if (name.size() != prefix.size() + 8 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(prefix.size() + 8, suffix.size(), suffix) != 0) {
    return false;
  }
  uint32_t g = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    g = g * 10 + static_cast<uint32_t>(name[i] - '0');
  }
  *generation = g;
  return true;
}

bool ParseSnapshotName(const std::string& name, uint32_t* generation) {
  return ParseGeneration(name, "snapshot-", "", generation);
}

bool ParseWalName(const std::string& name, uint32_t* generation) {
  return ParseGeneration(name, "wal-", ".log", generation);
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

void CaptureVariables(const VariableTable& variables,
                      std::vector<WalOp>* ops) {
  for (VarId id = 0; id < variables.size(); ++id) {
    ops->push_back(WalOp::RegisterVariable(variables.NameOf(id),
                                           variables.DistributionOf(id)));
  }
}

std::vector<std::vector<Cell>> RowCells(const PvcTable& table) {
  std::vector<std::vector<Cell>> rows;
  rows.reserve(table.NumRows());
  for (const Row& row : table.rows()) rows.push_back(row.cells);
  return rows;
}

std::vector<VarId> RowVariables(const ExprPool& pool, const PvcTable& table) {
  std::vector<VarId> vars;
  vars.reserve(table.NumRows());
  for (const Row& row : table.rows()) {
    const ExprNode& node = pool.node(row.annotation);
    PVC_CHECK_MSG(node.kind == ExprKind::kVar,
                  "only variable-annotated base-table rows are durable");
    vars.push_back(node.var());
  }
  return vars;
}

}  // namespace

EngineState CaptureState(const Database& db) {
  EngineState state;
  state.semiring = db.pool().semiring().kind();
  state.num_shards = 0;
  CaptureVariables(db.variables(), &state.ops);
  for (const std::string& name : db.TableNames()) {
    const PvcTable& table = db.table(name);
    state.ops.push_back(WalOp::CreateTable(name, table.schema(), "",
                                           RowCells(table),
                                           RowVariables(db.pool(), table)));
  }
  for (const std::string& name : db.ViewNames()) {
    state.ops.push_back(WalOp::RegisterView(name, db.views().view(name).query()));
  }
  return state;
}

EngineState CaptureState(const ShardedDatabase& db) {
  EngineState state;
  state.semiring = db.coordinator().pool().semiring().kind();
  state.num_shards = db.num_shards();
  CaptureVariables(db.variables(), &state.ops);
  for (const std::string& name : db.TableNames()) {
    const PvcTable& table = db.coordinator().table(name);
    state.ops.push_back(WalOp::CreateTable(
        name, table.schema(), db.KeyColumnName(name), RowCells(table),
        RowVariables(db.coordinator().pool(), table)));
  }
  for (const auto& [name, query] : db.ViewCatalog()) {
    state.ops.push_back(WalOp::RegisterView(name, query));
  }
  return state;
}

EngineState CaptureState(const Coordinator& coordinator) {
  EngineState state;
  state.semiring = coordinator.local().pool().semiring().kind();
  state.num_shards = coordinator.num_shards();
  CaptureVariables(coordinator.local().variables(), &state.ops);
  for (const std::string& name : coordinator.TableNames()) {
    const PvcTable& table = coordinator.local().table(name);
    state.ops.push_back(WalOp::CreateTable(
        name, table.schema(), coordinator.KeyColumnName(name),
        RowCells(table), RowVariables(coordinator.local().pool(), table)));
  }
  for (const auto& [name, query] : coordinator.ViewCatalog()) {
    state.ops.push_back(WalOp::RegisterView(name, query));
  }
  // Record where the shard logs end: recovery rebases its rebuilt logs to
  // these positions so surviving workers keep their tail-resync proof.
  state.shard_tails = coordinator.ShardTails();
  return state;
}

void ApplyWalOp(const WalOp& op, Database* db, ShardedDatabase* sharded) {
  PVC_CHECK_MSG((db == nullptr) != (sharded == nullptr),
                "replay needs exactly one engine");
  switch (op.type) {
    case WalOpType::kRegisterVariable: {
      VariableTable& variables =
          db != nullptr ? db->variables() : sharded->variables();
      VarId id = variables.Add(op.distribution, op.name);
      // Intern the variable in creation order -- the rebuild contract the
      // IVM oracle verifies (and what a live engine does on insert).
      ExprPool& pool =
          db != nullptr ? db->pool() : sharded->coordinator().pool();
      pool.Var(id);
      return;
    }
    case WalOpType::kCreateTable:
      if (db != nullptr) {
        db->AddVariableAnnotatedTable(op.name, op.schema, op.rows, op.vars);
      } else {
        sharded->AddVariableAnnotatedTable(op.name, op.schema, op.rows,
                                           op.vars, op.key_column);
      }
      return;
    case WalOpType::kInsertRow:
      if (db != nullptr) {
        PVC_CHECK_MSG(op.var < db->variables().size(),
                      "kInsertRow references unknown variable " << op.var);
        db->AppendRowToTable(op.name, op.cells, db->pool().Var(op.var));
      } else {
        sharded->AppendRowToTable(op.name, op.cells, op.var);
      }
      return;
    case WalOpType::kDeleteRow:
      if (db != nullptr) {
        db->DeleteRowAt(op.name, static_cast<size_t>(op.row_index));
      } else {
        sharded->DeleteRowAt(op.name, static_cast<size_t>(op.row_index));
      }
      return;
    case WalOpType::kUpdateProbability:
      if (db != nullptr) {
        db->UpdateProbability(op.var, op.probability);
      } else {
        sharded->UpdateProbability(op.var, op.probability);
      }
      return;
    case WalOpType::kRegisterView:
      if (db != nullptr) {
        db->RegisterView(op.name, op.query);
      } else {
        sharded->RegisterView(op.name, op.query);
      }
      return;
    case WalOpType::kDropView:
      if (db != nullptr) {
        db->DropView(op.name);
      } else {
        sharded->DropView(op.name);
      }
      return;
    case WalOpType::kReshard:
      break;
  }
  PVC_FAIL("kReshard is a topology change handled by RebuildEngine");
}

namespace {

// Builds a fresh engine from `state` into the slot its topology names,
// resetting the other one.
void BuildEngine(const EngineState& state, std::unique_ptr<Database>* db,
                 std::unique_ptr<ShardedDatabase>* sharded) {
  db->reset();
  sharded->reset();
  if (state.num_shards == 0) {
    *db = std::make_unique<Database>(state.semiring);
  } else {
    *sharded = std::make_unique<ShardedDatabase>(
        static_cast<size_t>(state.num_shards), state.semiring);
  }
  for (const WalOp& op : state.ops) ApplyWalOp(op, db->get(), sharded->get());
}

}  // namespace

void RebuildEngine(uint64_t num_shards, std::unique_ptr<Database>* db,
                   std::unique_ptr<ShardedDatabase>* sharded) {
  PVC_CHECK_MSG((*db == nullptr) != (*sharded == nullptr),
                "rebuild needs exactly one engine");
  EngineState state =
      *db != nullptr ? CaptureState(**db) : CaptureState(**sharded);
  state.num_shards = num_shards;
  EvalOptions eval =
      *db != nullptr ? (*db)->eval_options() : (*sharded)->eval_options();
  CompileOptions compile = *db != nullptr ? (*db)->compile_options()
                                          : (*sharded)->compile_options();
  std::unique_ptr<Database> next_db;
  std::unique_ptr<ShardedDatabase> next_sharded;
  BuildEngine(state, &next_db, &next_sharded);
  (next_db != nullptr ? next_db->eval_options()
                      : next_sharded->eval_options()) = eval;
  (next_db != nullptr ? next_db->compile_options()
                      : next_sharded->compile_options()) = compile;
  *db = std::move(next_db);
  *sharded = std::move(next_sharded);
}

std::string EncodeSnapshot(const EngineState& state) {
  std::string body;
  EncodeU8(&body, static_cast<uint8_t>(state.semiring));
  EncodeU64(&body, state.num_shards);
  EncodeU64(&body, state.shard_tails.size());
  for (const auto& [lsn, chain] : state.shard_tails) {
    EncodeU64(&body, lsn);
    EncodeU32(&body, chain);
  }
  body += EncodeWalOps(state.ops);
  std::string out(kSnapshotMagic, kMagicSize);
  EncodeU32(&out, static_cast<uint32_t>(body.size()));
  EncodeU32(&out, Crc32c(body));
  out += body;
  return out;
}

bool DecodeSnapshot(const std::string& data, EngineState* state) {
  if (data.size() < kHeaderSize) return false;
  bool v1 = data.compare(0, kMagicSize, kSnapshotMagicV1, kMagicSize) == 0;
  if (!v1 && data.compare(0, kMagicSize, kSnapshotMagic, kMagicSize) != 0) {
    return false;
  }
  ByteReader header(data.data() + kMagicSize, 8);
  uint32_t body_len = header.ReadU32();
  uint32_t crc = header.ReadU32();
  if (kHeaderSize + static_cast<uint64_t>(body_len) != data.size()) {
    return false;
  }
  std::string body = data.substr(kHeaderSize);
  if (Crc32c(body) != crc) return false;
  ByteReader reader(body);
  uint8_t semiring = reader.ReadU8();
  if (semiring > static_cast<uint8_t>(SemiringKind::kNatural)) return false;
  state->semiring = static_cast<SemiringKind>(semiring);
  state->num_shards = reader.ReadU64();
  state->shard_tails.clear();
  if (!v1) {
    uint64_t tails = reader.ReadU64();
    if (!reader.ok() || tails > (1u << 20)) return false;
    state->shard_tails.reserve(static_cast<size_t>(tails));
    for (uint64_t i = 0; i < tails; ++i) {
      uint64_t lsn = reader.ReadU64();
      uint32_t chain = reader.ReadU32();
      state->shard_tails.emplace_back(lsn, chain);
    }
  }
  if (!reader.ok()) return false;
  if (!DecodeWalOps(body.substr(reader.position()), &state->ops)) {
    return false;
  }
  for (const WalOp& op : state->ops) {
    if (op.type == WalOpType::kReshard) return false;
  }
  return true;
}

DurableSession::DurableSession(DurableConfig config)
    : config_(std::move(config)) {}

DurableSession::~DurableSession() {
  if (db_ != nullptr) db_->set_wal(nullptr);
  if (sharded_ != nullptr) sharded_->set_wal(nullptr);
  if (attached_ != nullptr) attached_->set_wal(nullptr);
}

std::string DurableSession::SnapshotPath(uint32_t generation) const {
  return JoinPath(config_.dir, "snapshot-" + GenerationSuffix(generation));
}

std::string DurableSession::WalPath(uint32_t generation) const {
  return JoinPath(config_.dir, "wal-" + GenerationSuffix(generation) + ".log");
}

uint64_t DurableSession::CurrentShardCount() const {
  if (attached_ != nullptr) return attached_->num_shards();
  return sharded_ != nullptr ? sharded_->num_shards() : 0;
}

EngineState DurableSession::CaptureCurrent() const {
  if (attached_ != nullptr) return CaptureState(*attached_);
  return db_ != nullptr ? CaptureState(*db_) : CaptureState(*sharded_);
}

void DurableSession::BuildFromState(const EngineState& state) {
  if (attached_ != nullptr) {
    // Attached mode replays INTO the externally owned (freshly
    // constructed) coordinator; the snapshot's recorded shard count is
    // deliberately ignored -- topology is deployment configuration.
    for (const WalOp& op : state.ops) attached_->ApplyRecoveredOp(op);
    return;
  }
  BuildEngine(state, &db_, &sharded_);
}

void DurableSession::AttachWal() {
  if (db_ != nullptr) db_->set_wal(wal_.get());
  if (sharded_ != nullptr) sharded_->set_wal(wal_.get());
  if (attached_ != nullptr) attached_->set_wal(wal_.get());
}

bool DurableSession::WriteSnapshot(uint32_t generation,
                                   const EngineState& state,
                                   std::string* error) {
  std::string image = EncodeSnapshot(state);
  std::string path = SnapshotPath(generation);
  std::string tmp = path + ".tmp";
  if (config_.fs->FileExists(tmp)) config_.fs->Remove(tmp, nullptr);
  std::unique_ptr<WritableFile> file = config_.fs->OpenForAppend(tmp, error);
  if (file == nullptr) return false;
  if (!file->Append(image.data(), image.size()) || !file->Close()) {
    SetError(error, "cannot write snapshot '" + tmp + "'");
    return false;
  }
  // Publish atomically: a crash before the rename leaves only the tmp
  // file, which recovery ignores.
  return config_.fs->Rename(tmp, path, error);
}

void DurableSession::RemoveOtherGenerations(uint32_t keep) {
  for (const std::string& name : config_.fs->ListDir(config_.dir)) {
    uint32_t generation = 0;
    bool matched = ParseSnapshotName(name, &generation) ||
                   ParseWalName(name, &generation);
    bool debris = name.size() > 4 &&
                  name.compare(name.size() - 4, 4, ".tmp") == 0;
    if ((matched && generation != keep) || debris) {
      config_.fs->Remove(JoinPath(config_.dir, name), nullptr);
    }
  }
}

bool DurableSession::HasState(FileSystem* fs, const std::string& dir) {
  for (const std::string& name : fs->ListDir(dir)) {
    uint32_t generation = 0;
    if (ParseSnapshotName(name, &generation)) return true;
  }
  return false;
}

std::unique_ptr<DurableSession> DurableSession::Create(
    const DurableConfig& config, const EngineState& initial,
    std::string* error) {
  DurableConfig cfg = config;
  if (cfg.fs == nullptr) cfg.fs = DefaultFileSystem();
  if (!cfg.fs->CreateDir(cfg.dir, error)) return nullptr;
  if (HasState(cfg.fs, cfg.dir)) {
    SetError(error, "'" + cfg.dir +
                        "' already holds a durable database; recover it "
                        "instead of creating over it");
    return nullptr;
  }
  std::unique_ptr<DurableSession> session(new DurableSession(cfg));
  if (!session->WriteSnapshot(0, initial, error)) return nullptr;
  session->BuildFromState(initial);
  std::string wal_path = session->WalPath(0);
  if (cfg.fs->FileExists(wal_path)) cfg.fs->Remove(wal_path, nullptr);
  session->wal_ = WalWriter::Open(cfg.fs, wal_path, 0, 0, cfg.sync, error);
  if (session->wal_ == nullptr) return nullptr;
  session->AttachWal();
  return session;
}

std::unique_ptr<DurableSession> DurableSession::CreateAttached(
    const DurableConfig& config, Coordinator* coordinator,
    std::string* error) {
  DurableConfig cfg = config;
  if (cfg.fs == nullptr) cfg.fs = DefaultFileSystem();
  if (!cfg.fs->CreateDir(cfg.dir, error)) return nullptr;
  if (HasState(cfg.fs, cfg.dir)) {
    SetError(error, "'" + cfg.dir +
                        "' already holds a durable database; recover it "
                        "instead of creating over it");
    return nullptr;
  }
  std::unique_ptr<DurableSession> session(new DurableSession(cfg));
  session->attached_ = coordinator;
  // The coordinator IS the live engine: snapshot its current state (blank
  // at a fresh server start), no rebuild needed.
  if (!session->WriteSnapshot(0, CaptureState(*coordinator), error)) {
    return nullptr;
  }
  std::string wal_path = session->WalPath(0);
  if (cfg.fs->FileExists(wal_path)) cfg.fs->Remove(wal_path, nullptr);
  session->wal_ = WalWriter::Open(cfg.fs, wal_path, 0, 0, cfg.sync, error);
  if (session->wal_ == nullptr) return nullptr;
  session->AttachWal();
  return session;
}

std::unique_ptr<DurableSession> DurableSession::Recover(
    const DurableConfig& config, std::string* error) {
  return RecoverImpl(config, nullptr, error);
}

std::unique_ptr<DurableSession> DurableSession::RecoverAttached(
    const DurableConfig& config, Coordinator* coordinator,
    std::string* error) {
  return RecoverImpl(config, coordinator, error);
}

std::unique_ptr<DurableSession> DurableSession::RecoverImpl(
    const DurableConfig& config, Coordinator* attached, std::string* error) {
  DurableConfig cfg = config;
  if (cfg.fs == nullptr) cfg.fs = DefaultFileSystem();

  // Newest generation whose snapshot validates wins. An invalid newer
  // snapshot (torn checkpoint) falls back to the previous generation,
  // whose WAL still holds everything.
  std::vector<uint32_t> generations;
  for (const std::string& name : cfg.fs->ListDir(cfg.dir)) {
    uint32_t generation = 0;
    if (ParseSnapshotName(name, &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.rbegin(), generations.rend());
  std::unique_ptr<DurableSession> session(new DurableSession(cfg));
  bool found = false;
  EngineState state;
  for (uint32_t generation : generations) {
    std::string data;
    if (!cfg.fs->ReadFile(session->SnapshotPath(generation), &data,
                          nullptr)) {
      continue;
    }
    if (DecodeSnapshot(data, &state)) {
      session->generation_ = generation;
      found = true;
      break;
    }
  }
  if (!found) {
    SetError(error, "no valid snapshot found in '" + cfg.dir + "'");
    return nullptr;
  }
  session->recovered_ = true;
  session->attached_ = attached;
  // Attached replay suppresses worker sends: the logs rebuild exactly as a
  // never-crashed coordinator's would, and ReconcileWorkers squares any
  // surviving workers up against them afterwards.
  if (attached != nullptr) attached->BeginReplay();
  session->BuildFromState(state);
  if (attached != nullptr && !state.shard_tails.empty()) {
    // Re-anchor the rebuilt shard logs at the positions the snapshot's live
    // workers held, BEFORE the WAL tail replays on top: the tail's entries
    // then extend the logs with continuous (lsn, chain) history, and
    // workers that survived the restart prove a (possibly empty) tail
    // instead of taking a full resync across the checkpoint. No-op when
    // the recorded tail count does not match the current topology.
    attached->RebaseShardLogs(state.shard_tails);
  }

  std::string wal_path = session->WalPath(session->generation_);
  WalReadResult wal = ReadWal(cfg.fs, wal_path);
  if (!wal.error.empty()) {
    if (attached != nullptr) attached->EndReplay();
    SetError(error, wal.error);
    return nullptr;
  }
  uint64_t valid_bytes = wal.magic_valid ? wal.valid_bytes : 0;
  if (wal.file_exists && wal.torn_tail) {
    // Cut the torn record (or torn magic) so the file is a pure prefix of
    // whole records again before we append to it.
    if (!cfg.fs->Truncate(wal_path, valid_bytes, error)) {
      if (attached != nullptr) attached->EndReplay();
      return nullptr;
    }
    session->tail_truncated_ = true;
  }
  for (const WalRecord& record : wal.records) {
    for (const WalOp& op : record.ops) {
      if (op.type == WalOpType::kReshard) {
        // Attached mode ignores recorded topology (deployment config);
        // the replayed history re-partitions over the current workers.
        if (attached == nullptr) {
          RebuildEngine(op.num_shards, &session->db_, &session->sharded_);
        }
      } else if (attached != nullptr) {
        attached->ApplyRecoveredOp(op);
      } else {
        ApplyWalOp(op, session->db_.get(), session->sharded_.get());
      }
    }
  }
  if (attached != nullptr) attached->EndReplay();
  session->replayed_records_ = wal.records.size();
  PVCDB_COUNTER_ADD("wal.recovery_replayed_records", wal.records.size());
  session->wal_ = WalWriter::Open(cfg.fs, wal_path, valid_bytes,
                                  wal.records.size(), cfg.sync, error);
  if (session->wal_ == nullptr) return nullptr;
  session->AttachWal();
  session->RemoveOtherGenerations(session->generation_);
  return session;
}

bool DurableSession::Reshard(uint64_t num_shards, std::string* error) {
  if (attached_ != nullptr) {
    SetError(error,
             "reshard is unavailable in server mode (topology is "
             "deployment configuration)");
    return false;
  }
  if (num_shards == CurrentShardCount()) return true;
  WalRecord record;
  record.ops.push_back(WalOp::Reshard(num_shards));
  if (!wal_->Append(record)) {
    SetError(error, "WAL append to '" + wal_->path() + "' failed");
    return false;
  }
  RebuildEngine(num_shards, &db_, &sharded_);
  AttachWal();
  return true;
}

bool DurableSession::Checkpoint(std::string* error) {
  EngineState state = CaptureCurrent();
  uint32_t next = generation_ + 1;
  if (!WriteSnapshot(next, state, error)) return false;
  std::string wal_path = WalPath(next);
  if (config_.fs->FileExists(wal_path)) config_.fs->Remove(wal_path, nullptr);
  std::unique_ptr<WalWriter> next_wal =
      WalWriter::Open(config_.fs, wal_path, 0, 0, config_.sync, error);
  if (next_wal == nullptr) return false;
  wal_ = std::move(next_wal);
  AttachWal();
  generation_ = next;
  recovered_ = false;
  tail_truncated_ = false;
  replayed_records_ = 0;
  RemoveOtherGenerations(next);
  return true;
}

DurableStats DurableSession::stats() const {
  DurableStats stats;
  stats.generation = generation_;
  stats.recovered = recovered_;
  stats.tail_truncated = tail_truncated_;
  stats.replayed_records = replayed_records_;
  stats.wal_records = wal_ != nullptr ? wal_->records() : 0;
  stats.wal_bytes = wal_ != nullptr ? wal_->bytes() : 0;
  return stats;
}

}  // namespace pvcdb
