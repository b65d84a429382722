#include "src/engine/shard_worker.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/engine/shard.h"
#include "src/engine/view.h"
#include "src/net/frame.h"
#include "src/util/check.h"
#include "src/util/codec.h"
#include "src/util/crc32c.h"
#include "src/util/metrics.h"

namespace pvcdb {

ShardWorker::ShardWorker(const HelloMsg& hello)
    : db_(std::make_unique<Database>(hello.semiring)),
      semiring_(hello.semiring),
      shard_index_(hello.shard_index),
      num_shards_(hello.num_shards) {}

bool ShardWorker::IsLoggedMutation(MsgKind kind) {
  switch (kind) {
    case MsgKind::kSyncVars:
    case MsgKind::kUpdateVar:
    case MsgKind::kLoadPartition:
    case MsgKind::kAppendRow:
    case MsgKind::kDeleteRow:
    case MsgKind::kRegisterChainView:
    case MsgKind::kDropChainView:
      return true;
    default:
      return false;
  }
}

uint32_t ShardWorker::NextChain(uint32_t chain, MsgKind kind,
                                const std::string& payload) {
  // Chain over a fixed-size digest instead of the raw payload so the cost
  // per entry is one extra CRC over 9 bytes; the payload digest itself
  // already pins every byte.
  std::string link;
  EncodeU32(&link, chain);
  EncodeU32(&link, Crc32c(payload));
  EncodeU8(&link, static_cast<uint8_t>(kind));
  return Crc32c(link);
}

void ShardWorker::ResetState() {
  db_ = std::make_unique<Database>(semiring_);
  tables_.clear();
  views_.clear();
  lsn_ = 0;
  chain_ = 0;
}

bool ShardWorker::MatchesHello(const HelloMsg& hello) const {
  return hello.semiring == semiring_ && hello.shard_index == shard_index_ &&
         hello.num_shards == num_shards_;
}

ShardWorker::TableState& ShardWorker::StateOf(const std::string& table) {
  auto it = tables_.find(table);
  PVC_CHECK_MSG(it != tables_.end(),
                "worker " << shard_index_ << " has no partition of '"
                          << table << "'");
  return it->second;
}

void ShardWorker::HandleSyncVars(const SyncVarsMsg& msg) {
  // Variables are append-only and replayed in Add order; ids line up with
  // the coordinator's exactly when the runs arrive contiguously.
  PVC_CHECK_MSG(msg.first_id == db_->variables().size(),
                "variable sync gap: worker has " << db_->variables().size()
                                                 << " variables, run starts at "
                                                 << msg.first_id);
  for (const VarSyncEntry& entry : msg.entries) {
    db_->variables().Add(entry.distribution, entry.name);
  }
}

void ShardWorker::HandleUpdateVar(const UpdateVarMsg& msg) {
  PVC_CHECK_MSG(msg.var < db_->variables().size(),
                "unknown variable id " << msg.var);
  // The same refresh-or-drop decision ShardedDatabase::UpdateProbability
  // makes for its per-shard view caches.
  bool same_support = SameSupport(db_->variables().DistributionOf(msg.var),
                                  Distribution::Bernoulli(msg.probability));
  db_->UpdateProbability(msg.var, msg.probability);
  const Semiring& semiring = db_->pool().semiring();
  for (auto& view : views_) {
    view->cache.OnVariableUpdate(msg.var, db_->variables(), semiring,
                                 same_support);
  }
}

uint64_t ShardWorker::HandleLoadPartition(const LoadPartitionMsg& msg) {
  PVC_CHECK_MSG(msg.rows.size() == msg.vars.size() &&
                    msg.rows.size() == msg.global_rows.size(),
                "partition rows/vars/global_rows disagree");
  // Mirror PartitionLoadedTable's shard half: re-intern each row's shared
  // variable into this worker's pool.
  PvcTable part{msg.schema};
  for (size_t i = 0; i < msg.rows.size(); ++i) {
    PVC_CHECK_MSG(msg.vars[i] < db_->variables().size(),
                  "partition row references unsynced variable "
                      << msg.vars[i]);
    part.AddRow(msg.rows[i], db_->pool().Var(msg.vars[i]));
  }
  db_->AddTable(msg.table, std::move(part));
  TableState& state = tables_[msg.table];
  state.global.assign(msg.global_rows.begin(), msg.global_rows.end());
  state.augmented_valid = false;
  for (auto& view : views_) {
    if (view->driving == msg.table) SeedView(view.get());
  }
  return msg.rows.size();
}

void ShardWorker::HandleAppendRow(const AppendRowMsg& msg) {
  TableState& state = StateOf(msg.table);
  PVC_CHECK_MSG(msg.var < db_->variables().size(),
                "append references unsynced variable " << msg.var);
  ExprId annotation = db_->pool().Var(msg.var);
  db_->AppendRowToTable(msg.table, msg.cells, annotation);
  state.global.push_back(static_cast<int64_t>(msg.global_row));
  // Appends carry the maximal global id, so the cached provenance-extended
  // partition extends in place (same as RouteAppendedRow).
  if (state.augmented_valid) {
    std::vector<Cell> extended = msg.cells;
    extended.emplace_back(static_cast<int64_t>(msg.global_row));
    state.augmented.AddRow(std::move(extended), annotation);
  }
  for (auto& view : views_) {
    if (view->driving == msg.table) {
      ApplyViewInsert(view.get(), static_cast<int64_t>(msg.global_row),
                      msg.cells, annotation);
    }
  }
}

void ShardWorker::HandleDeleteRow(const DeleteRowMsg& msg) {
  TableState& state = StateOf(msg.table);
  int64_t g = static_cast<int64_t>(msg.global_row);
  if (msg.has_local_row) {
    PVC_CHECK_MSG(msg.local_row < state.global.size(),
                  "delete of out-of-range local row " << msg.local_row);
    PVC_CHECK_MSG(state.global[msg.local_row] == g,
                  "delete provenance mismatch at local row "
                      << msg.local_row);
    db_->DeleteRowAt(msg.table, msg.local_row);
    state.global.erase(state.global.begin() +
                       static_cast<ptrdiff_t>(msg.local_row));
  }
  // Every worker shifts ids above the deleted global row -- the broadcast
  // half of ShardedDatabase::DeleteRowAt.
  for (int64_t& id : state.global) {
    if (id > g) --id;
  }
  state.augmented_valid = false;
  for (auto& view : views_) {
    if (view->driving == msg.table) ApplyViewDelete(view.get(), g);
  }
}

const PvcTable& ShardWorker::AugmentedPartition(const std::string& table) {
  TableState& state = StateOf(table);
  if (state.augmented_valid) return state.augmented;
  const PvcTable& partition = db_->table(table);
  PVC_CHECK_MSG(partition.NumRows() == state.global.size(),
                "partition and provenance sizes disagree for '" << table
                                                                << "'");
  std::vector<Column> columns = partition.schema().columns();
  columns.push_back({kShardRowIdColumn, CellType::kInt});
  PvcTable augmented{Schema(std::move(columns))};
  for (size_t j = 0; j < partition.NumRows(); ++j) {
    std::vector<Cell> cells = partition.row(j).cells;
    cells.emplace_back(state.global[j]);
    augmented.AddRow(std::move(cells), partition.row(j).annotation);
  }
  state.augmented = std::move(augmented);
  state.augmented_valid = true;
  return state.augmented;
}

void ShardWorker::EvalChainParts(const Query& q, const std::string& table,
                                 Schema* schema, PvcTable* part,
                                 std::vector<int64_t>* global) {
  const PvcTable& augmented = AugmentedPartition(table);
  QueryEvaluator evaluator(
      &db_->pool(),
      [&](const std::string& name) -> const PvcTable& {
        if (name == table) return augmented;
        return db_->table(name);
      },
      EvalMode::kProbabilistic, db_->eval_options());
  PvcTable result = [&] {
    PVCDB_SPAN(step1_span, "step1");
    return evaluator.Eval(q);
  }();

  size_t rowid_index = result.schema().IndexOf(kShardRowIdColumn);
  std::vector<Column> out_columns = result.schema().columns();
  out_columns.erase(out_columns.begin() + static_cast<ptrdiff_t>(rowid_index));
  *schema = Schema{std::move(out_columns)};
  PvcTable stripped{*schema};
  global->clear();
  for (size_t j = 0; j < result.NumRows(); ++j) {
    const Row& r = result.row(j);
    global->push_back(r.cells[rowid_index].AsInt());
    std::vector<Cell> cells = r.cells;
    cells.erase(cells.begin() + static_cast<ptrdiff_t>(rowid_index));
    stripped.AddRow(std::move(cells), r.annotation);
  }
  *part = std::move(stripped);
}

ChainResultMsg ShardWorker::HandleEvalChain(const EvalChainMsg& msg) {
  Schema schema;
  PvcTable part{Schema{}};
  std::vector<int64_t> global;
  EvalChainParts(*msg.query, msg.table, &schema, &part, &global);

  // Step II per surviving row: the shared pipeline, so the probability is
  // independent of this worker's pool history (bit-identity with the
  // in-process scatter).
  VariableTable::EvalScope scope(db_->variables());
  ChainResultMsg reply;
  reply.schema = schema;
  reply.rows.reserve(part.NumRows());
  const CompileOptions& compile_options = db_->compile_options();
  for (size_t j = 0; j < part.NumRows(); ++j) {
    const Row& r = part.row(j);
    const ExprNode& node = db_->pool().node(r.annotation);
    PVC_CHECK_MSG(node.kind == ExprKind::kVar,
                  "distributable chain produced a non-variable annotation");
    ChainRow row;
    row.global_row = static_cast<uint64_t>(global[j]);
    row.cells = r.cells;
    row.var = node.var();
    Distribution d = IsolatedAnnotationDistribution(
        db_->pool(), db_->variables(), r.annotation, compile_options);
    row.probability = NonZeroMass(d);
    if (msg.want_distributions) row.distribution = std::move(d);
    reply.rows.push_back(std::move(row));
  }
  return reply;
}

ProbsResultMsg ShardWorker::HandleTableProbs(const TableProbsMsg& msg) {
  TableState& state = StateOf(msg.table);
  const PvcTable& partition = db_->table(msg.table);
  VariableTable::EvalScope scope(db_->variables());
  ProbsResultMsg reply;
  reply.rows.reserve(partition.NumRows());
  const CompileOptions& compile_options = db_->compile_options();
  for (size_t j = 0; j < partition.NumRows(); ++j) {
    ProbRow row;
    row.global_row = static_cast<uint64_t>(state.global[j]);
    Distribution d = IsolatedAnnotationDistribution(
        db_->pool(), db_->variables(), partition.row(j).annotation,
        compile_options);
    row.probability = NonZeroMass(d);
    if (msg.want_distributions) row.distribution = std::move(d);
    reply.rows.push_back(std::move(row));
  }
  return reply;
}

ShardWorker::WorkerView* ShardWorker::FindView(const std::string& name) {
  for (auto& view : views_) {
    if (view->name == name) return view.get();
  }
  return nullptr;
}

void ShardWorker::SeedView(WorkerView* view) {
  EvalChainParts(*view->query, view->driving, &view->schema, &view->part,
                 &view->global);
  view->cache.Clear();
}

uint64_t ShardWorker::HandleRegisterChainView(RegisterChainViewMsg msg) {
  auto view = std::make_unique<WorkerView>();
  view->name = msg.name;
  view->driving = msg.table;
  view->query = std::move(msg.query);
  SeedView(view.get());
  uint64_t rows = view->part.NumRows();
  // Build-then-replace, like ShardedDatabase::RegisterView: a failed seed
  // above leaves any existing view of the name untouched.
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if ((*it)->name == view->name) {
      *it = std::move(view);
      return rows;
    }
  }
  views_.push_back(std::move(view));
  return rows;
}

void ShardWorker::ApplyViewInsert(WorkerView* view, int64_t global_row,
                                  const std::vector<Cell>& cells,
                                  ExprId annotation) {
  // The delta-row pipeline of ShardedDatabase::ApplyShardedViewInsert.
  const PvcTable& partition = db_->table(view->driving);
  std::vector<Column> columns = partition.schema().columns();
  columns.push_back({kShardRowIdColumn, CellType::kInt});
  Schema augmented{std::move(columns)};
  Row delta_row;
  delta_row.cells = cells;
  delta_row.cells.emplace_back(global_row);
  delta_row.annotation = annotation;
  std::optional<Row> out =
      EvalChainOnSingleRow(&db_->pool(), *view->query, view->driving,
                           augmented, delta_row, db_->eval_options());
  if (!out.has_value()) return;
  size_t rowid_index = partition.schema().NumColumns();
  PVC_CHECK_MSG(out->cells.size() == view->schema.NumColumns() + 1,
                "chain output arity does not match the view schema");
  out->cells.erase(out->cells.begin() + static_cast<ptrdiff_t>(rowid_index));
  view->part.AddRow(std::move(*out));
  view->global.push_back(global_row);
}

void ShardWorker::ApplyViewDelete(WorkerView* view, int64_t global_row) {
  // This shard's half of ApplyShardedViewDelete: drop the derived row if
  // this partition holds it, then shift later driving-row ids.
  auto pos = std::lower_bound(view->global.begin(), view->global.end(),
                              global_row);
  if (pos != view->global.end() && *pos == global_row) {
    size_t r = static_cast<size_t>(pos - view->global.begin());
    view->part.DeleteRow(r);
    view->global.erase(pos);
  }
  for (int64_t& id : view->global) {
    if (id > global_row) --id;
  }
}

ChainResultMsg ShardWorker::HandleViewProbs(const std::string& name) {
  WorkerView* view = FindView(name);
  PVC_CHECK_MSG(view != nullptr,
                "worker " << shard_index_ << " has no view '" << name << "'");
  VariableTable::EvalScope scope(db_->variables());
  // The cached per-shard pass of ShardedDatabase::ViewProbabilities.
  std::vector<double> probs =
      view->cache.Probabilities(db_->pool(), db_->variables(), view->part,
                                db_->compile_options(), db_->eval_options());
  ChainResultMsg reply;
  reply.schema = view->schema;
  reply.rows.reserve(view->part.NumRows());
  for (size_t j = 0; j < view->part.NumRows(); ++j) {
    const Row& r = view->part.row(j);
    const ExprNode& node = db_->pool().node(r.annotation);
    ChainRow row;
    row.global_row = static_cast<uint64_t>(view->global[j]);
    row.cells = r.cells;
    row.var = node.kind == ExprKind::kVar ? node.var() : 0;
    row.probability = probs[j];
    reply.rows.push_back(std::move(row));
  }
  return reply;
}

ViewInfoMsg ShardWorker::HandleViewInfo(const std::string& name) {
  WorkerView* view = FindView(name);
  PVC_CHECK_MSG(view != nullptr,
                "worker " << shard_index_ << " has no view '" << name << "'");
  ViewInfoMsg info;
  info.rows = view->part.NumRows();
  info.cache_entries = view->cache.LiveEntries(view->part);
  return info;
}

bool ShardWorker::Handle(MsgKind kind, const std::string& payload,
                         MsgKind* reply_kind, std::string* reply_payload) {
  auto error = [&](const std::string& text) {
    ErrorMsg msg;
    msg.text = text;
    *reply_kind = MsgKind::kError;
    *reply_payload = msg.Encode();
  };
  auto ok = [&](uint64_t value) {
    OkMsg msg;
    msg.value = value;
    *reply_kind = MsgKind::kOk;
    *reply_payload = msg.Encode();
  };
  // Called exactly once per successfully applied logged mutation, before
  // the reply is built: the worker-side half of the kTailInfo contract.
  auto applied = [&] {
    ++lsn_;
    chain_ = NextChain(chain_, kind, payload);
  };
  PVCDB_COUNTER_ADD("worker.requests", 1);
  try {
    switch (kind) {
      case MsgKind::kSyncVars: {
        SyncVarsMsg msg;
        if (!SyncVarsMsg::Decode(payload, &msg)) break;
        HandleSyncVars(msg);
        applied();
        ok(db_->variables().size());
        return true;
      }
      case MsgKind::kUpdateVar: {
        UpdateVarMsg msg;
        if (!UpdateVarMsg::Decode(payload, &msg)) break;
        HandleUpdateVar(msg);
        applied();
        ok(0);
        return true;
      }
      case MsgKind::kLoadPartition: {
        LoadPartitionMsg msg;
        if (!LoadPartitionMsg::Decode(payload, &msg)) break;
        uint64_t rows = HandleLoadPartition(msg);
        applied();
        ok(rows);
        return true;
      }
      case MsgKind::kAppendRow: {
        AppendRowMsg msg;
        if (!AppendRowMsg::Decode(payload, &msg)) break;
        HandleAppendRow(msg);
        applied();
        ok(0);
        return true;
      }
      case MsgKind::kDeleteRow: {
        DeleteRowMsg msg;
        if (!DeleteRowMsg::Decode(payload, &msg)) break;
        HandleDeleteRow(msg);
        applied();
        ok(0);
        return true;
      }
      case MsgKind::kEvalChain: {
        EvalChainMsg msg;
        if (!EvalChainMsg::Decode(payload, &msg)) break;
        *reply_kind = MsgKind::kChainResult;
        *reply_payload = HandleEvalChain(msg).Encode();
        return true;
      }
      case MsgKind::kTableProbs: {
        TableProbsMsg msg;
        if (!TableProbsMsg::Decode(payload, &msg)) break;
        *reply_kind = MsgKind::kProbsResult;
        *reply_payload = HandleTableProbs(msg).Encode();
        return true;
      }
      case MsgKind::kRegisterChainView: {
        RegisterChainViewMsg msg;
        if (!RegisterChainViewMsg::Decode(payload, &msg)) break;
        uint64_t rows = HandleRegisterChainView(std::move(msg));
        applied();
        ok(rows);
        return true;
      }
      case MsgKind::kDropChainView: {
        NameMsg msg;
        if (!NameMsg::Decode(payload, &msg)) break;
        for (auto it = views_.begin(); it != views_.end(); ++it) {
          if ((*it)->name == msg.name) {
            views_.erase(it);
            break;
          }
        }
        applied();
        ok(0);
        return true;
      }
      case MsgKind::kViewProbs: {
        NameMsg msg;
        if (!NameMsg::Decode(payload, &msg)) break;
        *reply_kind = MsgKind::kChainResult;
        *reply_payload = HandleViewProbs(msg.name).Encode();
        return true;
      }
      case MsgKind::kViewInfo: {
        NameMsg msg;
        if (!NameMsg::Decode(payload, &msg)) break;
        *reply_kind = MsgKind::kViewInfoResult;
        *reply_payload = HandleViewInfo(msg.name).Encode();
        return true;
      }
      case MsgKind::kSetOptions: {
        EvalOptionsMsg msg;
        if (!EvalOptionsMsg::Decode(payload, &msg)) break;
        // Knob mirroring, not a logged mutation: parallel passes are
        // bit-identical by construction, so the chain ignores it and the
        // coordinator re-sends it on respawn instead of replaying it.
        db_->eval_options().num_threads = static_cast<int>(msg.num_threads);
        ok(0);
        return true;
      }
      case MsgKind::kReplayTail: {
        ReplayTailMsg msg;
        if (!ReplayTailMsg::Decode(payload, &msg)) break;
        TailInfoMsg info;
        info.lsn = lsn_;
        info.chain = chain_;
        *reply_kind = MsgKind::kTailInfo;
        *reply_payload = info.Encode();
        return true;
      }
      case MsgKind::kShipWal: {
        ShipWalMsg msg;
        if (!ShipWalMsg::Decode(payload, &msg)) break;
        if (msg.first_lsn != lsn_) {
          error("wal shipment starts at lsn " +
                std::to_string(msg.first_lsn) + " but worker is at " +
                std::to_string(lsn_));
          return true;
        }
        for (const WalEntry& entry : msg.entries) {
          MsgKind entry_kind = static_cast<MsgKind>(entry.kind);
          if (!IsLoggedMutation(entry_kind)) {
            error("wal shipment carries non-mutation kind " +
                  std::to_string(static_cast<int>(entry.kind)));
            return true;
          }
          // Each entry replays through the normal dispatch, advancing
          // (lsn, chain) exactly as the live request did. A failing entry
          // leaves the worker mid-shipment; the coordinator's fallback is
          // kReset + full resync, so partial application is safe.
          MsgKind entry_reply = MsgKind::kError;
          std::string entry_payload;
          Handle(entry_kind, entry.payload, &entry_reply, &entry_payload);
          if (entry_reply == MsgKind::kError) {
            ErrorMsg err;
            std::string text = ErrorMsg::Decode(entry_payload, &err)
                                   ? err.text
                                   : "unknown error";
            error("wal entry at lsn " + std::to_string(lsn_) +
                  " failed: " + text);
            return true;
          }
        }
        ok(lsn_);
        return true;
      }
      case MsgKind::kStatsRequest: {
        // Pure observation: no log entry, (lsn, chain) untouched.
        StatsReplyMsg msg;
        msg.entries = MetricsRegistry::Global().Snapshot();
        *reply_kind = MsgKind::kStatsReply;
        *reply_payload = msg.Encode();
        return true;
      }
      case MsgKind::kReset:
        ResetState();
        ok(0);
        return true;
      case MsgKind::kPing: {
        PingMsg ping;
        if (!PingMsg::Decode(payload, &ping)) {
          error("bad kPing payload");
          return true;
        }
        // Heartbeats double as durability-position probes: the pong
        // piggybacks (lsn, chain) without advancing either.
        PongMsg pong;
        pong.nonce = ping.nonce;
        pong.lsn = lsn_;
        pong.chain = chain_;
        *reply_kind = MsgKind::kPong;
        *reply_payload = pong.Encode();
        return true;
      }
      case MsgKind::kShutdown:
        ok(0);
        return false;
      case MsgKind::kHello:
        error("unexpected kHello after handshake");
        return true;
      default:
        error("unexpected message kind " +
              std::to_string(static_cast<int>(kind)));
        return true;
    }
  } catch (const CheckError& e) {
    error(e.what());
    return true;
  }
  error("malformed payload for message kind " +
        std::to_string(static_cast<int>(kind)));
  return true;
}

ShardWorker::ServeStatus ShardWorker::Serve(Socket* sock) {
  while (true) {
    uint8_t kind = 0;
    std::string payload;
    FrameResult r = RecvFrame(sock, &kind, &payload);
    if (r == FrameResult::kClosed) return ServeStatus::kDisconnected;
    if (r != FrameResult::kOk) return ServeStatus::kProtocolError;
    MsgKind reply_kind = MsgKind::kError;
    std::string reply_payload;
    bool keep_serving = Handle(static_cast<MsgKind>(kind), payload,
                               &reply_kind, &reply_payload);
    if (!SendFrame(sock, static_cast<uint8_t>(reply_kind), reply_payload)) {
      return ServeStatus::kDisconnected;
    }
    if (!keep_serving) return ServeStatus::kShutdown;
  }
}

int ShardWorker::RunStandalone(const std::string& address, bool quiet) {
  IgnoreSigPipe();
  std::string error;
  Listener listener = Listener::Listen(address, &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "pvcdb worker: %s\n", error.c_str());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr, "pvcdb worker listening on %s\n", address.c_str());
  }
  // One worker persists across coordinator connections: a front end that
  // restarts (crash recovery) re-dials and finds the applied state still
  // here, so its resync is a kReplayTail/kShipWal tail instead of a full
  // retransfer. A hello for a different configuration replaces the worker
  // with a blank one.
  std::unique_ptr<ShardWorker> worker;
  while (true) {
    Socket conn = listener.Accept();
    if (!conn.valid()) continue;
    uint8_t kind = 0;
    std::string payload;
    if (RecvFrame(&conn, &kind, &payload) != FrameResult::kOk) continue;
    HelloMsg hello;
    if (static_cast<MsgKind>(kind) != MsgKind::kHello ||
        !HelloMsg::Decode(payload, &hello) ||
        hello.version != kProtocolVersion) {
      ErrorMsg err;
      err.text = "bad handshake (protocol version " +
                 std::to_string(kProtocolVersion) + " required)";
      SendFrame(&conn, static_cast<uint8_t>(MsgKind::kError), err.Encode());
      continue;
    }
    if (!SendFrame(&conn, static_cast<uint8_t>(MsgKind::kHelloAck),
                   std::string())) {
      continue;
    }
    if (worker == nullptr || !worker->MatchesHello(hello)) {
      worker = std::make_unique<ShardWorker>(hello);
    }
    if (worker->Serve(&conn) == ServeStatus::kShutdown) {
      listener.UnlinkSocketFile();
      return 0;
    }
  }
}

}  // namespace pvcdb
