#include "src/serve/server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/engine/shard_worker.h"
#include "src/net/frame.h"
#include "src/query/parser.h"
#include "src/query/tractability.h"
#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace pvcdb {

// ---------------------------------------------------------------------------
// InProcessBackend: the reference implementation over ShardedDatabase.
// ---------------------------------------------------------------------------

QueryRun InProcessBackend::RunQuery(const Query& q) {
  auto state = std::make_shared<ShardedResult>(db_->Run(q));
  QueryRun run;
  run.schema = state->schema();
  run.text = db_->ResultToString(*state);
  run.probabilities = db_->TupleProbabilities(*state);
  run.distributed = state->distributed();
  run.backend_state = state;
  return run;
}

Distribution InProcessBackend::ConditionalAgg(const QueryRun& run,
                                              size_t row_index,
                                              const std::string& column) {
  auto state = std::static_pointer_cast<ShardedResult>(run.backend_state);
  PVC_CHECK_MSG(state != nullptr, "run carries no in-process result state");
  return db_->ConditionalAggregateDistribution(*state, row_index, column);
}

size_t InProcessBackend::RegisterView(const std::string& name, QueryPtr query,
                                      std::vector<std::string>* warnings) {
  (void)warnings;  // The in-process engine has no degraded mode.
  db_->RegisterView(name, std::move(query));
  return db_->ViewResult(name).NumRows();
}

QueryRun InProcessBackend::PrintView(const std::string& name) {
  auto state = std::make_shared<ShardedResult>(db_->ViewResult(name));
  QueryRun run;
  run.schema = state->schema();
  run.text = db_->ResultToString(*state);
  run.probabilities = db_->ViewProbabilities(name);
  run.distributed = state->distributed();
  run.backend_state = state;
  return run;
}

std::string InProcessBackend::Workers() {
  std::ostringstream out;
  out << "in-process engine (" << db_->num_shards()
      << " shards); no worker processes\n";
  return out.str();
}

bool InProcessBackend::Respawn(size_t shard, std::string* message) {
  (void)shard;
  *message = "respawn requires out-of-process workers\n";
  return false;
}

// ---------------------------------------------------------------------------
// RemoteBackend: worker management (everything else delegates inline).
// ---------------------------------------------------------------------------

std::string RemoteBackend::Workers() {
  std::ostringstream out;
  for (size_t s = 0; s < coordinator_->num_shards(); ++s) {
    out << "worker " << s << ": pid " << coordinator_->WorkerPid(s) << ", ";
    uint64_t lsn = 0;
    uint32_t chain = 0;
    if (coordinator_->WorkerUp(s) && coordinator_->WorkerTail(s, &lsn, &chain)) {
      char tail[64];
      std::snprintf(tail, sizeof(tail), "up (lsn %ju, chain %08x)",
                    static_cast<uintmax_t>(lsn), chain);
      out << tail << ", " << WorkerHealthName(coordinator_->Health(s))
          << "\n";
    } else {
      // The tail probe can itself mark a worker down, so re-read liveness.
      out << (coordinator_->WorkerUp(s) ? "up" : "down") << " ("
          << WorkerHealthName(coordinator_->Health(s)) << ")\n";
    }
  }
  return out.str();
}

bool RemoteBackend::Respawn(size_t shard, std::string* message) {
  if (coordinator_->WorkerUp(shard)) {
    *message = "worker " + std::to_string(shard) + " is already up\n";
    return true;
  }
  std::string error;
  if (!coordinator_->Respawn(shard, &error)) {
    *message = "error: " + error + "\n";
    return false;
  }
  *message = "worker " + std::to_string(shard) + " respawned (pid " +
             std::to_string(coordinator_->WorkerPid(shard)) + ")\n";
  return true;
}

// ---------------------------------------------------------------------------
// ExecuteCommand: the single rendering path for both backends.
// ---------------------------------------------------------------------------

namespace {

// One P[row i] line per tuple, with conditional aggregate distributions
// appended for kAggExpr columns.
void AppendRowProbabilityLines(std::ostream& out, ServeBackend* backend,
                               const QueryRun& run) {
  for (size_t i = 0; i < run.probabilities.size(); ++i) {
    out << "P[row " << i << "] = " << run.probabilities[i];
    for (size_t c = 0; c < run.schema.NumColumns(); ++c) {
      if (run.schema.column(c).type == CellType::kAggExpr) {
        const std::string& name = run.schema.column(c).name;
        out << "  " << name << " | present ~ "
            << backend->ConditionalAgg(run, i, name).ToString();
      }
    }
    out << "\n";
  }
}

// Parses the whole of `token` as a double; rejects trailing garbage.
bool ParseFullDouble(const std::string& token, double* out) {
  try {
    size_t pos = 0;
    *out = std::stod(token, &pos);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

// Parses the whole of `token` as a cell of column type `type` (partial
// parses like "14.99" for an int column are rejected, not truncated).
bool ParseCellToken(const std::string& token, CellType type, Cell* out) {
  try {
    size_t pos = 0;
    switch (type) {
      case CellType::kInt: {
        int64_t v = std::stoll(token, &pos);
        if (pos != token.size()) return false;
        *out = Cell(v);
        return true;
      }
      case CellType::kDouble: {
        double v = std::stod(token, &pos);
        if (pos != token.size()) return false;
        *out = Cell(v);
        return true;
      }
      case CellType::kString:
        *out = Cell(token);
        return true;
      default:
        return false;
    }
  } catch (const std::exception&) {
    return false;
  }
}

void ServerHelp(std::ostream& out) {
  out << "commands:\n"
      << "  load <table> <file.csv>  import a tuple-independent table\n"
      << "                           (the path is read by the server)\n"
      << "  tables                   list tables with per-shard rows\n"
      << "  show <table>             print a pvc-table\n"
      << "  tractable <sql>          classify a query\n"
      << "  SELECT ...               run a query\n"
      << "  insert <table> <cells...> <prob>  append a tuple\n"
      << "  delete <table> <key>     delete rows matching the key\n"
      << "  setprob <var> <p>        update a variable's marginal\n"
      << "  view <name> [SELECT ...] register / print a view\n"
      << "  views                    list materialized views\n"
      << "  workers                  worker process liveness, (lsn, chain)\n"
      << "  stats [--json]           metrics snapshot (table or JSON Lines)\n"
      << "  respawn <shard>          replace a down worker\n"
      << "  threads [n]              show or set the thread count\n"
      << "                           (0 = serial, -1 = all cores)\n"
      << "  save                     checkpoint the durable directory\n"
      << "  log                      durable directory status\n"
      << "  shutdown                 stop the server\n"
      << "  help | quit\n"
      << "local shell only (pvcdb_shell without --connect):\n"
      << "  shards [n]               show or set the shard count (n >= 1)\n"
      << "  open <dir>               make the session durable: recover\n"
      << "                           <dir> if it holds state, else\n"
      << "                           snapshot the current state there\n";
}

constexpr char kNotDurable[] =
    "not durable (use 'open <dir>' in the local shell, or start the server "
    "with --open <dir>)\n";

bool RunSelect(ServeBackend* backend, const std::string& line,
               std::ostream& out) {
  ParseResult parsed = [&] {
    PVCDB_SPAN(parse_span, "parse");
    return ParseQuery(line);
  }();
  if (!parsed.ok()) {
    out << parsed.error << "\n";
    return false;
  }
  try {
    QueryRun run = backend->RunQuery(*parsed.query);
    for (const std::string& w : run.warnings) out << w << "\n";
    out << run.text;
    AppendRowProbabilityLines(out, backend, run);
    return true;
  } catch (const CheckError& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
}

bool RunTractable(ServeBackend* backend, const std::string& sql,
                  std::ostream& out) {
  ParseResult parsed = [&] {
    PVCDB_SPAN(parse_span, "parse");
    return ParseQuery(sql);
  }();
  if (!parsed.ok()) {
    out << parsed.error << "\n";
    return false;
  }
  const Database& db = backend->catalog();
  TractabilityResult r = AnalyzeTractability(
      *parsed.query,
      [&db](const std::string& name) {
        return db.HasTable(name) &&
               IsTupleIndependent(db.table(name), db.pool());
      },
      [&db](const std::string& name) {
        std::vector<std::string> cols;
        if (db.HasTable(name)) {
          for (const Column& c : db.table(name).schema().columns()) {
            cols.push_back(c.name);
          }
        }
        return cols;
      });
  out << "hierarchical: " << (r.hierarchical ? "yes" : "no")
      << "; Q_ind: " << (r.in_qind ? "yes" : "no")
      << "; Q_hie: " << (r.in_qhie ? "yes" : "no") << " (" << r.explanation
      << ")\n";
  return true;
}

bool RunInsert(ServeBackend* backend, std::istream& stream,
               std::ostream& out) {
  std::string table;
  stream >> table;
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(token);
  const Database& catalog = backend->catalog();
  if (table.empty() || !catalog.HasTable(table)) {
    out << "no table '" << table << "'\n";
    return false;
  }
  const Schema& schema = catalog.table(table).schema();
  if (tokens.size() != schema.NumColumns() + 1) {
    out << "usage: insert <table> <" << schema.NumColumns()
        << " cells> <prob>\n";
    return false;
  }
  std::vector<Cell> cells(schema.NumColumns());
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (!ParseCellToken(tokens[i], schema.column(i).type, &cells[i])) {
      out << "cannot parse '" << tokens[i] << "' for column '"
          << schema.column(i).name << "'\n";
      return false;
    }
  }
  double p = 0.0;
  // The negated >= form also rejects NaN (every NaN comparison is false).
  if (!ParseFullDouble(tokens.back(), &p) || !(p >= 0.0 && p <= 1.0)) {
    out << "bad probability '" << tokens.back() << "'\n";
    return false;
  }
  try {
    backend->Insert(table, std::move(cells), p);
  } catch (const CheckError& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
  out << "inserted into " << table << " ("
      << backend->catalog().table(table).NumRows() << " rows)\n";
  return true;
}

bool RunDelete(ServeBackend* backend, std::istream& stream,
               std::ostream& out) {
  std::string table;
  std::string key_token;
  stream >> table >> key_token;
  const Database& catalog = backend->catalog();
  if (table.empty() || key_token.empty() || !catalog.HasTable(table)) {
    out << (catalog.HasTable(table) ? "usage: delete <table> <key>\n"
                                    : "no table '" + table + "'\n");
    return false;
  }
  Cell key;
  CellType key_type = catalog.table(table).schema().column(0).type;
  if (!ParseCellToken(key_token, key_type, &key)) {
    out << "cannot parse key '" << key_token << "'\n";
    return false;
  }
  size_t removed = 0;
  try {
    removed = backend->Delete(table, key);
  } catch (const CheckError& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
  out << "deleted " << removed << " rows from " << table << "\n";
  return true;
}

bool RunSetProb(ServeBackend* backend, std::istream& stream,
                std::ostream& out) {
  std::string var_token;
  std::string p_token;
  stream >> var_token >> p_token;
  if (!var_token.empty() && var_token[0] == 'x') {
    var_token = var_token.substr(1);
  }
  VarId var = 0;
  double p = -1.0;
  try {
    size_t pos = 0;
    var = static_cast<VarId>(std::stoul(var_token, &pos));
    if (pos != var_token.size()) throw std::invalid_argument(var_token);
  } catch (const std::exception&) {
    out << "usage: setprob <var> <p in [0,1]>\n";
    return false;
  }
  if (!ParseFullDouble(p_token, &p) || !(p >= 0.0 && p <= 1.0)) {
    out << "usage: setprob <var> <p in [0,1]>\n";
    return false;
  }
  const VariableTable& variables = backend->catalog().variables();
  if (var >= variables.size()) {
    out << "unknown variable x" << var << "\n";
    return false;
  }
  try {
    backend->SetProb(var, p);
  } catch (const CheckError& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
  out << "P[" << variables.NameOf(var) << " = 1] = " << p << "\n";
  return true;
}

bool RunViewCommand(ServeBackend* backend, std::istream& stream,
                    std::ostream& out) {
  std::string name;
  stream >> name;
  std::string rest;
  std::getline(stream, rest);
  size_t sql_start = rest.find_first_not_of(" \t");
  if (name.empty()) {
    out << "usage: view <name> [SELECT ...]\n";
    return false;
  }
  if (sql_start == std::string::npos) {
    if (!backend->HasView(name)) {
      out << "no view '" << name << "'\n";
      return false;
    }
    try {
      QueryRun run = backend->PrintView(name);
      for (const std::string& w : run.warnings) out << w << "\n";
      out << run.text;
      AppendRowProbabilityLines(out, backend, run);
      return true;
    } catch (const CheckError& e) {
      out << "error: " << e.what() << "\n";
      return false;
    }
  }
  ParseResult parsed = [&] {
    PVCDB_SPAN(parse_span, "parse");
    return ParseQuery(rest.substr(sql_start));
  }();
  if (!parsed.ok()) {
    out << parsed.error << "\n";
    return false;
  }
  try {
    std::vector<std::string> warnings;
    size_t rows = backend->RegisterView(name, parsed.query, &warnings);
    for (const std::string& w : warnings) out << w << "\n";
    out << "view " << name << " registered (" << rows << " rows)\n";
    return true;
  } catch (const CheckError& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
}

}  // namespace

ClientReplyMsg ExecuteCommand(ServeBackend* backend, const std::string& line,
                              bool* shutdown, ServeSession* session) {
  ClientReplyMsg reply;
  std::ostringstream out;
  // Precision 17 round-trips doubles exactly, so reply-text equality
  // between two backends implies bit-equality of every probability.
  out << std::setprecision(17);
  std::istringstream stream(line);
  std::string command;
  stream >> command;
  try {
    if (command.empty()) {
      // Empty line: empty reply.
    } else if (command == "quit" || command == "exit") {
      out << "bye\n";
    } else if (command == "help") {
      ServerHelp(out);
    } else if (command == "load") {
      std::string table;
      std::string path;
      stream >> table >> path;
      if (table.empty() || path.empty()) {
        out << "usage: load <table> <file.csv>\n";
        reply.ok = false;
      } else {
        CsvResult r = backend->LoadCsv(table, path);
        if (r.ok) {
          out << "loaded " << r.rows << " rows into " << table << "\n";
        } else {
          out << "error: " << r.error << "\n";
          reply.ok = false;
        }
      }
    } else if (command == "tables") {
      const Database& catalog = backend->catalog();
      for (const std::string& name : catalog.TableNames()) {
        out << name << " (" << catalog.table(name).NumRows()
            << " rows; per shard:";
        for (size_t count : backend->ShardRowCounts(name)) {
          out << " " << count;
        }
        out << ")\n";
      }
    } else if (command == "show") {
      std::string table;
      stream >> table;
      const Database& catalog = backend->catalog();
      if (!catalog.HasTable(table)) {
        out << "no table '" << table << "'\n";
        reply.ok = false;
      } else {
        out << catalog.table(table).ToString(&catalog.pool());
      }
    } else if (command == "tractable") {
      std::string rest;
      std::getline(stream, rest);
      reply.ok = RunTractable(backend, rest, out);
    } else if (command == "SELECT" || command == "select") {
      reply.ok = RunSelect(backend, line, out);
    } else if (command == "insert") {
      reply.ok = RunInsert(backend, stream, out);
    } else if (command == "delete") {
      reply.ok = RunDelete(backend, stream, out);
    } else if (command == "setprob") {
      reply.ok = RunSetProb(backend, stream, out);
    } else if (command == "view") {
      reply.ok = RunViewCommand(backend, stream, out);
    } else if (command == "views") {
      for (const ShardedDatabase::ViewInfo& info : backend->ViewInfos()) {
        out << info.name << " (" << info.plan << ", " << info.rows
            << " rows, " << info.cache_entries << " cached d-trees)\n";
      }
    } else if (command == "stats") {
      std::string flag;
      stream >> flag;
      if (!flag.empty() && flag != "--json") {
        out << "usage: stats [--json]\n";
        reply.ok = false;
      } else {
        std::vector<MetricSnapshot> entries = backend->StatsSnapshot();
        out << (flag == "--json" ? RenderMetricsJson(entries)
                                 : RenderMetricsTable(entries));
      }
    } else if (command == "workers") {
      out << backend->Workers();
    } else if (command == "respawn") {
      size_t shard = 0;
      if (!(stream >> shard) || shard >= backend->num_shards()) {
        out << "usage: respawn <shard in [0, " << backend->num_shards()
            << ")>\n";
        reply.ok = false;
      } else {
        std::string message;
        reply.ok = backend->Respawn(shard, &message);
        out << message;
      }
    } else if (command == "shutdown") {
      *shutdown = true;
      out << "shutting down\n";
    } else if (command == "threads") {
      if (session == nullptr) {
        out << "command '" << command << "' is not available in server mode\n";
        reply.ok = false;
      } else {
        int n = 0;
        if (stream >> n) {
          session->num_threads = n;
          backend->SetEvalOptions(session->num_threads, 0);
        }
        // The session-level knob value, not the engine's resolved count.
        out << "num_threads = " << session->num_threads << " (0 = serial; "
            << DefaultThreadCount() << " hardware threads)\n";
      }
    } else if (command == "save") {
      if (session == nullptr || session->durable == nullptr) {
        out << kNotDurable;
        reply.ok = false;
      } else {
        std::string error;
        if (session->durable->Checkpoint(&error)) {
          out << "checkpoint written (generation "
              << session->durable->stats().generation << ")\n";
        } else {
          out << "error: " << error << "\n";
          reply.ok = false;
        }
      }
    } else if (command == "log") {
      if (session == nullptr || session->durable == nullptr) {
        out << kNotDurable;
        reply.ok = false;
      } else {
        DurableStats stats = session->durable->stats();
        out << "dir = " << session->durable->dir() << "\n"
            << "generation = " << stats.generation << "\n"
            << "wal_records = " << stats.wal_records << "\n"
            << "wal_bytes = " << stats.wal_bytes << "\n"
            << "recovered = " << (stats.recovered ? "yes" : "no") << "\n"
            << "replayed_records = " << stats.replayed_records << "\n"
            << "tail_truncated = " << (stats.tail_truncated ? "yes" : "no")
            << "\n";
      }
    } else if (command == "shards" || command == "open") {
      out << "command '" << command << "' is not available in server mode\n";
      reply.ok = false;
    } else {
      out << "unknown command '" << command << "' -- try 'help'\n";
      reply.ok = false;
    }
  } catch (const std::exception& e) {
    // Belt and braces: ExecuteCommand never throws into the poll loop.
    out << "error: " << e.what() << "\n";
    reply.ok = false;
  }
  reply.text = out.str();
  return reply;
}

// ---------------------------------------------------------------------------
// The front-end server.
// ---------------------------------------------------------------------------

namespace {

/// One accepted client: a non-blocking socket plus its frame reassembler.
struct ClientConn {
  Socket sock;
  FrameParser parser;
  int64_t last_activity_ms = 0;  ///< Last received bytes (idle eviction).
};

/// Sends one frame on a non-blocking socket, waiting on POLLOUT (bounded)
/// when the send buffer fills. False drops the client.
bool SendFrameFlush(Socket* sock, MsgKind kind, const std::string& payload) {
  std::string buf;
  EncodeFrame(&buf, static_cast<uint8_t>(kind), payload);
  size_t sent = 0;
  while (sent < buf.size()) {
    ssize_t n = sock->SendSome(buf.data() + sent, buf.size() - sent);
    if (n == kIoWouldBlock) {
      struct pollfd pfd;
      pfd.fd = sock->fd();
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 10000) <= 0) return false;
      continue;
    }
    if (n < 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Worker child entry after fork: the per-connection half of
/// ShardWorker::RunStandalone over the inherited socketpair end.
int RunForkedWorker(Socket sock) {
  // The child inherits the parent's metric values at fork time; reset so
  // this worker's registry reports only its own activity (matching a
  // standalone worker's fresh process).
  MetricsRegistry::Global().Reset();
  uint8_t kind = 0;
  std::string payload;
  if (RecvFrame(&sock, &kind, &payload) != FrameResult::kOk) return 1;
  HelloMsg hello;
  if (static_cast<MsgKind>(kind) != MsgKind::kHello ||
      !HelloMsg::Decode(payload, &hello) ||
      hello.version != kProtocolVersion) {
    ErrorMsg err;
    err.text = "bad handshake (protocol version " +
               std::to_string(kProtocolVersion) + " required)";
    SendFrame(&sock, static_cast<uint8_t>(MsgKind::kError), err.Encode());
    return 1;
  }
  if (!SendFrame(&sock, static_cast<uint8_t>(MsgKind::kHelloAck),
                 std::string())) {
    return 1;
  }
  ShardWorker worker(hello);
  worker.Serve(&sock);
  return 0;
}

}  // namespace

int RunServer(const ServerConfig& config) {
  IgnoreSigPipe();
  TraceLog::Global().set_slow_query_ms(config.slow_query_ms);
  // Forked workers are fire-and-forget children; auto-reap them.
  ::signal(SIGCHLD, SIG_IGN);

  // Declared before the coordinator so its spawner (which captures them to
  // close inherited fds in worker children) never outlives them.
  Listener listener;
  std::vector<ClientConn> clients;

  std::unique_ptr<ShardedDatabase> sharded;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<ServeBackend> backend;
  // Declared after the coordinator: the attached session's destructor
  // detaches its WAL from the (still live) coordinator.
  std::unique_ptr<DurableSession> durable;

  DurableConfig durable_config;
  durable_config.dir = config.open_dir;
  durable_config.fs = DefaultFileSystem();
  // Group commit keeps appends unsynced and batches the fsync in the poll
  // loop; otherwise every append syncs before its command acknowledges.
  durable_config.sync = config.group_commit_ms < 0;

  if (config.in_process) {
    if (!config.open_dir.empty()) {
      std::string derr;
      if (DurableSession::HasState(durable_config.fs, config.open_dir)) {
        durable = DurableSession::Recover(durable_config, &derr);
      } else {
        EngineState initial;
        initial.semiring = config.semiring;
        initial.num_shards = config.num_shards;
        durable = DurableSession::Create(durable_config, initial, &derr);
      }
      if (durable == nullptr) {
        std::fprintf(stderr, "pvcdb server: %s\n", derr.c_str());
        return 1;
      }
      // The command line owns the topology: rebuild recovered state at the
      // configured shard count when they disagree.
      if (durable->sharded() == nullptr ||
          durable->sharded()->num_shards() != config.num_shards) {
        if (!durable->Reshard(config.num_shards, &derr)) {
          std::fprintf(stderr, "pvcdb server: %s\n", derr.c_str());
          return 1;
        }
      }
      backend = std::make_unique<InProcessBackend>(durable->sharded());
    } else {
      sharded = std::make_unique<ShardedDatabase>(config.num_shards,
                                                  config.semiring);
      backend = std::make_unique<InProcessBackend>(sharded.get());
    }
  } else {
    auto spawner = [&config, &listener, &clients](
                       uint32_t shard, RemoteShard* out,
                       std::string* error) -> bool {
      if (!config.worker_addresses.empty()) {
        if (shard >= config.worker_addresses.size()) {
          *error = "no worker address configured for shard " +
                   std::to_string(shard);
          return false;
        }
        Socket sock =
            ConnectWithRetry(config.worker_addresses[shard], 100, error);
        if (!sock.valid()) return false;
        *out = RemoteShard(shard, std::move(sock), 0);
        return true;
      }
      Socket parent_end;
      Socket child_end;
      if (!MakeSocketPair(&parent_end, &child_end)) {
        *error = "socketpair failed";
        return false;
      }
      pid_t pid = ::fork();
      if (pid < 0) {
        *error = "fork failed";
        return false;
      }
      if (pid == 0) {
        // Worker child: drop every inherited server fd so client and
        // listener lifetimes are not pinned by worker processes.
        parent_end.Close();
        if (listener.valid()) ::close(listener.fd());
        for (ClientConn& c : clients) ::close(c.sock.fd());
        ::_exit(RunForkedWorker(std::move(child_end)));
      }
      child_end.Close();
      *out = RemoteShard(shard, std::move(parent_end), pid);
      return true;
    };
    std::vector<RemoteShard> workers;
    for (size_t s = 0; s < config.num_shards; ++s) {
      RemoteShard worker(static_cast<uint32_t>(s), Socket(), 0);
      std::string error;
      if (!spawner(static_cast<uint32_t>(s), &worker, &error)) {
        std::fprintf(stderr, "pvcdb server: cannot start worker %zu: %s\n", s,
                     error.c_str());
        return 1;
      }
      workers.push_back(std::move(worker));
    }
    coordinator = std::make_unique<Coordinator>(
        config.semiring, std::move(workers), spawner);
    if (config.rpc_timeout_ms >= 0 || config.heartbeat_ms >= 0 ||
        config.auto_respawn) {
      // Armed before any durable recovery so even the resync RPCs below
      // run under the deadline.
      FaultToleranceOptions ft;
      ft.rpc_deadline_ms =
          config.rpc_timeout_ms >= 0 ? config.rpc_timeout_ms : kNoDeadline;
      ft.heartbeat_ms = config.heartbeat_ms;
      ft.auto_respawn = config.auto_respawn;
      coordinator->ConfigureFaultTolerance(ft);
    }
    backend = std::make_unique<RemoteBackend>(coordinator.get());

    if (!config.open_dir.empty()) {
      std::string derr;
      bool has_state =
          DurableSession::HasState(durable_config.fs, config.open_dir);
      durable = has_state ? DurableSession::RecoverAttached(
                                durable_config, coordinator.get(), &derr)
                          : DurableSession::CreateAttached(
                                durable_config, coordinator.get(), &derr);
      if (durable == nullptr) {
        std::fprintf(stderr, "pvcdb server: %s\n", derr.c_str());
        coordinator->Shutdown();
        return 1;
      }
      if (has_state) {
        // Recovery replayed into the coordinator's replica and shard logs
        // only; bring each worker to that state (WAL tail replay when its
        // chain matches, full partition resync otherwise).
        std::vector<std::string> lines;
        coordinator->ReconcileWorkers(&lines);
        if (!config.quiet) {
          for (const std::string& l : lines) {
            std::fprintf(stderr, "pvcdb server: %s\n", l.c_str());
          }
        }
      }
    }
  }

  std::string error;
  listener = Listener::Listen(config.listen_address, &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "pvcdb server: %s\n", error.c_str());
    if (coordinator != nullptr) coordinator->Shutdown();
    return 1;
  }
  if (!config.quiet) {
    std::fprintf(stderr, "pvcdb server listening on %s (%zu shards, %s)\n",
                 config.listen_address.c_str(), config.num_shards,
                 config.in_process ? "in-process" : "worker processes");
    if (durable != nullptr) {
      DurableStats stats = durable->stats();
      if (stats.recovered) {
        std::fprintf(stderr,
                     "pvcdb server: recovered %s (generation %u, %ju WAL "
                     "records replayed%s)\n",
                     config.open_dir.c_str(), stats.generation,
                     static_cast<uintmax_t>(stats.replayed_records),
                     stats.tail_truncated ? ", torn tail truncated" : "");
      } else {
        std::fprintf(stderr, "pvcdb server: opened %s (generation %u)\n",
                     config.open_dir.c_str(), stats.generation);
      }
    }
  }

  ServeSession session;
  session.durable = durable.get();

  // Group commit: replies to commands that appended unsynced WAL records
  // are queued (in arrival order, across all clients) and sent only after
  // one fsync at the end of the commit window covers them all.
  const bool group_commit = durable != nullptr && config.group_commit_ms >= 0;
  struct QueuedReply {
    int fd;  ///< Client socket at queue time (purged when the client dies).
    std::string payload;
  };
  std::deque<QueuedReply> queued;
  int64_t window_deadline_ms = -1;  // -1: no commit window open.
  auto now_ms = []() {
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
  };
  // One fsync covers every queued reply, then they flush in arrival order.
  // May erase clients whose send fails, so only call between poll-loop
  // passes (no live ClientConn reference, no fds->clients mapping).
  auto flush_queued = [&]() {
    window_deadline_ms = -1;
    if (queued.empty()) return;
    PVC_CHECK_MSG(durable->wal()->Sync(),
                  "WAL fsync failed; queued mutations cannot be "
                  "acknowledged");
    for (QueuedReply& q : queued) {
      for (size_t i = 0; i < clients.size(); ++i) {
        if (clients[i].sock.fd() != q.fd) continue;
        if (!SendFrameFlush(&clients[i].sock, MsgKind::kClientReply,
                            q.payload)) {
          clients.erase(clients.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
      }
    }
    queued.clear();
  };

  // Heartbeat cycle: driven from this loop so worker health checks and
  // auto-respawns serialize with command execution (no second thread, no
  // locking on the coordinator).
  const bool heartbeat_enabled =
      coordinator != nullptr && config.heartbeat_ms >= 0;
  int64_t next_heartbeat_ms =
      heartbeat_enabled ? now_ms() + config.heartbeat_ms : -1;

  bool shutdown = false;
  while (!shutdown) {
    // Evict idle clients before building this pass's fds->clients mapping.
    if (config.client_idle_ms >= 0 && !clients.empty()) {
      int64_t now = now_ms();
      for (size_t i = clients.size(); i-- > 0;) {
        if (now - clients[i].last_activity_ms < config.client_idle_ms) {
          continue;
        }
        int fd = clients[i].sock.fd();
        queued.erase(
            std::remove_if(queued.begin(), queued.end(),
                           [fd](const QueuedReply& q) { return q.fd == fd; }),
            queued.end());
        clients.erase(clients.begin() + static_cast<ptrdiff_t>(i));
        PVCDB_COUNTER_ADD("server.idle_evictions", 1);
      }
    }

    std::vector<struct pollfd> fds;
    {
      struct pollfd lfd;
      lfd.fd = listener.fd();
      lfd.events = POLLIN;
      lfd.revents = 0;
      fds.push_back(lfd);
    }
    for (const ClientConn& c : clients) {
      struct pollfd pfd;
      pfd.fd = c.sock.fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      fds.push_back(pfd);
    }
    // Poll until the earliest pending deadline: commit window, next
    // heartbeat, or the first client to cross the idle threshold.
    int timeout_ms = -1;
    auto consider_deadline = [&](int64_t deadline) {
      if (deadline < 0) return;
      int64_t remain = deadline - now_ms();
      int t = remain > 0 ? static_cast<int>(remain) : 0;
      if (timeout_ms < 0 || t < timeout_ms) timeout_ms = t;
    };
    consider_deadline(window_deadline_ms);
    consider_deadline(next_heartbeat_ms);
    if (config.client_idle_ms >= 0) {
      for (const ClientConn& c : clients) {
        consider_deadline(c.last_activity_ms + config.client_idle_ms);
      }
    }
    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (heartbeat_enabled && now_ms() >= next_heartbeat_ms) {
      // Never erases clients, so this pass's fds mapping stays valid.
      std::vector<std::string> lines;
      coordinator->HeartbeatTick(&lines);
      if (!config.quiet) {
        for (const std::string& l : lines) {
          std::fprintf(stderr, "pvcdb server: %s\n", l.c_str());
        }
      }
      next_heartbeat_ms = now_ms() + config.heartbeat_ms;
    }
    if (window_deadline_ms >= 0 && now_ms() >= window_deadline_ms) {
      // Commit window expired. Flushing may erase clients, which would
      // invalidate this pass's fds->clients mapping, so re-poll after.
      flush_queued();
      continue;
    }
    if (rc == 0) continue;

    // Service clients first (fds[i + 1] maps to clients[i]; the accept
    // below only appends, so the mapping is stable for this iteration).
    std::vector<size_t> dead;
    for (size_t i = 0; i + 1 < fds.size() && !shutdown; ++i) {
      short revents = fds[i + 1].revents;
      if (revents == 0) continue;
      ClientConn& client = clients[i];
      bool drop = (revents & (POLLERR | POLLNVAL)) != 0;
      bool saw_eof = false;
      if (!drop) {
        char buf[64 * 1024];
        while (true) {
          ssize_t got = client.sock.RecvSome(buf, sizeof(buf));
          if (got == kIoWouldBlock) break;
          if (got == 0) {
            saw_eof = true;
            break;
          }
          if (got < 0) {
            drop = true;
            break;
          }
          client.last_activity_ms = now_ms();
          client.parser.Feed(buf, static_cast<size_t>(got));
          if (static_cast<size_t>(got) < sizeof(buf)) break;
        }
        // Drain complete frames; buffered commands still execute (and get
        // replies) even when the client has already half-closed.
        uint8_t kind = 0;
        std::string payload;
        while (!drop) {
          FrameResult fr = client.parser.Next(&kind, &payload);
          if (fr == FrameResult::kNeedMore) break;
          if (fr != FrameResult::kOk ||
              static_cast<MsgKind>(kind) != MsgKind::kClientCommand) {
            drop = true;
            break;
          }
          ClientReplyMsg reply;
          std::string encoded;
          {
            // The trace scope covers execution plus reply encode, so its
            // total is the server-side latency the slow-query log reports.
            CommandTraceScope trace_scope(payload);
            PVCDB_COUNTER_ADD("server.commands", 1);
            reply = ExecuteCommand(backend.get(), payload, &shutdown,
                                   &session);
            PVCDB_SPAN(encode_span, "encode");
            encoded = reply.Encode();
          }
          // Any reply is deferred while unacknowledged (unsynced) WAL
          // appends exist -- including read-only replies behind them, which
          // keeps per-connection replies in command order.
          bool defer =
              group_commit && (durable->wal()->HasUnsyncedAppends() ||
                               !queued.empty());
          if (defer) {
            queued.push_back(QueuedReply{client.sock.fd(),
                                         std::move(encoded)});
            if (shutdown) break;  // Flushed (fsync + ack) below the loop.
            if (window_deadline_ms < 0) {
              window_deadline_ms = now_ms() + config.group_commit_ms;
            }
          } else {
            if (!SendFrameFlush(&client.sock, MsgKind::kClientReply,
                                encoded)) {
              drop = true;
              break;
            }
            if (shutdown) break;
          }
        }
      }
      if (drop || saw_eof) dead.push_back(i);
    }
    for (size_t d = dead.size(); d-- > 0;) {
      int fd = clients[dead[d]].sock.fd();
      // Drop queued replies for the dying fd so a later accept reusing the
      // same fd number cannot receive them.
      queued.erase(
          std::remove_if(queued.begin(), queued.end(),
                         [fd](const QueuedReply& q) { return q.fd == fd; }),
          queued.end());
      clients.erase(clients.begin() + static_cast<ptrdiff_t>(dead[d]));
    }
    if (shutdown) break;

    if (fds[0].revents & POLLIN) {
      Socket conn = listener.Accept();
      if (conn.valid() && conn.SetNonBlocking(true)) {
        ClientConn client;
        client.sock = std::move(conn);
        client.last_activity_ms = now_ms();
        clients.push_back(std::move(client));
      }
    }
    PVCDB_GAUGE_SET("server.live_connections",
                    static_cast<int64_t>(clients.size()));
  }

  // Close any open commit window (one fsync + the queued acks, including
  // the deferred shutdown reply) before workers go down.
  if (group_commit) flush_queued();

  // Dump the final aggregated snapshot while workers are still reachable.
  if (!config.metrics_dump.empty()) {
    std::string json = RenderMetricsJson(backend->StatsSnapshot());
    if (std::FILE* f = std::fopen(config.metrics_dump.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "pvcdb server: cannot write metrics dump %s\n",
                   config.metrics_dump.c_str());
    }
  }

  if (coordinator != nullptr) coordinator->Shutdown();
  listener.UnlinkSocketFile();
  return 0;
}

}  // namespace pvcdb
