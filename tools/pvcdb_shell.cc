// pvcdb_shell -- an interactive / batch shell for the pvcdb engine.
//
// Commands (one per line; lines starting with SELECT run as SQL):
//   load <table> <file.csv>   import a tuple-independent table (see
//                             src/engine/csv.h for the format)
//   tables                    list loaded tables with row counts
//   show <table>              print a table with its annotations
//   tractable <sql...>        classify a query (Q_ind / Q_hie / neither)
//   SELECT ...                run a Q query; prints tuples, P[tuple], and
//                             conditional aggregate distributions
//   insert <table> <cells...> <prob>
//                             append a tuple (one token per column; no
//                             spaces in strings) with P[present] = prob;
//                             registered views update incrementally
//   delete <table> <key>      delete every row whose first-column cell
//                             equals <key>
//   setprob <var> <p>         update a variable's marginal (accepts "x3"
//                             or a numeric id); cached d-trees mentioning
//                             the variable are re-evaluated in place
//   view <name> SELECT ...    register a materialized view
//   view <name>               print a view's tuples and cached P[tuple]
//   views                     list views (maintenance plan, rows, cache)
//   threads [n]               show or set the thread count
//   shards [n]                show or set the shard count: n >= 1 rebuilds
//                             the session as a ShardedDatabase with n
//                             hash-partitioned shards (re-importing every
//                             loaded CSV and replaying mutations + views),
//                             0 returns to a single database. Results are
//                             bit-identical either way.
//   open <dir>                make the session durable (WAL + snapshots;
//                             recovers <dir> when it already holds state)
//   save                      write a checkpoint generation
//   log                       durability status
//   help                      this text
//   quit                      exit
//
// Client mode: `pvcdb_shell --connect <addr>` attaches to a running
// pvcdb_server (tools/pvcdb_server.cc) instead of hosting an engine. Each
// line travels as one kClientCommand frame; the server's rendered reply is
// printed verbatim, so transcripts match the local shell line for line
// (modulo server-only commands -- see docs/SERVING.md).
//
// Example session:
//   load items data/items.csv
//   view pricey SELECT * FROM items WHERE price >= 1000
//   insert items tool drill 1450 0.7
//   view pricey
//
// Batch use: pipe commands through stdin (the shell detects non-tty input
// and suppresses prompts).

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/csv.h"
#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/query/parser.h"
#include "src/query/tractability.h"
#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace {

using namespace pvcdb;

// The session: a single Database, or a ShardedDatabase when `shards n` is
// active. Every successful state-changing command (load / insert /
// delete / setprob / view) is logged verbatim, in order, so resharding
// replays the exact session history onto the new topology -- preserving
// the interleaving (a reload between mutations, a view redefined after
// inserts) is what makes the rebuilt state, and hence every printed
// result, bit-identical across shard counts.
// With `open <dir>` the session becomes durable: the engines move into a
// DurableSession (WAL + snapshot generations, src/engine/snapshot.h),
// every mutation is logged before it reports success, `save` writes a
// checkpoint, and reopening the directory recovers the exact state --
// including a torn tail from a crash mid-write. Resharding then logs a
// kReshard record instead of replaying the history.
struct Session {
  std::unique_ptr<Database> owned_db = std::make_unique<Database>();
  std::unique_ptr<ShardedDatabase> owned_sharded;
  std::unique_ptr<DurableSession> durable;
  std::vector<std::string> history;  ///< State-changing lines, in order.
  int num_threads = 0;

  Database* db() const {
    if (durable != nullptr) {
      return durable->is_sharded() ? nullptr : durable->db();
    }
    return owned_db.get();
  }
  ShardedDatabase* sharded() const {
    if (durable != nullptr) {
      return durable->is_sharded() ? durable->sharded() : nullptr;
    }
    return owned_sharded.get();
  }
  const Database& catalog() const {
    ShardedDatabase* s = sharded();
    return s != nullptr ? s->coordinator() : *db();
  }
};

void PrintHelp() {
  std::cout << "commands:\n"
            << "  load <table> <file.csv>  import a tuple-independent table\n"
            << "  tables                   list tables\n"
            << "  show <table>             print a pvc-table\n"
            << "  tractable <sql>          classify a query\n"
            << "  SELECT ...               run a query\n"
            << "  insert <table> <cells...> <prob>  append a tuple\n"
            << "  delete <table> <key>     delete rows matching the key\n"
            << "  setprob <var> <p>        update a variable's marginal\n"
            << "  view <name> [SELECT ...] register / print a view\n"
            << "  views                    list materialized views\n"
            << "  stats [--json]           metrics snapshot (table or JSON\n"
            << "                           Lines)\n"
            << "  threads [n]              show or set the thread count\n"
            << "                           (0 = serial, -1 = all cores)\n"
            << "  shards [n]               show or set the shard count\n"
            << "                           (0 = single database)\n"
            << "  open <dir>               make the session durable: recover\n"
            << "                           <dir> if it holds state, else\n"
            << "                           snapshot the current state there\n"
            << "  save                     write a checkpoint (new snapshot\n"
            << "                           generation, fresh WAL)\n"
            << "  log                      durability status (generation,\n"
            << "                           WAL records/bytes, recovery info)\n"
            << "  help | quit\n";
}

// Prints the per-row probability lines shared by both engine modes.
void PrintRowProbabilities(
    const Schema& schema, const std::vector<double>& probabilities,
    const std::function<Distribution(size_t, const std::string&)>&
        conditional_agg) {
  for (size_t i = 0; i < probabilities.size(); ++i) {
    std::cout << "P[row " << i << "] = " << probabilities[i];
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      if (schema.column(c).type == CellType::kAggExpr) {
        const std::string& name = schema.column(c).name;
        std::cout << "  " << name << " | present ~ "
                  << conditional_agg(i, name).ToString();
      }
    }
    std::cout << "\n";
  }
}

void RunSql(Session* session, const std::string& sql) {
  ParseResult parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    std::cout << parsed.error << "\n";
    return;
  }
  try {
    if (session->sharded() != nullptr) {
      ShardedDatabase& db = *session->sharded();
      ShardedResult result = db.Run(*parsed.query);
      std::cout << db.ResultToString(result);
      std::vector<double> probabilities = db.TupleProbabilities(result);
      PrintRowProbabilities(
          result.schema(), probabilities,
          [&](size_t i, const std::string& name) {
            return db.ConditionalAggregateDistribution(result, i, name);
          });
    } else {
      Database& db = *session->db();
      PvcTable result = db.Run(*parsed.query);
      std::cout << result.ToString(&db.pool());
      // Batch step II: fans across db.eval_options().num_threads threads.
      std::vector<double> probabilities = db.TupleProbabilities(result);
      PrintRowProbabilities(
          result.schema(), probabilities,
          [&](size_t i, const std::string& name) {
            return db.ConditionalAggregateDistribution(result, i, name);
          });
    }
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
  }
}

void Classify(const Database& db, const std::string& sql) {
  ParseResult parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    std::cout << parsed.error << "\n";
    return;
  }
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
  std::cout << "hierarchical: " << (r.hierarchical ? "yes" : "no")
            << "; Q_ind: " << (r.in_qind ? "yes" : "no")
            << "; Q_hie: " << (r.in_qhie ? "yes" : "no") << " ("
            << r.explanation << ")\n";
}

bool LoadInto(Session* session, const std::string& table,
              const std::string& path) {
  CsvResult r = session->sharded() != nullptr
                    ? LoadCsvTableFromFile(session->sharded(), table, path)
                    : LoadCsvTableFromFile(session->db(), table, path);
  if (r.ok) {
    std::cout << "loaded " << r.rows << " rows into " << table << "\n";
  } else {
    std::cout << "error: " << r.error << "\n";
  }
  return r.ok;
}

void ApplyThreads(Session* session) {
  EvalOptions& options = session->sharded() != nullptr
                             ? session->sharded()->eval_options()
                             : session->db()->eval_options();
  options.num_threads = session->num_threads;
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

bool RunInsert(Session* session, std::istream& stream, bool quiet) {
  std::string table;
  stream >> table;
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(token);
  const Database& catalog = session->catalog();
  if (table.empty() || !catalog.HasTable(table)) {
    std::cout << "no table '" << table << "'\n";
    return false;
  }
  const Schema& schema = catalog.table(table).schema();
  if (tokens.size() != schema.NumColumns() + 1) {
    std::cout << "usage: insert <table> <" << schema.NumColumns()
              << " cells> <prob>\n";
    return false;
  }
  std::vector<Cell> cells(schema.NumColumns());
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (!ParseCellToken(tokens[i], schema.column(i).type, &cells[i])) {
      std::cout << "cannot parse '" << tokens[i] << "' for column '"
                << schema.column(i).name << "'\n";
      return false;
    }
  }
  double p = 0.0;
  // The negated >= form also rejects NaN (every NaN comparison is false).
  if (!ParseFullDouble(tokens.back(), &p) || !(p >= 0.0 && p <= 1.0)) {
    std::cout << "bad probability '" << tokens.back() << "'\n";
    return false;
  }
  try {
    if (session->sharded() != nullptr) {
      session->sharded()->InsertTuple(table, std::move(cells), p);
    } else {
      session->db()->InsertTuple(table, std::move(cells), p);
    }
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return false;
  }
  if (!quiet) {
    std::cout << "inserted into " << table << " ("
              << session->catalog().table(table).NumRows() << " rows)\n";
  }
  return true;
}

bool RunDelete(Session* session, std::istream& stream, bool quiet) {
  std::string table;
  std::string key_token;
  stream >> table >> key_token;
  const Database& catalog = session->catalog();
  if (table.empty() || key_token.empty() || !catalog.HasTable(table)) {
    std::cout << (catalog.HasTable(table) ? "usage: delete <table> <key>\n"
                                          : "no table '" + table + "'\n");
    return false;
  }
  Cell key;
  CellType key_type = catalog.table(table).schema().column(0).type;
  if (!ParseCellToken(key_token, key_type, &key)) {
    std::cout << "cannot parse key '" << key_token << "'\n";
    return false;
  }
  size_t removed = 0;
  try {
    removed = session->sharded() != nullptr
                  ? session->sharded()->DeleteTuple(table, key)
                  : session->db()->DeleteTuple(table, key);
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return false;
  }
  if (!quiet) {
    std::cout << "deleted " << removed << " rows from " << table << "\n";
  }
  return true;
}

bool RunSetProb(Session* session, std::istream& stream, bool quiet) {
  std::string var_token;
  std::string p_token;
  stream >> var_token >> p_token;
  if (!var_token.empty() && var_token[0] == 'x') {
    var_token = var_token.substr(1);
  }
  // Both arguments must parse in full -- a typo like "0..5" must not
  // silently become a destructive p = 0 update.
  VarId var = 0;
  double p = -1.0;
  try {
    size_t pos = 0;
    var = static_cast<VarId>(std::stoul(var_token, &pos));
    if (pos != var_token.size()) throw std::invalid_argument(var_token);
  } catch (const std::exception&) {
    std::cout << "usage: setprob <var> <p in [0,1]>\n";
    return false;
  }
  // The negated >= form also rejects NaN (every NaN comparison is false).
  if (!ParseFullDouble(p_token, &p) || !(p >= 0.0 && p <= 1.0)) {
    std::cout << "usage: setprob <var> <p in [0,1]>\n";
    return false;
  }
  const VariableTable& variables = session->catalog().variables();
  if (var >= variables.size()) {
    std::cout << "unknown variable x" << var << "\n";
    return false;
  }
  try {
    if (session->sharded() != nullptr) {
      session->sharded()->UpdateProbability(var, p);
    } else {
      session->db()->UpdateProbability(var, p);
    }
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return false;
  }
  if (!quiet) {
    std::cout << "P[" << variables.NameOf(var) << " = 1] = " << p << "\n";
  }
  return true;
}

// Re-applies a logged mutation line ("insert ...", "delete ...",
// "setprob ...") -- the reshard replay path.
bool ApplyMutationLine(Session* session, const std::string& line,
                       bool quiet) {
  std::istringstream stream(line);
  std::string command;
  stream >> command;
  if (command == "insert") return RunInsert(session, stream, quiet);
  if (command == "delete") return RunDelete(session, stream, quiet);
  if (command == "setprob") return RunSetProb(session, stream, quiet);
  return false;
}

bool RegisterViewCommand(Session* session, const std::string& name,
                         const std::string& sql, bool quiet) {
  ParseResult parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    std::cout << parsed.error << "\n";
    return false;
  }
  try {
    size_t rows = 0;
    if (session->sharded() != nullptr) {
      session->sharded()->RegisterView(name, parsed.query);
      rows = session->sharded()->ViewResult(name).NumRows();
    } else {
      rows = session->db()->RegisterView(name, parsed.query).NumRows();
    }
    if (!quiet) {
      std::cout << "view " << name << " registered (" << rows << " rows)\n";
    }
    return true;
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return false;
  }
}

void PrintView(Session* session, const std::string& name) {
  try {
    if (session->sharded() != nullptr) {
      ShardedDatabase& db = *session->sharded();
      if (!db.HasView(name)) {
        std::cout << "no view '" << name << "'\n";
        return;
      }
      ShardedResult result = db.ViewResult(name);
      std::cout << db.ResultToString(result);
      PrintRowProbabilities(
          result.schema(), db.ViewProbabilities(name),
          [&](size_t i, const std::string& column) {
            return db.ConditionalAggregateDistribution(result, i, column);
          });
    } else {
      Database& db = *session->db();
      if (!db.HasView(name)) {
        std::cout << "no view '" << name << "'\n";
        return;
      }
      const PvcTable& result = db.ViewTable(name);
      std::cout << result.ToString(&db.pool());
      PrintRowProbabilities(
          result.schema(), db.ViewProbabilities(name),
          [&](size_t i, const std::string& column) {
            return db.ConditionalAggregateDistribution(result, i, column);
          });
    }
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
  }
}

void ListViews(Session* session) {
  if (session->sharded() != nullptr) {
    for (const ShardedDatabase::ViewInfo& info :
         session->sharded()->ViewInfos()) {
      std::cout << info.name << " (" << info.plan << ", " << info.rows
                << " rows, " << info.cache_entries << " cached d-trees)\n";
    }
    return;
  }
  Database& db = *session->db();
  for (const std::string& name : db.ViewNames()) {
    const MaterializedView& view = db.views().view(name);
    std::cout << name << " ("
              << MaterializedView::PlanName(view.plan()) << ", "
              << db.ViewTable(name).NumRows() << " rows, "
              << view.step_two().LiveEntries(db.ViewTable(name))
              << " cached d-trees)\n";
  }
}

void Reshard(Session* session, int n) {
  // A durable session reshards through its WAL: the kReshard record is
  // logged and the engine rebuilt from its own captured state -- no
  // history replay, and the topology survives a restart.
  if (session->durable != nullptr) {
    std::string error;
    if (!session->durable->Reshard(static_cast<uint64_t>(n), &error)) {
      std::cout << "error: " << error << "\n";
      return;
    }
    ApplyThreads(session);
    std::cout << "shards = " << n << " (durable reshard logged)\n";
    return;
  }

  // The new engine is built and the session history replayed onto it, in
  // the original command order, before the old engine is torn down. The
  // history survives failed replays (e.g. a CSV that has vanished), so a
  // broken line only skips its effect for this topology instead of
  // dropping it from the session for good.
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardedDatabase> sharded;
  if (n >= 1) {
    sharded = std::make_unique<ShardedDatabase>(static_cast<size_t>(n));
  } else {
    db = std::make_unique<Database>();
  }
  std::swap(session->owned_db, db);
  std::swap(session->owned_sharded, sharded);
  ApplyThreads(session);
  size_t reloaded = 0;
  size_t replayed = 0;
  size_t views = 0;
  for (const std::string& line : session->history) {
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command == "load") {
      std::string table;
      std::string path;
      stream >> table >> path;
      if (LoadInto(session, table, path)) ++reloaded;
    } else if (command == "view") {
      std::string name;
      std::string rest;
      stream >> name;
      std::getline(stream, rest);
      size_t sql_start = rest.find_first_not_of(" \t");
      if (sql_start != std::string::npos &&
          RegisterViewCommand(session, name, rest.substr(sql_start),
                              /*quiet=*/true)) {
        ++views;
      }
    } else if (ApplyMutationLine(session, line, /*quiet=*/true)) {
      ++replayed;
    }
  }
  std::cout << "shards = " << n << " (" << reloaded
            << " tables re-imported, " << replayed
            << " mutations replayed, " << views << " views)\n";
}

void OpenDurable(Session* session, const std::string& dir) {
  if (session->durable != nullptr) {
    std::cout << "already durable at " << session->durable->dir()
              << " (one directory per session)\n";
    return;
  }
  DurableConfig config;
  config.dir = dir;
  std::string error;
  std::unique_ptr<DurableSession> durable;
  const bool recovered = DurableSession::HasState(DefaultFileSystem(), dir);
  try {
    durable = recovered ? DurableSession::Recover(config, &error)
                        : DurableSession::Create(
                              config,
                              session->sharded() != nullptr
                                  ? CaptureState(*session->sharded())
                                  : CaptureState(*session->db()),
                              &error);
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return;
  }
  if (durable == nullptr) {
    std::cout << "error: " << error << "\n";
    return;
  }
  // The durable engine was rebuilt from the captured / recovered state
  // (bit-identical to the live one); the undurable engines retire.
  session->durable = std::move(durable);
  session->owned_db.reset();
  session->owned_sharded.reset();
  ApplyThreads(session);
  DurableStats stats = session->durable->stats();
  if (recovered) {
    std::cout << "recovered " << dir << " (generation " << stats.generation
              << ", " << stats.replayed_records << " WAL records replayed"
              << (stats.tail_truncated ? ", torn tail truncated" : "")
              << ")\n";
  } else {
    std::cout << "opened " << dir << " (generation " << stats.generation
              << ", " << session->catalog().TableNames().size()
              << " tables snapshotted)\n";
  }
}

void PrintDurabilityLog(Session* session) {
  if (session->durable == nullptr) {
    std::cout << "not durable (use 'open <dir>')\n";
    return;
  }
  DurableStats stats = session->durable->stats();
  std::cout << "dir = " << session->durable->dir() << "\n"
            << "generation = " << stats.generation << "\n"
            << "wal_records = " << stats.wal_records << "\n"
            << "wal_bytes = " << stats.wal_bytes << "\n"
            << "recovered = " << (stats.recovered ? "yes" : "no") << "\n"
            << "replayed_records = " << stats.replayed_records << "\n"
            << "tail_truncated = " << (stats.tail_truncated ? "yes" : "no")
            << "\n";
}

// Client mode: one request/reply conversation per input line against a
// running pvcdb_server. quit/exit terminate locally (like the local shell);
// shutdown is forwarded, its reply printed, and the session ends.
int RunClient(const std::string& address) {
  IgnoreSigPipe();
  std::string error;
  Socket sock = ConnectWithRetry(address, 100, &error);
  if (!sock.valid()) {
    std::cout << "error: " << error << "\n";
    return 1;
  }
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::cout << "pvcdb shell -- connected to " << address
              << " ('help' for commands)\n";
  }
  std::string line;
  while (true) {
    if (interactive) std::cout << "pvcdb> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (!SendFrame(&sock, static_cast<uint8_t>(MsgKind::kClientCommand),
                   line)) {
      std::cout << "error: connection to " << address << " lost\n";
      return 1;
    }
    uint8_t kind = 0;
    std::string payload;
    FrameResult r = RecvFrame(&sock, &kind, &payload);
    if (r == FrameResult::kClosed) {
      // Orderly close on a frame boundary: the server evicted this client
      // (idle timeout) or shut down. Distinct from a torn connection.
      std::cout << "error: server closed connection to " << address << "\n";
      return 1;
    }
    if (r != FrameResult::kOk ||
        static_cast<MsgKind>(kind) != MsgKind::kClientReply) {
      std::cout << "error: connection to " << address << " lost\n";
      return 1;
    }
    ClientReplyMsg reply;
    if (!ClientReplyMsg::Decode(payload, &reply)) {
      std::cout << "error: malformed reply from server\n";
      return 1;
    }
    std::cout << reply.text << std::flush;
    if (command == "shutdown") break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_address;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_address = argv[++i];
    } else {
      std::cout << "usage: pvcdb_shell [--connect <addr>]\n";
      return 2;
    }
  }
  if (!connect_address.empty()) return RunClient(connect_address);

  Session session;
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::cout << "pvcdb shell -- 'help' for commands\n";
  }
  std::string line;
  while (true) {
    if (interactive) std::cout << "pvcdb> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "load") {
      std::string table;
      std::string path;
      stream >> table >> path;
      if (table.empty() || path.empty()) {
        std::cout << "usage: load <table> <file.csv>\n";
        continue;
      }
      if (LoadInto(&session, table, path)) {
        session.history.push_back(line);
      }
    } else if (command == "tables") {
      const Database& catalog = session.catalog();
      for (const std::string& name : catalog.TableNames()) {
        std::cout << name << " (" << catalog.table(name).NumRows() << " rows";
        if (session.sharded() != nullptr) {
          std::cout << "; per shard:";
          for (size_t count : session.sharded()->ShardRowCounts(name)) {
            std::cout << " " << count;
          }
        }
        std::cout << ")\n";
      }
    } else if (command == "show") {
      std::string table;
      stream >> table;
      const Database& catalog = session.catalog();
      if (!catalog.HasTable(table)) {
        std::cout << "no table '" << table << "'\n";
        continue;
      }
      std::cout << catalog.table(table).ToString(&catalog.pool());
    } else if (command == "tractable") {
      std::string rest;
      std::getline(stream, rest);
      Classify(session.catalog(), rest);
    } else if (command == "insert" || command == "delete" ||
               command == "setprob") {
      if (ApplyMutationLine(&session, line, /*quiet=*/false)) {
        session.history.push_back(line);
      }
    } else if (command == "view") {
      std::string name;
      stream >> name;
      std::string rest;
      std::getline(stream, rest);
      size_t sql_start = rest.find_first_not_of(" \t");
      if (name.empty()) {
        std::cout << "usage: view <name> [SELECT ...]\n";
      } else if (sql_start == std::string::npos) {
        PrintView(&session, name);
      } else {
        std::string sql = rest.substr(sql_start);
        if (RegisterViewCommand(&session, name, sql, /*quiet=*/false)) {
          session.history.push_back(line);
        }
      }
    } else if (command == "views") {
      ListViews(&session);
    } else if (command == "stats") {
      std::string flag;
      stream >> flag;
      if (!flag.empty() && flag != "--json") {
        std::cout << "usage: stats [--json]\n";
      } else {
        std::vector<MetricSnapshot> entries =
            MetricsRegistry::Global().Snapshot();
        std::cout << (flag == "--json" ? RenderMetricsJson(entries)
                                       : RenderMetricsTable(entries));
      }
    } else if (command == "threads") {
      int n = 0;
      if (stream >> n) {
        session.num_threads = n;
        ApplyThreads(&session);
      }
      std::cout << "num_threads = " << session.num_threads
                << " (0 = serial; " << DefaultThreadCount()
                << " hardware threads)\n";
    } else if (command == "shards") {
      int n = 0;
      if (stream >> n) {
        if (n < 0) {
          std::cout << "usage: shards <n >= 0>\n";
          continue;
        }
        Reshard(&session, n);
      } else {
        std::cout << "shards = "
                  << (session.sharded() != nullptr
                          ? static_cast<int>(session.sharded()->num_shards())
                          : 0)
                  << " (0 = single database; router "
                  << (session.sharded() != nullptr
                          ? session.sharded()->router().name()
                          : "fnv1a")
                  << ")\n";
      }
    } else if (command == "open") {
      std::string dir;
      stream >> dir;
      if (dir.empty()) {
        std::cout << "usage: open <dir>\n";
        continue;
      }
      OpenDurable(&session, dir);
    } else if (command == "save") {
      if (session.durable == nullptr) {
        std::cout << "no durable directory open -- use 'open <dir>'\n";
        continue;
      }
      std::string error;
      if (session.durable->Checkpoint(&error)) {
        std::cout << "checkpoint written (generation "
                  << session.durable->stats().generation << ")\n";
      } else {
        std::cout << "error: " << error << "\n";
      }
    } else if (command == "log") {
      PrintDurabilityLog(&session);
    } else if (command == "SELECT" || command == "select") {
      RunSql(&session, line);
    } else {
      std::cout << "unknown command '" << command << "' -- try 'help'\n";
    }
  }
  return 0;
}
