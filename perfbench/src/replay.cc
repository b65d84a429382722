#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <utility>

#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/query/parser.h"
#include "src/serve/server.h"
#include "src/util/io.h"
#include "src/util/metrics.h"

namespace pvcbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kReplayCommands = 600;
constexpr size_t kMaxRecordedFailures = 5;

// -- The timed file system --------------------------------------------------

class TimedFile : public pvcdb::WritableFile {
 public:
  TimedFile(std::unique_ptr<pvcdb::WritableFile> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Append(const void* data, size_t n) override {
    ScopedSpan span(tracer_, "engine.wal_append");
    return inner_->Append(data, n);
  }
  bool Sync() override {
    ScopedSpan span(tracer_, "engine.wal_sync");
    return inner_->Sync();
  }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<pvcdb::WritableFile> inner_;
  Tracer* tracer_;
};

/// DefaultFileSystem() with every WAL/snapshot append and fsync timed.
class TimedFileSystem : public pvcdb::FileSystem {
 public:
  explicit TimedFileSystem(Tracer* tracer)
      : inner_(pvcdb::DefaultFileSystem()), tracer_(tracer) {}

  std::unique_ptr<pvcdb::WritableFile> OpenForAppend(
      const std::string& path, std::string* error) override {
    std::unique_ptr<pvcdb::WritableFile> file =
        inner_->OpenForAppend(path, error);
    if (file == nullptr) return nullptr;
    return std::make_unique<TimedFile>(std::move(file), tracer_);
  }
  bool ReadFile(const std::string& path, std::string* out,
                std::string* error) override {
    return inner_->ReadFile(path, out, error);
  }
  bool Truncate(const std::string& path, uint64_t size,
                std::string* error) override {
    return inner_->Truncate(path, size, error);
  }
  bool Rename(const std::string& from, const std::string& to,
              std::string* error) override {
    return inner_->Rename(from, to, error);
  }
  bool Remove(const std::string& path, std::string* error) override {
    return inner_->Remove(path, error);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  bool CreateDir(const std::string& path, std::string* error) override {
    return inner_->CreateDir(path, error);
  }
  std::vector<std::string> ListDir(const std::string& path) override {
    return inner_->ListDir(path);
  }

 private:
  pvcdb::FileSystem* inner_;
  Tracer* tracer_;
};

// -- The traced backend -----------------------------------------------------

bool SameBits(const pvcdb::Distribution& a, const pvcdb::Distribution& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    if (x.first != y.first ||
        std::memcmp(&x.second, &y.second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Forwards to the engine exactly as InProcessBackend does, with spans
/// around every call. Probe state is collected during a command and run
/// after it, outside the command's root span.
class TracedBackend : public pvcdb::ServeBackend {
 public:
  TracedBackend(pvcdb::ShardedDatabase* db, Tracer* tracer)
      : db_(db), inner_(db), tracer_(tracer) {}

  const pvcdb::Database& catalog() const override { return inner_.catalog(); }
  size_t num_shards() const override { return inner_.num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    ScopedSpan span(tracer_, "engine.other");
    return inner_.ShardRowCounts(name);
  }
  pvcdb::CsvResult LoadCsv(const std::string& table,
                           const std::string& path) override {
    ScopedSpan span(tracer_, "engine.load");
    return inner_.LoadCsv(table, path);
  }
  // InProcessBackend::RunQuery, one span per engine call.
  pvcdb::QueryRun RunQuery(const pvcdb::Query& q) override {
    std::shared_ptr<pvcdb::ShardedResult> state;
    {
      ScopedSpan span(tracer_, "engine.step1");
      state = std::make_shared<pvcdb::ShardedResult>(db_->Run(q));
    }
    pvcdb::QueryRun run;
    run.schema = state->schema();
    {
      ScopedSpan span(tracer_, "engine.render");
      run.text = db_->ResultToString(*state);
    }
    {
      ScopedSpan span(tracer_, "engine.step2");
      run.probabilities = db_->TupleProbabilities(*state);
    }
    run.distributed = state->distributed();
    run.backend_state = state;
    probe_query_ = true;
    return run;
  }
  pvcdb::Distribution ConditionalAgg(const pvcdb::QueryRun& run,
                                     size_t row_index,
                                     const std::string& column) override {
    ScopedSpan span(tracer_, "engine.cond_agg");
    return inner_.ConditionalAgg(run, row_index, column);
  }
  void Insert(const std::string& table, std::vector<pvcdb::Cell> cells,
              double p) override {
    ScopedSpan span(tracer_, "engine.mutation");
    inner_.Insert(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const pvcdb::Cell& key) override {
    ScopedSpan span(tracer_, "engine.mutation");
    return inner_.Delete(table, key);
  }
  void SetProb(pvcdb::VarId var, double p) override {
    ScopedSpan span(tracer_, "engine.mutation");
    inner_.SetProb(var, p);
  }
  size_t RegisterView(const std::string& name, pvcdb::QueryPtr query,
                      std::vector<std::string>* warnings) override {
    ScopedSpan span(tracer_, "engine.register_view");
    view_queries_[name] = query;
    return inner_.RegisterView(name, std::move(query), warnings);
  }
  bool HasView(const std::string& name) override {
    ScopedSpan span(tracer_, "engine.other");
    return inner_.HasView(name);
  }
  // InProcessBackend::PrintView, one span per engine call.
  pvcdb::QueryRun PrintView(const std::string& name) override {
    ScopedSpan outer(tracer_, "engine.view_print");
    auto state =
        std::make_shared<pvcdb::ShardedResult>(db_->ViewResult(name));
    pvcdb::QueryRun run;
    run.schema = state->schema();
    {
      ScopedSpan span(tracer_, "engine.render");
      run.text = db_->ResultToString(*state);
    }
    {
      ScopedSpan span(tracer_, "engine.step2");
      run.probabilities = db_->ViewProbabilities(name);
    }
    run.distributed = state->distributed();
    run.backend_state = state;
    probe_view_ = name;
    return run;
  }
  std::vector<pvcdb::ShardedDatabase::ViewInfo> ViewInfos() override {
    ScopedSpan span(tracer_, "engine.other");
    return inner_.ViewInfos();
  }
  std::string Workers() override { return inner_.Workers(); }
  bool Respawn(size_t shard, std::string* message) override {
    return inner_.Respawn(shard, message);
  }
  void SetEvalOptions(int num_threads, int intra_tree_threads) override {
    inner_.SetEvalOptions(num_threads, intra_tree_threads);
  }
  std::vector<pvcdb::MetricSnapshot> StatsSnapshot() override {
    return inner_.StatsSnapshot();
  }

  /// The d-tree probe over the rows of the command just executed (a SELECT
  /// `line` or a view print): re-evaluates step I on the replica, then
  /// clones, compiles and computes each row's annotation distribution under
  /// its own spans. False + `*error` when a row disagrees with
  /// IsolatedAnnotationDistribution.
  bool Probe(const std::string& line, std::string* error) {
    pvcdb::QueryPtr query;
    if (probe_query_) {
      pvcdb::ParseResult parsed = pvcdb::ParseQuery(line);
      query = parsed.query;
    } else if (!probe_view_.empty()) {
      query = view_queries_[probe_view_];
    }
    SkipProbe();
    if (query == nullptr) return true;
    ScopedSpan root(tracer_, "probe");
    pvcdb::Database& replica = db_->coordinator();
    pvcdb::PvcTable table{pvcdb::Schema{}};
    {
      ScopedSpan span(tracer_, "probe.step1");
      table = replica.Run(*query);
    }
    const pvcdb::ExprPool& pool = replica.pool();
    const pvcdb::VariableTable& vars = replica.variables();
    const pvcdb::CompileOptions options = replica.compile_options();
    for (size_t i = 0; i < table.NumRows(); ++i) {
      pvcdb::ExprId annotation = table.row(i).annotation;
      pvcdb::ExprPool local(pool.semiring().kind());
      pvcdb::ExprId e;
      {
        ScopedSpan span(tracer_, "expr.clone");
        e = pool.CloneInto(&local, annotation);
      }
      pvcdb::DTreeCompiler compiler(&local, &vars, options);
      pvcdb::DTree tree;
      {
        ScopedSpan span(tracer_, "dtree.compile");
        tree = compiler.Compile(e);
      }
      pvcdb::Distribution d;
      {
        ScopedSpan span(tracer_, "dtree.prob");
        d = pvcdb::ComputeDistribution(tree, vars, local.semiring());
      }
      pvcdb::Distribution expected;
      {
        ScopedSpan span(tracer_, "probe.isolated");
        expected = pvcdb::IsolatedAnnotationDistribution(pool, vars,
                                                         annotation, options);
      }
      ++rows_;
      nodes_ += static_cast<double>(tree.size());
      shannon_ += static_cast<double>(compiler.stats().mutex_expansions);
      if (!SameBits(d, expected)) {
        *error = "d-tree probe of row " + std::to_string(i) + " gives " +
                 d.ToString() + ", IsolatedAnnotationDistribution gives " +
                 expected.ToString();
        return false;
      }
    }
    return true;
  }

  /// Forgets the command just executed (the untraced pre-warm pass).
  void SkipProbe() {
    probe_query_ = false;
    probe_view_.clear();
  }

  double rows_probed() const { return rows_; }
  double nodes() const { return nodes_; }
  double shannon() const { return shannon_; }

 private:
  pvcdb::ShardedDatabase* db_;
  pvcdb::InProcessBackend inner_;
  Tracer* tracer_;
  std::map<std::string, pvcdb::QueryPtr> view_queries_;
  bool probe_query_ = false;
  std::string probe_view_;
  double rows_ = 0.0;
  double nodes_ = 0.0;
  double shannon_ = 0.0;
};

std::string SpanJson(const Span& s, double self_ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"command\": %d, \"parent\": %d, "
                "\"start_ms\": %.6f, \"end_ms\": %.6f, \"self_ms\": %.6f}\n",
                s.name.c_str(), s.command, s.parent, s.start_ms, s.end_ms,
                self_ms);
  return buf;
}

// Runs one set-up command (loads, views) outside any traced command.
bool SetupCommand(pvcdb::ServeBackend* backend, pvcdb::ServeSession* session,
                  const std::string& line, std::string* error) {
  bool shutdown = false;
  pvcdb::ClientReplyMsg reply =
      pvcdb::ExecuteCommand(backend, line, &shutdown, session);
  if (!reply.ok) {
    *error = "'" + line + "' failed: " + reply.text;
    return false;
  }
  return true;
}

bool LoadAndSetUp(const Workload& workload, pvcdb::ServeBackend* backend,
                  pvcdb::ServeSession* session, std::string* error) {
  for (const auto& [table, file] : workload.loads) {
    if (!SetupCommand(backend, session, "load " + table + " " + file, error)) {
      return false;
    }
  }
  for (const std::string& line : workload.setup) {
    if (!SetupCommand(backend, session, line, error)) return false;
  }
  return true;
}

// Opens a fresh durable session over `dir` with `num_shards` shards.
std::unique_ptr<pvcdb::DurableSession> OpenDurable(pvcdb::FileSystem* fs,
                                                   const std::string& dir,
                                                   bool recover,
                                                   std::string* error) {
  pvcdb::DurableConfig config;
  config.dir = dir;
  config.fs = fs;
  config.sync = true;  // The served default: fsync per acknowledged mutation.
  std::unique_ptr<pvcdb::DurableSession> session;
  if (recover) {
    session = pvcdb::DurableSession::Recover(config, error);
  } else {
    pvcdb::EngineState initial;
    initial.num_shards = static_cast<uint64_t>(kShards);
    session = pvcdb::DurableSession::Create(config, initial, error);
  }
  if (session == nullptr) return nullptr;
  if (session->sharded() == nullptr ||
      session->sharded()->num_shards() != static_cast<size_t>(kShards)) {
    if (!session->Reshard(static_cast<uint64_t>(kShards), error)) {
      return nullptr;
    }
  }
  return session;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::Open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.command = command_;
  s.start_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int span) {
  spans_[static_cast<size_t>(span)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

bool ComputeReferences(const Workload& workload, size_t shards,
                       References* out, std::string* error) {
  pvcdb::ShardedDatabase db(shards);
  pvcdb::InProcessBackend backend(&db);
  if (!LoadAndSetUp(workload, &backend, nullptr, error)) return false;
  for (std::vector<std::string>* pass : {&out->first_pass, &out->steady}) {
    pass->clear();
    for (const Command& c : workload.pool) {
      bool shutdown = false;
      pvcdb::ClientReplyMsg reply =
          pvcdb::ExecuteCommand(&backend, c.text, &shutdown, nullptr);
      if (!reply.ok) {
        *error = "reference '" + c.text + "' failed: " + reply.text;
        return false;
      }
      pass->push_back(std::move(reply.text));
    }
  }
  return true;
}

ReplayResult RunReplay(const Workload& workload, const References* refs,
                       double max_seconds, const std::string& trace_path) {
  ReplayResult result;
  Tracer tracer;
  TimedFileSystem timed_fs(&tracer);
  auto fail = [&result](int client, size_t index, const std::string& command,
                        const std::string& detail) {
    ++result.failed;
    if (result.failures.size() < kMaxRecordedFailures) {
      result.failures.push_back(Failure{client, index, command, detail});
    }
  };

  std::unique_ptr<pvcdb::ShardedDatabase> volatile_db;
  std::unique_ptr<pvcdb::DurableSession> durable;
  pvcdb::ShardedDatabase* db = nullptr;
  std::string error;
  if (workload.durable) {
    durable = OpenDurable(&timed_fs, "replay.db", false, &error);
    if (durable == nullptr) {
      fail(-1, 0, "open replay.db", error);
      return result;
    }
    db = durable->sharded();
  } else {
    volatile_db = std::make_unique<pvcdb::ShardedDatabase>(
        static_cast<size_t>(kShards));
    db = volatile_db.get();
  }
  TracedBackend backend(db, &tracer);
  pvcdb::ServeSession session;
  session.durable = durable.get();
  if (!LoadAndSetUp(workload, &backend, &session, &error)) {
    fail(-1, 0, "set-up", error);
    return result;
  }

  // Read workloads: the untraced pre-warm pass every server gets (see
  // References), so the traced commands meet the state the timed window
  // measures.
  if (!workload.durable) {
    for (size_t i = 0; i < workload.pool.size(); ++i) {
      const Command& command = workload.pool[i];
      bool shutdown = false;
      pvcdb::ClientReplyMsg reply =
          pvcdb::ExecuteCommand(&backend, command.text, &shutdown, &session);
      backend.SkipProbe();
      std::string detail = CheckReply(command, reply, &refs->first_pass);
      if (!detail.empty()) fail(-1, i, command.text, "pre-warm: " + detail);
    }
  }

  // The traced commands: the clients' own seeded streams, interleaved
  // round-robin.
  std::vector<ClientStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(workload, c);
  std::vector<size_t> next_index(streams.size(), 0);
  const std::vector<std::string>* references = refs ? &refs->steady : nullptr;

  double parse_ms = 0.0;
  double reply_bytes = 0.0;
  std::vector<bool> is_write;  // By command id.
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < kReplayCommands; ++i) {
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        max_seconds) {
      break;
    }
    size_t client = i % streams.size();
    Command command = streams[client].Next();
    size_t index = next_index[client]++;
    pvcdb::ClientReplyMsg reply;
    tracer.BeginCommand(static_cast<int>(result.commands));
    {
      pvcdb::CommandTraceScope trace_scope(command.text);
      ScopedSpan root(&tracer, "serve.execute");
      bool shutdown = false;
      reply = pvcdb::ExecuteCommand(&backend, command.text, &shutdown, &session);
    }
    std::vector<pvcdb::CommandTrace> recent = pvcdb::TraceLog::Global().Recent();
    if (!recent.empty()) {
      for (const pvcdb::PhaseTiming& phase : recent.back().phases) {
        if (std::strcmp(phase.phase, "parse") == 0) parse_ms += phase.ms;
      }
    }
    std::string probe_error;
    bool probed = backend.Probe(command.text, &probe_error);
    tracer.EndCommand();
    ++result.commands;
    is_write.push_back(command.write);
    (command.write ? result.writes : result.reads) += 1;
    if (!command.write) reply_bytes += static_cast<double>(reply.text.size());

    std::string detail = probed ? CheckReply(command, reply, references)
                                : probe_error;
    if (!detail.empty()) {
      fail(static_cast<int>(client), index, command.text, detail);
    }
  }

  double pool_nodes = static_cast<double>(db->coordinator().pool().NumNodes());

  // Durable: the replayed state must equal a fresh recovery of its
  // directory, command by command.
  if (workload.durable) {
    std::vector<std::string> live;
    for (const std::string& line : workload.final_checks) {
      bool shutdown = false;
      live.push_back(
          pvcdb::ExecuteCommand(&backend, line, &shutdown, &session).text);
    }
    session.durable = nullptr;
    durable.reset();
    std::unique_ptr<pvcdb::DurableSession> recovered = OpenDurable(
        pvcdb::DefaultFileSystem(), "replay.db", true, &error);
    if (recovered == nullptr) {
      fail(-1, 0, "recover replay.db", error);
    } else {
      pvcdb::InProcessBackend check(recovered->sharded());
      for (size_t i = 0; i < workload.final_checks.size(); ++i) {
        bool shutdown = false;
        std::string text = pvcdb::ExecuteCommand(
                               &check, workload.final_checks[i], &shutdown)
                               .text;
        if (text != live[i]) {
          fail(-1, i, workload.final_checks[i],
               "in-process recovery differs at " +
                   FirstDifference(live[i], text));
        }
      }
    }
  }

  // Self times by span name, over the spans of the replayed commands (the
  // probe runs after each command, outside its serve.execute root).
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> self = SelfTimes(spans);
  std::vector<int> root_of(spans.size(), -1);
  std::set<std::string> command_span_names;
  std::ofstream trace(trace_path, std::ios::trunc);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? static_cast<int>(i)
                              : root_of[static_cast<size_t>(s.parent)];
    trace << SpanJson(s, self[i]);
    if (s.command < 0 || s.name == "probe") continue;
    result.self_ms[s.name] += self[i];
    const Span& root = spans[static_cast<size_t>(root_of[i])];
    if (root.name != "serve.execute") continue;
    command_span_names.insert(s.name);
    if (s.parent < 0) {
      double duration = s.end_ms - s.start_ms;
      result.command_ms += duration;
      if (is_write[static_cast<size_t>(s.command)]) {
        result.write_command_ms += duration;
      }
    }
    if (is_write[static_cast<size_t>(s.command)]) {
      result.write_self_ms[s.name] += self[i];
    }
  }

  double n = result.commands > 0 ? static_cast<double>(result.commands) : 1.0;
  auto per_command = [&](const char* span) {
    auto it = result.self_ms.find(span);
    return it == result.self_ms.end() ? 0.0 : it->second / n;
  };
  std::map<std::string, double>& m = result.metrics;
  m["query.parse_ms"] = parse_ms / n;
  // Every span a command can open, by the reported metric that carries its
  // self time.
  static const std::pair<const char*, const char*> kCommandSpans[] = {
      {"serve.execute", "serve.self_ms"},
      {"engine.step1", "engine.step1_ms"},
      {"engine.render", "engine.render_ms"},
      {"engine.step2", "engine.step2_ms"},
      {"engine.cond_agg", "engine.cond_agg_ms"},
      {"engine.mutation", "engine.mutation_ms"},
      {"engine.view_print", "engine.view_print_ms"},
      {"engine.wal_append", "engine.wal_append_ms"},
      {"engine.wal_sync", "engine.wal_sync_ms"},
      {"engine.other", "engine.other_ms"},
  };
  double reported_ms = 0.0;
  for (const auto& [span, metric] : kCommandSpans) {
    m[metric] = per_command(span);
    reported_ms += m[metric];
    command_span_names.erase(span);
  }
  m["serve.inprocess_ms"] = result.command_ms / n;
  // The reported metrics must account for every command's in-process time:
  // no span a command opened may be left out of them.
  for (const std::string& name : command_span_names) {
    fail(-1, 0, "span accounting",
         "span '" + name + "' inside a command maps to no reported metric");
  }
  double inprocess_ms = m["serve.inprocess_ms"];
  result.unaccounted_ms = inprocess_ms - reported_ms;
  if (std::abs(result.unaccounted_ms) > 1e-9 * (1.0 + inprocess_ms)) {
    fail(-1, 0, "span accounting",
         "serve.self_ms + the engine span metrics differ from "
             "serve.inprocess_ms by " +
             std::to_string(result.unaccounted_ms) + " ms per command");
  }
  m["serve.reply_bytes_per_read"] =
      result.reads > 0 ? reply_bytes / static_cast<double>(result.reads) : 0.0;
  m["dtree.compile_ms"] = per_command("dtree.compile");
  m["dtree.prob_ms"] = per_command("dtree.prob");
  m["expr.clone_ms"] = per_command("expr.clone");
  double rows = backend.rows_probed();
  m["dtree.nodes_per_row"] = rows > 0 ? backend.nodes() / rows : 0.0;
  m["dtree.shannon_per_row"] = rows > 0 ? backend.shannon() / rows : 0.0;
  m["expr.pool_nodes"] = pool_nodes;
  return result;
}

}  // namespace pvcbench
