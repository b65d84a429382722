// Durable serving proof (ISSUE 8 acceptance): the worker-side durability
// plane -- the (lsn, chain) position every logged mutation advances, the
// kReplayTail position probe, kShipWal tail replay and kReset -- and the
// coordinator-side resync decision over real standalone worker processes:
//
//  - A front-end "crash" (coordinator + attached DurableSession destroyed,
//    worker processes surviving) followed by RecoverAttached must
//    reconcile every worker with a TAIL resync of zero entries -- no
//    partition retransfer -- and serve bit-identical bytes.
//  - Blank replacement workers must take the full rebuild path, and the
//    shipped entry/byte counts must show the tail path's saving.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/coordinator.h"
#include "src/engine/shard_worker.h"
#include "src/engine/snapshot.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/query/parser.h"
#include "src/table/schema.h"
#include "tests/standalone_worker.h"

namespace pvcdb {
namespace {

HelloMsg TestHello() {
  HelloMsg hello;
  hello.shard_index = 0;
  hello.num_shards = 1;
  return hello;
}

// ---------------------------------------------------------------------------
// Worker durability plane, driven through the Handle() unit hook.
// ---------------------------------------------------------------------------

TEST(ShardWorkerDurabilityTest, LoggedMutationsAdvanceTheChain) {
  ShardWorker worker(TestHello());
  EXPECT_EQ(worker.lsn(), 0u);
  EXPECT_EQ(worker.chain(), 0u);

  SyncVarsMsg vars;
  vars.first_id = 0;
  vars.entries.push_back({"x0", Distribution::Bernoulli(0.9)});
  const std::string payload = vars.Encode();
  MsgKind rk = MsgKind::kError;
  std::string rp;
  ASSERT_TRUE(worker.Handle(MsgKind::kSyncVars, payload, &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  EXPECT_EQ(worker.lsn(), 1u);
  const uint32_t chain1 =
      ShardWorker::NextChain(0, MsgKind::kSyncVars, payload);
  EXPECT_EQ(worker.chain(), chain1);

  // kSetOptions is session state, not logged: the position must not move.
  EvalOptionsMsg opts;
  opts.num_threads = 2;
  ASSERT_TRUE(worker.Handle(MsgKind::kSetOptions, opts.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  EXPECT_EQ(worker.lsn(), 1u);
  EXPECT_EQ(worker.chain(), chain1);

  // Reads do not move it either.
  ASSERT_TRUE(worker.Handle(MsgKind::kPing, "", &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kPong);
  EXPECT_EQ(worker.lsn(), 1u);

  // kReplayTail reports exactly the pair the coordinator must prove
  // against.
  ReplayTailMsg probe;
  ASSERT_TRUE(worker.Handle(MsgKind::kReplayTail, probe.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kTailInfo);
  TailInfoMsg info;
  ASSERT_TRUE(TailInfoMsg::Decode(rp, &info));
  EXPECT_EQ(info.lsn, 1u);
  EXPECT_EQ(info.chain, chain1);
}

TEST(ShardWorkerDurabilityTest, ShipWalReplaysBitIdenticalPosition) {
  // Drive a primary worker through direct requests, recording each logged
  // mutation; a blank replica fed the same entries via kShipWal must land
  // on the identical (lsn, chain) position.
  ShardWorker primary(TestHello());
  std::vector<WalEntry> entries;
  MsgKind rk = MsgKind::kError;
  std::string rp;

  SyncVarsMsg vars;
  vars.first_id = 0;
  vars.entries.push_back({"x0", Distribution::Bernoulli(0.9)});
  vars.entries.push_back({"x1", Distribution::Bernoulli(0.4)});
  ASSERT_TRUE(primary.Handle(MsgKind::kSyncVars, vars.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  entries.push_back({static_cast<uint8_t>(MsgKind::kSyncVars), vars.Encode()});

  LoadPartitionMsg part;
  part.table = "items";
  part.key_column = "item";
  part.schema = Schema({{"item", CellType::kString},
                        {"price", CellType::kInt}});
  part.rows = {{Cell(std::string("hammer")), Cell(int64_t{1299})},
               {Cell(std::string("rake")), Cell(int64_t{1799})}};
  part.vars = {0, 1};
  part.global_rows = {0, 1};
  ASSERT_TRUE(
      primary.Handle(MsgKind::kLoadPartition, part.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  entries.push_back(
      {static_cast<uint8_t>(MsgKind::kLoadPartition), part.Encode()});

  UpdateVarMsg upd;
  upd.var = 1;
  upd.probability = 0.25;
  ASSERT_TRUE(primary.Handle(MsgKind::kUpdateVar, upd.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  entries.push_back({static_cast<uint8_t>(MsgKind::kUpdateVar), upd.Encode()});

  ASSERT_EQ(primary.lsn(), 3u);

  ShardWorker replica(TestHello());
  ShipWalMsg ship;
  ship.first_lsn = 0;
  ship.entries = entries;
  ASSERT_TRUE(replica.Handle(MsgKind::kShipWal, ship.Encode(), &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  OkMsg ok;
  ASSERT_TRUE(OkMsg::Decode(rp, &ok));
  EXPECT_EQ(ok.value, 3u);
  EXPECT_EQ(replica.lsn(), primary.lsn());
  EXPECT_EQ(replica.chain(), primary.chain());

  // An lsn mismatch is rejected up front, position untouched.
  ShipWalMsg stale = ship;
  stale.first_lsn = 99;
  ASSERT_TRUE(replica.Handle(MsgKind::kShipWal, stale.Encode(), &rk, &rp));
  EXPECT_EQ(rk, MsgKind::kError);
  EXPECT_EQ(replica.lsn(), 3u);

  // Non-logged kinds may not travel inside a kShipWal batch.
  ShipWalMsg smuggle;
  smuggle.first_lsn = 3;
  smuggle.entries.push_back({static_cast<uint8_t>(MsgKind::kPing), ""});
  ASSERT_TRUE(replica.Handle(MsgKind::kShipWal, smuggle.Encode(), &rk, &rp));
  EXPECT_EQ(rk, MsgKind::kError);
  EXPECT_EQ(replica.lsn(), 3u);

  // kReset drops state and position: the precondition of a full resync.
  ASSERT_TRUE(replica.Handle(MsgKind::kReset, "", &rk, &rp));
  ASSERT_EQ(rk, MsgKind::kOk);
  EXPECT_EQ(replica.lsn(), 0u);
  EXPECT_EQ(replica.chain(), 0u);
}

// ---------------------------------------------------------------------------
// Coordinator resync over standalone worker processes.
// ---------------------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pvcdb_durserve_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      // Best-effort cleanup.
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

pid_t StartStandaloneWorker(const std::string& address) {
  pid_t pid = fork();
  if (pid == 0) {
    _exit(ShardWorker::RunStandalone(address, /*quiet=*/true));
  }
  return pid;
}

// Dials one already-running standalone worker per address.
std::vector<RemoteShard> DialWorkers(const std::vector<std::string>& addrs) {
  std::vector<RemoteShard> workers;
  for (size_t s = 0; s < addrs.size(); ++s) {
    std::string error;
    Socket sock = ConnectWithRetry(addrs[s], 250, &error);
    EXPECT_TRUE(sock.valid()) << error;
    workers.emplace_back(static_cast<uint32_t>(s), std::move(sock), 0);
  }
  return workers;
}

Coordinator::WorkerSpawner RedialSpawner(std::vector<std::string> addrs) {
  return [addrs](uint32_t shard, RemoteShard* out,
                 std::string* error) -> bool {
    if (shard >= addrs.size()) {
      *error = "no address for shard " + std::to_string(shard);
      return false;
    }
    Socket sock = ConnectWithRetry(addrs[shard], 250, error);
    if (!sock.valid()) return false;
    *out = RemoteShard(shard, std::move(sock), 0);
    return true;
  };
}

// The kHello handshake pins the protocol version: a coordinator one
// version behind gets a kError naming the required version, and the
// worker keeps listening, so a correct hello on a new connection is
// accepted.
TEST(ServeDurabilityTest, WorkerRejectsAnOlderProtocolVersion) {
  TempDir dir;
  const std::string addr = dir.path() + "/w.sock";
  StandaloneWorker worker(addr);
  ASSERT_GT(worker.pid(), 0);

  // One hello on a fresh connection; returns the reply frame's kind.
  auto handshake = [&addr](uint32_t version, std::string* payload) {
    constexpr int kDeadlineMs = 10000;
    std::string error;
    Socket sock = ConnectWithRetry(addr, 250, &error);
    EXPECT_TRUE(sock.valid()) << error;
    HelloMsg hello = TestHello();
    hello.version = version;
    EXPECT_TRUE(SendFrame(&sock, static_cast<uint8_t>(MsgKind::kHello),
                          hello.Encode(), kDeadlineMs));
    uint8_t kind = 0;
    EXPECT_EQ(RecvFrame(&sock, &kind, payload, kDeadlineMs), FrameResult::kOk);
    return static_cast<MsgKind>(kind);
  };

  std::string payload;
  ASSERT_EQ(handshake(kProtocolVersion - 1, &payload), MsgKind::kError);
  ErrorMsg err;
  ASSERT_TRUE(ErrorMsg::Decode(payload, &err));
  EXPECT_EQ(err.text, "bad handshake (protocol version 5 required)");
  EXPECT_EQ(handshake(kProtocolVersion, &payload), MsgKind::kHelloAck);
}

// Parses "worker N: tail|full resync, E entries, B bytes".
struct ResyncLine {
  bool tail = false;
  bool full = false;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

ResyncLine ParseResyncLine(const std::string& line) {
  ResyncLine parsed;
  parsed.tail = line.find("tail resync") != std::string::npos;
  parsed.full = line.find("full resync") != std::string::npos;
  size_t comma = line.find(", ");
  if (comma != std::string::npos) {
    unsigned long long entries = 0;
    unsigned long long bytes = 0;
    if (std::sscanf(line.c_str() + comma, ", %llu entries, %llu bytes",
                    &entries, &bytes) == 2) {
      parsed.entries = entries;
      parsed.bytes = bytes;
    }
  }
  return parsed;
}

// The mutation sequence every phase of the test serves: a load, a routed
// insert, a marginal update, a distributable chain view, and a broadcast
// delete -- each producing WAL records and shard-log entries.
void MutateAll(Coordinator* coordinator) {
  Schema schema({{"item", CellType::kString}, {"price", CellType::kInt}});
  std::vector<std::vector<Cell>> rows = {
      {Cell(std::string("hammer")), Cell(int64_t{1299})},
      {Cell(std::string("wrench")), Cell(int64_t{450})},
      {Cell(std::string("shovel")), Cell(int64_t{2399})},
      {Cell(std::string("rake")), Cell(int64_t{1799})},
      {Cell(std::string("whisk")), Cell(int64_t{220})},
  };
  coordinator->AddTupleIndependentTable("items", schema, rows,
                                        {0.9, 0.7, 0.6, 0.5, 0.95});
  coordinator->InsertTuple(
      "items", {Cell(std::string("drill")), Cell(int64_t{1450})}, 0.7);
  coordinator->UpdateProbability(1, 0.45);
  ParseResult parsed =
      ParseQuery("SELECT * FROM items WHERE price >= 1000");
  ASSERT_TRUE(parsed.ok());
  std::vector<std::string> warnings;
  coordinator->RegisterView("pricey", std::move(parsed.query), &warnings);
  EXPECT_TRUE(warnings.empty());
  coordinator->DeleteTuple("items", Cell(std::string("rake")));
}

QueryRun RunChain(Coordinator* coordinator) {
  ParseResult parsed =
      ParseQuery("SELECT * FROM items WHERE price >= 1000");
  EXPECT_TRUE(parsed.ok());
  return coordinator->Run(*parsed.query);
}

TEST(ServeDurabilityTest, CoordinatorRestartTailResyncsSurvivingWorkers) {
  TempDir dir;
  const std::string store = dir.path() + "/store";
  const std::vector<std::string> addrs = {dir.path() + "/w0.sock",
                                          dir.path() + "/w1.sock"};
  // Never shut down: they model survivors of the phase-B front-end going
  // away for good, and their owners kill them at the end.
  StandaloneWorker survivor0(addrs[0]);
  StandaloneWorker survivor1(addrs[1]);
  ASSERT_GT(survivor0.pid(), 0);
  ASSERT_GT(survivor1.pid(), 0);

  DurableConfig dcfg;
  dcfg.dir = store;
  dcfg.sync = true;

  // Phase A: a live durable front-end serves mutations, then "crashes"
  // (session and coordinator destroyed; worker processes keep running and
  // keep their applied state).
  std::string before_text;
  std::vector<double> before_probs;
  std::vector<double> before_view_probs;
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::CreateAttached(dcfg, coordinator.get(), &error);
    ASSERT_NE(session, nullptr) << error;
    MutateAll(coordinator.get());
    QueryRun run = RunChain(coordinator.get());
    ASSERT_TRUE(run.distributed);
    ASSERT_TRUE(run.warnings.empty());
    before_text = run.text;
    before_probs = run.probabilities;
    before_view_probs = coordinator->PrintView("pricey").probabilities;
    session.reset();      // Crash: no checkpoint, no worker shutdown.
    coordinator.reset();  // Connections drop; workers await a reconnect.
  }

  // Phase B: a fresh front-end recovers the WAL and reconciles. Every
  // worker kept its state, so the chain proof must pass and the tail must
  // be empty -- no partition bytes retransferred.
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::RecoverAttached(dcfg, coordinator.get(), &error);
    ASSERT_NE(session, nullptr) << error;
    EXPECT_TRUE(session->stats().recovered);
    std::vector<std::string> lines;
    coordinator->ReconcileWorkers(&lines);
    ASSERT_EQ(lines.size(), addrs.size());
    for (const std::string& line : lines) {
      ResyncLine parsed = ParseResyncLine(line);
      EXPECT_TRUE(parsed.tail) << line;
      EXPECT_FALSE(parsed.full) << line;
      EXPECT_EQ(parsed.entries, 0u) << line;
      EXPECT_EQ(parsed.bytes, 0u) << line;
    }

    QueryRun run = RunChain(coordinator.get());
    EXPECT_TRUE(run.distributed);
    EXPECT_TRUE(run.warnings.empty());
    EXPECT_EQ(run.text, before_text);
    EXPECT_EQ(run.probabilities, before_probs);
    EXPECT_EQ(coordinator->PrintView("pricey").probabilities,
              before_view_probs);

    // The recovered session keeps serving durable mutations.
    coordinator->InsertTuple(
        "items", {Cell(std::string("saw")), Cell(int64_t{1700})}, 0.65);
    QueryRun after = RunChain(coordinator.get());
    EXPECT_TRUE(after.distributed);
    EXPECT_EQ(after.probabilities.size(), before_probs.size() + 1);
    session.reset();
    coordinator.reset();
  }

  // Phase C: blank replacement workers (fresh processes, fresh addresses)
  // cannot pass the chain proof and must take the full rebuild -- the
  // expensive path the tail replay avoided, visible in entries/bytes.
  const std::vector<std::string> fresh_addrs = {dir.path() + "/f0.sock",
                                                dir.path() + "/f1.sock"};
  std::vector<pid_t> fresh_pids;
  for (const std::string& a : fresh_addrs) {
    pid_t pid = StartStandaloneWorker(a);
    ASSERT_GT(pid, 0);
    fresh_pids.push_back(pid);
  }
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(fresh_addrs),
        RedialSpawner(fresh_addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::RecoverAttached(dcfg, coordinator.get(), &error);
    ASSERT_NE(session, nullptr) << error;
    std::vector<std::string> lines;
    coordinator->ReconcileWorkers(&lines);
    ASSERT_EQ(lines.size(), fresh_addrs.size());
    uint64_t full_entries = 0;
    uint64_t full_bytes = 0;
    for (const std::string& line : lines) {
      ResyncLine parsed = ParseResyncLine(line);
      EXPECT_TRUE(parsed.full) << line;
      EXPECT_GT(parsed.entries, 0u) << line;
      full_entries += parsed.entries;
      full_bytes += parsed.bytes;
    }
    // The saving the WAL-shipping tail path buys: surviving workers
    // resynced with zero shipped entries/bytes; blank ones need the whole
    // consolidated state again.
    EXPECT_GT(full_entries, 0u);
    EXPECT_GT(full_bytes, 0u);

    QueryRun run = RunChain(coordinator.get());
    EXPECT_TRUE(run.distributed);
    EXPECT_TRUE(run.warnings.empty());
    // Phase B appended one row on top of the phase-A state.
    EXPECT_EQ(run.probabilities.size(), before_probs.size() + 1);

    coordinator->Shutdown();  // Fresh workers exit cleanly.
    session.reset();
    coordinator.reset();
  }

  for (pid_t pid : fresh_pids) {
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
  }
}

TEST(ServeDurabilityTest, CheckpointKeepsSurvivorsOnTheTailPath) {
  // A checkpoint rotates the WAL, so a later recovery replays only the
  // post-checkpoint tail -- and the snapshot records each shard log's
  // (lsn, chain) rotation point so the rebuilt logs sit at the positions
  // the surviving workers are already at. Without that, every recovery
  // after a checkpoint would force a full partition retransfer.
  TempDir dir;
  const std::string store = dir.path() + "/store";
  const std::vector<std::string> addrs = {dir.path() + "/w0.sock",
                                          dir.path() + "/w1.sock"};
  std::vector<pid_t> worker_pids;
  for (const std::string& a : addrs) {
    pid_t pid = StartStandaloneWorker(a);
    ASSERT_GT(pid, 0);
    worker_pids.push_back(pid);
  }

  DurableConfig dcfg;
  dcfg.dir = store;
  dcfg.sync = true;

  // Phase A: mutate, checkpoint mid-history, mutate some more, crash.
  std::string before_text;
  std::vector<double> before_probs;
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::CreateAttached(dcfg, coordinator.get(), &error);
    ASSERT_NE(session, nullptr) << error;
    MutateAll(coordinator.get());
    ASSERT_TRUE(session->Checkpoint(&error)) << error;
    // Post-checkpoint traffic: lives only in the fresh WAL's tail.
    coordinator->InsertTuple(
        "items", {Cell(std::string("saw")), Cell(int64_t{1700})}, 0.65);
    QueryRun run = RunChain(coordinator.get());
    ASSERT_TRUE(run.distributed);
    before_text = run.text;
    before_probs = run.probabilities;
    session.reset();
    coordinator.reset();
  }

  // Phase B: recover. The snapshot rebuilds pre-checkpoint state and
  // rebases the shard logs at the recorded tails; the WAL tail replay
  // appends the post-checkpoint entries on top. The surviving workers
  // applied all of it live, so the chain proof must pass with an empty
  // tail for every shard.
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::RecoverAttached(dcfg, coordinator.get(), &error);
    ASSERT_NE(session, nullptr) << error;
    EXPECT_TRUE(session->stats().recovered);
    std::vector<std::string> lines;
    coordinator->ReconcileWorkers(&lines);
    ASSERT_EQ(lines.size(), addrs.size());
    for (const std::string& line : lines) {
      ResyncLine parsed = ParseResyncLine(line);
      EXPECT_TRUE(parsed.tail) << line;
      EXPECT_FALSE(parsed.full) << line;
      EXPECT_EQ(parsed.entries, 0u) << line;
      EXPECT_EQ(parsed.bytes, 0u) << line;
    }

    QueryRun run = RunChain(coordinator.get());
    EXPECT_TRUE(run.distributed);
    EXPECT_TRUE(run.warnings.empty());
    EXPECT_EQ(run.text, before_text);
    EXPECT_EQ(run.probabilities, before_probs);

    // Still serving durably after the checkpointed recovery.
    coordinator->InsertTuple(
        "items", {Cell(std::string("axe")), Cell(int64_t{2100})}, 0.8);
    QueryRun after = RunChain(coordinator.get());
    EXPECT_TRUE(after.distributed);
    EXPECT_EQ(after.probabilities.size(), before_probs.size() + 1);

    coordinator->Shutdown();
    session.reset();
    coordinator.reset();
  }

  for (pid_t pid : worker_pids) {
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
  }
}

}  // namespace
}  // namespace pvcdb
