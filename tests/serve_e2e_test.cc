// End-to-end proof for out-of-process serving (ISSUE acceptance): a forked
// pvcdb server with worker processes must answer every query class --
// distributed chains, gathered projections, aggregates with conditional
// distributions, joins, materialized views -- byte-for-byte identically to
// an in-process ShardedDatabase fed the same command sequence, across
// shard counts {1, 2, 4} and concurrent client counts {1, 4, 8}, with
// mutations streaming through IVM. Replies render probabilities at
// precision 17, so text equality is double bit-equality.
//
// Also covered: a SIGKILLed worker is detected, degraded queries fall back
// to the coordinator replica with a warning (values unchanged), and
// `respawn` rebuilds the worker by full resync.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/shard.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/serve/server.h"
#include "src/util/text_diff.h"

namespace pvcdb {
namespace {

// A scratch directory holding the CSVs and the server's Unix socket.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pvcdb_serve_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      // Best-effort cleanup; nothing to do on failure.
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  ASSERT_TRUE(f.good()) << path;
  f << content;
}

void WriteDataset(const TempDir& dir) {
  WriteFileOrDie(dir.path() + "/items.csv",
                 "kind:string,item:string,price:int,_prob\n"
                 "tool,hammer,1299,0.9\n"
                 "tool,wrench,450,0.7\n"
                 "tool,pliers,1150,0.8\n"
                 "garden,shovel,2399,0.6\n"
                 "garden,rake,1799,0.5\n"
                 "kitchen,whisk,220,0.95\n");
  WriteFileOrDie(dir.path() + "/owners.csv",
                 "oitem:string,owner:string,_prob\n"
                 "hammer,ana,0.9\n"
                 "shovel,bo,0.8\n"
                 "whisk,cy,0.6\n");
}

// The deterministic setup sequence: catalog, views, then mutations that
// stream through IVM (an insert routed to its owner, a broadcast delete
// that shifts global rows, a marginal update that refreshes view caches).
std::vector<std::string> SetupCommands(const TempDir& dir) {
  return {
      "load items " + dir.path() + "/items.csv",
      "load owners " + dir.path() + "/owners.csv",
      "tables",
      "show items",
      "tractable SELECT * FROM items WHERE price >= 1000",
      "view pricey SELECT * FROM items WHERE price >= 1000",
      "view pricey",
      "insert items tool drill 1450 0.7",
      "delete items garden",
      "setprob x1 0.45",
      "view pricey",
      "views",
  };
}

// Read-only commands safe to issue from many clients concurrently. Ordered
// so every client prints the view before listing `views` (the step II
// caches fill on first print; the server serializes commands, so any
// `views` that follows a print observes the full, deterministic cache).
std::vector<std::string> ReadCommands() {
  return {
      "SELECT * FROM items WHERE price >= 1000",
      "SELECT item FROM items WHERE price >= 1000",
      "SELECT kind, COUNT(*) AS n FROM items GROUP BY kind HAVING n >= 1",
      "SELECT owner FROM items, owners WHERE item = oitem",
      "view pricey",
      "views",
      "tables",
  };
}

// One framed request/reply client connection.
class Client {
 public:
  bool Connect(const std::string& address) {
    std::string error;
    sock_ = ConnectWithRetry(address, 250, &error);
    return sock_.valid();
  }

  // Sends one command line; returns the rendered reply text ("<transport
  // error>" on connection failure so mismatches show up in EXPECT_EQ).
  std::string Send(const std::string& line) {
    if (!SendFrame(&sock_, static_cast<uint8_t>(MsgKind::kClientCommand),
                   line)) {
      return "<transport error: send>";
    }
    uint8_t kind = 0;
    std::string payload;
    if (RecvFrame(&sock_, &kind, &payload) != FrameResult::kOk ||
        static_cast<MsgKind>(kind) != MsgKind::kClientReply) {
      return "<transport error: recv>";
    }
    ClientReplyMsg reply;
    if (!ClientReplyMsg::Decode(payload, &reply)) {
      return "<transport error: decode>";
    }
    return reply.text;
  }

 private:
  Socket sock_;
};

// The first divergence any concurrent client saw; later ones are dropped.
class FirstMismatch {
 public:
  void Record(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.empty()) first_ = what;
  }
  std::string Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_.empty() ? "none" : first_;
  }

 private:
  std::mutex mu_;
  std::string first_;
};

// The bit-identity reference: an in-process ShardedDatabase driven through
// the same ExecuteCommand renderer the server uses.
class Reference {
 public:
  explicit Reference(size_t shards) : db_(shards), backend_(&db_) {}

  std::string Run(const std::string& line) {
    bool shutdown = false;
    return ExecuteCommand(&backend_, line, &shutdown).text;
  }

 private:
  ShardedDatabase db_;
  InProcessBackend backend_;
};

pid_t StartServer(const std::string& address, size_t shards, bool in_process,
                  const std::string& open_dir = "", int group_commit_ms = -1) {
  pid_t pid = fork();
  if (pid == 0) {
    ServerConfig config;
    config.listen_address = address;
    config.num_shards = shards;
    config.in_process = in_process;
    config.quiet = true;
    config.open_dir = open_dir;
    config.group_commit_ms = group_commit_ms;
    _exit(RunServer(config));
  }
  return pid;
}

void ExpectCleanExit(pid_t server) {
  int status = 0;
  ASSERT_EQ(waitpid(server, &status, 0), server);
  EXPECT_TRUE(WIFEXITED(status)) << "server did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Extracts the pid from a "worker <s>: pid <p>, up|down" line.
pid_t WorkerPidFrom(const std::string& workers_text, size_t shard) {
  std::string prefix = "worker " + std::to_string(shard) + ": pid ";
  size_t at = workers_text.find(prefix);
  if (at == std::string::npos) return -1;
  return static_cast<pid_t>(
      std::strtol(workers_text.c_str() + at + prefix.size(), nullptr, 10));
}

TEST(ServeE2eTest, BitIdenticalAcrossShardsAndConcurrentClients) {
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t num_clients : {1u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " clients=" + std::to_string(num_clients));
      TempDir dir;
      WriteDataset(dir);
      const std::string address = dir.path() + "/server.sock";
      pid_t server = StartServer(address, shards, /*in_process=*/false);
      ASSERT_GT(server, 0);

      Reference ref(shards);
      Client c0;
      ASSERT_TRUE(c0.Connect(address));

      // Mutations sequence through one client: identical command order on
      // both engines, hence identical variable ids and placements.
      for (const std::string& line : SetupCommands(dir)) {
        EXPECT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
      }

      const std::vector<std::string> reads = ReadCommands();
      std::vector<std::string> expected;
      for (const std::string& line : reads) expected.push_back(ref.Run(line));

      // Concurrent clients replay the read set; every reply must be
      // byte-identical to the reference (snapshot consistency: no client
      // may observe a torn state).
      std::atomic<int> mismatches{0};
      FirstMismatch first;
      std::vector<std::thread> threads;
      for (size_t c = 0; c < num_clients; ++c) {
        threads.emplace_back([&, c]() {
          Client client;
          if (!client.Connect(address)) {
            ++mismatches;
            first.Record("client " + std::to_string(c) +
                         ": transport (connect failed)");
            return;
          }
          for (int round = 0; round < 2; ++round) {
            for (size_t i = 0; i < reads.size(); ++i) {
              std::string actual = client.Send(reads[i]);
              if (actual == expected[i]) continue;
              ++mismatches;
              first.Record("client " + std::to_string(c) + ", round " +
                           std::to_string(round) + ", command " +
                           std::to_string(i) + " '" + reads[i] + "': " +
                           (actual.rfind("<transport error", 0) == 0
                                ? "transport " + actual
                                : FirstDifference(expected[i], actual)));
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(mismatches.load(), 0) << "first mismatch: " << first.Get();

      // A mutation after the concurrent phase still matches.
      const std::string tail = "insert items kitchen pan 310 0.4";
      EXPECT_EQ(c0.Send(tail), ref.Run(tail));
      EXPECT_EQ(c0.Send("view pricey"), ref.Run("view pricey"));

      EXPECT_EQ(c0.Send("shutdown"), "shutting down\n");
      ExpectCleanExit(server);
    }
  }
}

TEST(ServeE2eTest, InProcessServerModeMatchesReference) {
  TempDir dir;
  WriteDataset(dir);
  const std::string address = dir.path() + "/server.sock";
  pid_t server = StartServer(address, 2, /*in_process=*/true);
  ASSERT_GT(server, 0);
  Reference ref(2);
  Client c0;
  ASSERT_TRUE(c0.Connect(address));
  for (const std::string& line : SetupCommands(dir)) {
    EXPECT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
  }
  for (const std::string& line : ReadCommands()) {
    EXPECT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
  }
  EXPECT_EQ(c0.Send("shutdown"), "shutting down\n");
  ExpectCleanExit(server);
}

TEST(ServeE2eTest, KilledWorkerDegradesThenRespawns) {
  TempDir dir;
  WriteDataset(dir);
  const std::string address = dir.path() + "/server.sock";
  pid_t server = StartServer(address, 2, /*in_process=*/false);
  ASSERT_GT(server, 0);

  Reference ref(2);
  Client c0;
  ASSERT_TRUE(c0.Connect(address));
  for (const std::string& line : SetupCommands(dir)) {
    ASSERT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
  }

  const std::string chain = "SELECT * FROM items WHERE price >= 1000";
  const std::string healthy = ref.Run(chain);
  ASSERT_EQ(c0.Send(chain), healthy);

  pid_t worker0 = WorkerPidFrom(c0.Send("workers"), 0);
  ASSERT_GT(worker0, 0);
  ASSERT_EQ(kill(worker0, SIGKILL), 0);
  usleep(100 * 1000);

  // Degraded: the dead worker is detected mid-scatter, the query falls
  // back to the coordinator replica, the values do not change.
  const std::string degraded = c0.Send(chain);
  const std::string warning = "warning: worker 0 down";
  ASSERT_EQ(degraded.compare(0, warning.size(), warning), 0)
      << "degraded reply lacks the warning: " << degraded;
  size_t newline = degraded.find('\n');
  ASSERT_NE(newline, std::string::npos);
  EXPECT_EQ(degraded.substr(newline + 1), healthy);

  // The coordinator's own state survived: liveness reports the death, and
  // further commands keep working degraded.
  std::string workers = c0.Send("workers");
  EXPECT_NE(workers.find("worker 0: pid " + std::to_string(worker0) +
                         ", down"),
            std::string::npos)
      << workers;
  const std::string view_degraded = c0.Send("view pricey");
  EXPECT_NE(view_degraded.find("warning: worker 0 down"), std::string::npos);

  // Respawn resyncs variables, partitions, and chain views in full; the
  // distributed path resumes (no warning) with identical bytes.
  std::string respawned = c0.Send("respawn 0");
  EXPECT_EQ(respawned.compare(0, 19, "worker 0 respawned "), 0) << respawned;
  workers = c0.Send("workers");
  EXPECT_NE(workers.find("worker 0: pid"), std::string::npos);
  EXPECT_EQ(workers.find("down"), std::string::npos) << workers;
  EXPECT_EQ(c0.Send(chain), healthy);
  EXPECT_EQ(c0.Send("view pricey"), ref.Run("view pricey"));

  // Mutations stream through the respawned worker's IVM path.
  const std::string tail = "insert items tool saw 1700 0.65";
  EXPECT_EQ(c0.Send(tail), ref.Run(tail));
  EXPECT_EQ(c0.Send(chain), ref.Run(chain));
  EXPECT_EQ(c0.Send("view pricey"), ref.Run("view pricey"));

  EXPECT_EQ(c0.Send("shutdown"), "shutting down\n");
  ExpectCleanExit(server);
}

// The crash gauntlet (ISSUE acceptance): a durable server is SIGKILLed
// mid-session -- no shutdown, no checkpoint -- restarted on the same
// directory, and must serve every read byte-identical to a never-crashed
// in-process twin fed the same command sequence. Runs once per fsync
// discipline: per-append fsync and a 5 ms group-commit window (whose
// deferred acks must also come back correct and complete before the kill).
void RunSigkillRestartGauntlet(int group_commit_ms) {
  TempDir dir;
  WriteDataset(dir);
  const std::string address = dir.path() + "/server.sock";
  const std::string store = dir.path() + "/store";
  pid_t server = StartServer(address, 2, /*in_process=*/false, store,
                             group_commit_ms);
  ASSERT_GT(server, 0);

  Reference ref(2);
  Client c0;
  ASSERT_TRUE(c0.Connect(address));

  // Every ack (including group-commit deferred ones) must match the twin.
  for (const std::string& line : SetupCommands(dir)) {
    ASSERT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
  }

  // Durable-session commands answer over the wire.
  std::string log_text = c0.Send("log");
  EXPECT_NE(log_text.find("dir = " + store), std::string::npos) << log_text;
  EXPECT_NE(log_text.find("recovered = no"), std::string::npos) << log_text;
  EXPECT_EQ(c0.Send("threads 2").compare(0, 16, "num_threads = 2 "), 0);

  const std::vector<std::string> reads = ReadCommands();
  std::vector<std::string> expected;
  for (const std::string& line : reads) expected.push_back(ref.Run(line));
  for (size_t i = 0; i < reads.size(); ++i) {
    ASSERT_EQ(c0.Send(reads[i]), expected[i]) << "command: " << reads[i];
  }

  // Crash: no reply drain, no checkpoint, no worker shutdown.
  ASSERT_EQ(kill(server, SIGKILL), 0);
  ASSERT_EQ(waitpid(server, nullptr, 0), server);

  // Restart on the same directory: WAL recovery + worker resync must
  // reproduce the exact served state.
  pid_t reborn = StartServer(address, 2, /*in_process=*/false, store,
                             group_commit_ms);
  ASSERT_GT(reborn, 0);
  Client c1;
  ASSERT_TRUE(c1.Connect(address));

  log_text = c1.Send("log");
  EXPECT_NE(log_text.find("recovered = yes"), std::string::npos) << log_text;
  // `views` cache occupancy counts only live entries (current-row
  // annotations), so the recovered server matches the never-crashed twin
  // byte for byte -- no scrubbing.
  for (size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(c1.Send(reads[i]), expected[i]) << "command: " << reads[i];
  }

  // The recovered server keeps serving durable mutations bit-identically.
  const std::string tail = "insert items kitchen pan 310 0.4";
  EXPECT_EQ(c1.Send(tail), ref.Run(tail));
  EXPECT_EQ(c1.Send("view pricey"), ref.Run("view pricey"));

  // `save` checkpoints; the generation advances past the recovered one.
  std::string saved = c1.Send("save");
  EXPECT_EQ(saved.compare(0, 31, "checkpoint written (generation "), 0)
      << saved;

  EXPECT_EQ(c1.Send("shutdown"), "shutting down\n");
  ExpectCleanExit(reborn);
}

TEST(ServeDurabilityE2eTest, SigkillRestartServesBitIdenticalState) {
  RunSigkillRestartGauntlet(/*group_commit_ms=*/-1);
}

TEST(ServeDurabilityE2eTest, SigkillRestartUnderGroupCommit) {
  RunSigkillRestartGauntlet(/*group_commit_ms=*/5);
}

TEST(ServeDurabilityE2eTest, InProcessDurableServerRecovers) {
  TempDir dir;
  WriteDataset(dir);
  const std::string address = dir.path() + "/server.sock";
  const std::string store = dir.path() + "/store";
  pid_t server = StartServer(address, 2, /*in_process=*/true, store);
  ASSERT_GT(server, 0);

  Reference ref(2);
  Client c0;
  ASSERT_TRUE(c0.Connect(address));
  for (const std::string& line : SetupCommands(dir)) {
    ASSERT_EQ(c0.Send(line), ref.Run(line)) << "command: " << line;
  }
  ASSERT_EQ(kill(server, SIGKILL), 0);
  ASSERT_EQ(waitpid(server, nullptr, 0), server);

  pid_t reborn = StartServer(address, 2, /*in_process=*/true, store);
  ASSERT_GT(reborn, 0);
  Client c1;
  ASSERT_TRUE(c1.Connect(address));
  for (const std::string& line : ReadCommands()) {
    EXPECT_EQ(c1.Send(line), ref.Run(line)) << "command: " << line;
  }
  EXPECT_EQ(c1.Send("shutdown"), "shutting down\n");
  ExpectCleanExit(reborn);
}

}  // namespace
}  // namespace pvcdb
