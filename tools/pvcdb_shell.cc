// pvcdb_shell -- an interactive / batch shell for the pvcdb engine.
//
// The shell is a read loop over ExecuteCommand (src/serve/server.h), the
// command interpreter pvcdb_server runs. Every command except `shards`,
// `open` and `quit` goes through it: against an in-process
// ShardedDatabase (1 shard until `shards n`), or, with `--connect <addr>`,
// over the wire to a running pvcdb_server. Replies print probabilities at
// 17 digits, and a local transcript matches a `--connect` one byte for
// byte except for these three commands, which belong to the shell:
//   shards [n]   show or set the shard count (n >= 1). The engine is
//                rebuilt from its own captured state -- no file is read
//                again -- and results are bit-identical at every count. A
//                durable session logs the change to its WAL instead.
//   open <dir>   make the session durable (WAL + snapshots), recovering
//                <dir> when it already holds state. A store written
//                unsharded is resharded to 1 shard through its WAL.
//   quit         end the shell (also `exit`, or the end of input).
// A server rejects `shards` and `open`: its topology and durable directory
// are fixed on its command line. `help` lists every command.
//
// Example session:
//   load items data/items.csv
//   view pricey SELECT * FROM items WHERE price >= 1000
//   insert items tool drill 1450 0.7
//   view pricey
//
// Batch use: pipe commands through stdin (the shell detects non-tty input
// and suppresses prompts). Each reply is flushed once it is printed.

#include <unistd.h>

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/serve/server.h"
#include "src/util/check.h"

namespace {

using namespace pvcdb;

// Where the shell's commands run.
class Session {
 public:
  virtual ~Session() = default;
  /// Sets `*reply` to the reply to one command line. False when the
  /// session cannot go on (a lost connection); `*reply` then says why.
  virtual bool Run(const std::string& line, std::string* reply) = 0;
};

// The local engine: a volatile ShardedDatabase, or the one a
// DurableSession owns after `open`. InProcessBackend keeps a raw pointer
// to it, so `shards` and `open`, which replace the engine, rebind it.
class LocalSession : public Session {
 public:
  LocalSession() { Rebind(); }

  bool Run(const std::string& line, std::string* reply) override {
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command != "shards" && command != "open") {
      bool shutdown = false;
      *reply = ExecuteCommand(backend_.get(), line, &shutdown, &serve_).text;
      return true;
    }
    try {
      *reply = command == "shards" ? Shards(stream) : Open(stream);
    } catch (const CheckError& e) {
      *reply = std::string("error: ") + e.what() + "\n";
    }
    return true;
  }

 private:
  ShardedDatabase* engine() const {
    return durable_ != nullptr ? durable_->sharded() : owned_.get();
  }

  void Rebind() {
    backend_ = std::make_unique<InProcessBackend>(engine());
    backend_->SetEvalOptions(serve_.num_threads, 0);
    serve_.durable = durable_.get();
  }

  std::string Shards(std::istream& args) {
    std::ostringstream out;
    int n = 0;
    if (!(args >> n)) {
      out << "shards = " << engine()->num_shards() << " (router "
          << engine()->router().name() << ")\n";
      return out.str();
    }
    if (n < 1) return "usage: shards <n >= 1>\n";
    if (durable_ != nullptr) {
      // Resharding to the current count logs nothing (DurableSession).
      if (static_cast<uint64_t>(n) == engine()->num_shards()) {
        out << "shards = " << n << " (unchanged)\n";
        return out.str();
      }
      std::string error;
      if (!durable_->Reshard(static_cast<uint64_t>(n), &error)) {
        return "error: " + error + "\n";
      }
      Rebind();
      out << "shards = " << n << " (durable reshard logged)\n";
      return out.str();
    }
    std::unique_ptr<Database> unsharded;  // Stays empty: n >= 1.
    RebuildEngine(static_cast<uint64_t>(n), &unsharded, &owned_);
    Rebind();
    out << "shards = " << n << " (" << engine()->TableNames().size()
        << " tables, " << engine()->ViewCatalog().size()
        << " views rebuilt)\n";
    return out.str();
  }

  std::string Open(std::istream& args) {
    std::string dir;
    args >> dir;
    if (dir.empty()) return "usage: open <dir>\n";
    if (durable_ != nullptr) {
      return "already durable at " + durable_->dir() +
             " (one directory per session)\n";
    }
    DurableConfig config;
    config.dir = dir;
    const bool recovered = DurableSession::HasState(DefaultFileSystem(), dir);
    std::string error;
    std::unique_ptr<DurableSession> durable =
        recovered
            ? DurableSession::Recover(config, &error)
            : DurableSession::Create(config, CaptureState(*owned_), &error);
    // Older shells wrote unsharded stores; the engine is always sharded.
    if (durable != nullptr && !durable->is_sharded() &&
        !durable->Reshard(1, &error)) {
      durable.reset();
    }
    if (durable == nullptr) return "error: " + error + "\n";
    // The durable engine was rebuilt from the captured / recovered state,
    // bit-identical to the live one, which retires.
    durable_ = std::move(durable);
    owned_.reset();
    Rebind();
    DurableStats stats = durable_->stats();
    std::ostringstream out;
    if (recovered) {
      out << "recovered " << dir << " (generation " << stats.generation
          << ", " << stats.replayed_records << " WAL records replayed"
          << (stats.tail_truncated ? ", torn tail truncated" : "") << ")\n";
    } else {
      out << "opened " << dir << " (generation " << stats.generation << ", "
          << engine()->TableNames().size() << " tables snapshotted)\n";
    }
    return out.str();
  }

  std::unique_ptr<ShardedDatabase> owned_ =
      std::make_unique<ShardedDatabase>(1);
  std::unique_ptr<DurableSession> durable_;
  std::unique_ptr<InProcessBackend> backend_;
  ServeSession serve_;
};

// Client mode: each line travels as one kClientCommand frame, and the
// server's rendered reply is the shell's reply.
class RemoteSession : public Session {
 public:
  RemoteSession(std::string address, Socket sock)
      : address_(std::move(address)), sock_(std::move(sock)) {}

  bool Run(const std::string& line, std::string* reply) override {
    const std::string lost = "error: connection to " + address_ + " lost\n";
    if (!SendFrame(&sock_, static_cast<uint8_t>(MsgKind::kClientCommand),
                   line)) {
      *reply = lost;
      return false;
    }
    uint8_t kind = 0;
    std::string payload;
    FrameResult r = RecvFrame(&sock_, &kind, &payload);
    if (r == FrameResult::kClosed) {
      // Orderly close on a frame boundary: the server evicted this client
      // (idle timeout) or shut down. Distinct from a torn connection.
      *reply = "error: server closed connection to " + address_ + "\n";
      return false;
    }
    if (r != FrameResult::kOk ||
        static_cast<MsgKind>(kind) != MsgKind::kClientReply) {
      *reply = lost;
      return false;
    }
    ClientReplyMsg message;
    if (!ClientReplyMsg::Decode(payload, &message)) {
      *reply = "error: malformed reply from server\n";
      return false;
    }
    *reply = std::move(message.text);
    return true;
  }

 private:
  std::string address_;
  Socket sock_;
};

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
  std::unique_ptr<Session> session;
  std::string banner = "pvcdb shell -- ";
  if (connect_address.empty()) {
    session = std::make_unique<LocalSession>();
  } else {
    IgnoreSigPipe();
    std::string error;
    Socket sock = ConnectWithRetry(connect_address, 100, &error);
    if (!sock.valid()) {
      std::cout << "error: " << error << "\n";
      return 1;
    }
    session = std::make_unique<RemoteSession>(connect_address, std::move(sock));
    banner += "connected to " + connect_address + " ";
  }
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) std::cout << banner << "('help' for commands)\n";
  std::string line;
  while (true) {
    if (interactive) std::cout << "pvcdb> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    std::string reply;
    const bool ok = session->Run(line, &reply);
    std::cout << reply << std::flush;
    if (!ok) return 1;
    if (command == "shutdown") break;
  }
  return 0;
}
