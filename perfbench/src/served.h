// The served side of the benchmark: launching the real pvcdb_server binary
// (its forked shard workers included), talking to it over the client wire
// protocol, and driving the two closed-loop clients.

#ifndef PVCBENCH_SERVED_H_
#define PVCBENCH_SERVED_H_

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"

namespace pvcbench {

/// Makes this process the reaper of its orphaned descendants, so the shard
/// workers a server forks can be waited for after the server exits.
void BecomeSubreaper();

/// One pvcdb_server process, started in its own process group (which its
/// forked workers join). The destructor SIGKILLs the group and reaps it if
/// Stop() was not reached.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Execs `binary` with `args`; stdout goes to /dev/null, stderr to
  /// `log_path`. False + `*error` when fork or exec fails.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);

  pid_t pid() const { return pid_; }

  /// Waits up to `timeout_ms` for the server (after a `shutdown` command)
  /// and every descendant to exit, then SIGKILLs whatever is left. True
  /// when the server exited on its own with status 0.
  bool Stop(int timeout_ms);

 private:
  pid_t pid_ = -1;
};

/// A blocking client connection (kClientCommand / kClientReply frames).
class Client {
 public:
  /// Connects with retries while the server is still starting.
  bool Connect(const std::string& address, std::string* error);

  /// Sends `line` and waits (bounded) for its reply. False + `*error` on a
  /// transport failure or an undecodable reply.
  bool Call(const std::string& line, pvcdb::ClientReplyMsg* reply,
            std::string* error);

 private:
  pvcdb::Socket sock_;
};

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Worker pids listed in a `workers` reply ("worker 0: pid 123, ...").
std::vector<pid_t> ParseWorkerPids(const std::string& workers_reply);

/// One failed check, with everything needed to reproduce it.
struct Failure {
  int client = -1;
  size_t index = 0;  ///< The client's command sequence number.
  std::string command;
  std::string detail;  ///< Transport error, error reply, or first diff.
};

/// Empty when `reply` correctly answers `command`: no error, no degraded-
/// mode warning, the reference reply for pool commands (`references`),
/// the acknowledging reply for writes. Otherwise the reason, with the
/// first differing line.
std::string CheckReply(const Command& command,
                       const pvcdb::ClientReplyMsg& reply,
                       const std::vector<std::string>* references);

/// What the clients observed in one timed phase.
struct PhaseResult {
  double seconds = 0.0;
  std::vector<double> read_ms;   ///< Completed inside the window.
  std::vector<double> write_ms;  ///< Completed inside the window.
  /// Completion time (s since the window opened) of every sample above.
  std::vector<double> done_s;
  size_t attempted = 0;          ///< Every command sent, window or not.
  size_t reads_done = 0;         ///< Answered correctly, window or not.
  size_t writes_done = 0;
  size_t failed = 0;
  std::vector<Failure> failures;  ///< The first few, in client order.
};

/// The closed loop: each client sends its next command only after the
/// previous reply. Clients and streams persist across phases.
class ClosedLoop {
 public:
  /// `references` holds the expected reply of each Workload::pool command
  /// (read workloads); null for durable workloads.
  ClosedLoop(const Workload& workload,
             const std::vector<std::string>* references, int clients);

  bool Connect(const std::string& address, std::string* error);

  /// Runs every client for `seconds`; samples count when the command was
  /// sent and answered inside the window.
  PhaseResult RunPhase(double seconds);

 private:
  struct ClientState {
    Client client;
    ClientStream stream;
    size_t next_index = 0;
  };

  const std::vector<std::string>* references_;
  std::vector<ClientState> clients_;
};

}  // namespace pvcbench

#endif  // PVCBENCH_SERVED_H_
