#include "perfbench/src/served.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench/src/stats.h"
#include "src/net/frame.h"

namespace pvcbench {

namespace {

// Generous: the slowest workload command takes well under a second.
constexpr int kReplyDeadlineMs = 60000;
constexpr size_t kMaxRecordedFailures = 5;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Reaps exited descendants without blocking; true once none are left.
bool ReapAvailable() {
  while (true) {
    int status = 0;
    pid_t got = ::waitpid(-1, &status, WNOHANG);
    if (got > 0) continue;
    return got < 0 && errno == ECHILD;
  }
}

}  // namespace

void BecomeSubreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0); }

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(-pid_, SIGKILL);
    Stop(5000);
  }
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    int null_fd = ::open("/dev/null", O_RDWR);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
    }
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s failed\n", binary.c_str());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // Also set here: whichever side runs first wins.
  ::close(log_fd);
  pid_ = pid;
  return true;
}

bool ServerProcess::Stop(int timeout_ms) {
  if (pid_ <= 0) return false;
  bool clean = false;
  bool server_done = false;
  Clock::time_point start = Clock::now();
  while (true) {
    if (!server_done) {
      int status = 0;
      pid_t got = ::waitpid(pid_, &status, WNOHANG);
      if (got == pid_) {
        server_done = true;
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      } else if (got < 0) {
        server_done = true;
      }
    }
    // Orphaned workers are re-parented to this process (subreaper).
    bool all_reaped = ReapAvailable();
    if (server_done && (all_reaped || ::kill(-pid_, 0) != 0)) break;
    if (MsSince(start, Clock::now()) > timeout_ms) {
      ::kill(-pid_, SIGKILL);
      timeout_ms += 5000;  // One more bounded round to reap the group.
      clean = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean;
}

bool Client::Connect(const std::string& address, std::string* error) {
  sock_ = pvcdb::ConnectWithRetry(address, 400, error);
  return sock_.valid();
}

bool Client::Call(const std::string& line, pvcdb::ClientReplyMsg* reply,
                  std::string* error) {
  if (!pvcdb::SendFrame(&sock_,
                        static_cast<uint8_t>(pvcdb::MsgKind::kClientCommand),
                        line, kReplyDeadlineMs)) {
    *error = "transport error: send failed";
    return false;
  }
  uint8_t kind = 0;
  std::string payload;
  pvcdb::FrameResult r =
      pvcdb::RecvFrame(&sock_, &kind, &payload, kReplyDeadlineMs);
  if (r != pvcdb::FrameResult::kOk) {
    *error = "transport error: receive failed (frame result " +
             std::to_string(static_cast<int>(r)) + ")";
    return false;
  }
  if (static_cast<pvcdb::MsgKind>(kind) != pvcdb::MsgKind::kClientReply ||
      !pvcdb::ClientReplyMsg::Decode(payload, reply)) {
    *error = "transport error: undecodable reply";
    return false;
  }
  return true;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<pid_t> ParseWorkerPids(const std::string& workers_reply) {
  std::vector<pid_t> pids;
  std::istringstream in(workers_reply);
  std::string line;
  while (std::getline(in, line)) {
    size_t at = line.find(": pid ");
    if (line.compare(0, 7, "worker ") != 0 || at == std::string::npos) continue;
    pids.push_back(static_cast<pid_t>(std::atol(line.c_str() + at + 6)));
  }
  return pids;
}

ClosedLoop::ClosedLoop(const Workload& workload,
                       const std::vector<std::string>* references, int clients)
    : references_(references) {
  for (int c = 0; c < clients; ++c) {
    clients_.push_back(ClientState{Client(), ClientStream(workload, c), 0});
  }
}

bool ClosedLoop::Connect(const std::string& address, std::string* error) {
  for (ClientState& c : clients_) {
    if (!c.client.Connect(address, error)) return false;
  }
  return true;
}

std::string CheckReply(const Command& command,
                       const pvcdb::ClientReplyMsg& reply,
                       const std::vector<std::string>* references) {
  if (!reply.ok) return "error reply: " + reply.text;
  if (reply.text.find("warning:") != std::string::npos) {
    return "degraded reply: " + reply.text.substr(0, reply.text.find('\n'));
  }
  if (command.pool_index >= 0) {
    const std::string& expected =
        (*references)[static_cast<size_t>(command.pool_index)];
    if (reply.text != expected) {
      return "differs from the in-process reference at " +
             FirstDifference(expected, reply.text);
    }
    return std::string();
  }
  if (!command.write) return std::string();
  const std::string& text = reply.text;
  bool acked =
      command.ack_suffix.empty()
          ? text == command.ack
          : text.size() >= command.ack.size() + command.ack_suffix.size() &&
                text.compare(0, command.ack.size(), command.ack) == 0 &&
                text.compare(text.size() - command.ack_suffix.size(),
                             std::string::npos, command.ack_suffix) == 0;
  if (acked) return std::string();
  return "not the success reply at " +
         FirstDifference(command.ack + "<n>" + command.ack_suffix, text);
}

PhaseResult ClosedLoop::RunPhase(double seconds) {
  std::vector<PhaseResult> per_client(clients_.size());
  Clock::time_point window_start = Clock::now();
  Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([this, c, window_start, window_end, &per_client]() {
      ClientState& state = clients_[c];
      PhaseResult& out = per_client[c];
      while (Clock::now() < window_end) {
        Command command = state.stream.Next();
        size_t index = state.next_index++;
        pvcdb::ClientReplyMsg reply;
        std::string error;
        Clock::time_point sent = Clock::now();
        bool transport_ok = state.client.Call(command.text, &reply, &error);
        Clock::time_point done = Clock::now();
        ++out.attempted;
        std::string detail = transport_ok ? CheckReply(command, reply, references_)
                                          : error;
        if (!detail.empty()) {
          ++out.failed;
          if (out.failures.size() < kMaxRecordedFailures) {
            out.failures.push_back(
                Failure{static_cast<int>(c), index, command.text, detail});
          }
          if (!transport_ok) break;  // The connection is unusable.
          continue;
        }
        ++(command.write ? out.writes_done : out.reads_done);
        if (done <= window_end) {
          (command.write ? out.write_ms : out.read_ms)
              .push_back(MsSince(sent, done));
          out.done_s.push_back(MsSince(window_start, done) / 1000.0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult total;
  total.seconds = seconds;
  for (PhaseResult& r : per_client) {
    total.read_ms.insert(total.read_ms.end(), r.read_ms.begin(),
                         r.read_ms.end());
    total.write_ms.insert(total.write_ms.end(), r.write_ms.begin(),
                          r.write_ms.end());
    total.done_s.insert(total.done_s.end(), r.done_s.begin(), r.done_s.end());
    total.attempted += r.attempted;
    total.reads_done += r.reads_done;
    total.writes_done += r.writes_done;
    total.failed += r.failed;
    for (Failure& f : r.failures) {
      if (total.failures.size() < kMaxRecordedFailures) {
        total.failures.push_back(std::move(f));
      }
    }
  }
  return total;
}

}  // namespace pvcbench
