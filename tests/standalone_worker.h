// RAII owner of a forked standalone shard worker.
//
// The constructor returns once the worker accepts connections: a
// FaultProxy dials its upstream once per client and drops the client if
// nothing listens yet, so a proxied coordinator dialled while the worker
// is still starting (on a loaded machine) would lose its link. The
// destructor SIGKILLs and reaps the worker, so a test that returns early
// (a failed ASSERT_*) never leaves it holding the test runner's output
// pipe open until the runner's timeout.

#ifndef PVCDB_TESTS_STANDALONE_WORKER_H_
#define PVCDB_TESTS_STANDALONE_WORKER_H_

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "src/engine/shard_worker.h"
#include "src/net/socket.h"

namespace pvcdb {

class StandaloneWorker {
 public:
  /// Forks a worker serving `address` (ShardWorker::RunStandalone) and
  /// waits until it accepts a connection; the probe connection closes
  /// without a hello, which the worker skips. `pid()` is -1 when the fork
  /// failed.
  explicit StandaloneWorker(const std::string& address) : pid_(fork()) {
    if (pid_ == 0) _exit(ShardWorker::RunStandalone(address, /*quiet=*/true));
    std::string error;
    if (pid_ > 0) ConnectWithRetry(address, 250, &error);
  }
  ~StandaloneWorker() { Kill(); }
  StandaloneWorker(const StandaloneWorker&) = delete;
  StandaloneWorker& operator=(const StandaloneWorker&) = delete;

  pid_t pid() const { return pid_; }

  /// SIGKILLs and reaps the worker now (idempotent).
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_;
};

}  // namespace pvcdb

#endif  // PVCDB_TESTS_STANDALONE_WORKER_H_
