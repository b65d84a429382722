// Deterministic parallel-evaluation primitives: a fixed-size ThreadPool
// and a ParallelFor loop built on it.
//
// The design goal is *bit-identical results* between serial and parallel
// evaluation, which rules out atomics on doubles and any reduction whose
// order depends on thread scheduling. ParallelFor therefore only
// distributes iterations whose side effects are confined to per-iteration
// state (typically `out[i] = f(i)`); all reductions stay with the caller,
// in the serial order. The pool is deliberately work-stealing-free: tasks
// are coarse (whole ParallelFor worker loops), so a single FIFO queue
// keeps the implementation small and easy to reason about under TSan.
//
// Thread-count convention (the engine-wide `EvalOptions::num_threads`
// knob): 0 and 1 mean serial, n > 1 means up to n threads including the
// caller, negative means "all hardware threads".

#ifndef PVCDB_UTIL_PARALLEL_H_
#define PVCDB_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pvcdb {

/// A fixed-size pool of worker threads consuming one FIFO task queue.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);

  /// Waits for the queue to drain, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution by some worker. Tasks must not throw
  /// (ParallelFor catches exceptions before they reach the pool).
  void Submit(std::function<void()> task);

  size_t size() const { return threads_.size(); }

  /// The lazily constructed process-wide pool used by ParallelFor. Sized to
  /// the hardware concurrency minus the calling thread, with a floor of 3
  /// workers so that num_threads in {2, 4, 8} genuinely multithreads (and
  /// TSan sees real interleavings) even on small CI machines.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Hardware concurrency with a floor of 1.
size_t DefaultThreadCount();

/// Maps the engine-facing `num_threads` knob to an actual thread count:
/// 0 and 1 mean serial (returns 1), negative means all hardware threads.
size_t ResolveThreadCount(int num_threads);

/// Runs fn(i) for every i in [0, n) on up to `num_threads` threads, the
/// caller included. Iterations are claimed dynamically from a shared atomic
/// counter, so which thread runs which iteration is unspecified; results
/// are nevertheless deterministic whenever fn(i) only writes state owned by
/// iteration i (the only usage pattern in this codebase). Falls back to a
/// plain serial loop when `num_threads` resolves to 1, n < 2, or the caller
/// is already inside a ParallelFor. The first exception thrown by any
/// iteration is rethrown on the caller once all claimed iterations finish;
/// remaining iterations are abandoned.
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace pvcdb

#endif  // PVCDB_UTIL_PARALLEL_H_
