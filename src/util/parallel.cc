#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace pvcdb {

namespace {

thread_local bool tls_in_parallel_worker = false;

// Restores the thread-local worker flag on scope exit (the caller of a
// ParallelFor participates in the loop and must unmark itself afterwards).
class ScopedWorkerMark {
 public:
  ScopedWorkerMark() : previous_(tls_in_parallel_worker) {
    tls_in_parallel_worker = true;
  }
  ~ScopedWorkerMark() { tls_in_parallel_worker = previous_; }

 private:
  bool previous_;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: ParallelFor joins its own
      // iterations, so any queued task still has a caller waiting on it.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max<size_t>(DefaultThreadCount() - 1, 3));
  return pool;
}

size_t DefaultThreadCount() {
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

size_t ResolveThreadCount(int num_threads) {
  if (num_threads < 0) return DefaultThreadCount();
  return std::max(static_cast<size_t>(num_threads), size_t{1});
}

void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  size_t threads = std::min(ResolveThreadCount(num_threads), n);
  // Nested calls run serially instead of re-entering the shared pool.
  if (threads <= 1 || tls_in_parallel_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state: an atomic iteration counter plus completion
  // bookkeeping. Stack-allocated; the caller does not return before every
  // helper has finished its claimed iterations.
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable done;
    size_t active_helpers = 0;
    std::exception_ptr error;
  } state;

  auto worker = [&state, &fn, n] {
    ScopedWorkerMark mark;
    for (;;) {
      if (state.cancelled.load(std::memory_order_relaxed)) return;
      size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        state.cancelled.store(true, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(state.mutex);
        if (!state.error) state.error = std::current_exception();
        return;
      }
    }
  };

  size_t helpers = threads - 1;
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.active_helpers = helpers;
  }
  for (size_t h = 0; h < helpers; ++h) {
    ThreadPool::Shared().Submit([&state, &worker] {
      worker();
      std::unique_lock<std::mutex> lock(state.mutex);
      if (--state.active_helpers == 0) state.done.notify_one();
    });
  }
  worker();
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done.wait(lock, [&state] { return state.active_helpers == 0; });
    if (state.error) std::rethrow_exception(state.error);
  }
}

}  // namespace pvcdb
