// A small fixed-size thread pool with a blocking parallel_for.
//
// One process-wide pool, ThreadPool::global(), carries the data parallelism
// inside a node: the GPU simulator's work-groups and the JIT's kernel grid.
// Graph nodes themselves run one after another on the thread that called
// run(); concurrency between runs comes from their callers (the serving
// engine's workers), not from this pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace igc {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency, minimum 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is one of *this* pool's workers. Blocking
  /// on this pool from its own worker would deadlock; callers use this to
  /// degrade to inline execution instead.
  bool on_worker_thread() const;

  /// Runs fn(i) for i in [0, n), distributing contiguous chunks over the
  /// workers, and blocks until all iterations complete. Exceptions thrown by
  /// fn propagate to the caller (first one wins). Every chunk task has fully
  /// finished — not merely been counted — before this returns, so fn may
  /// capture stack locals by reference.
  void parallel_for(int64_t n, const std::function<void(int64_t)>& fn);

  /// Process-wide shared pool for data-parallel kernels.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
  };

  /// Enqueues one task; returns immediately.
  void submit(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace igc
