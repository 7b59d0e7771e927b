// A small fixed-size thread pool with a blocking, caller-runs parallel_for.
//
// One process-wide pool, ThreadPool::global(), carries the data parallelism
// inside a node: the GPU simulator's work-groups, the JIT's kernel grid,
// interpreted pooling, and the SSD and YOLOv3 decodes. Graph nodes
// themselves run one after another on the thread that called run();
// concurrency between runs comes from their callers (the serving engine's
// workers), not from this pool. A parallel_for's caller runs chunks itself
// alongside the workers, so a loop whose workers are busy elsewhere, or get
// no CPU, still finishes on its caller.
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
  /// on this pool from its own worker would deadlock; parallel_for runs such
  /// a call inline on that worker.
  bool on_worker_thread() const;

  /// Runs fn(lo, hi) over contiguous chunks that cover [0, n), and blocks
  /// until all of them complete. There are min(n / min_chunk, 4 *
  /// num_threads()) chunks (chunk c is [n*c/chunks, n*(c+1)/chunks)), so a
  /// chunk holds at least min_chunk items; a loop of one chunk, a one-worker
  /// pool, or a call from one of this pool's workers runs fn(0, n) inline.
  ///
  /// Otherwise the caller and up to num_threads() helper tasks claim chunks
  /// from one shared count, and the caller runs chunks until none is left.
  /// It then waits only for chunks a helper has claimed and not finished,
  /// never for a helper that has not started. Exceptions thrown by fn
  /// propagate to the caller (first one wins). Every claimed chunk has fully
  /// finished before this returns, so fn may capture stack locals by
  /// reference; a helper that starts later finds no chunk left and never
  /// calls fn.
  void parallel_for(int64_t n, int64_t min_chunk,
                    const std::function<void(int64_t, int64_t)>& fn);

  /// Runs fn(i) for i in [0, n): the range form with a minimum chunk of 1.
  void parallel_for(int64_t n, const std::function<void(int64_t)>& fn);

  /// Process-wide shared pool for data-parallel kernels.
  static ThreadPool& global();

 private:
  /// Enqueues one task; returns immediately.
  void submit(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace igc
