#include "core/thread_pool.h"

#include <algorithm>
#include <exception>

#include "core/error.h"

namespace igc {

namespace {
/// Which pool (if any) the current thread belongs to as a worker.
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_of == this; }

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (shutting_down_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task.fn();
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(fn)});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  const int nw = num_threads();
  // A nested parallel_for from one of this pool's own workers would deadlock
  // waiting for the workers it is itself occupying; degrade to serial
  // execution instead. (Workers of *other* pools may block here safely.)
  if (n == 1 || nw == 1 || on_worker_thread()) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int64_t chunks = std::min<int64_t>(n, nw * 4);
  const int64_t chunk_size = (n + chunks - 1) / chunks;

  // Chunk tasks capture these locals by reference, so the function must not
  // return until every chunk has fully finished executing — not merely been
  // counted down. The decrement therefore happens under `done_mu` as the very
  // last action of each chunk, and the waiter's predicate runs under the same
  // mutex: once it observes remaining == 0, no chunk can still touch the
  // captured state.
  int64_t remaining = chunks;
  std::exception_ptr first_error;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t lo = c * chunk_size;
    const int64_t hi = std::min(n, lo + chunk_size);
    submit([&, lo, hi] {
      std::exception_ptr err;
      try {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (err && !first_error) first_error = err;
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace igc
