#include "core/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

namespace igc {

namespace {
/// Which pool (if any) the current thread belongs to as a worker.
thread_local const ThreadPool* t_worker_of = nullptr;

/// The chunks of one parallel_for call, shared by its caller and its helper
/// tasks. Helpers hold it through a shared_ptr, so one that starts after the
/// last claim touches only this state: `fn` points into the caller's frame
/// and is called only for a claimed chunk.
struct Job {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  int64_t n = 0;
  int64_t chunks = 0;
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t claimed = 0;  // chunks handed out so far
  int64_t running = 0;  // claimed and not yet finished
  std::exception_ptr first_error;
};

/// Claims and runs chunks until none is left. A chunk's completion is
/// counted under the mutex as its last act, so once the caller sees no chunk
/// running and none left to claim, no chunk can still touch its frame.
void run_chunks(Job& job) {
  std::unique_lock<std::mutex> lock(job.mu);
  while (job.claimed < job.chunks) {
    const int64_t c = job.claimed++;
    ++job.running;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*job.fn)(job.n * c / job.chunks, job.n * (c + 1) / job.chunks);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !job.first_error) job.first_error = err;
    if (--job.running == 0 && job.claimed == job.chunks) {
      job.done_cv.notify_all();
    }
  }
}
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
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (shutting_down_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(int64_t n, int64_t min_chunk,
                              const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int nw = num_threads();
  const int64_t chunks =
      std::min<int64_t>(n / std::max<int64_t>(min_chunk, 1), 4 * nw);
  // A nested call from one of this pool's own workers runs inline: its
  // helpers could queue behind the very task that waits for them. (Workers
  // of *other* pools may call here safely.)
  if (chunks <= 1 || nw == 1 || on_worker_thread()) {
    fn(0, n);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->chunks = chunks;
  const int64_t helpers = std::min<int64_t>(chunks - 1, nw);
  for (int64_t h = 0; h < helpers; ++h) {
    submit([job] { run_chunks(*job); });
  }
  run_chunks(*job);
  std::unique_lock<std::mutex> lock(job->mu);
  job->done_cv.wait(lock, [&] { return job->running == 0; });
  if (job->first_error) std::rethrow_exception(job->first_error);
}

void ThreadPool::parallel_for(int64_t n,
                              const std::function<void(int64_t)>& fn) {
  parallel_for(n, 1, [&fn](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace igc
