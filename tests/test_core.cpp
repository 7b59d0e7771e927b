// Unit tests for src/core: error macros, shapes, rng, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/shape.h"
#include "core/thread_pool.h"

namespace igc {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    IGC_CHECK(1 == 2) << "custom detail " << 42;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, ComparisonMacros) {
  EXPECT_NO_THROW(IGC_CHECK_EQ(3, 3));
  EXPECT_THROW(IGC_CHECK_EQ(3, 4), Error);
  EXPECT_THROW(IGC_CHECK_LT(4, 4), Error);
  EXPECT_NO_THROW(IGC_CHECK_LE(4, 4));
  EXPECT_THROW(IGC_CHECK_GT(1, 2), Error);
  EXPECT_NO_THROW(IGC_CHECK_GE(2, 2));
  EXPECT_THROW(IGC_CHECK_NE(5, 5), Error);
}

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.str(), "(2, 3, 4)");
}

TEST(Shape, Strides) {
  Shape s{2, 3, 4};
  auto st = s.strides();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0], 12);
  EXPECT_EQ(st[1], 4);
  EXPECT_EQ(st[2], 1);
}

TEST(Shape, EmptyShapeIsScalar) {
  Shape s;
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, EqualityAndBoundsChecks) {
  Shape a{2, 3};
  Shape b{2, 3};
  Shape c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_THROW(a[2], Error);
  EXPECT_THROW(a[-1], Error);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// discard(n) then one draw is draw n+1 of a fresh generator: stepped for
// small n, and for 2^40 (too many to step) composed from 2^20 jumps of 2^20
// and checked against the counter form, a fresh generator seeded n steps on.
TEST(Rng, DiscardJumpsAhead) {
  constexpr uint64_t kSeed = 0x5eed;
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 20}) {
    Rng stepped(kSeed);
    for (uint64_t i = 0; i < n; ++i) stepped.next_u64();
    Rng jumped(kSeed);
    jumped.discard(n);
    EXPECT_EQ(jumped.next_u64(), stepped.next_u64()) << "n=" << n;
  }
  const uint64_t n = uint64_t{1} << 40;
  Rng composed(kSeed);
  for (int i = 0; i < (1 << 20); ++i) composed.discard(uint64_t{1} << 20);
  Rng jumped(kSeed);
  jumped.discard(n);
  const uint64_t draw = jumped.next_u64();
  EXPECT_EQ(draw, composed.next_u64());
  EXPECT_EQ(draw, Rng(kSeed + n * kGamma).next_u64());
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](int64_t i) {
                          if (i == 57) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, NestedCallsDegradeGracefully) {
  ThreadPool& global = ThreadPool::global();
  // The caller is not a worker, but every global() task is: that is what
  // lets a nested user (the JIT's grid split) run inline instead of
  // blocking on the workers it occupies.
  EXPECT_FALSE(global.on_worker_thread());
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> outer_runs(8);
  std::atomic<int> outer_elsewhere{0};
  std::atomic<int> nested_moved{0};
  std::atomic<int> count{0};
  // Using the global pool inside tasks of the global pool must not deadlock.
  global.parallel_for(8, [&](int64_t i) {
    outer_runs[static_cast<size_t>(i)]++;
    const bool on_worker = global.on_worker_thread();
    const std::thread::id self = std::this_thread::get_id();
    if (!on_worker && self != caller) outer_elsewhere++;
    global.parallel_for(8, [&](int64_t) {
      count++;
      if (on_worker && std::this_thread::get_id() != self) nested_moved++;
    });
  });
  // Each outer item runs once, on a worker or on the caller, and a nested
  // loop started on a worker runs all of its items on that worker.
  for (const auto& runs : outer_runs) EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(outer_elsewhere.load(), 0);
  EXPECT_EQ(nested_moved.load(), 0);
  EXPECT_EQ(count.load(), 64);
}

// The range form cuts [0, n) into contiguous chunks of at least min_chunk
// items, at most four per worker, each run exactly once.
TEST(ThreadPool, RangeFormCoversTheRangeInBoundedChunks) {
  ThreadPool pool(3);
  for (const auto& [n, min_chunk] :
       std::vector<std::pair<int64_t, int64_t>>{
           {17, 1}, {1000, 1}, {1000, 64}, {1000, 600}, {5, 8}}) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.parallel_for(n, min_chunk, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_FALSE(chunks.empty());
    EXPECT_LE(chunks.size(), 12u) << "n " << n;
    int64_t next = 0;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, next) << "n " << n;
      if (chunks.size() > 1) {
        EXPECT_GE(hi - lo, min_chunk) << "n " << n;
      }
      next = hi;
    }
    EXPECT_EQ(next, n);
  }
}

// A loop whose helpers never start finishes on its caller. Both workers of
// a two-worker pool park inside one loop; a second loop from another thread
// must complete on that thread alone, while they stay parked.
TEST(ThreadPool, CallerFinishesWhileEveryWorkerIsBusy) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool open = false;
  std::vector<std::atomic<int>> first_hits(64);
  std::thread first([&] {
    pool.parallel_for(64, [&](int64_t i) {
      first_hits[static_cast<size_t>(i)]++;
      std::unique_lock<std::mutex> lock(mu);
      if (pool.on_worker_thread()) {
        ++parked;
        cv.notify_all();
        cv.wait(lock, [&] { return open; });
      } else {
        cv.wait(lock, [&] { return parked >= 2; });
      }
    });
  });
  {
    // EXPECT, not ASSERT: the gate below must still open before the joins.
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return parked >= 2; }));
  }

  std::vector<std::atomic<int>> second_hits(100);
  std::promise<void> second_done;
  std::future<void> second_finished = second_done.get_future();
  std::thread second([&] {
    pool.parallel_for(100, [&](int64_t i) {
      second_hits[static_cast<size_t>(i)]++;
    });
    second_done.set_value();
  });
  EXPECT_EQ(second_finished.wait_for(std::chrono::seconds(3)),
            std::future_status::ready);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(parked, 2);
    open = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  for (const auto& h : first_hits) EXPECT_EQ(h.load(), 1);
  for (const auto& h : second_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](int64_t) { calls++; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](int64_t) { calls++; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForJoinsChunksBeforeReturning) {
  // Regression test: parallel_for used to signal completion before the last
  // chunk task had finished touching the call's stack frame, so a caller
  // could destroy the state (here: `data` and the synchronization itself)
  // while a worker was still using it. Many short calls with by-reference
  // captures make the stale-frame window wide enough to crash or trip TSan.
  ThreadPool pool(4);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<int> data(64, 0);
    pool.parallel_for(64, [&](int64_t i) { data[static_cast<size_t>(i)] = 1; });
    for (int v : data) ASSERT_EQ(v, 1);
  }
}

TEST(ThreadPool, ExceptionPathStillJoinsChunks) {
  // Same lifetime guarantee on the throwing path: after the rethrow no chunk
  // may still be running (the by-reference capture of `touched` would be a
  // use-after-scope otherwise).
  ThreadPool pool(4);
  for (int iter = 0; iter < 100; ++iter) {
    std::atomic<int> touched{0};
    EXPECT_THROW(pool.parallel_for(32,
                                   [&](int64_t i) {
                                     touched++;
                                     if (i % 8 == 0) throw Error("boom");
                                   }),
                 Error);
    EXPECT_GT(touched.load(), 0);
  }
}

}  // namespace
}  // namespace igc
