// Unit tests for src/core: error macros, shapes, rng, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

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
  std::atomic<int> count{0};
  std::atomic<int> on_worker{0};
  // Using the global pool inside tasks of the global pool must not deadlock.
  global.parallel_for(8, [&](int64_t) {
    if (global.on_worker_thread()) on_worker++;
    global.parallel_for(8, [&](int64_t) { count++; });
  });
  EXPECT_EQ(count.load(), 64);
  // A one-worker pool runs parallel_for inline on the caller.
  EXPECT_EQ(on_worker.load(), global.num_threads() > 1 ? 8 : 0);
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
