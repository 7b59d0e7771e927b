// Tests for the paged buffer arena and the dynamic-shape execution path:
//   * PagePool mechanics — page rounding, first-fit reuse with coalescing,
//     a run released twice failing hard, stats, and a page budget that holds
//     under concurrent allocation;
//   * PagedArena — slab-compatible planned-bytes accounting, double-release
//     and oversize-acquire hard errors, lazy pages, run caching only on a
//     pool the arena owns, value-sized runs on a caller's pool, a run that
//     exhausts its page budget failing with the pool's error and unwinding
//     cleanly, each storage owner's steady-state page traffic, and a
//     placeholder that escapes through an alias as zeros;
//   * cross-context page sharing — serving contexts over one shared pool
//     recycle a single physical page set (peak < 2x single-context peak),
//     including across mixed-resolution tenants;
//   * concurrent serving contexts and per-call arenas — page-table isolation
//     under a real thread pool (run with TSan via the "concurrency" ctest
//     label);
//   * dynamic shapes — one CompiledModel serves batch {1,2,4} x resolution
//     {224,300,416} with zero replanning/retuning, bit-identical in outputs
//     and simulated latencies to models statically compiled at each shape;
//     on a tuned model every conv runs its rebound workload's schedule.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/error.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "graph/shape_infer.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/nn/nn_ops.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"
#include "tensor/page_pool.h"
#include "tune/conv_tuner.h"

namespace igc {
namespace {

const sim::Platform& plat() { return sim::platform(sim::PlatformId::kDeepLens); }

CompiledModel compile_fast(models::Model model) {
  CompileOptions copts;
  copts.tune_trials = 8;
  return compile(std::move(model), plat(), copts);
}

CompiledModel compile_untuned(models::Model model) {
  CompileOptions copts;
  copts.skip_tuning = true;
  return compile(std::move(model), plat(), copts);
}

/// `opts` at the dynamic shape binding (`batch`, `hw`); 0 = the seed's.
RunOptions at_binding(RunOptions opts, int64_t batch, int64_t hw) {
  opts.batch = batch;
  opts.input_hw = hw;
  return opts;
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  EXPECT_EQ(a.max_abs_diff(b), 0.0f) << what;
}

// ----- PagePool -------------------------------------------------------------

constexpr int64_t kPage = PagePool::kPageBytes;

TEST(PagePool, RunsAreWholePagesAndFreedPagesAreReusedFirstFit) {
  PagePool pool;

  const PagePool::PageRun a = pool.alloc(1);  // rounds up to one page
  EXPECT_EQ(pool.run_bytes(a), kPage);
  const PagePool::PageRun b = pool.alloc(2 * kPage + 1);  // three pages
  EXPECT_EQ(pool.run_bytes(b), 3 * kPage);
  EXPECT_EQ(pool.pages_in_use(), 4);
  EXPECT_EQ(pool.bytes_in_use(), 4 * kPage);
  // Both fit in the first extent (kMinExtentPages).
  EXPECT_EQ(pool.extent_bytes(), PagePool::kMinExtentPages * kPage);

  // Free-run coalescing: after releasing both, one 4-page hole exists and a
  // 4-page run fits exactly where a and b were.
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.pages_in_use(), 0);
  const PagePool::PageRun c = pool.alloc(4 * kPage);
  EXPECT_EQ(c.extent, a.extent);
  EXPECT_EQ(c.first_page, a.first_page);
  pool.release(c);

  EXPECT_EQ(pool.total_page_allocs(), 4 + 4);
  EXPECT_EQ(pool.total_page_frees(), 4 + 4);
  EXPECT_EQ(pool.peak_bytes_in_use(), 4 * kPage);
}

TEST(PagePool, ReleasingARunTwiceThrows) {
  PagePool pool;
  const PagePool::PageRun r = pool.alloc(kPage);
  pool.release(r);
  EXPECT_EQ(pool.pages_in_use(), 0);
  EXPECT_THROW(pool.release(r), Error);
  EXPECT_EQ(pool.pages_in_use(), 0);
  EXPECT_EQ(pool.total_page_frees(), 1);
}

TEST(PagePool, BudgetHoldsUnderConcurrentAllocation) {
  // Threads allocate, hold and release 2-page runs under a 4-page budget.
  // Every alloc is granted or refused with igc::Error, and the pool never
  // holds more than its budget, however the threads interleave.
  PagePool::Options popts;
  popts.max_bytes = 4 * kPage;
  PagePool pool(popts);

  constexpr int kThreads = 8;
  constexpr int kAttempts = 2000;
  std::vector<int64_t> granted(kThreads, 0), refused(kThreads, 0),
      other(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kAttempts; ++i) {
        try {
          const PagePool::PageRun run = pool.alloc(2 * kPage);
          ++granted[w];
          for (int spin = 0; spin < 64; ++spin) std::this_thread::yield();
          pool.release(run);
        } catch (const Error&) {
          ++refused[w];
        } catch (...) {
          ++other[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  int64_t total_granted = 0, total_refused = 0, total_other = 0;
  for (int w = 0; w < kThreads; ++w) {
    total_granted += granted[w];
    total_refused += refused[w];
    total_other += other[w];
  }
  EXPECT_EQ(total_other, 0);
  EXPECT_EQ(total_granted + total_refused,
            static_cast<int64_t>(kThreads) * kAttempts);
  EXPECT_GT(total_granted, 0);
  EXPECT_LE(pool.peak_bytes_in_use(), popts.max_bytes);
  EXPECT_EQ(pool.bytes_in_use(), 0);
}

// ----- PagedArena -----------------------------------------------------------

TEST(PagedArena, AccountingMatchesPlannedBytesNotPageRounding) {
  // Planned sizes deliberately not page multiples.
  PagedArena arena({1000, 6000, 0});
  EXPECT_EQ(arena.num_buffers(), 3);
  EXPECT_EQ(arena.capacity_bytes(), 7000);
  EXPECT_EQ(arena.in_use_bytes(), 0);

  Tensor a = arena.acquire(0, Shape{250}, DType::kFloat32, false);
  EXPECT_EQ(arena.in_use_bytes(), 1000);  // planned bytes, not 250*4
  Tensor b = arena.acquire(1, Shape{1500}, DType::kFloat32, false);
  EXPECT_EQ(arena.in_use_bytes(), 7000);
  EXPECT_EQ(arena.peak_in_use_bytes(), 7000);
  arena.release(0);
  arena.release(1);
  EXPECT_EQ(arena.in_use_bytes(), 0);
  EXPECT_EQ(arena.peak_in_use_bytes(), 7000);
  arena.reset_peak();
  EXPECT_EQ(arena.peak_in_use_bytes(), 0);
}

TEST(PagedArena, DoubleReleaseAndReleaseBeforeAcquireAreHardErrors) {
  PagedArena arena({4096});
  EXPECT_THROW(arena.release(0), Error);  // release before acquire
  Tensor t = arena.acquire(0, Shape{16}, DType::kFloat32, false);
  arena.release(0);
  EXPECT_THROW(arena.release(0), Error);  // double release
  // Out-of-range ids are rejected too.
  EXPECT_THROW(arena.release(1), Error);
  // Acquiring a buffer already in use is the mirror-image error.
  t = arena.acquire(0, Shape{16}, DType::kFloat32, false);
  EXPECT_THROW(arena.acquire(0, Shape{16}, DType::kFloat32, false), Error);
  arena.release(0);
}

TEST(PagedArena, PagesAreLazyAndCachedAcrossReleaseOnAnOwnedPool) {
  PagedArena arena({kPage, kPage});
  const std::shared_ptr<PagePool>& pool = arena.pool();
  EXPECT_EQ(arena.page_bytes_held(), 0);  // nothing allocated yet

  Tensor t = arena.acquire(0, Shape{64}, DType::kFloat32, false);
  const int64_t held = arena.page_bytes_held();
  EXPECT_GT(held, 0);
  EXPECT_EQ(pool->bytes_in_use(), held);
  arena.release(0);
  // The arena owns its pool, so the run stays mapped for the next acquire,
  // which takes no new pages.
  EXPECT_EQ(arena.page_bytes_held(), held);
  t = arena.acquire(0, Shape{64}, DType::kFloat32, false);
  arena.release(0);
  EXPECT_EQ(arena.page_bytes_held(), held);
  // Buffer 1 was never touched: it never cost a page.
  EXPECT_EQ(pool->total_page_allocs(), held / kPage);
}

TEST(PagedArena, UncachedArenasReturnPagesToThePoolOnRelease) {
  // An arena over a caller's pool returns its pages on every release.
  auto pool = std::make_shared<PagePool>();
  PagedArena arena({8 * 1024}, pool);
  Tensor t = arena.acquire(0, Shape{32}, DType::kFloat32, false);
  EXPECT_GT(pool->bytes_in_use(), 0);
  arena.release(0);
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(arena.page_bytes_held(), 0);
}

TEST(PagedArena, ASharedPoolArenaTakesPagesForTheValueItHolds) {
  // A caching arena's run serves every holder of its buffer, so it spans the
  // planned bytes; a run from a caller's pool holds only the acquired value.
  auto pool = std::make_shared<PagePool>();
  PagedArena arena({4 * kPage}, pool);
  Tensor t = arena.acquire(0, Shape{16}, DType::kFloat32, false);
  EXPECT_EQ(arena.page_bytes_held(), kPage);
  EXPECT_EQ(pool->pages_in_use(), 1);
  EXPECT_EQ(arena.in_use_bytes(), 4 * kPage);  // accounting: planned bytes
  arena.release(0);
  EXPECT_EQ(pool->pages_in_use(), 0);

  PagedArena caching({4 * kPage});
  t = caching.acquire(0, Shape{16}, DType::kFloat32, false);
  EXPECT_EQ(caching.page_bytes_held(), 4 * kPage);
  caching.release(0);
}

TEST(PagedArena, AnAcquireBeyondThePlannedBytesThrows) {
  // The plan sizes every buffer for its largest holder, so a value that
  // does not fit is a planning error, not a reason to grow the run.
  auto pool = std::make_shared<PagePool>();
  PagedArena arena({kPage}, pool);
  EXPECT_THROW(arena.acquire(0, Shape{kPage / 4 + 1}, DType::kFloat32, false),
               Error);
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(arena.in_use_bytes(), 0);
  // The failed acquire left the buffer free: a value that fits takes it.
  Tensor t = arena.acquire(0, Shape{kPage / 4}, DType::kFloat32, false);
  EXPECT_EQ(arena.page_bytes_held(), kPage);
  arena.release(0);

  PagedArena caching({kPage});
  EXPECT_THROW(caching.acquire(0, Shape{kPage / 4 + 1}, DType::kFloat32, false),
               Error);
  EXPECT_EQ(caching.page_bytes_held(), 0);
}

TEST(PagedArena, AFailedAcquireIsReportedAsTheBudgetAndUnwindsTheRun) {
  // A run whose pool runs out mid-graph throws the pool's error, not a
  // release check tripped by the unwind, and leaves no pages behind.
  Rng rng(0x5eed);
  const CompiledModel cm = compile_untuned(models::build_squeezenet(rng, 64));
  RunOptions ropts;
  ropts.compute_numerics = false;

  auto unbounded = std::make_shared<PagePool>();
  auto free_ctx = cm.make_serving_context(0, 0, unbounded);
  ropts.serving_context = free_ctx.get();
  const RunResult want = cm.run(ropts);

  // A budget of exactly one run's peak, half of it held elsewhere.
  PagePool::Options popts;
  popts.max_bytes = unbounded->peak_bytes_in_use();
  ASSERT_GE(popts.max_bytes, 2 * kPage);
  auto pool = std::make_shared<PagePool>(popts);
  const PagePool::PageRun holder = pool->alloc(popts.max_bytes / 2);
  auto ctx = cm.make_serving_context(0, 0, pool);
  ropts.serving_context = ctx.get();
  try {
    (void)cm.run(ropts);
    ADD_FAILURE() << "the run fit in half its peak";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("page budget exhausted"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(pool->bytes_in_use(), pool->run_bytes(holder));
  pool->release(holder);
  EXPECT_EQ(pool->bytes_in_use(), 0);

  // The same context runs again once the budget is free, bit for bit like
  // the unbounded run.
  const RunResult got = cm.run(ropts);
  expect_bit_identical(got.output, want.output, "after a failed run");
  EXPECT_EQ(got.latency_ms, want.latency_ms);
  EXPECT_EQ(got.serial_ms, want.serial_ms);
  EXPECT_EQ(got.peak_intermediate_bytes, want.peak_intermediate_bytes);
  EXPECT_EQ(got.arena_bytes, want.arena_bytes);
  EXPECT_EQ(pool->bytes_in_use(), 0);
}

TEST(PagedArena, EachStorageOwnersSteadyStatePageTrafficIsPinned) {
  // Only the persistent context owns its pool, so only it keeps its page
  // runs across runs: after warm-up an InceptionV1 run takes no pages from
  // its pool, while serving and per-call contexts hand every page back.
  Rng rng(0x5eed);
  const CompiledModel cm = compile_untuned(models::build_inception_v1(rng));
  obs::Counter& page_allocs =
      obs::MetricsRegistry::global().counter("arena.page_allocs");
  RunOptions ropts;
  ropts.compute_numerics = false;

  RunOptions persistent = ropts;
  persistent.use_arena = true;
  for (int i = 0; i < 3; ++i) (void)cm.run(persistent);
  const int64_t before = page_allocs.value();
  const RunResult warm = cm.run(persistent);
  EXPECT_EQ(page_allocs.value(), before);
  EXPECT_GT(warm.arena_page_bytes, 0);

  auto pool = std::make_shared<PagePool>();
  auto ctx = cm.make_serving_context(0, 0, pool);
  RunOptions serving = ropts;
  serving.serving_context = ctx.get();
  for (int i = 0; i < 3; ++i) (void)cm.run(serving);
  const RunResult served = cm.run(serving);
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(served.arena_page_bytes, 0);

  for (int i = 0; i < 3; ++i) (void)cm.run(ropts);
  const RunResult per_call = cm.run(ropts);
  EXPECT_EQ(cm.page_pool()->bytes_in_use(), 0);
  EXPECT_EQ(per_call.arena_page_bytes, 0);

  // YOLOv3 with its decode and NMS on the CPU reads materialized data
  // through device copies. They are stored in their inputs' buffers, so the
  // persistent context takes no pages after warm-up here either.
  Rng yolo_rng(0x5eed);
  CompileOptions copts;
  copts.skip_tuning = true;
  copts.cpu_fallback_ops = {graph::OpKind::kYoloDecode, graph::OpKind::kBoxNms};
  const CompiledModel yolo =
      compile(models::build_yolov3(yolo_rng, 64, 1, 20), plat(), copts);
  RunOptions yolo_persistent;
  yolo_persistent.use_arena = true;
  (void)yolo.run(yolo_persistent);
  const int64_t yolo_before = page_allocs.value();
  const RunResult yolo_warm = yolo.run(yolo_persistent);
  EXPECT_EQ(page_allocs.value(), yolo_before);
  EXPECT_GT(yolo_warm.arena_page_bytes, 0);
}

TEST(PagedArena, APlaceholderThatEscapesThroughAnAliasIsZeros) {
  // conv -> global pool -> Flatten (the output): the Flatten views the
  // pool's buffer. On every storage owner, a numerics-on run equals the
  // pooled conv output, and a numerics-off run after it returns zeros, not
  // the previous run's numbers left in the pages.
  Rng rng(0x5eed);
  graph::Graph g;
  const int data = g.add_input("data", Shape{1, 4, 8, 8});
  ops::Conv2dParams p;
  p.in_channels = 4;
  p.out_channels = 8;
  p.in_h = p.in_w = 8;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  const int conv = g.add_conv2d(
      "conv", data, p, Tensor::random_normal(Shape{8, 4, 3, 3}, rng));
  graph::Graph conv_only = g;
  conv_only.set_output(conv);
  g.set_output(g.add_flatten("flat", g.add_global_avg_pool("gap", conv)));
  const CompiledModel cm = compile_untuned(models::Model{"gap_flat", g});
  const CompiledModel ref =
      compile_untuned(models::Model{"conv_only", conv_only});

  RunOptions numeric;
  numeric.backend = RunBackend::kInterp;
  const Tensor want =
      ops::global_avg_pool_reference(ref.run(numeric).output)
          .reshape(Shape{1, 8});
  RunOptions shapes_only = numeric;
  shapes_only.compute_numerics = false;

  auto ctx = cm.make_serving_context(0, 0, std::make_shared<PagePool>());
  struct Owner {
    const char* name;
    bool persistent;
    ServingContext* context;
  };
  for (const Owner& o : {Owner{"per-call", false, nullptr},
                         Owner{"persistent", true, nullptr},
                         Owner{"serving", false, ctx.get()}}) {
    numeric.use_arena = shapes_only.use_arena = o.persistent;
    numeric.serving_context = shapes_only.serving_context = o.context;
    expect_bit_identical(cm.run(numeric).output, want, o.name);
    const Tensor zeros = cm.run(shapes_only).output;
    ASSERT_TRUE(zeros.shape() == want.shape()) << o.name;
    for (float x : zeros.span_f32()) EXPECT_EQ(x, 0.0f) << o.name;
  }
}

// ----- cross-context physical page sharing ----------------------------------

TEST(PageSharing, ServingContextsOnOnePoolRecycleOnePageSet) {
  Rng rng(0x5eed);
  const CompiledModel cm = compile_fast(models::build_mobilenet(rng, 64));
  auto pool = std::make_shared<PagePool>();

  auto ctx1 = cm.make_serving_context(0, 0, pool);
  auto ctx2 = cm.make_serving_context(0, 0, pool);
  ASSERT_EQ(ctx1->page_pool().get(), pool.get());

  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.use_arena = true;

  ropts.serving_context = ctx1.get();
  const RunResult r1 = cm.run(ropts);
  const int64_t single_peak = pool->peak_bytes_in_use();
  ASSERT_GT(single_peak, 0);
  // Contexts return their pages to the pool between requests.
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(ctx1->arena_page_bytes(), 0);
  EXPECT_EQ(r1.arena_page_bytes, 0);

  // The second context's request runs on the pages the first one returned:
  // peak physical bytes stay at one request's footprint, not two.
  ropts.serving_context = ctx2.get();
  const RunResult r2 = cm.run(ropts);
  EXPECT_EQ(pool->peak_bytes_in_use(), single_peak);
  EXPECT_LT(pool->peak_bytes_in_use(), 2 * single_peak);
  expect_bit_identical(r2.output, r1.output, "ctx2 vs ctx1");

  // A per-context slab design would hold 2x the arena capacity; the shared
  // pool's mapped footprint stays within one context's page-rounded arena.
  EXPECT_LT(pool->peak_bytes_in_use(), 2 * ctx1->arena_bytes());
}

TEST(PageSharing, MixedResolutionTenantsShareThePhysicalPages) {
  Rng rng(0x5eed);
  const CompiledModel cm = compile_fast(models::build_mobilenet(rng, 64));
  auto pool = std::make_shared<PagePool>();

  // Two tenants of the same model at different resolutions, one page set.
  auto small = cm.make_serving_context(1, 64, pool);
  auto large = cm.make_serving_context(1, 96, pool);
  EXPECT_GT(large->arena_bytes(), small->arena_bytes());

  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.use_arena = true;

  ropts.serving_context = small.get();
  ropts.batch = 1;
  ropts.input_hw = 64;
  (void)cm.run(ropts);
  ropts.serving_context = large.get();
  ropts.input_hw = 96;
  (void)cm.run(ropts);

  // Pages time-share: the pool's peak is bounded by the larger request, far
  // below the sum of two private slabs.
  EXPECT_LT(pool->peak_bytes_in_use(),
            small->arena_bytes() + large->arena_bytes());
}

// ----- concurrency (run under TSan via the "concurrency" label) -------------

TEST(PagedArenaConcurrency, ConcurrentServingContextsStayIsolated) {
  Rng rng(0x5eed);
  const CompiledModel cm = compile_fast(models::build_squeezenet(rng, 32));
  auto pool = std::make_shared<PagePool>();

  RunOptions base;
  base.compute_numerics = true;
  base.use_arena = true;

  // Reference outputs, one per seed, computed single-threaded.
  constexpr int kSeeds = 3;
  Tensor refs[kSeeds];
  for (int s = 0; s < kSeeds; ++s) {
    RunOptions ropts = base;
    ropts.input_seed = 0x100 + static_cast<uint64_t>(s);
    refs[s] = cm.run(ropts).output;
  }

  constexpr int kThreads = 4;
  constexpr int kReps = 3;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each worker owns a private context (page table); physical pages
      // come from the one shared pool.
      auto ctx = cm.make_serving_context(0, 0, pool);
      for (int rep = 0; rep < kReps; ++rep) {
        for (int s = 0; s < kSeeds; ++s) {
          RunOptions ropts = base;
          ropts.input_seed = 0x100 + static_cast<uint64_t>(s);
          ropts.serving_context = ctx.get();
          const RunResult r = cm.run(ropts);
          if (r.output.max_abs_diff(refs[s]) != 0.0f) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "worker " << w;
  }
  EXPECT_EQ(pool->bytes_in_use(), 0);
}

TEST(PagedArenaConcurrency, ConcurrentPerCallArenasOnOneModelStayIsolated) {
  // use_arena off: every call builds its own arena over the compiled plan
  // and borrows pages from the model's pool, so concurrent calls on one
  // model neither serialize nor see each other's buffers.
  Rng rng(0x5eed);
  const CompiledModel cm = compile_fast(models::build_squeezenet(rng, 32));

  constexpr int kSeeds = 3;
  Tensor refs[kSeeds];
  for (int s = 0; s < kSeeds; ++s) {
    refs[s] = cm.run(0x100 + static_cast<uint64_t>(s)).output;
  }

  constexpr int kThreads = 4;
  constexpr int kReps = 3;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (int s = 0; s < kSeeds; ++s) {
          const RunResult r = cm.run(0x100 + static_cast<uint64_t>(s));
          if (r.output.max_abs_diff(refs[s]) != 0.0f) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "worker " << w;
  }
  EXPECT_EQ(cm.page_pool()->bytes_in_use(), 0);
}

// ----- dynamic shapes -------------------------------------------------------

TEST(DynamicShapes, BindingsAreValidatedAgainstTheDeclaredSpec) {
  Rng rng(0x5eed);
  const CompiledModel cls = compile_untuned(models::build_mobilenet(rng, 64));
  EXPECT_TRUE(cls.shape_spec().dynamic_batch);
  EXPECT_TRUE(cls.shape_spec().dynamic_hw);

  RunOptions ropts;
  ropts.compute_numerics = false;
  EXPECT_THROW(cls.run(at_binding(ropts, 9, 64)), Error);    // > max_batch
  EXPECT_THROW(cls.run(at_binding(ropts, 1, 2048)), Error);  // hw > max_hw
  EXPECT_THROW(cls.run(at_binding(ropts, 1, 63)), Error);    // hw < min_hw

  // Detection bakes its anchors: resolution is fixed, batch is dynamic.
  const CompiledModel det = compile_untuned(
      models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128));
  EXPECT_TRUE(det.shape_spec().dynamic_batch);
  EXPECT_FALSE(det.shape_spec().dynamic_hw);
  EXPECT_THROW(det.run(at_binding(ropts, 1, 256)), Error);
  const RunResult r = det.run(at_binding(ropts, 2, 0));
  EXPECT_EQ(r.output.shape()[0], 2);
}

TEST(DynamicShapes, NumericsAreBitIdenticalToStaticCompilesAtEachShape) {
  // Small resolutions keep reference numerics affordable; the shapes-only
  // sweep below covers the full 224/300/416 grid.
  Rng rng(0x5eed);
  const CompiledModel dyn = compile_untuned(models::build_squeezenet(rng, 64));

  for (const int64_t batch : {1, 2}) {
    for (const int64_t hw : {64, 96}) {
      Rng rng2(0x5eed);  // same weights => same static model
      const CompiledModel fixed = compile_untuned(
          models::build_squeezenet(rng2, hw, batch));
      RunOptions ropts;
      ropts.compute_numerics = true;
      const RunResult want = fixed.run(ropts);
      const RunResult got = dyn.run(at_binding(ropts, batch, hw));
      const std::string what = "batch " + std::to_string(batch) + " hw " +
                               std::to_string(hw);
      expect_bit_identical(got.output, want.output, what);
      EXPECT_DOUBLE_EQ(got.latency_ms, want.latency_ms) << what;
      EXPECT_DOUBLE_EQ(got.serial_ms, want.serial_ms) << what;

      // Persistent-arena dynamic runs match too (a binding change rebuilds
      // its context).
      RunOptions aopts = ropts;
      aopts.use_arena = true;
      const RunResult arena = dyn.run(at_binding(aopts, batch, hw));
      expect_bit_identical(arena.output, want.output, what + " arena");
    }
  }
}

TEST(DynamicShapes, FullSweepRunsWithZeroReplanningOrRetuning) {
  Rng rng(0x5eed);
  const CompiledModel dyn =
      compile_untuned(models::build_inception_v1(rng, 224));

  // Static baselines compiled up front (each compile plans + resolves
  // schedules; the dynamic model must do neither again).
  std::map<std::pair<int64_t, int64_t>, std::unique_ptr<CompiledModel>> fixed;
  for (const int64_t batch : {1, 2, 4}) {
    for (const int64_t hw : {224, 300, 416}) {
      Rng rng2(0x5eed);
      fixed[{batch, hw}] = std::make_unique<CompiledModel>(
          compile_untuned(models::build_inception_v1(rng2, hw, batch)));
    }
  }

  auto& reg = obs::MetricsRegistry::global();
  const int64_t plans_before = reg.counter("graph.plan.plans").value();
  const int64_t trials_before = reg.counter("tune.trials").value();

  for (const int64_t batch : {1, 2, 4}) {
    for (const int64_t hw : {224, 300, 416}) {
      RunOptions ropts;
      ropts.compute_numerics = false;  // full-size: cost model only
      const RunResult want = fixed[{batch, hw}]->run(ropts);
      const RunResult got = dyn.run(at_binding(ropts, batch, hw));
      const std::string what = "batch " + std::to_string(batch) + " hw " +
                               std::to_string(hw);
      EXPECT_DOUBLE_EQ(got.latency_ms, want.latency_ms) << what;
      EXPECT_DOUBLE_EQ(got.serial_ms, want.serial_ms) << what;
      EXPECT_DOUBLE_EQ(got.critical_path_ms, want.critical_path_ms) << what;
      EXPECT_EQ(got.output.shape()[0], batch) << what;
      EXPECT_EQ(got.counters.flops, want.counters.flops) << what;
    }
  }

  // The whole 3x3 sweep re-used the compile-time plan and schedules:
  // no plan_memory() calls, no tuning trials.
  EXPECT_EQ(reg.counter("graph.plan.plans").value(), plans_before);
  EXPECT_EQ(reg.counter("tune.trials").value(), trials_before);
}

TEST(DynamicShapes, EveryConvRunsItsOwnWorkloadsScheduleAtEachBinding) {
  // A rebound conv is a different workload: it runs the tuning-database
  // record of the rebound workload at the conv's compiled layout block (the
  // template at that block when the database has none), not the seed's.
  // A database warmed by a static compile at batch 2, hw 96 holds records
  // for the rebound workloads, so the lookup itself is exercised.
  Rng rng(0x5eed);
  const CompiledModel warm = compile_fast(models::build_squeezenet(rng, 96, 2));
  CompileOptions copts;
  copts.tune_trials = 8;
  copts.warm_db = &warm.tune_db();
  Rng rng1(0x5eed);
  const CompiledModel cm =
      compile(models::build_squeezenet(rng1, 64), plat(), copts);
  Rng rng2(0x5eed);
  models::Model ref = models::build_squeezenet(rng2, 64);
  graph::optimize(ref.graph);

  std::map<std::string, std::string> seed_schedule;
  int differs = 0, tuned_rebound = 0;
  for (const auto& [batch, hw] :
       std::vector<std::pair<int64_t, int64_t>>{{0, 0}, {2, 96}}) {
    const graph::Graph g =
        batch == 0 ? ref.graph : graph::rebind_shapes(ref.graph, batch, hw);
    std::map<std::string, int> id_of;
    for (const graph::Node& n : g.nodes()) id_of[n.name] = n.id;

    obs::TraceRecorder trace;
    RunOptions ropts;
    ropts.compute_numerics = false;
    ropts.trace = &trace;
    cm.run(at_binding(ropts, batch, hw));

    int convs = 0;
    for (const obs::TraceSpan& s : trace.spans()) {
      if (s.op != "conv2d") continue;
      ++convs;
      const int id = id_of.at(s.name);
      const ops::Conv2dParams& p = g.node(id).conv;
      const int block = cm.layouts().at(id);
      const tune::ScheduleConfig want =
          tune::lookup_or_default(p, plat().gpu, block, &cm.tune_db());
      EXPECT_EQ(s.schedule, want.str()) << s.name << " batch " << batch;
      if (batch == 0) {
        seed_schedule[s.name] = s.schedule;
        continue;
      }
      if (seed_schedule.at(s.name) != s.schedule) ++differs;
      if (want != tune::lookup_or_default(p, plat().gpu, block, nullptr)) {
        ++tuned_rebound;
      }
    }
    EXPECT_EQ(convs, static_cast<int>(g.conv_node_ids().size()));
  }
  // Otherwise the checks above could not tell the seed's schedules, or the
  // templates, from the rebound workloads' records.
  EXPECT_GT(differs, 0);
  EXPECT_GT(tuned_rebound, 0);
}

TEST(DynamicShapes, PlanBufferAssignmentIsShapeIndependent) {
  Rng rng(0x5eed);
  models::Model m = models::build_mobilenet(rng, 64);
  graph::optimize(m.graph);
  const graph::MemoryPlan plan = graph::plan_memory(m.graph);
  ASSERT_EQ(plan.buffer_holders.size(), plan.buffer_bytes.size());

  // Resolving at the seed shape reproduces the plan's own sizes exactly.
  const std::vector<int64_t> seed_sizes =
      graph::resolve_buffer_bytes(plan, m.graph);
  ASSERT_EQ(seed_sizes.size(), plan.buffer_bytes.size());
  for (size_t i = 0; i < seed_sizes.size(); ++i) {
    EXPECT_EQ(seed_sizes[i], plan.buffer_bytes[i]) << "buffer " << i;
  }

  // Rebinding to a larger shape re-resolves sizes over the same holders:
  // every buffer still fits its holders, and the feature-map buffers grew.
  const graph::Graph big = graph::rebind_shapes(m.graph, 2, 96);
  const std::vector<int64_t> resolved = graph::resolve_buffer_bytes(plan, big);
  ASSERT_EQ(resolved.size(), plan.buffer_bytes.size());
  int64_t grew = 0;
  for (size_t i = 0; i < resolved.size(); ++i) {
    EXPECT_GE(resolved[i], plan.buffer_bytes[i]);
    if (resolved[i] > plan.buffer_bytes[i]) ++grew;
  }
  EXPECT_GT(grew, 0);
  for (const graph::Node& node : big.nodes()) {
    const int buf = plan.buffer_of_node[static_cast<size_t>(node.id)];
    if (buf < 0) continue;
    EXPECT_GE(resolved[static_cast<size_t>(buf)], node.out_shape.numel() * 4)
        << node.name;
  }
}

}  // namespace
}  // namespace igc
