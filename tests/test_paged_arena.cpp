// Tests for the paged buffer arena and the dynamic-shape execution path:
//   * PagePool mechanics — page rounding, first-fit reuse with coalescing,
//     refcounted runs, budget pressure, stats;
//   * PagedArena — slab-compatible planned-bytes accounting, double-release
//     hard errors, lazy pages, run caching + eviction, zero-copy aliasing
//     with copy-on-reacquire;
//   * cross-context page sharing — serving contexts over one shared pool
//     recycle a single physical page set (peak < 2x single-context peak),
//     including across mixed-resolution tenants;
//   * concurrent serving contexts and per-call arenas — page-table isolation
//     under a real thread pool (run with TSan via the "concurrency" ctest
//     label);
//   * dynamic shapes — one CompiledModel serves batch {1,2,4} x resolution
//     {224,300,416} with zero replanning/retuning, bit-identical in outputs
//     and simulated latencies to models statically compiled at each shape.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/error.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "graph/shape_infer.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"
#include "tensor/page_pool.h"

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

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  EXPECT_EQ(a.max_abs_diff(b), 0.0f) << what;
}

// ----- PagePool -------------------------------------------------------------

TEST(PagePool, RunsAreWholePagesAndFreedPagesAreReusedFirstFit) {
  PagePool::Options popts;
  popts.page_bytes = 1024;
  popts.min_extent_pages = 16;
  PagePool pool(popts);

  const PagePool::PageRun a = pool.alloc(1);  // rounds up to one page
  EXPECT_EQ(pool.run_bytes(a), 1024);
  const PagePool::PageRun b = pool.alloc(3000);  // three pages
  EXPECT_EQ(pool.run_bytes(b), 3 * 1024);
  EXPECT_EQ(pool.pages_in_use(), 4);
  EXPECT_EQ(pool.bytes_in_use(), 4 * 1024);
  // Both fit in the first extent (min_extent_pages).
  EXPECT_EQ(pool.extent_bytes(), 16 * 1024);

  // Free-run coalescing: after releasing both, one 4-page hole exists and a
  // 4-page run fits exactly where a and b were.
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.pages_in_use(), 0);
  const PagePool::PageRun c = pool.alloc(4 * 1024);
  EXPECT_EQ(c.extent, a.extent);
  EXPECT_EQ(c.first_page, a.first_page);
  pool.release(c);

  EXPECT_EQ(pool.total_page_allocs(), 4 + 4);
  EXPECT_EQ(pool.total_page_frees(), 4 + 4);
  EXPECT_EQ(pool.peak_bytes_in_use(), 4 * 1024);
}

TEST(PagePool, RefcountedRunsSurviveUntilTheLastRelease) {
  PagePool::Options popts;
  popts.page_bytes = 512;
  PagePool pool(popts);
  const PagePool::PageRun r = pool.alloc(512);
  EXPECT_EQ(pool.refcount(r), 1);
  pool.add_ref(r);
  EXPECT_EQ(pool.refcount(r), 2);
  pool.release(r);
  EXPECT_EQ(pool.refcount(r), 1);
  EXPECT_EQ(pool.pages_in_use(), 1);  // still live
  pool.release(r);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

TEST(PagePool, BudgetTriggersPressureHooksThenThrows) {
  PagePool::Options popts;
  popts.page_bytes = 1024;
  popts.max_bytes = 4 * 1024;
  popts.min_extent_pages = 4;
  PagePool pool(popts);

  // A hook that releases a cached run on demand (what PagedArena does).
  PagePool::PageRun cached = pool.alloc(2 * 1024);
  int hook_calls = 0;
  const int id = pool.register_pressure_hook([&] {
    ++hook_calls;
    if (!cached.empty()) {
      pool.release(cached);
      cached = {};
    }
  });

  // 3 more pages would exceed the 4-page budget; the hook's eviction of the
  // 2 cached pages makes room.
  const PagePool::PageRun big = pool.alloc(3 * 1024);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_TRUE(cached.empty());
  EXPECT_EQ(pool.pages_in_use(), 3);

  // Now nothing is evictable: exceeding the budget is a hard error.
  EXPECT_THROW(pool.alloc(2 * 1024), Error);
  pool.release(big);
  pool.unregister_pressure_hook(id);
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

TEST(PagedArena, PagesAreLazyCachedAcrossReleaseAndEvictable) {
  auto pool = std::make_shared<PagePool>();
  PagedArena arena({64 * 1024, 64 * 1024}, pool);
  EXPECT_EQ(arena.page_bytes_held(), 0);  // nothing allocated yet

  Tensor t = arena.acquire(0, Shape{64}, DType::kFloat32, false);
  const int64_t held = arena.page_bytes_held();
  EXPECT_GT(held, 0);
  EXPECT_EQ(pool->bytes_in_use(), held);
  arena.release(0);
  // cache_runs (default): the run stays mapped for the next acquire...
  EXPECT_EQ(arena.page_bytes_held(), held);
  // ...and evict_idle() drops it back to the pool.
  EXPECT_EQ(arena.evict_idle(), 1);
  EXPECT_EQ(arena.page_bytes_held(), 0);
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(arena.evictions(), 1);
  // Buffer 1 was never touched: it never cost a page.
  EXPECT_EQ(pool->total_page_allocs(), held / pool->page_bytes());
}

TEST(PagedArena, UncachedArenasReturnPagesToThePoolOnRelease) {
  auto pool = std::make_shared<PagePool>();
  PagedArena::Options aopts;
  aopts.cache_runs = false;
  PagedArena arena({8 * 1024}, pool, aopts);
  Tensor t = arena.acquire(0, Shape{32}, DType::kFloat32, false);
  EXPECT_GT(pool->bytes_in_use(), 0);
  arena.release(0);
  EXPECT_EQ(pool->bytes_in_use(), 0);
  EXPECT_EQ(arena.page_bytes_held(), 0);
}

TEST(PagedArena, SharedAcquireAliasesPagesAndCopyOnReacquireProtectsReaders) {
  auto pool = std::make_shared<PagePool>();
  PagedArena arena({4096, 4096}, pool);

  Tensor src = arena.acquire(0, Shape{16}, DType::kFloat32, false);
  for (int i = 0; i < 16; ++i) src.data_f32()[i] = static_cast<float>(i);

  // The alias views the same pages: zero-copy.
  Tensor alias = arena.acquire_shared(1, 0, Shape{16}, DType::kFloat32);
  EXPECT_EQ(alias.data_f32(), src.data_f32());

  // Source released while the alias still reads; the next acquire of buffer
  // 0 must NOT hand back the shared pages (copy-on-reacquire).
  arena.release(0);
  Tensor fresh = arena.acquire(0, Shape{16}, DType::kFloat32, false);
  EXPECT_NE(fresh.data_f32(), alias.data_f32());
  EXPECT_EQ(alias.data_f32()[7], 7.0f);  // alias contents intact

  arena.release(1);
  arena.release(0);
  // Sharing errors: aliasing a free buffer is a hard error.
  EXPECT_THROW(arena.acquire_shared(1, 0, Shape{16}, DType::kFloat32), Error);
}

TEST(PagedArena, OversizeAcquireGrowsTheRunAndRespectsThePoolBudget) {
  PagePool::Options popts;
  popts.page_bytes = 1024;
  popts.max_bytes = 8 * 1024;
  popts.min_extent_pages = 8;
  auto pool = std::make_shared<PagePool>(popts);
  PagedArena arena({1024}, pool);

  // Data-dependent output larger than the planned bytes: the run grows.
  Tensor big = arena.acquire(0, Shape{1024}, DType::kFloat32, false);
  EXPECT_EQ(big.nbytes(), 4096);
  EXPECT_GE(arena.page_bytes_held(), 4096);
  arena.release(0);

  // But never past the pool budget: a request beyond max_bytes throws even
  // after eviction (validating data-dependent outputs against capacity).
  EXPECT_THROW(arena.acquire(0, Shape{16 * 1024}, DType::kFloat32, false),
               Error);
}

TEST(PagedArena, PoolPressureEvictsCachedRunsOfIdleArenas) {
  PagePool::Options popts;
  popts.page_bytes = 1024;
  popts.max_bytes = 4 * 1024;
  popts.min_extent_pages = 4;
  auto pool = std::make_shared<PagePool>(popts);

  PagedArena cold({3 * 1024}, pool);  // caches 3 pages after its run
  Tensor t = cold.acquire(0, Shape{512}, DType::kFloat32, false);
  cold.release(0);
  EXPECT_EQ(pool->bytes_in_use(), 3 * 1024);

  // A second arena needs 3 pages: the pool is over budget until the
  // pressure hook evicts `cold`'s cached run.
  PagedArena hot({3 * 1024}, pool);
  Tensor u = hot.acquire(0, Shape{512}, DType::kFloat32, false);
  EXPECT_EQ(cold.page_bytes_held(), 0);
  EXPECT_GE(cold.evictions(), 1);
  hot.release(0);
}

TEST(PagedArena, RebindResizesBuffersForANewShapeBinding) {
  PagedArena arena({1000, 2000});
  Tensor t = arena.acquire(0, Shape{100}, DType::kFloat32, false);
  EXPECT_THROW(arena.rebind({500, 1000}), Error);  // in use
  arena.release(0);
  arena.rebind({8000, 1000});
  EXPECT_EQ(arena.capacity_bytes(), 9000);
  Tensor u = arena.acquire(0, Shape{2000}, DType::kFloat32, false);
  EXPECT_EQ(arena.in_use_bytes(), 8000);
  arena.release(0);
  EXPECT_THROW(arena.rebind({1, 2, 3}), Error);  // buffer count is fixed
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
  EXPECT_THROW(cls.run(9, 64, ropts), Error);    // batch above max_batch
  EXPECT_THROW(cls.run(1, 2048, ropts), Error);  // hw above max_hw
  EXPECT_THROW(cls.run(1, 63, ropts), Error);    // hw below min_hw

  // Detection bakes its anchors: resolution is fixed, batch is dynamic.
  const CompiledModel det = compile_untuned(
      models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128));
  EXPECT_TRUE(det.shape_spec().dynamic_batch);
  EXPECT_FALSE(det.shape_spec().dynamic_hw);
  EXPECT_THROW(det.run(1, 256, ropts), Error);
  const RunResult r = det.run(2, 0, ropts);
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
      const RunResult got = dyn.run(batch, hw, ropts);
      const std::string what = "batch " + std::to_string(batch) + " hw " +
                               std::to_string(hw);
      expect_bit_identical(got.output, want.output, what);
      EXPECT_DOUBLE_EQ(got.latency_ms, want.latency_ms) << what;
      EXPECT_DOUBLE_EQ(got.serial_ms, want.serial_ms) << what;

      // Persistent-arena dynamic runs match too (its arena rebinds).
      RunOptions aopts = ropts;
      aopts.use_arena = true;
      const RunResult arena = dyn.run(batch, hw, aopts);
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
      const RunResult got = dyn.run(batch, hw, ropts);
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
