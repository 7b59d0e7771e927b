// Tests for the serving engine (src/serve): open-loop arrivals, the bounded
// multi-tenant request queue, and the engine whose workers form their own
// batches.
//
//   * PoissonArrivals — deterministic schedules, correct mean rate;
//   * RequestQueue — deterministic injected-clock batch formation (size
//     trigger vs max-wait trigger), admission control accounting (shed
//     watermark, hard cap), round-robin fairness across tenants, and
//     close() flushing partial batches;
//   * ServingEngine — every admitted request resolves, timestamps are
//     ordered, saturation sheds load instead of growing the queue without
//     bound, no tenant starves under saturation, clean shutdown with
//     in-flight requests, serve.* metrics accounting, requests queued
//     behind a busy worker dispatching as one batch, and bit-identical
//     outputs to a direct run() (the engine schedules runs; it is not a
//     numerics path).
//
// Engine tests run real threads but assert only scheduling-independent
// invariants, so they are deterministic and TSan-clean on any interleaving.
// The one exception, the busy-worker batching test, times its submissions
// with margins of 20 ms and more than 150 ms around a ~200 ms request.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "sim/device_spec.h"
#include "tensor/page_pool.h"

namespace igc {
namespace {

using serve::Admission;
using serve::Batch;
using serve::RequestPtr;
using serve::RequestQueue;

// ----- Poisson arrivals ------------------------------------------------------

TEST(PoissonArrivals, DeterministicPerSeed) {
  const auto a = serve::poisson_arrival_times_ms(500.0, 1000.0, 0x5eed);
  const auto b = serve::poisson_arrival_times_ms(500.0, 1000.0, 0x5eed);
  EXPECT_EQ(a, b);
  const auto c = serve::poisson_arrival_times_ms(500.0, 1000.0, 0xd1ff);
  EXPECT_NE(a, c);
}

TEST(PoissonArrivals, MatchesRateAndStaysInRange) {
  const double rate = 2000.0, duration = 5000.0;
  const auto t = serve::poisson_arrival_times_ms(rate, duration, 42);
  // Expected count = rate * duration_s = 10000; Poisson sd = 100. A 5-sigma
  // band never flakes on a fixed seed (the schedule is deterministic).
  const double expected = rate * duration / 1000.0;
  EXPECT_NEAR(static_cast<double>(t.size()), expected, 5.0 * std::sqrt(expected));
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  ASSERT_FALSE(t.empty());
  EXPECT_GE(t.front(), 0.0);
  EXPECT_LT(t.back(), duration);
}

TEST(PoissonArrivals, RejectsBadArguments) {
  EXPECT_THROW(serve::poisson_arrival_times_ms(0.0, 100.0, 1), Error);
  EXPECT_THROW(serve::poisson_arrival_times_ms(10.0, 0.0, 1), Error);
}

// ----- RequestQueue: deterministic batch formation ---------------------------

RequestPtr make_request(int tenant, uint64_t id = 0) {
  auto r = std::make_unique<serve::Request>();
  r->id = id;
  r->tenant = tenant;
  return r;
}

RequestQueue::Options small_queue(int tenants, int max_batch, double max_wait,
                                  int max_depth = 64) {
  RequestQueue::Options o;
  o.num_tenants = tenants;
  o.max_batch_size = max_batch;
  o.max_wait_ms = max_wait;
  o.max_depth = max_depth;
  o.shed_watermark = max_depth;  // watermark off unless a test turns it on
  return o;
}

TEST(RequestQueue, SizeTriggerFormsFullBatchImmediately) {
  RequestQueue q(small_queue(1, 4, 1000.0));
  for (uint64_t i = 0; i < 3; ++i) {
    RequestPtr r = make_request(0, i);
    ASSERT_EQ(q.offer(r, 0.0), Admission::kAdmitted);
  }
  // Three of four: no size trigger, and the 1000 ms wait is far away.
  EXPECT_FALSE(q.try_form_batch(1.0).has_value());

  RequestPtr r = make_request(0, 3);
  ASSERT_EQ(q.offer(r, 1.0), Admission::kAdmitted);
  auto b = q.try_form_batch(1.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->tenant, 0);
  ASSERT_EQ(b->size(), 4);
  // FIFO within the lane.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b->requests[static_cast<size_t>(i)]->id,
              static_cast<uint64_t>(i));
  }
  EXPECT_EQ(q.depth(), 0);
}

TEST(RequestQueue, MaxWaitTriggerFlushesPartialBatch) {
  RequestQueue q(small_queue(1, 8, 5.0));
  RequestPtr r = make_request(0);
  ASSERT_EQ(q.offer(r, 10.0), Admission::kAdmitted);

  // Before the deadline: nothing dispatches, and the deadline is exactly
  // enqueue + max_wait.
  EXPECT_FALSE(q.try_form_batch(14.9).has_value());
  EXPECT_DOUBLE_EQ(q.next_deadline_ms(), 15.0);

  auto b = q.try_form_batch(15.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 1);
  EXPECT_TRUE(std::isinf(q.next_deadline_ms()));
}

TEST(RequestQueue, ZeroWaitDispatchesAnythingQueued) {
  RequestQueue q(small_queue(1, 8, 0.0));
  RequestPtr r = make_request(0);
  ASSERT_EQ(q.offer(r, 0.0), Admission::kAdmitted);
  auto b = q.try_form_batch(0.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 1);
}

TEST(RequestQueue, SizeTriggerBeatsExpiredSmallerLane) {
  // Tenant 0 has one long-waiting request; tenant 1 just hit the size
  // trigger. The full lane dispatches first (it can't get fuller), then the
  // expired one.
  RequestQueue q(small_queue(2, 2, 5.0));
  RequestPtr a = make_request(0, 100);
  ASSERT_EQ(q.offer(a, 0.0), Admission::kAdmitted);
  for (uint64_t i = 0; i < 2; ++i) {
    RequestPtr r = make_request(1, i);
    ASSERT_EQ(q.offer(r, 9.0), Admission::kAdmitted);
  }
  auto first = q.try_form_batch(9.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, 1);
  auto second = q.try_form_batch(9.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 0);
  EXPECT_EQ(second->requests[0]->id, 100u);
}

TEST(RequestQueue, RoundRobinAcrossSaturatedTenants) {
  const int tenants = 3;
  RequestQueue q(small_queue(tenants, 2, 1000.0, 256));
  for (int t = 0; t < tenants; ++t) {
    for (int i = 0; i < 6; ++i) {
      RequestPtr r = make_request(t);
      ASSERT_EQ(q.offer(r, 0.0), Admission::kAdmitted);
    }
  }
  // Every lane stays at/above the size trigger for the first 2 rounds, so
  // batch tenants must cycle 0,1,2,0,1,2,... — no tenant starves.
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) {
    auto b = q.try_form_batch(0.0);
    ASSERT_TRUE(b.has_value());
    order.push_back(b->tenant);
  }
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i % 3);
  EXPECT_EQ(q.depth(), 0);
}

TEST(RequestQueue, AdmissionShedsAtWatermarkAndRejectsAtCap) {
  RequestQueue::Options o = small_queue(1, 4, 1000.0, 8);
  o.shed_watermark = 6;
  RequestQueue q(o);
  int admitted = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    RequestPtr r = make_request(0);
    const Admission a = q.offer(r, 0.0);
    if (a == Admission::kAdmitted) {
      ++admitted;
      EXPECT_EQ(r, nullptr);  // moved in
    } else {
      ++shed;
      EXPECT_EQ(a, Admission::kShedWatermark);
      EXPECT_NE(r, nullptr);  // left with the caller
    }
  }
  EXPECT_EQ(admitted, 6);
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(q.depth(), 6);
}

TEST(RequestQueue, HardCapRejectsQueueFull) {
  RequestQueue::Options o = small_queue(1, 4, 1000.0, 4);
  o.shed_watermark = 4;  // watermark == cap: only hard rejections
  RequestQueue q(o);
  for (int i = 0; i < 4; ++i) {
    RequestPtr r = make_request(0);
    ASSERT_EQ(q.offer(r, 0.0), Admission::kAdmitted);
  }
  RequestPtr r = make_request(0);
  EXPECT_EQ(q.offer(r, 0.0), Admission::kRejectedQueueFull);
  EXPECT_EQ(q.depth(), 4);
}

TEST(RequestQueue, UnknownTenantAndCloseSemantics) {
  RequestQueue q(small_queue(2, 4, 1000.0));
  RequestPtr bad = make_request(7);
  EXPECT_EQ(q.offer(bad, 0.0), Admission::kRejectedUnknownTenant);

  RequestPtr ok = make_request(0);
  ASSERT_EQ(q.offer(ok, 0.0), Admission::kAdmitted);
  q.close();
  EXPECT_TRUE(q.closed());
  RequestPtr late = make_request(0);
  EXPECT_EQ(q.offer(late, 0.0), Admission::kRejectedShutdown);

  // close() makes the queued partial batch dispatchable immediately even
  // though its max-wait deadline is far away.
  auto b = q.try_form_batch(0.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), 1);
}

// ----- ServingEngine ---------------------------------------------------------

/// Small, untuned model: compile cost is milliseconds, shapes-only runs are
/// fast, and the engine behavior under test is independent of model size.
CompiledModel compile_small(const std::string& suffix = "") {
  Rng rng(0x5eed);
  CompileOptions copts;
  copts.skip_tuning = true;
  models::Model m = models::build_squeezenet(rng, 64, 1, 10);
  if (!suffix.empty()) m.name += suffix;
  return compile(std::move(m),
                 sim::platform(sim::PlatformId::kDeepLens), copts);
}

serve::TenantSpec tenant_of(const std::string& name, const CompiledModel& cm) {
  serve::TenantSpec t;
  t.name = name;
  t.model = &cm;
  t.run.compute_numerics = false;
  t.run.use_arena = true;
  return t;
}

TEST(ServingEngine, CompletesEveryAdmittedRequestWithOrderedTimestamps) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  opts.num_workers = 2;
  opts.queue.max_depth = 256;
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  opts.registry = nullptr;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  std::vector<std::future<serve::RequestOutcome>> futures;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted()) << serve::admission_reason(r.admission);
    futures.push_back(std::move(r.outcome));
  }
  engine.stop();

  for (auto& f : futures) {
    const serve::RequestOutcome o = f.get();
    EXPECT_EQ(o.tenant, t0);
    EXPECT_LE(o.enqueue_ms, o.schedule_ms);
    EXPECT_LE(o.schedule_ms, o.start_ms);
    EXPECT_LE(o.start_ms, o.finish_ms);
    EXPECT_GE(o.batch_size, 1);
    EXPECT_LE(o.batch_size, 4);
    EXPECT_GT(o.sim_latency_ms, 0.0);
  }
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.admitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.failed, 0);
  EXPECT_GE(s.batches, (n + 3) / 4);  // batches never exceed max size
}

TEST(ServingEngine, OutputsMatchDirectRun) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  serve::TenantSpec spec = tenant_of("a", cm);
  spec.run.compute_numerics = true;
  const int t0 = engine.add_tenant(spec);
  engine.start();
  serve::SubmitResult r = engine.submit(t0, 0x1234);
  ASSERT_TRUE(r.admitted());
  const serve::RequestOutcome o = r.outcome.get();
  engine.stop();

  // The engine schedules the same run() the caller could make directly;
  // numerics (and simulated latency) must be bit-identical.
  RunOptions direct;
  direct.input_seed = 0x1234;
  direct.compute_numerics = true;
  direct.use_arena = true;
  const RunResult d = cm.run(direct);
  EXPECT_EQ(o.sim_latency_ms, d.latency_ms);
}

TEST(ServingEngine, SimPacingHoldsWorkersForScaledSimulatedTime) {
  // With sim_pacing set, every request's service time covers at least the
  // scaled simulated latency: the worker blocks on its (simulated) device,
  // which is what lets a pool scale goodput on a host with few cores.
  const CompiledModel cm = compile_small();
  const double sim_ms = cm.run(1, false).latency_ms;
  ASSERT_GT(sim_ms, 0.0);

  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.queue.max_wait_ms = 0.0;
  opts.sim_pacing = 0.25;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 4; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  engine.stop();
  for (auto& f : futures) {
    const serve::RequestOutcome o = f.get();
    EXPECT_GE(o.service_ms(), sim_ms * opts.sim_pacing * 0.99);
    EXPECT_EQ(o.sim_latency_ms, sim_ms);
  }

  serve::EngineOptions bad;
  bad.sim_pacing = -1.0;
  EXPECT_THROW(serve::ServingEngine{bad}, Error);
}

TEST(ServingEngine, RequestsQueuedBehindABusyWorkerDispatchTogether) {
  // A batch forms when a worker is free to run it: requests that arrive
  // while the only worker is busy wait in the queue and leave it as one
  // batch, not as one batch each.
  const CompiledModel cm = compile_small();
  const double sim_ms = cm.run(1, false).latency_ms;
  ASSERT_GT(sim_ms, 0.0);

  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  opts.sim_pacing = 200.0 / sim_ms;  // each request holds the worker ~200 ms
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  std::vector<std::future<serve::RequestOutcome>> futures;
  const auto t_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    // The first request goes straight to the worker; the other three arrive
    // 20, 25 and 30 ms later, while it is still running.
    if (i > 0) {
      std::this_thread::sleep_until(t_start +
                                    std::chrono::milliseconds(15 + 5 * i));
    }
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  engine.stop();

  std::vector<int> sizes;
  for (auto& f : futures) sizes.push_back(f.get().batch_size);
  EXPECT_EQ(sizes, (std::vector<int>{1, 3, 3, 3}));
  EXPECT_EQ(engine.stats().batches, 2);
}

TEST(ServingEngine, SaturationShedsInsteadOfGrowingTheQueue) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_depth = 16;
  opts.queue.shed_watermark = 12;
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  // Blast far more work than one worker can absorb, with no pacing: an
  // open-loop burst. Admission control must bound the queue and refuse the
  // overflow instead of buffering it.
  std::vector<std::future<serve::RequestOutcome>> admitted;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    if (r.admitted()) admitted.push_back(std::move(r.outcome));
  }
  engine.stop();

  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.admitted, static_cast<int64_t>(admitted.size()));
  EXPECT_GT(s.shed + s.rejected_full, 0) << "saturation must shed load";
  EXPECT_LE(s.queue_depth_peak, 16) << "queue depth must stay bounded";
  EXPECT_EQ(s.admitted, s.completed);
  EXPECT_EQ(s.submitted,
            s.admitted + s.shed + s.rejected_full + s.rejected_shutdown +
                s.rejected_unknown_tenant);
  for (auto& f : admitted) f.get();  // every admitted future resolves
}

TEST(ServingEngine, NoTenantStarvesUnderSaturation) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_depth = 30;
  opts.queue.shed_watermark = 30;
  opts.queue.max_batch_size = 2;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  const int tenants = 3;
  for (int t = 0; t < tenants; ++t) {
    engine.add_tenant(tenant_of("tenant" + std::to_string(t), cm));
  }
  engine.start();

  // Interleaved saturating submissions across all tenants.
  int64_t admitted = 0;
  for (int round = 0; round < 400; ++round) {
    for (int t = 0; t < tenants; ++t) {
      serve::SubmitResult r =
          engine.submit(t, static_cast<uint64_t>(round));
      if (r.admitted()) ++admitted;
    }
  }
  engine.stop();

  const serve::EngineStats s = engine.stats();
  ASSERT_EQ(static_cast<int>(s.completed_per_tenant.size()), tenants);
  EXPECT_EQ(s.completed, admitted);
  const int64_t fair_share = s.completed / tenants;
  for (int t = 0; t < tenants; ++t) {
    // Round-robin batch formation keeps every tenant within a batch of its
    // fair share; anything above half the share proves no starvation with
    // a wide margin.
    EXPECT_GT(s.completed_per_tenant[static_cast<size_t>(t)], fair_share / 2)
        << "tenant " << t << " starved";
  }
}

TEST(ServingEngine, CleanShutdownResolvesInFlightRequests) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_depth = 512;
  opts.queue.max_batch_size = 8;
  // A long batching window: stop() must flush partial batches without
  // waiting for it.
  opts.queue.max_wait_ms = 60000.0;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 100; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  engine.stop();  // requests are still queued: drain, don't drop

  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.completed, 100);

  // Post-stop submissions are refused with the shutdown reason.
  serve::SubmitResult late = engine.submit(t0, 0);
  EXPECT_EQ(late.admission, Admission::kRejectedShutdown);
  EXPECT_EQ(engine.stats().rejected_shutdown, 1);

  // stop() is idempotent.
  engine.stop();
}

TEST(ServingEngine, RecordsServeMetricsFamily) {
  const CompiledModel cm = compile_small();
  obs::MetricsRegistry reg;
  serve::EngineOptions opts;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();
  const int n = 17;
  for (int i = 0; i < n; ++i) {
    engine.submit(t0, static_cast<uint64_t>(i));
  }
  engine.stop();

  const serve::EngineStats s = engine.stats();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("serve.submitted"), n);
  EXPECT_EQ(snap.counters.at("serve.admitted"), s.admitted);
  EXPECT_EQ(snap.counters.at("serve.completed"), s.completed);
  EXPECT_EQ(snap.counters.at("serve.shed"), s.shed);
  EXPECT_EQ(snap.counters.at("serve.rejected"),
            s.rejected_full + s.rejected_shutdown + s.rejected_unknown_tenant);
  EXPECT_EQ(snap.counters.at("serve.batches"), s.batches);
  // One histogram sample per completion / per batch.
  EXPECT_EQ(snap.histograms.at("serve.e2e_ms").count, s.completed);
  EXPECT_EQ(snap.histograms.at("serve.service_ms").count, s.completed);
  EXPECT_EQ(snap.histograms.at("serve.queue_wait_ms").count, s.admitted);
  EXPECT_EQ(snap.histograms.at("serve.batch_size").count, s.batches);
  EXPECT_EQ(snap.gauges.at("serve.queue_depth"), 0);  // drained at stop()
  EXPECT_EQ(snap.gauges.at("serve.queue_depth_peak"), s.queue_depth_peak);
}

TEST(ServingEngine, MultipleModelsMultiplexOverOneWorkerPool) {
  // Two distinct CompiledModels (different names) served by the same pool;
  // outcomes carry the right tenant and the right per-model simulated
  // latency, proving worker contexts don't leak across tenants.
  const CompiledModel cm_a = compile_small("_A");
  const CompiledModel cm_b = compile_small("_B");
  obs::MetricsRegistry reg;
  serve::EngineOptions opts;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  const int ta = engine.add_tenant(tenant_of("a", cm_a));
  const int tb = engine.add_tenant(tenant_of("b", cm_b));
  EXPECT_EQ(engine.tenant_name(ta), "a");
  EXPECT_EQ(engine.tenant_name(tb), "b");
  engine.start();

  std::vector<std::future<serve::RequestOutcome>> fa, fb;
  for (int i = 0; i < 10; ++i) {
    auto ra = engine.submit(ta, static_cast<uint64_t>(i));
    auto rb = engine.submit(tb, static_cast<uint64_t>(i));
    ASSERT_TRUE(ra.admitted());
    ASSERT_TRUE(rb.admitted());
    fa.push_back(std::move(ra.outcome));
    fb.push_back(std::move(rb.outcome));
  }
  engine.stop();

  RunOptions direct;
  direct.compute_numerics = false;
  const double sim_a = cm_a.run(direct).latency_ms;
  const double sim_b = cm_b.run(direct).latency_ms;
  for (auto& f : fa) {
    const serve::RequestOutcome o = f.get();
    EXPECT_EQ(o.tenant, ta);
    EXPECT_EQ(o.sim_latency_ms, sim_a);
  }
  for (auto& f : fb) {
    const serve::RequestOutcome o = f.get();
    EXPECT_EQ(o.tenant, tb);
    EXPECT_EQ(o.sim_latency_ms, sim_b);
  }
}

TEST(ServingEngine, PageBudgetExhaustedMidRequestFailsOnlyThatRequest) {
  // Fault injection: the engine's page pool runs out in the middle of a
  // request. That request fails with the pool's error, the accounting still
  // conserves, the flight recorder keeps the failure as it happened, and the
  // next request runs once the pages are back.
  const CompiledModel cm = compile_small();
  RunOptions probe;
  probe.compute_numerics = false;
  auto unbounded = std::make_shared<PagePool>();
  auto probe_ctx = cm.make_serving_context(0, 0, unbounded);
  probe.serving_context = probe_ctx.get();
  (void)cm.run(probe);

  PagePool::Options popts;
  popts.max_bytes = unbounded->peak_bytes_in_use();  // one request's peak
  auto pool = std::make_shared<PagePool>(popts);
  obs::MetricsRegistry reg;
  serve::EngineOptions opts;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_wait_ms = 0.0;
  opts.trace.enabled = true;
  opts.page_pool = pool;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  const PagePool::PageRun holder = pool->alloc(popts.max_bytes / 2);
  serve::SubmitResult first = engine.submit(t0, 1);
  ASSERT_TRUE(first.admitted());
  try {
    (void)first.outcome.get();
    ADD_FAILURE() << "the request fit in half its peak";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("page budget exhausted"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(engine.health().healthy());
  pool->release(holder);

  serve::SubmitResult second = engine.submit(t0, 2);
  ASSERT_TRUE(second.admitted());
  EXPECT_GT(second.outcome.get().sim_latency_ms, 0.0);
  EXPECT_TRUE(engine.health().healthy());
  engine.stop();

  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, s.admitted + s.shed + s.rejected_full +
                             s.rejected_shutdown + s.rejected_unknown_tenant);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.admitted, s.completed + s.failed);

  // Snapshots sort by trace id, so the first request's timeline leads.
  const std::vector<obs::RequestTimeline> kept =
      engine.flight_recorder()->snapshot();
  ASSERT_FALSE(kept.empty());
  const obs::RequestTimeline& failed = kept.front();
  EXPECT_EQ(failed.status, obs::RequestStatus::kFailed);
  ASSERT_FALSE(failed.events.empty());
  EXPECT_EQ(failed.events.back().kind, obs::RequestEventKind::kFinish);
  EXPECT_NE(failed.events.back().detail.find("page budget exhausted"),
            std::string::npos)
      << failed.events.back().detail;
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].status, obs::RequestStatus::kCompleted);
  }
  EXPECT_EQ(pool->bytes_in_use(), 0);
}

TEST(ServingEngine, LifecycleErrors) {
  const CompiledModel cm = compile_small();
  obs::MetricsRegistry reg;
  serve::EngineOptions opts;
  opts.registry = &reg;
  {
    serve::ServingEngine engine(opts);
    EXPECT_THROW(engine.start(), Error);  // no tenants
    serve::TenantSpec no_model;
    no_model.name = "x";
    EXPECT_THROW(engine.add_tenant(no_model), Error);
    const int t0 = engine.add_tenant(tenant_of("a", cm));
    // Submissions before start() are refused, not crashed.
    EXPECT_EQ(engine.submit(t0, 0).admission, Admission::kRejectedShutdown);
    engine.start();
    EXPECT_THROW(engine.add_tenant(tenant_of("b", cm)), Error);
    // Unknown tenant ids are refused with their own reason.
    EXPECT_EQ(engine.submit(99, 0).admission,
              Admission::kRejectedUnknownTenant);
  }  // destructor stops a started engine cleanly
  opts.num_workers = 0;
  EXPECT_THROW(serve::ServingEngine{opts}, Error);
}

}  // namespace
}  // namespace igc
