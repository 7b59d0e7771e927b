// Tests for request-scoped tracing through the serving engine
// (src/obs/request_trace + the serve/obs wiring):
//
//   * FlightRecorder — tail-sampling policy (errors always retained, global
//     N-slowest survive the merge, deterministic head-sample), bounded
//     rings, deterministic snapshot order;
//   * ExemplarStore — per-bucket latest-wins exemplars, bucket lookup,
//     Prometheus exposition (`# {trace_id="..."}` after bucket lines) and
//     the /snapshot.json splice;
//   * ServingEngine timelines — with an injected (thread-safe) clock every
//     completed request records submit <= admit <= batch_formed <=
//     worker_start <= run <= finish with consistent batch/worker stamps;
//     shed and failed requests are ALWAYS retained; per-tenant
//     serve.tenant.<name>.* instruments move and ride the sampler series;
//   * /healthz + /debug endpoints — engine-backed liveness (200 while
//     serving, 503 after stop), /debug/requests, /debug/request/<id> with
//     strict id parsing, and the acceptance loop: scrape an exemplar trace
//     id from /metrics, fetch its timeline over HTTP, check the ordering;
//   * Chrome export — the per-request trace parses as JSON and carries the
//     serving-engine process with flow events tying the tracks together;
//   * concurrency — 4 scraper threads hammer /metrics + /series.json while
//     the engine completes requests (the TSan target for this feature).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/error.h"
#include "core/rng.h"
#include "models/models.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/request_trace.h"
#include "obs/sampler.h"
#include "serve/engine.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

using obs::ExemplarStore;
using obs::FlightRecorder;
using obs::RequestEvent;
using obs::RequestEventKind;
using obs::RequestStatus;
using obs::RequestTimeline;

// ----- FlightRecorder --------------------------------------------------------

RequestTimeline make_timeline(uint64_t id, RequestStatus status,
                              double e2e_ms) {
  RequestTimeline tl;
  tl.trace_id = id;
  tl.tenant = 0;
  tl.tenant_name = "t";
  tl.status = status;
  RequestEvent submit;
  submit.kind = RequestEventKind::kSubmit;
  submit.t_ms = 100.0;
  tl.add(submit);
  RequestEvent finish;
  finish.kind = status == RequestStatus::kShed ? RequestEventKind::kShed
                                               : RequestEventKind::kFinish;
  finish.t_ms = 100.0 + e2e_ms;
  tl.add(finish);
  return tl;
}

TEST(FlightRecorder, HeadSamplingIsAPureFunctionOfTheTraceId) {
  for (uint64_t id = 0; id < 256; ++id) {
    EXPECT_FALSE(FlightRecorder::head_sampled(id, 0.0));
    EXPECT_TRUE(FlightRecorder::head_sampled(id, 1.0));
    EXPECT_EQ(FlightRecorder::head_sampled(id, 0.3),
              FlightRecorder::head_sampled(id, 0.3));
  }
  // The sampled fraction tracks the rate (splitmix64 is well mixed; the
  // binomial sd at n=20000, p=0.3 is ~0.0032, so 0.02 never flakes).
  int hits = 0;
  const int n = 20000;
  for (uint64_t id = 1; id <= n; ++id) {
    hits += FlightRecorder::head_sampled(id, 0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(FlightRecorder, ErrorsAreAlwaysRetainedAndTheRingIsBounded) {
  FlightRecorder::Options opts;
  opts.num_shards = 2;
  opts.keep_errors = 4;
  opts.keep_slowest = 2;
  FlightRecorder rec(opts);

  // 10 shed requests through one shard: only the most recent 4 survive.
  for (uint64_t id = 1; id <= 10; ++id) {
    rec.offer(make_timeline(id, RequestStatus::kShed, 1.0), /*shard_hint=*/0);
  }
  EXPECT_EQ(rec.offered(), 10);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (const RequestTimeline& tl : snap) {
    EXPECT_GE(tl.trace_id, 7u);  // ids 7..10
    EXPECT_EQ(tl.status, RequestStatus::kShed);
  }
  // Failed requests land in the same always-retained ring.
  rec.offer(make_timeline(99, RequestStatus::kFailed, 5.0), 1);
  EXPECT_TRUE(rec.find(99).has_value());
  EXPECT_EQ(rec.find(99)->status, RequestStatus::kFailed);
}

TEST(FlightRecorder, KeepsTheSlowestCompletionsAcrossTheMerge) {
  FlightRecorder::Options opts;
  opts.num_shards = 1;
  opts.keep_slowest = 3;
  opts.head_sample_rate = 0.0;  // tail-only
  FlightRecorder rec(opts);
  // e2e = id ms: ids 8, 9, 10 are the three slowest.
  for (uint64_t id = 1; id <= 10; ++id) {
    rec.offer(make_timeline(id, RequestStatus::kCompleted,
                            static_cast<double>(id)),
              0);
  }
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].trace_id, 8u);  // snapshot sorts by trace id
  EXPECT_EQ(snap[1].trace_id, 9u);
  EXPECT_EQ(snap[2].trace_id, 10u);
  EXPECT_FALSE(rec.find(1).has_value());
  EXPECT_TRUE(rec.find(10).has_value());
}

TEST(FlightRecorder, HeadSampleRetainsNormalTrafficAtRateOne) {
  FlightRecorder::Options opts;
  opts.num_shards = 1;
  opts.keep_slowest = 2;
  opts.keep_head = 64;
  opts.head_sample_rate = 1.0;
  FlightRecorder rec(opts);
  for (uint64_t id = 1; id <= 20; ++id) {
    rec.offer(make_timeline(id, RequestStatus::kCompleted,
                            static_cast<double>(id)),
              0);
  }
  // Slowest set holds 2; every eviction fell through to the sample ring, so
  // nothing was lost at rate 1.
  EXPECT_EQ(rec.snapshot().size(), 20u);
}

// ----- ExemplarStore ---------------------------------------------------------

TEST(ExemplarStore, LatestObservationWinsPerBucket) {
  ExemplarStore ex;
  ex.record("serve.e2e_ms", 12.5, 7);
  ex.record("serve.e2e_ms", 12.6, 8);  // same log bucket: replaces id 7
  ex.record("serve.e2e_ms", 400.0, 9);
  const auto hit = ex.find("serve.e2e_ms", 12.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->trace_id, 8u);
  EXPECT_EQ(ex.find("serve.e2e_ms", 400.0)->trace_id, 9u);
  EXPECT_FALSE(ex.find("serve.e2e_ms", 1e6).has_value());
  EXPECT_FALSE(ex.find("serve.queue_wait_ms", 12.5).has_value());

  const obs::json::Value doc = obs::json::parse(ex.json());
  ASSERT_TRUE(doc.has("serve.e2e_ms"));
  EXPECT_EQ(doc.at("serve.e2e_ms").size(), 2u);
  EXPECT_EQ(doc.at("serve.e2e_ms").at(0).at("trace_id").as_int(), 8);
}

TEST(ExemplarStore, RendersIntoThePrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.histogram("serve.e2e_ms").observe(12.5);
  ExemplarStore ex;
  ex.record("serve.e2e_ms", 12.5, 77);
  const std::string text = to_prometheus(reg.snapshot(), {}, &ex);
  EXPECT_NE(text.find("# {trace_id=\"77\"} 12.5"), std::string::npos) << text;
  // Without the store the exposition is exemplar-free (and byte-stable).
  EXPECT_EQ(to_prometheus(reg.snapshot(), {}).find("trace_id"),
            std::string::npos);
}

// ----- engine timelines ------------------------------------------------------

/// Small, untuned model (compiles in milliseconds; the layer under test is
/// the serving pipeline, not the executor).
CompiledModel compile_small() {
  Rng rng(0x5eed);
  CompileOptions copts;
  copts.skip_tuning = true;
  models::Model m = models::build_squeezenet(rng, 64, 1, 10);
  return compile(std::move(m), sim::platform(sim::PlatformId::kDeepLens),
                 copts);
}

serve::TenantSpec tenant_of(const std::string& name, const CompiledModel& cm) {
  serve::TenantSpec t;
  t.name = name;
  t.model = &cm;
  t.run.compute_numerics = false;
  t.run.use_arena = true;
  return t;
}

/// Thread-safe injected clock: a strictly increasing tick counter shared by
/// every engine thread, so event timestamps are totally ordered and the
/// test is deterministic under TSan.
std::function<double()> ticking_clock(std::shared_ptr<std::atomic<int64_t>> t) {
  return [t] { return static_cast<double>(t->fetch_add(1)) * 0.001; };
}

int index_of(const RequestTimeline& tl, RequestEventKind k) {
  for (size_t i = 0; i < tl.events.size(); ++i) {
    if (tl.events[i].kind == k) return static_cast<int>(i);
  }
  return -1;
}

TEST(RequestTrace, CompletedTimelinesAreOrderedAndFullyStamped) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_depth = 256;
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 1.0;  // retain every completion
  opts.clock_ms = ticking_clock(std::make_shared<std::atomic<int64_t>>(0));
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  const int n = 24;
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < n; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  for (auto& f : futures) f.get();
  engine.stop();

  ASSERT_NE(engine.flight_recorder(), nullptr);
  const auto snap = engine.flight_recorder()->snapshot();
  ASSERT_EQ(snap.size(), static_cast<size_t>(n));
  EXPECT_EQ(engine.flight_recorder()->offered(), n);
  for (const RequestTimeline& tl : snap) {
    EXPECT_EQ(tl.status, RequestStatus::kCompleted);
    EXPECT_EQ(tl.tenant, t0);
    EXPECT_EQ(tl.tenant_name, "a");
    // The full lifecycle, in order, with a monotone clock.
    const int submit = index_of(tl, RequestEventKind::kSubmit);
    const int admit = index_of(tl, RequestEventKind::kAdmit);
    const int batch = index_of(tl, RequestEventKind::kBatchFormed);
    const int start = index_of(tl, RequestEventKind::kWorkerStart);
    const int run = index_of(tl, RequestEventKind::kRun);
    const int finish = index_of(tl, RequestEventKind::kFinish);
    ASSERT_EQ(submit, 0) << tl.json();
    ASSERT_LT(admit, batch);
    ASSERT_LT(batch, start);
    ASSERT_LT(start, run);
    ASSERT_LT(run, finish);
    ASSERT_EQ(finish, static_cast<int>(tl.events.size()) - 1);
    for (size_t i = 1; i < tl.events.size(); ++i) {
      EXPECT_LE(tl.events[i - 1].t_ms, tl.events[i].t_ms) << tl.json();
    }
    // Context stamps: admission depth, one batch id across the pipeline,
    // the executing worker, and the chosen ShapeVariant binding.
    EXPECT_GE(tl.events[static_cast<size_t>(admit)].queue_depth, 1);
    const RequestEvent& bf = tl.events[static_cast<size_t>(batch)];
    EXPECT_GE(bf.batch_id, 0);
    EXPECT_GE(bf.batch_size, 1);
    EXPECT_LE(bf.batch_size, 4);
    EXPECT_GE(bf.queue_depth, 0);
    const RequestEvent& ws = tl.events[static_cast<size_t>(start)];
    EXPECT_EQ(ws.batch_id, bf.batch_id);
    EXPECT_GE(ws.worker_id, 0);
    EXPECT_LT(ws.worker_id, opts.num_workers);
    const RequestEvent& re = tl.events[static_cast<size_t>(run)];
    EXPECT_EQ(re.batch_id, bf.batch_id);
    EXPECT_EQ(re.worker_id, ws.worker_id);
    EXPECT_GT(re.sim_latency_ms, 0.0);
    EXPECT_EQ(re.detail, "seed");  // the seed ShapeVariant binding
    EXPECT_GE(tl.e2e_ms(), 0.0);
  }
  // Exemplars recorded for both served histograms, pointing at real ids.
  ASSERT_NE(engine.exemplars(), nullptr);
  const auto ex = engine.exemplars()->snapshot();
  EXPECT_TRUE(ex.count("serve.e2e_ms"));
  EXPECT_TRUE(ex.count("serve.queue_wait_ms"));

  // Per-tenant breakouts conserve with the engine stats.
  const obs::MetricsSnapshot ms = reg.snapshot();
  EXPECT_EQ(ms.counters.at("serve.tenant.a.submitted"), n);
  EXPECT_EQ(ms.counters.at("serve.tenant.a.completed"), n);
  EXPECT_EQ(ms.counters.at("serve.tenant.a.failed"), 0);
  EXPECT_EQ(ms.histograms.at("serve.tenant.a.e2e_ms").count, n);
}

TEST(RequestTrace, ShedRequestsAreAlwaysRetained) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_depth = 8;  // shed watermark at 3/4 depth
  opts.queue.max_batch_size = 4;
  opts.queue.max_wait_ms = 0.0;
  opts.sim_pacing = 0.2;  // hold the worker so the queue backs up
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 0.0;  // refusals must survive tail-only
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  // Flood with no pacing between submits: ids are sequential from 1, so
  // submit i (0-based) is trace id i+1.
  const int n = 120;
  std::vector<uint64_t> refused_ids;
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < n; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    if (r.admitted()) {
      futures.push_back(std::move(r.outcome));
    } else {
      refused_ids.push_back(static_cast<uint64_t>(i) + 1);
    }
  }
  engine.stop();
  for (auto& f : futures) f.get();

  const serve::EngineStats s = engine.stats();
  ASSERT_GT(s.shed + s.rejected_full, 0) << "flood did not saturate";
  ASSERT_EQ(static_cast<int64_t>(refused_ids.size()),
            s.shed + s.rejected_full);

  // Every refused request is in the recorder, with the refusal reason.
  for (uint64_t id : refused_ids) {
    const auto tl = engine.flight_recorder()->find(id);
    ASSERT_TRUE(tl.has_value()) << "trace id " << id << " not retained";
    EXPECT_TRUE(tl->status == RequestStatus::kShed ||
                tl->status == RequestStatus::kRejected);
    const RequestEvent& last = tl->events.back();
    EXPECT_TRUE(last.kind == RequestEventKind::kShed ||
                last.kind == RequestEventKind::kReject);
    EXPECT_FALSE(last.detail.empty());
    EXPECT_GE(last.queue_depth, 0);
  }
  // Per-tenant refusal accounting moved too.
  const obs::MetricsSnapshot ms = reg.snapshot();
  EXPECT_EQ(ms.counters.at("serve.tenant.a.shed") +
                ms.counters.at("serve.tenant.a.rejected"),
            s.shed + s.rejected_full);
}

TEST(RequestTrace, FailedRequestsAreAlwaysRetainedWithTheError) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 1;
  opts.queue.max_wait_ms = 0.0;
  opts.trace.enabled = true;
  serve::ServingEngine engine(opts);
  // A shape binding the model was not compiled for: run() throws in the
  // worker and the request's future carries the error.
  serve::TenantSpec bad = tenant_of("bad", cm);
  bad.run.batch = 99;
  const int t0 = engine.add_tenant(bad);
  engine.start();

  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 3; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  engine.stop();
  for (auto& f : futures) EXPECT_THROW(f.get(), Error);

  EXPECT_EQ(engine.stats().failed, 3);
  const auto snap = engine.flight_recorder()->snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (const RequestTimeline& tl : snap) {
    EXPECT_EQ(tl.status, RequestStatus::kFailed);
    EXPECT_EQ(tl.events.back().kind, RequestEventKind::kFinish);
    EXPECT_FALSE(tl.events.back().detail.empty()) << "error text missing";
  }
  EXPECT_EQ(reg.snapshot().counters.at("serve.tenant.bad.failed"), 3);
}

TEST(RequestTrace, EngineValidatesHeadSampleRate) {
  serve::EngineOptions opts;
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 1.5;
  EXPECT_THROW(serve::ServingEngine{opts}, Error);
  opts.trace.head_sample_rate = -0.25;
  EXPECT_THROW(serve::ServingEngine{opts}, Error);
}

TEST(RequestTrace, TenantSeriesRideTheSampler) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.queue.max_wait_ms = 0.0;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("alpha", cm));
  engine.start();

  obs::TelemetrySampler::Options sopts;
  sopts.registry = &reg;
  int64_t fake_ms = 0;
  sopts.clock = [&fake_ms] { return fake_ms += 100; };
  obs::TelemetrySampler sampler(sopts);
  sampler.sample_now();
  engine.submit(t0, 1).outcome.get();
  sampler.sample_now();
  engine.stop();

  const std::string series = sampler.series_json();
  EXPECT_NE(series.find("serve.tenant.alpha.completed"), std::string::npos)
      << series;
  EXPECT_NE(series.find("serve.tenant.alpha.e2e_ms"), std::string::npos);
}

// ----- HTTP: /healthz, /debug, exemplar scrape ------------------------------

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
/// response (headers + body).
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to 127.0.0.1:" << port;
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string body_of(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

TEST(RequestTrace, DebugEndpointsAndExemplarScrapeEndToEnd) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_wait_ms = 0.0;
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 1.0;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  obs::MetricsHttpServer::Options hopts;
  hopts.port = 0;  // ephemeral
  hopts.registry = &reg;
  hopts.flight_recorder = engine.flight_recorder();
  hopts.exemplars = engine.exemplars();
  hopts.health = [&engine](bool* healthy) {
    const serve::EngineHealth h = engine.health();
    *healthy = h.healthy();
    return h.json();
  };
  obs::MetricsHttpServer server(hopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 12; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  for (auto& f : futures) f.get();

  // Engine is serving: the health body is the engine's liveness JSON.
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  {
    const obs::json::Value h = obs::json::parse(body_of(health));
    EXPECT_TRUE(h.at("healthy").as_bool());
    EXPECT_TRUE(h.at("queue_open").as_bool());
    EXPECT_GT(h.at("workers").as_int(), 0);
  }

  // Acceptance loop: scrape an exemplar trace id out of the exposition...
  const std::string metrics = body_of(http_get(server.port(), "/metrics"));
  const size_t mark = metrics.find("# {trace_id=\"");
  ASSERT_NE(mark, std::string::npos) << metrics;
  const size_t id_start = mark + 13;
  const size_t id_end = metrics.find('"', id_start);
  const std::string id_text = metrics.substr(id_start, id_end - id_start);
  ASSERT_FALSE(id_text.empty());

  // ...then fetch that request's timeline over HTTP and check the ordering.
  const std::string tl_resp =
      http_get(server.port(), "/debug/request/" + id_text);
  ASSERT_NE(tl_resp.find("200 OK"), std::string::npos) << tl_resp;
  const obs::json::Value tl = obs::json::parse(body_of(tl_resp));
  EXPECT_EQ(std::to_string(tl.at("trace_id").as_int()), id_text);
  EXPECT_EQ(tl.at("status").as_string(), "completed");
  const auto& events = tl.at("events").as_array();
  ASSERT_GE(events.size(), 6u);
  EXPECT_EQ(events.front().at("event").as_string(), "submit");
  EXPECT_EQ(events[1].at("event").as_string(), "admit");
  EXPECT_EQ(events.back().at("event").as_string(), "finish");
  double prev = -1.0;
  for (const obs::json::Value& e : events) {
    const double t = e.at("t_ms").as_number();
    EXPECT_GE(t, prev) << body_of(tl_resp);
    prev = t;
  }

  // /debug/requests lists summaries, slowest first.
  const obs::json::Value all =
      obs::json::parse(body_of(http_get(server.port(), "/debug/requests")));
  ASSERT_GE(all.size(), 12u);
  double prev_e2e = 1e300;
  for (size_t i = 0; i < all.size(); ++i) {
    const double e2e = all.at(i).at("e2e_ms").as_number();
    EXPECT_LE(e2e, prev_e2e);
    prev_e2e = e2e;
  }

  // Strict id parsing: garbage and unknown ids both 404.
  EXPECT_NE(http_get(server.port(), "/debug/request/abc").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/debug/request/").find("404"),
            std::string::npos);
  EXPECT_NE(
      http_get(server.port(), "/debug/request/18446744073709551615000")
          .find("404"),
      std::string::npos);
  const std::string missing =
      http_get(server.port(), "/debug/request/999999999");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("not retained"), std::string::npos);

  // The snapshot endpoint carries the exemplar splice.
  const obs::json::Value snap =
      obs::json::parse(body_of(http_get(server.port(), "/snapshot.json")));
  ASSERT_TRUE(snap.has("exemplars"));
  EXPECT_TRUE(snap.at("exemplars").has("serve.e2e_ms"));

  // Stopping the engine flips the probe to 503 (the listener stays up —
  // that is the point: "process up" and "serving" are different answers).
  engine.stop();
  const std::string down = http_get(server.port(), "/healthz");
  EXPECT_NE(down.find("503"), std::string::npos) << down;
  EXPECT_FALSE(obs::json::parse(body_of(down)).at("healthy").as_bool());

  server.stop();
}

TEST(RequestTrace, HealthSnapshotTracksTheLifecycle) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  serve::ServingEngine engine(opts);
  engine.add_tenant(tenant_of("a", cm));

  serve::EngineHealth h = engine.health();
  EXPECT_FALSE(h.healthy());
  EXPECT_FALSE(h.serving);

  engine.start();
  h = engine.health();
  EXPECT_TRUE(h.healthy());
  EXPECT_TRUE(h.queue_open);
  EXPECT_EQ(h.workers, 2);

  engine.stop();
  h = engine.health();
  EXPECT_FALSE(h.healthy());
  EXPECT_EQ(h.workers, 0);
  // The JSON probe body parses and agrees.
  const obs::json::Value doc = obs::json::parse(h.json());
  EXPECT_FALSE(doc.at("healthy").as_bool());
}

// ----- Chrome export ---------------------------------------------------------

TEST(RequestTrace, ChromeExportParsesWithFlowsAndTracks) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.queue.max_wait_ms = 0.0;
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 1.0;
  opts.clock_ms = ticking_clock(std::make_shared<std::atomic<int64_t>>(0));
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(r.outcome));
  }
  for (auto& f : futures) f.get();
  engine.stop();

  const auto snap = engine.flight_recorder()->snapshot();
  ASSERT_FALSE(snap.empty());
  const std::string doc_text = obs::chrome_request_trace_json(snap);
  const obs::json::Value doc = obs::json::parse(doc_text);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  int spans = 0, flow_starts = 0, flow_finishes = 0, metas = 0;
  for (const obs::json::Value& e : events) {
    const std::string& ph = e.at("ph").as_string();
    // The serving-engine trace owns pid 3 (executor traces use 1 and 2).
    EXPECT_EQ(e.at("pid").as_int(), 3);
    if (ph == "X") ++spans;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_finishes;
    if (ph == "M") ++metas;
  }
  EXPECT_GE(metas, 3);  // process name + queue + batcher (+ workers)
  EXPECT_GE(spans, 6 * 3);  // queued / batched / run per request
  EXPECT_EQ(flow_starts, 6);
  EXPECT_EQ(flow_finishes, 6);

  const std::string path =
      testing::TempDir() + "request_trace_chrome_test.json";
  ASSERT_TRUE(obs::save_chrome_request_trace(path, snap));
  std::remove(path.c_str());
}

// ----- concurrency: scrapes racing the serving engine ------------------------

TEST(RequestTrace, ConcurrentScrapesWhileTheEngineServes) {
  const CompiledModel cm = compile_small();
  serve::EngineOptions opts;
  obs::MetricsRegistry reg;
  opts.registry = &reg;
  opts.num_workers = 2;
  opts.queue.max_wait_ms = 0.5;
  opts.trace.enabled = true;
  opts.trace.head_sample_rate = 0.5;
  serve::ServingEngine engine(opts);
  const int t0 = engine.add_tenant(tenant_of("a", cm));
  engine.start();

  obs::TelemetrySampler::Options sopts;
  sopts.interval_ms = 2;
  sopts.registry = &reg;
  obs::TelemetrySampler sampler(sopts);
  sampler.start();

  obs::MetricsHttpServer::Options hopts;
  hopts.port = 0;
  hopts.registry = &reg;
  hopts.sampler = &sampler;
  hopts.flight_recorder = engine.flight_recorder();
  hopts.exemplars = engine.exemplars();
  hopts.health = [&engine](bool* healthy) {
    const serve::EngineHealth h = engine.health();
    *healthy = h.healthy();
    return h.json();
  };
  obs::MetricsHttpServer server(hopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const int port = server.port();

  // 4 scraper threads hammer every endpoint while the main thread drives
  // requests through the engine. Every response must be well-formed — and
  // the whole dance TSan-clean (this test carries the concurrency label).
  std::atomic<bool> scrape_ok{true};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([port, s, &scrape_ok] {
      const char* paths[] = {"/metrics", "/series.json", "/debug/requests",
                             "/healthz"};
      for (int i = 0; i < 25; ++i) {
        const std::string resp = http_get(port, paths[(s + i) % 4]);
        if (resp.find("HTTP/1.1 200 OK") != 0) scrape_ok = false;
        if (body_of(resp).empty()) scrape_ok = false;
      }
    });
  }
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 200; ++i) {
    serve::SubmitResult r = engine.submit(t0, static_cast<uint64_t>(i));
    if (r.admitted()) futures.push_back(std::move(r.outcome));
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_TRUE(scrape_ok) << "a scrape returned a malformed response";
  for (auto& f : futures) f.get();

  // One final scrape sees the serve family (and exemplars) in place.
  const std::string text = body_of(http_get(port, "/metrics"));
  EXPECT_NE(text.find("serve_submitted_total"), std::string::npos);
  EXPECT_NE(text.find("serve_tenant_a_completed_total"), std::string::npos);

  server.stop();
  sampler.stop();
  engine.stop();
}

}  // namespace
}  // namespace igc
