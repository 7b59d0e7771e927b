// Tests for the serving telemetry pipeline (src/obs + bench_diff):
//
//   * LatencyHistogram — percentile() stays within max_relative_error() of
//     the exact sorted-sample quantile on adversarial distributions (spike,
//     bimodal, heavy tail), conserves counts exactly, and merges
//     associatively; concurrent observers lose nothing;
//   * TelemetrySampler — deterministic series under an injected clock, ring
//     eviction, idempotent start/stop, and clean behavior while concurrent
//     run() callers hammer the registry (the TSan target);
//   * Prometheus exporter — name/label sanitization, golden exposition
//     format, bucket monotonicity, and an end-to-end socket scrape of the
//     /metrics and /healthz endpoints;
//   * bench_diff — watch parsing, identical inputs pass, an injected
//     regression fails, direction inference for higher-is-better metrics.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/rng.h"
#include "models/models.h"
#include "obs/bench_diff.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/sampler.h"
#include "serve/engine.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"
#include "tensor/page_pool.h"

namespace igc {
namespace {

using obs::LatencyHistogram;

// ----- LatencyHistogram ------------------------------------------------------

/// Exact quantile of a sample set, same rank convention as the histogram:
/// the value at rank ceil(p * n), 1-based.
double exact_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<int64_t>(v.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return v[static_cast<size_t>(rank - 1)];
}

/// Asserts every queried percentile of `samples` is within the documented
/// relative-error bound of the exact quantile.
void expect_percentiles_within_bound(const std::vector<double>& samples,
                                     const char* label) {
  LatencyHistogram h;
  for (double v : samples) h.observe(v);
  ASSERT_EQ(h.count(), static_cast<int64_t>(samples.size())) << label;
  const double bound = LatencyHistogram::max_relative_error();
  for (double p : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_percentile(samples, p);
    const double approx = h.percentile(p);
    EXPECT_LE(std::fabs(approx - exact), bound * exact + 1e-12)
        << label << " p=" << p << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LatencyHistogram, PercentileBoundOnSpike) {
  // Everything at one value — every percentile must answer ~that value.
  std::vector<double> samples(10000, 3.7);
  expect_percentiles_within_bound(samples, "spike");
}

TEST(LatencyHistogram, PercentileBoundOnBimodal) {
  // Fast path vs slow path: 90% near 1 ms, 10% near 80 ms. The p95/p99
  // jump across the gap is where a linear-bucket histogram falls over.
  Rng rng(42);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const bool slow = rng.next_double() < 0.10;
    const double base = slow ? 80.0 : 1.0;
    samples.push_back(base * (0.9 + 0.2 * rng.next_double()));
  }
  expect_percentiles_within_bound(samples, "bimodal");
}

TEST(LatencyHistogram, PercentileBoundOnHeavyTail) {
  // Log-normal-ish: exp(3 * gaussian) spans several orders of magnitude.
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(std::exp(3.0 * static_cast<double>(rng.next_gaussian())));
  }
  expect_percentiles_within_bound(samples, "heavy-tail");
}

TEST(LatencyHistogram, CountConservationIncludingEdgeValues) {
  LatencyHistogram h;
  // Underflow, zero, negative, NaN, huge, and ordinary values all land in
  // exactly one bucket each.
  const double values[] = {0.0,   -1.0, 1e-9,  LatencyHistogram::kMinValue,
                           0.5,   1.0,  1e6,   1e20,
                           std::nan("")};
  for (double v : values) h.observe(v);
  int64_t bucket_total = 0;
  for (const auto& [i, n] : h.nonzero_buckets()) bucket_total += n;
  EXPECT_EQ(h.count(), static_cast<int64_t>(std::size(values)));
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_TRUE(std::isfinite(h.percentile(0.99)));
  EXPECT_TRUE(std::isfinite(h.sum()));
}

TEST(LatencyHistogram, MergeIsAssociative) {
  // Integer-valued samples keep the double sums exact, so associativity can
  // be asserted bit-for-bit.
  Rng rng(3);
  std::vector<double> a, b, c;
  for (int i = 0; i < 500; ++i) {
    a.push_back(static_cast<double>(rng.next_int(1, 1000)));
    b.push_back(static_cast<double>(rng.next_int(1, 1000000)));
    c.push_back(static_cast<double>(rng.next_int(1, 10)));
  }
  auto fill = [](LatencyHistogram& h, const std::vector<double>& v) {
    for (double x : v) h.observe(x);
  };

  // (a + b) + c
  LatencyHistogram ha1, hb1, hc1;
  fill(ha1, a);
  fill(hb1, b);
  fill(hc1, c);
  ha1.merge(hb1);
  ha1.merge(hc1);

  // a + (b + c)
  LatencyHistogram ha2, hb2, hc2;
  fill(ha2, a);
  fill(hb2, b);
  fill(hc2, c);
  hb2.merge(hc2);
  ha2.merge(hb2);

  EXPECT_EQ(ha1.count(), ha2.count());
  EXPECT_EQ(ha1.nonzero_buckets(), ha2.nonzero_buckets());
  EXPECT_EQ(ha1.sum(), ha2.sum());
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(ha1.percentile(p), ha2.percentile(p));
  }
}

TEST(LatencyHistogram, ConcurrentObservesLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(rng.next_double() * 100.0 + 0.001);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(h.count(), int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (const auto& [i, n] : h.nonzero_buckets()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.count());
  // Uniform over (0, 100]: the median must land around 50 — the exact bound
  // only holds vs the empirical quantile, so allow a loose statistical band.
  EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
}

TEST(LatencyHistogram, SnapshotDeltaPercentilesMatchTheWindow) {
  // percentile_of over a snapshot delta answers for the window, not the
  // cumulative distribution.
  auto& reg = obs::MetricsRegistry::global();
  auto& h = reg.histogram("test.telemetry.window_ms");
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  const obs::MetricsSnapshot s1 = reg.snapshot();
  for (int i = 0; i < 100; ++i) h.observe(64.0);
  const obs::MetricsSnapshot s2 = reg.snapshot();

  const obs::MetricsSnapshot d = s1.delta_to(s2);
  const auto& dh = d.histograms.at("test.telemetry.window_ms");
  EXPECT_EQ(dh.count, 100);
  // The whole window sits at 64; cumulative p50 would answer ~1.
  EXPECT_NEAR(dh.percentile(0.5), 64.0,
              64.0 * LatencyHistogram::max_relative_error());
}

// ----- TelemetrySampler ------------------------------------------------------

TEST(TelemetrySampler, DeterministicSeriesUnderInjectedClock) {
  obs::MetricsRegistry reg;
  int64_t now_ms = 0;
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 10;
  opts.capacity = 16;
  opts.registry = &reg;
  opts.clock = [&now_ms] { return now_ms; };
  obs::TelemetrySampler sampler(opts);

  reg.counter("req.count").add(5);
  reg.histogram("req.latency_ms").observe(2.0);
  sampler.sample_now();
  now_ms = 10;
  reg.counter("req.count").add(3);
  reg.histogram("req.latency_ms").observe(8.0);
  sampler.sample_now();

  const std::string doc_text = sampler.series_json();
  const obs::json::Value doc = obs::json::parse(doc_text);
  EXPECT_EQ(doc.at("interval_ms").as_int(), 10);
  EXPECT_EQ(doc.at("total_samples").as_int(), 2);
  EXPECT_EQ(doc.at("evicted_samples").as_int(), 0);
  const auto& samples = doc.at("samples").as_array();
  ASSERT_EQ(samples.size(), 2u);

  // First retained sample is absolute...
  EXPECT_TRUE(samples[0].at("base").as_bool());
  EXPECT_EQ(samples[0].at("t_ms").as_int(), 0);
  EXPECT_EQ(samples[0].at("counters").at("req.count").as_int(), 5);
  EXPECT_EQ(samples[0].at("histograms").at("req.latency_ms").at("count").as_int(),
            1);
  // ...later samples carry movement since the previous one.
  EXPECT_FALSE(samples[1].at("base").as_bool());
  EXPECT_EQ(samples[1].at("t_ms").as_int(), 10);
  EXPECT_EQ(samples[1].at("counters").at("req.count").as_int(), 3);
  const auto& win = samples[1].at("histograms").at("req.latency_ms");
  EXPECT_EQ(win.at("count").as_int(), 1);
  // The second window saw only the 8 ms observation.
  EXPECT_NEAR(win.at("p50").as_number(), 8.0,
              8.0 * LatencyHistogram::max_relative_error());

  // Injected clock + explicit sampling => byte-identical series.
  EXPECT_EQ(doc_text, sampler.series_json());
}

TEST(TelemetrySampler, RingEvictsOldestAtCapacity) {
  obs::MetricsRegistry reg;
  int64_t now_ms = 0;
  obs::TelemetrySampler::Options opts;
  opts.capacity = 3;
  opts.registry = &reg;
  opts.clock = [&now_ms] { return now_ms; };
  obs::TelemetrySampler sampler(opts);

  for (int i = 0; i < 5; ++i) {
    now_ms = i * 100;
    sampler.sample_now();
  }
  const auto samples = sampler.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().t_ms, 200);  // 0 and 100 were evicted
  EXPECT_EQ(samples.back().t_ms, 400);
  EXPECT_EQ(sampler.total_samples(), 5);

  const obs::json::Value doc = obs::json::parse(sampler.series_json());
  EXPECT_EQ(doc.at("evicted_samples").as_int(), 2);
}

TEST(TelemetrySampler, StartStopAreIdempotentAndRestartable) {
  obs::MetricsRegistry reg;
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 1;
  opts.registry = &reg;
  obs::TelemetrySampler sampler(opts);

  EXPECT_FALSE(sampler.running());
  sampler.start();
  sampler.start();  // no-op
  EXPECT_TRUE(sampler.running());
  EXPECT_GE(sampler.total_samples(), 1) << "start() takes a baseline sample";
  sampler.stop();
  sampler.stop();  // no-op
  EXPECT_FALSE(sampler.running());
  const int64_t after_first = sampler.total_samples();

  sampler.start();
  EXPECT_TRUE(sampler.running());
  sampler.stop();
  EXPECT_GT(sampler.total_samples(), after_first);
  // Samples stay readable after stop().
  EXPECT_FALSE(sampler.samples().empty());
}

TEST(TelemetrySampler, RunsCleanlyDuringConcurrentWavefrontRuns) {
  // The TSan target: the background sampler snapshots the global registry
  // while several threads call run() (which records exec.*, run.*, arena.*
  // metrics) — no torn samples, no races, valid JSON out.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompileOptions copts;
  copts.tune_trials = 4;
  const CompiledModel cm =
      compile(models::build_inception_v1(rng, 64), plat, copts);

  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 1;  // sample as fast as possible while runs proceed
  obs::TelemetrySampler sampler(opts);
  sampler.start();

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cm] {
      RunOptions ropts;
      ropts.compute_numerics = false;
      ropts.mode = graph::ExecMode::kWavefront;
      ropts.use_arena = true;
      for (int i = 0; i < 3; ++i) cm.run(ropts);
    });
  }
  for (auto& th : threads) th.join();
  sampler.stop();

  EXPECT_GE(sampler.total_samples(), 1);
  const obs::json::Value doc = obs::json::parse(sampler.series_json());
  EXPECT_GE(doc.at("samples").size(), 1u);
}

TEST(TelemetrySampler, ServeFamilyAppearsInSeriesWithoutSchemaDrift) {
  // The serving engine's serve.* instruments live in an ordinary registry,
  // so the sampler picks them up through the same counters/gauges/
  // histograms sections every other family uses — no new schema keys.
  obs::MetricsRegistry reg;
  int64_t now_ms = 0;
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 10;
  opts.capacity = 8;
  opts.registry = &reg;
  opts.clock = [&now_ms] { return now_ms; };
  obs::TelemetrySampler sampler(opts);

  Rng rng(7);
  CompileOptions copts;
  copts.skip_tuning = true;
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const CompiledModel cm =
      compile(models::build_squeezenet(rng, 64, 1, 10), plat, copts);
  serve::EngineOptions eo;
  eo.num_workers = 2;
  eo.registry = &reg;
  serve::ServingEngine engine(eo);
  serve::TenantSpec spec;
  spec.name = "t0";
  spec.model = &cm;
  spec.run.compute_numerics = false;
  spec.run.use_arena = true;
  engine.add_tenant(std::move(spec));
  engine.start();
  std::vector<std::future<serve::RequestOutcome>> futures;
  for (int i = 0; i < 12; ++i) {
    serve::SubmitResult r = engine.submit(0, static_cast<uint64_t>(i));
    if (r.admitted()) futures.push_back(std::move(r.outcome));
  }
  engine.stop();
  for (auto& f : futures) f.get();
  sampler.sample_now();

  const serve::EngineStats s = engine.stats();
  const obs::json::Value doc = obs::json::parse(sampler.series_json());
  EXPECT_EQ(doc.at("total_samples").as_int(), 1);
  const auto& sample = doc.at("samples").as_array()[0];
  const auto& counters = sample.at("counters");
  EXPECT_EQ(counters.at("serve.submitted").as_int(), s.submitted);
  EXPECT_EQ(counters.at("serve.admitted").as_int(), s.admitted);
  EXPECT_EQ(counters.at("serve.completed").as_int(), s.completed);
  EXPECT_EQ(counters.at("serve.batches").as_int(), s.batches);
  const auto& hists = sample.at("histograms");
  EXPECT_EQ(hists.at("serve.e2e_ms").at("count").as_int(), s.completed);
  EXPECT_EQ(hists.at("serve.queue_wait_ms").at("count").as_int(), s.admitted);
  EXPECT_EQ(hists.at("serve.service_ms").at("count").as_int(), s.completed);
  EXPECT_EQ(hists.at("serve.batch_size").at("count").as_int(), s.batches);
  // stop() zeroes the live depth gauge; the peak gauge keeps its high-water
  // mark. Both ride in the standard gauges section.
  EXPECT_EQ(sample.at("gauges").at("serve.queue_depth").as_int(), 0);
  EXPECT_EQ(sample.at("gauges").at("serve.queue_depth_peak").as_int(),
            static_cast<int64_t>(s.queue_depth_peak));
}

TEST(TelemetrySampler, ArenaFamilyAppearsInSeriesWithoutSchemaDrift) {
  // The paged arena's instruments (arena.acquires/releases/high_water_bytes
  // from the arena, arena.page_allocs/page_frees/pages_in_use/page_bytes
  // from the page pool) are process-wide, so a sample of the global
  // registry carries the whole family through the standard counters/gauges
  // sections — no new schema keys.
  auto pool = std::make_shared<PagePool>();
  {
    // Over a caller's pool, every release returns its pages -> page frees.
    PagedArena arena({128 * 1024, 64 * 1024}, pool);
    Tensor t = arena.acquire(0, Shape{1024}, DType::kFloat32, false);
    Tensor u = arena.acquire(1, Shape{256}, DType::kFloat32, false);
    arena.release(1);
    arena.release(0);
  }

  int64_t now_ms = 0;
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 10;
  opts.clock = [&now_ms] { return now_ms; };
  obs::TelemetrySampler sampler(opts);
  sampler.sample_now();

  auto& reg = obs::MetricsRegistry::global();
  const obs::json::Value doc = obs::json::parse(sampler.series_json());
  const auto& sample = doc.at("samples").as_array()[0];
  const auto& counters = sample.at("counters");
  for (const char* name :
       {"arena.acquires", "arena.releases", "arena.page_allocs",
        "arena.page_frees"}) {
    ASSERT_NO_THROW(counters.at(name)) << name;
    EXPECT_EQ(counters.at(name).as_int(), reg.counter(name).value()) << name;
    EXPECT_GT(counters.at(name).as_int(), 0) << name;
  }
  const auto& gauges = sample.at("gauges");
  for (const char* name :
       {"arena.pages_in_use", "arena.page_bytes", "arena.high_water_bytes"}) {
    ASSERT_NO_THROW(gauges.at(name)) << name;
    EXPECT_EQ(gauges.at(name).as_int(), reg.gauge(name).value()) << name;
  }
  // Everything was released: the page gauges read zero.
  EXPECT_EQ(gauges.at("arena.pages_in_use").as_int(), 0);
  EXPECT_EQ(gauges.at("arena.page_bytes").as_int(), 0);
  EXPECT_GT(gauges.at("arena.high_water_bytes").as_int(), 0);
}

// ----- Prometheus exporter ---------------------------------------------------

TEST(Prometheus, MetricNameSanitization) {
  EXPECT_EQ(obs::prom_metric_name("run.latency_ms"), "run_latency_ms");
  EXPECT_EQ(obs::prom_metric_name("exec.node_ms"), "exec_node_ms");
  EXPECT_EQ(obs::prom_metric_name("already_valid:name"), "already_valid:name");
  EXPECT_EQ(obs::prom_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prom_metric_name("bad-name!"), "bad_name_");
  EXPECT_EQ(obs::prom_metric_name(""), "_");
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(obs::prom_escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prom_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prom_escape_label_value("a\nb"), "a\\nb");
}

TEST(Prometheus, GoldenExpositionForCountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.counter("exec.runs").add(7);
  reg.gauge("arena.high_water_bytes").set(4096);
  const std::string text = obs::to_prometheus(reg.snapshot(), {{"job", "igc"}});
  EXPECT_EQ(text,
            "# TYPE exec_runs counter\n"
            "exec_runs_total{job=\"igc\"} 7\n"
            "# TYPE arena_high_water_bytes gauge\n"
            "arena_high_water_bytes{job=\"igc\"} 4096\n");
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndMonotone) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("run.latency_ms");
  const double values[] = {0.5, 0.5, 2.0, 2.0, 2.0, 150.0};
  for (double v : values) h.observe(v);
  const std::string text = obs::to_prometheus(reg.snapshot());

  // Walk the _bucket lines: le bounds strictly increasing, counts monotone
  // non-decreasing, and the +Inf bucket equals _count equals the total.
  double prev_le = -1.0;
  int64_t prev_count = -1, inf_count = -1, count_line = -1;
  bool saw_inf = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("run_latency_ms_bucket{le=\"", 0) == 0) {
      const size_t vstart = std::strlen("run_latency_ms_bucket{le=\"");
      const size_t vend = line.find('"', vstart);
      const std::string le = line.substr(vstart, vend - vstart);
      const int64_t n = std::stoll(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(n, prev_count);
      prev_count = n;
      if (le == "+Inf") {
        saw_inf = true;
        inf_count = n;
      } else {
        const double le_v = std::stod(le);
        EXPECT_GT(le_v, prev_le);
        prev_le = le_v;
      }
    } else if (line.rfind("run_latency_ms_count ", 0) == 0) {
      count_line = std::stoll(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_TRUE(saw_inf) << text;
  EXPECT_EQ(inf_count, static_cast<int64_t>(std::size(values)));
  EXPECT_EQ(count_line, inf_count);
  EXPECT_NE(text.find("run_latency_ms_sum "), std::string::npos);
}

// ----- HTTP listener ---------------------------------------------------------

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
/// response (headers + body).
std::string http_get(int port, const std::string& path,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to 127.0.0.1:" << port;
  const std::string req =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
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

TEST(MetricsHttp, EndToEndScrape) {
  obs::MetricsRegistry reg;
  reg.counter("exec.runs").add(3);
  reg.histogram("run.latency_ms").observe(12.5);

  obs::MetricsHttpServer::Options opts;
  opts.port = 0;  // ephemeral
  opts.registry = &reg;
  opts.const_labels = {{"model", "inception"}};
  obs::MetricsHttpServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = body_of(metrics);
  EXPECT_NE(body.find("exec_runs_total{model=\"inception\"} 3"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("run_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);

  // The snapshot endpoint serves the registry's JSON document.
  const obs::json::Value snap =
      obs::json::parse(body_of(http_get(server.port(), "/snapshot.json")));
  EXPECT_EQ(snap.at("exec.runs").as_int(), 3);

  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(MetricsHttp, RespondRoutesWithoutSockets) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(1);
  obs::MetricsHttpServer::Options opts;
  opts.registry = &reg;
  obs::MetricsHttpServer server(opts);  // never started — respond() is pure
  EXPECT_NE(server.respond("GET", "/healthz").find("200"), std::string::npos);
  EXPECT_NE(server.respond("GET", "/metrics").find("c_total 1"),
            std::string::npos);
  EXPECT_NE(server.respond("GET", "/series.json").find("404"),
            std::string::npos)
      << "series endpoint 404s with no sampler wired";
  EXPECT_NE(server.respond("PUT", "/metrics").find("405"), std::string::npos);
}

// ----- bench_diff ------------------------------------------------------------

using obs::benchdiff::Watch;

TEST(BenchDiff, ParseWatchSpecs) {
  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_ms_per_run:10%", &w));
  EXPECT_EQ(w.metric, "host_ms_per_run");
  EXPECT_DOUBLE_EQ(w.pct, 10.0);
  EXPECT_FALSE(w.higher_is_better);

  ASSERT_TRUE(obs::benchdiff::parse_watch("host_runs_per_s:5", &w));
  EXPECT_TRUE(w.higher_is_better) << "throughput metrics improve upward";

  ASSERT_TRUE(obs::benchdiff::parse_watch("-weird_metric:2.5%", &w));
  EXPECT_FALSE(w.higher_is_better);
  ASSERT_TRUE(obs::benchdiff::parse_watch("+weird_metric:2.5%", &w));
  EXPECT_TRUE(w.higher_is_better);

  EXPECT_FALSE(obs::benchdiff::parse_watch("no_threshold", &w));
  EXPECT_FALSE(obs::benchdiff::parse_watch(":10%", &w));
  EXPECT_FALSE(obs::benchdiff::parse_watch("m:", &w));
  EXPECT_FALSE(obs::benchdiff::parse_watch("m:-5%", &w));
  EXPECT_FALSE(obs::benchdiff::parse_watch("m:abc", &w));
}

std::string serving_row(const std::string& config, double host_ms,
                        double runs_per_s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                R"({"bench": "serving", "schema_version": 5, )"
                R"("platform": "aws-deeplens", "model": "InceptionV1", )"
                R"("mode": "sequential", "config": "%s", )"
                R"("host_ms_per_run": %.6g, "host_runs_per_s": %.6g})",
                config.c_str(), host_ms, runs_per_s);
  return std::string(buf) + "\n";
}

TEST(BenchDiff, IdenticalInputsPass) {
  const std::string doc = serving_row("sequential", 1.5, 666.0) +
                          serving_row("sequential+arena", 0.4, 2500.0);
  std::vector<Watch> watches;
  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_ms_per_run:10%", &w));
  watches.push_back(w);

  const auto result = obs::benchdiff::diff(doc, doc, watches);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.matched, 2);
  EXPECT_TRUE(result.baseline_only.empty());
  EXPECT_TRUE(result.candidate_only.empty());
  EXPECT_NE(result.report(watches).find("OK"), std::string::npos);
}

TEST(BenchDiff, InjectedRegressionFails) {
  const std::string baseline = serving_row("sequential", 1.0, 1000.0);
  // 20% slower: over a 10% watch threshold on a lower-is-better metric.
  const std::string candidate = serving_row("sequential", 1.2, 833.0);
  std::vector<Watch> watches;
  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_ms_per_run:10%", &w));
  watches.push_back(w);

  const auto result = obs::benchdiff::diff(baseline, candidate, watches);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].metric, "host_ms_per_run");
  EXPECT_NEAR(result.regressions[0].change_pct, 20.0, 0.1);
  EXPECT_NE(result.report(watches).find("REGRESSION"), std::string::npos);

  // The same movement is fine under a looser threshold...
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_ms_per_run:25%", &watches[0]));
  EXPECT_TRUE(obs::benchdiff::diff(baseline, candidate, watches).ok());
  // ...and an improvement never trips the gate.
  EXPECT_TRUE(obs::benchdiff::diff(candidate, baseline, watches).ok());
}

TEST(BenchDiff, HigherIsBetterMetricRegressesDownward) {
  const std::string baseline = serving_row("sequential", 1.0, 1000.0);
  const std::string candidate = serving_row("sequential", 1.0, 800.0);
  std::vector<Watch> watches;
  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_runs_per_s:10%", &w));
  watches.push_back(w);

  const auto result = obs::benchdiff::diff(baseline, candidate, watches);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_NEAR(result.regressions[0].change_pct, 20.0, 0.1);
  // Throughput going *up* is not a regression.
  EXPECT_TRUE(obs::benchdiff::diff(candidate, baseline, watches).ok());
}

TEST(BenchDiff, UnmatchedRowsAreReportedNotFatal) {
  const std::string baseline = serving_row("sequential", 1.0, 1000.0) +
                               serving_row("wavefront", 2.0, 500.0);
  const std::string candidate = serving_row("sequential", 1.0, 1000.0) +
                                serving_row("wavefront+arena", 0.5, 2000.0);
  const auto result = obs::benchdiff::diff(baseline, candidate, {});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.matched, 1);
  ASSERT_EQ(result.baseline_only.size(), 1u);
  ASSERT_EQ(result.candidate_only.size(), 1u);
  EXPECT_NE(result.baseline_only[0].find("wavefront"), std::string::npos);
}

TEST(BenchDiff, ThroughputDirectionTokens) {
  // Serving-engine goodput rows (and any qps/throughput metric) must gate
  // in the higher-is-better direction without a +/- pin in the watch spec.
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("goodput_per_s"));
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("goodput"));
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("qps"));
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("engine_qps"));
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("throughput"));
  EXPECT_TRUE(obs::benchdiff::infer_higher_is_better("host_throughput_gbps"));
  // Latency-ish names stay lower-is-better.
  EXPECT_FALSE(obs::benchdiff::infer_higher_is_better("e2e_p99_ms"));
  EXPECT_FALSE(obs::benchdiff::infer_higher_is_better("queue_wait_p50_ms"));

  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("goodput_per_s:25%", &w));
  EXPECT_TRUE(w.higher_is_better);
  ASSERT_TRUE(obs::benchdiff::parse_watch("qps:5%", &w));
  EXPECT_TRUE(w.higher_is_better);
  ASSERT_TRUE(obs::benchdiff::parse_watch("throughput:5%", &w));
  EXPECT_TRUE(w.higher_is_better);
}

TEST(BenchDiff, DuplicateKeysMatchPositionally) {
  // Two rows with identical identity (as the numerics-on interp/jit rows
  // would be without the backend field) get occurrence ordinals.
  const std::string doc = serving_row("sequential", 1.0, 1000.0) +
                          serving_row("sequential", 5.0, 200.0);
  std::vector<Watch> watches;
  Watch w;
  ASSERT_TRUE(obs::benchdiff::parse_watch("host_ms_per_run:10%", &w));
  watches.push_back(w);
  const auto result = obs::benchdiff::diff(doc, doc, watches);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.matched, 2);
}

}  // namespace
}  // namespace igc
