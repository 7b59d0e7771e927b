// Extension bench: steady-state serving throughput.
//
// The paper's tables report single-shot latency; a deployed edge endpoint
// instead runs the same compiled model thousands of times. This bench
// measures repeated CompiledModel::run() calls on the model's persistent
// arena under both time models, {sequential, wavefront}. Both run the same
// dispatch (nodes in order on the calling thread) and differ only in the
// latency they report:
//
//   * host ms/run     — real wall-clock cost of one inference on this
//     machine (shapes-only numerics), with every intermediate served from
//     the plan-backed arena;
//   * simulated ms    — the platform time model: the serial sum of every
//     charge (sequential), or the per-lane critical path (wavefront), where
//     independent branches and CPU fallback ops overlap GPU work.
//
// Models are the branchy ones, where both effects are largest: Inception v1
// (nine 4-branch modules) and SSD over MobileNet (six detection scales plus
// a CPU-fallback detection tail).
//
// A numerics-on section serves InceptionV1 through both numerics
// engines — the reference interpreter and the host-JIT backend (compiled
// kernels, same outputs and simulated times bit-for-bit) — and reports the
// real host-throughput gap between them.
//
// A final open-loop section drives the serving engine (src/serve) with
// Poisson arrivals over two InceptionV1 tenants, sweeping worker count x
// offered rate and reporting goodput, admission accounting, and e2e +
// queue-wait percentiles (bench schema v6 "serving_engine" rows). Every
// engine row also carries the schema-v7 paged-arena memory block (the
// shared PagePool's physical high-water and mapped footprint), and full
// mode adds a mixed-resolution cell — the same model served at 224 and at a
// dynamically-bound 300 over one pool — whose arena_peak_bytes vs
// slab_bytes fields quantify the paged-sharing win over per-worker slabs.
// In --quick mode the sweep runs exactly one cell (w2_r400) so the CI gate
// can match it against the committed baseline row.
//
// Every row is also emitted as a JSON line into BENCH_serving.json (override
// the path with argv[1]) for dashboards. Serving rows carry per-run host
// latency percentiles (schema v5). Flags:
//
//   --quick               InceptionV1 shapes-only rows with a small run
//                         count — the CI perf-gate configuration (rows keep
//                         the same identity keys as a full run, so
//                         bench_diff matches them against the committed
//                         baseline).
//   --serve-metrics PORT  expose /metrics, /healthz, /snapshot.json, and
//                         /series.json on 127.0.0.1:PORT while the bench
//                         runs (port 0 picks an ephemeral one).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "codegen/jit.h"
#include "core/compiler.h"
#include "models/models.h"
#include "obs/http.h"
#include "obs/latency_histogram.h"
#include "obs/sampler.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "sim/device_spec.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  const char* label;  // "+arena" keeps the committed rows' identities
  igc::graph::ExecMode mode;
};

constexpr Config kConfigs[] = {
    {"sequential+arena", igc::graph::ExecMode::kSequential},
    {"wavefront+arena", igc::graph::ExecMode::kWavefront},
};

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles percentiles_of(const igc::obs::LatencyHistogram& h) {
  return {h.percentile(0.50), h.percentile(0.95), h.percentile(0.99)};
}

struct Row {
  std::string config;
  double host_ms = 0.0;
  Percentiles latency;  // per-run host latency percentiles, ms
  igc::RunResult rep;  // representative run result (simulated metrics)
  bool output_matches_baseline = true;
};

/// Appends the schema-v5 host-latency percentile block to a serving row.
igc::bench::JsonObject& percentile_fields(igc::bench::JsonObject& j,
                                          const Percentiles& p) {
  return j.field("host_p50_ms", p.p50)
      .field("host_p95_ms", p.p95)
      .field("host_p99_ms", p.p99);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [out.json] [--quick] [--serve-metrics PORT]\n",
               argv0);
  return 2;
}

// ----- open-loop serving engine sweep ---------------------------------------
//
// The closed-loop rows above can never overload the executor: each run
// starts only after the previous finished. This section drives the real
// serving layer (src/serve) with open-loop Poisson arrivals — requests
// arrive on a schedule independent of service speed — and sweeps worker
// count x offered rate over two InceptionV1 tenants, reporting goodput
// (completed requests/s), admission-control accounting, and end-to-end +
// queue-wait percentiles per cell (bench schema v6 rows).

struct EngineCell {
  int workers;
  double offered_per_s;  // total across tenants
};

/// One engine cell: build the engine, replay the deterministic arrival
/// schedules, drain, and emit the row. Returns the measured goodput.
/// `tenant_hw`, when non-empty, gives each tenant a dynamic input resolution
/// (0 = the compiled seed) — the mixed-resolution sharing cell — and the row
/// gains the "slab_bytes" comparison against per-worker private slabs.
/// `traced` enables request tracing for the replay; with emit_row = false
/// the cell only measures (the trace-overhead companion run). A
/// traced_goodput > 0 adds the schema-v8 "trace_overhead_pct" field.
double run_engine_cell(std::FILE* jf, const igc::sim::Platform& plat,
                       const std::vector<const igc::CompiledModel*>& tenants,
                       const EngineCell& cell, double duration_ms,
                       const std::vector<int64_t>& tenant_hw = {},
                       bool traced = false, bool emit_row = true,
                       double traced_goodput = -1.0) {
  using namespace igc;  // NOLINT
  serve::EngineOptions eopts;
  eopts.num_workers = cell.workers;
  eopts.queue.max_depth = 256;
  eopts.queue.max_batch_size = 8;
  eopts.queue.max_wait_ms = 2.0;
  // The traced replay exercises the full path a production endpoint would
  // run: timelines on every request, flight-recorder retention, exemplars.
  eopts.trace.enabled = traced;
  eopts.trace.head_sample_rate = traced ? 0.05 : 0.0;
  // Device-bound service: each request holds its worker for the simulated
  // InceptionV1 latency scaled by 1/20 (~3.9 ms), i.e. the worker blocks on
  // its device replica. Blocked workers overlap, so goodput scales with the
  // pool even on a host with few cores — the quantity under test is the
  // serving layer (queue, batching, admission), not host matmul speed.
  eopts.sim_pacing = 0.05;
  serve::ServingEngine engine(eopts);
  for (size_t t = 0; t < tenants.size(); ++t) {
    serve::TenantSpec spec;
    spec.name = "tenant" + std::to_string(t);
    spec.model = tenants[t];
    spec.run.compute_numerics = false;
    if (t < tenant_hw.size()) spec.run.input_hw = tenant_hw[t];
    engine.add_tenant(std::move(spec));
  }
  engine.start();

  // Deterministic per-tenant arrival schedules, merged into one timeline.
  // The seed depends only on (tenant, cell), so a --quick rerun of the same
  // cell replays the identical offered load the committed baseline saw.
  const double rate_per_tenant =
      cell.offered_per_s / static_cast<double>(tenants.size());
  std::vector<std::pair<double, int>> arrivals;  // (t_ms, tenant)
  for (size_t t = 0; t < tenants.size(); ++t) {
    const uint64_t seed = 0xa441u + 1000003u * static_cast<uint64_t>(t) +
                          31u * static_cast<uint64_t>(cell.offered_per_s) +
                          static_cast<uint64_t>(cell.workers);
    for (double at :
         serve::poisson_arrival_times_ms(rate_per_tenant, duration_ms, seed)) {
      arrivals.emplace_back(at, static_cast<int>(t));
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<std::future<igc::serve::RequestOutcome>> futures;
  futures.reserve(arrivals.size());
  const auto t0 = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration<double, std::milli>(arrivals[i].first));
    serve::SubmitResult r =
        engine.submit(arrivals[i].second, static_cast<uint64_t>(i));
    if (r.admitted()) futures.push_back(std::move(r.outcome));
  }
  engine.stop();  // drains the queue; every admitted future resolves
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  obs::LatencyHistogram e2e, queue_wait, service;
  double sim_latency_ms = 0.0;
  for (auto& f : futures) {
    const serve::RequestOutcome o = f.get();
    e2e.observe(o.e2e_ms());
    queue_wait.observe(o.queue_wait_ms());
    service.observe(o.service_ms());
    // Identical for every request of a tenant; the max keeps the field
    // deterministic when mixed-resolution tenants differ.
    sim_latency_ms = std::max(sim_latency_ms, o.sim_latency_ms);
  }
  const serve::EngineStats s = engine.stats();
  const double goodput =
      elapsed_ms > 0.0 ? s.completed * 1000.0 / elapsed_ms : 0.0;
  if (!emit_row) return goodput;
  const Percentiles pe = percentiles_of(e2e);
  const Percentiles pq = percentiles_of(queue_wait);
  const double batch_mean =
      s.batches > 0
          ? static_cast<double>(s.completed) / static_cast<double>(s.batches)
          : 0.0;

  // Paged-arena memory block (schema v7): every worker context drew its
  // pages from the engine-wide pool, so the pool's high-water IS the cell's
  // peak physical intermediate memory, and extent_bytes its mapped footprint.
  const std::shared_ptr<PagePool>& pool = engine.page_pool();
  const int64_t arena_peak_bytes = pool->peak_bytes_in_use();
  const int64_t arena_page_bytes = pool->extent_bytes();
  // What (workers x tenants) private full-size slabs would have pinned — the
  // pre-paging design this engine replaced.
  int64_t slab_bytes = 0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const int64_t hw = t < tenant_hw.size() ? tenant_hw[t] : 0;
    slab_bytes += cell.workers *
                  tenants[t]->make_serving_context(0, hw, nullptr)->arena_bytes();
  }

  char config[40];
  std::snprintf(config, sizeof(config), "w%d_r%d%s", cell.workers,
                static_cast<int>(cell.offered_per_s),
                tenant_hw.empty() ? "" : "_mixed");
  std::printf("%-10s | %8.0f | %8.1f | %6lld %6lld %6lld | %6.2f | "
              "%.2f/%.2f/%.2f | %.2f/%.2f/%.2f\n",
              config, cell.offered_per_s, goodput,
              static_cast<long long>(s.admitted),
              static_cast<long long>(s.shed),
              static_cast<long long>(s.rejected_full), batch_mean, pe.p50,
              pe.p95, pe.p99, pq.p50, pq.p95, pq.p99);

  bench::JsonObject j =
      bench::bench_row("serving_engine", plat.name, "InceptionV1", "engine");
  j.field("config", config)
      .field("tenants", static_cast<int>(tenants.size()))
      .field("workers", cell.workers)
      .field("offered_per_s", cell.offered_per_s)
      .field("duration_ms", duration_ms)
      .field("goodput_per_s", goodput)
      .field("submitted", s.submitted)
      .field("admitted", s.admitted)
      .field("shed", s.shed)
      .field("rejected", s.rejected_full + s.rejected_shutdown)
      .field("completed", s.completed)
      .field("batches", s.batches)
      .field("batch_size_mean", batch_mean)
      .field("queue_depth_peak", s.queue_depth_peak)
      .field("e2e_p50_ms", pe.p50)
      .field("e2e_p95_ms", pe.p95)
      .field("e2e_p99_ms", pe.p99)
      .field("queue_wait_p50_ms", pq.p50)
      .field("queue_wait_p95_ms", pq.p95)
      .field("queue_wait_p99_ms", pq.p99)
      .field("service_p50_ms", service.percentile(0.50))
      .field("sim_latency_ms", sim_latency_ms)
      .field("arena_peak_bytes", arena_peak_bytes)
      .field("arena_page_bytes", arena_page_bytes)
      .field("backend", "interp")
      .field("numerics", false);
  if (traced_goodput > 0.0 && goodput > 0.0) {
    // v8: goodput cost of request tracing, from the traced companion replay
    // of the identical arrival schedule.
    const double overhead_pct = (goodput - traced_goodput) / goodput * 100.0;
    j.field("trace_overhead_pct", overhead_pct);
    std::printf("%-10s   trace overhead: %.2f%% (goodput %.1f/s untraced vs "
                "%.1f/s traced)\n",
                config, overhead_pct, goodput, traced_goodput);
  }
  if (!tenant_hw.empty()) {
    j.field("slab_bytes", slab_bytes);
    std::printf("%-10s   paged pool peak %.2f MiB vs %.2f MiB of per-worker "
                "slabs (%.1f%% saved)\n",
                config,
                static_cast<double>(arena_peak_bytes) / (1024.0 * 1024.0),
                static_cast<double>(slab_bytes) / (1024.0 * 1024.0),
                100.0 * (1.0 - static_cast<double>(arena_peak_bytes) /
                                   static_cast<double>(slab_bytes)));
  }
  j.emit(jf);
  j.emit(stdout);
  return goodput;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace igc;  // NOLINT
  std::string json_path = "BENCH_serving.json";
  bool quick = false;
  bool serve = false;
  int serve_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--serve-metrics") {
      if (i + 1 >= argc) return usage(argv[0]);
      char* end = nullptr;
      const long port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "bad --serve-metrics port: %s\n", argv[i]);
        return usage(argv[0]);
      }
      serve = true;
      serve_port = static_cast<int>(port);
    } else if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      json_path = arg;
    }
  }
  std::FILE* jf = std::fopen(json_path.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }

  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);

  // Optional live telemetry: sample the global registry 4x/s and serve it
  // over loopback HTTP for the duration of the bench.
  obs::TelemetrySampler::Options sopts;
  sopts.interval_ms = 250;
  obs::TelemetrySampler sampler(sopts);
  obs::MetricsHttpServer::Options hopts;
  hopts.port = static_cast<uint16_t>(serve_port);
  hopts.sampler = &sampler;
  hopts.const_labels = {{"job", "bench_serving_throughput"},
                        {"platform", plat.name}};
  obs::MetricsHttpServer server(hopts);
  if (serve) {
    sampler.start();
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "--serve-metrics failed: %s\n", err.c_str());
      return 2;
    }
    std::printf("serving telemetry on http://127.0.0.1:%d/metrics\n",
                server.port());
  }

  struct Workload {
    std::string name;
    CompiledModel cm;
    int runs;
  };
  std::vector<Workload> workloads;
  {
    Rng rng(0x5eed);
    CompileOptions copts;
    copts.tune_trials = 64;
    // InceptionV1 shapes-only runs are sub-millisecond, so 200 runs cost
    // little and keep the host_ms_per_run mean stable against scheduling
    // noise. The count must be the SAME in quick and full mode: the CI gate
    // compares quick-mode candidates against the committed full-bench
    // baseline, and a differing run count shifts how much one-time warm-up
    // cost the mean amortizes — enough to mask (or fake) a 10% regression.
    workloads.push_back(
        {"InceptionV1", compile(models::build_inception_v1(rng), plat, copts),
         200});
    if (!quick) {
      // The detection tails fall back to the companion CPU (Sec. 3.1.2):
      // in the wavefront time model they overlap with GPU convolution work.
      // YOLO's three decode heads hang off different backbone depths, so the
      // shallow heads decode (and copy back) while the deeper backbone is
      // still convolving — the clearest critical-path win.
      copts.cpu_fallback_ops = {graph::OpKind::kSsdDetection,
                                graph::OpKind::kBoxNms};
      workloads.push_back(
          {"SSD_MobileNet1.0",
           compile(models::build_ssd(rng, models::SsdBackbone::kMobileNet),
                   plat, copts),
           8});
      copts.cpu_fallback_ops = {graph::OpKind::kYoloDecode,
                                graph::OpKind::kBoxNms};
      workloads.push_back(
          {"Yolov3", compile(models::build_yolov3(rng), plat, copts), 8});
    }
  }

  std::printf("\n=== Steady-state serving: repeated run() on %s ===\n",
              plat.name.c_str());
  for (Workload& w : workloads) {
    std::printf("\n%-18s %-18s | %12s | %10s | %12s | %10s\n", w.name.c_str(),
                "(config)", "host ms/run", "runs/s", "sim ms", "peak MiB");

    RunOptions ropts;
    ropts.compute_numerics = false;
    ropts.use_arena = true;
    Tensor baseline_out;
    std::vector<Row> rows;
    for (const Config& cfg : kConfigs) {
      ropts.mode = cfg.mode;
      // Warm up: the first run builds the arena and faults in its pages.
      RunResult warm = w.cm.run(ropts);
      Row row;
      row.config = cfg.label;
      if (!baseline_out.defined()) {
        baseline_out = warm.output;
      } else {
        row.output_matches_baseline =
            warm.output.shape() == baseline_out.shape() &&
            warm.output.max_abs_diff(baseline_out) == 0.0f;
      }
      obs::LatencyHistogram latency;
      const auto t0 = Clock::now();
      for (int i = 0; i < w.runs; ++i) {
        const auto r0 = Clock::now();
        warm = w.cm.run(ropts);
        latency.observe(
            std::chrono::duration<double, std::milli>(Clock::now() - r0)
                .count());
      }
      const auto t1 = Clock::now();
      row.host_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count() / w.runs;
      row.latency = percentiles_of(latency);
      row.rep = std::move(warm);
      rows.push_back(std::move(row));

      const Row& r = rows.back();
      std::printf(
          "%-18s %-18s | %12.3f | %10.1f | %12.3f | %10.2f | p50/p95/p99 "
          "%.3f/%.3f/%.3f ms\n",
          "", r.config.c_str(), r.host_ms, 1000.0 / r.host_ms,
          r.rep.latency_ms,
          static_cast<double>(r.rep.peak_intermediate_bytes) /
              (1024.0 * 1024.0),
          r.latency.p50, r.latency.p95, r.latency.p99);

      bench::JsonObject j = bench::bench_row(
          "serving", plat.name, w.name,
          cfg.mode == graph::ExecMode::kWavefront ? "wavefront" : "sequential");
      j.field("config", r.config)
          .field("arena", true)
          .field("runs", w.runs)
          .field("host_ms_per_run", r.host_ms)
          .field("host_runs_per_s", 1000.0 / r.host_ms);
      percentile_fields(j, r.latency)
          .field("sim_latency_ms", r.rep.latency_ms)
          .field("sim_serial_ms", r.rep.serial_ms)
          .field("sim_critical_path_ms", r.rep.critical_path_ms)
          .field("peak_intermediate_bytes", r.rep.peak_intermediate_bytes)
          .field("arena_bytes", r.rep.arena_bytes)
          // v7 memory block: the arena's planned-bytes high-water and the
          // physical page bytes it kept mapped after the run.
          .field("arena_peak_bytes", r.rep.peak_intermediate_bytes)
          .field("arena_page_bytes", r.rep.arena_page_bytes)
          // Shapes-only rows never invoke the JIT; the engine label still
          // says which path *would* compute numerics (schema v4).
          .field("backend", "interp")
          .field("numerics", false)
          .field("output_matches_baseline", r.output_matches_baseline);
      j.emit(jf);
      j.emit(stdout);
    }

    // Both rows run the same dispatch on the same arena, so the ratio
    // isolates what the critical-path time model gains over the serial sum.
    const double sim_speedup =
        rows[0].rep.latency_ms / rows[1].rep.latency_ms;
    bool outputs_identical = true;
    for (const Row& r : rows) outputs_identical &= r.output_matches_baseline;
    std::printf("%-18s sim speedup (critical path vs serial sum): %.2fx; "
                "outputs identical: %s\n",
                "", sim_speedup, outputs_identical ? "yes" : "NO");

    bench::JsonObject j =
        bench::bench_row("serving_summary", plat.name, w.name, "all");
    j.field("sim_speedup", sim_speedup)
        .field("outputs_identical", outputs_identical);
    j.emit(jf);
    j.emit(stdout);
  }

  // --- numerics-on serving: JIT backend vs the reference interpreter ------
  //
  // The rows above time the scheduler with numerics off. Here the endpoint
  // actually computes InceptionV1's tensors every run, once through the
  // reference host implementations and once through the compiled-kernel JIT
  // (same module serving from the on-disk artifact cache). Outputs and
  // simulated times must be bit-identical; only host ms/run moves.
  if (!quick) {
    Rng rng(0x5eed);
    CompileOptions copts;
    copts.tune_trials = 64;
    copts.backend = Backend::kJit;
    // Reuse the tuning work from the shapes-only section: same model, same
    // platform, same trial budget, so the schedules (and simulated times)
    // match the InceptionV1 rows above.
    const tune::TuneDb& warm = workloads[0].cm.tune_db();
    copts.warm_db = &warm;
    CompiledModel cm =
        compile(models::build_inception_v1(rng), plat, copts);

    std::printf("\n=== Numerics-on serving: InceptionV1 on %s "
                "(sequential+arena) ===\n",
                plat.name.c_str());
    if (!cm.jit_enabled()) {
      std::printf("JIT unavailable (%s); backend=jit rows below ran the "
                  "reference path\n",
                  cm.jit_error().c_str());
    } else {
      std::printf("jit module: %d kernels covering %d graph nodes\n",
                  cm.jit_kernels(), cm.jit_nodes_covered());
    }
    std::printf("%-10s | %12s | %10s | %12s\n", "(backend)", "host ms/run",
                "runs/s", "sim ms");

    struct BackendRow {
      const char* label;
      RunBackend backend;
      int runs;
    };
    // The interpreter takes seconds per numerics-on run; keep its sample
    // small and let the JIT amortize over more iterations.
    const BackendRow kBackends[] = {
        {"interp", RunBackend::kInterp, 3},
        {"jit", RunBackend::kAuto, 15},  // the module compile() built
    };
    Tensor interp_out;
    double interp_host_ms = 0.0, interp_sim_ms = 0.0;
    double jit_host_ms = 0.0;
    bool outputs_identical = true, sim_identical = true;
    for (const BackendRow& b : kBackends) {
      RunOptions ropts;
      ropts.compute_numerics = true;
      ropts.mode = graph::ExecMode::kSequential;
      ropts.use_arena = true;
      ropts.backend = b.backend;
      RunResult warm = cm.run(ropts);  // warm: plan + arena + (jit) scratch
      obs::LatencyHistogram latency;
      const auto t0 = Clock::now();
      for (int i = 0; i < b.runs; ++i) {
        const auto r0 = Clock::now();
        warm = cm.run(ropts);
        latency.observe(
            std::chrono::duration<double, std::milli>(Clock::now() - r0)
                .count());
      }
      const auto t1 = Clock::now();
      const double host_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count() / b.runs;

      bool matches = true;
      if (!interp_out.defined()) {
        interp_out = warm.output;
        interp_host_ms = host_ms;
        interp_sim_ms = warm.latency_ms;
      } else {
        matches = warm.output.shape() == interp_out.shape() &&
                  warm.output.max_abs_diff(interp_out) == 0.0f;
        outputs_identical &= matches;
        sim_identical &= warm.latency_ms == interp_sim_ms;
        jit_host_ms = host_ms;
      }

      std::printf("%-10s | %12.2f | %10.2f | %12.3f\n", b.label, host_ms,
                  1000.0 / host_ms, warm.latency_ms);

      bench::JsonObject j =
          bench::bench_row("serving", plat.name, "InceptionV1", "sequential");
      j.field("config", "sequential+arena")
          .field("arena", true)
          .field("runs", b.runs)
          .field("host_ms_per_run", host_ms)
          .field("host_runs_per_s", 1000.0 / host_ms);
      percentile_fields(j, percentiles_of(latency))
          .field("sim_latency_ms", warm.latency_ms)
          .field("sim_serial_ms", warm.serial_ms)
          .field("sim_critical_path_ms", warm.critical_path_ms)
          .field("peak_intermediate_bytes", warm.peak_intermediate_bytes)
          .field("arena_bytes", warm.arena_bytes)
          .field("arena_peak_bytes", warm.peak_intermediate_bytes)
          .field("arena_page_bytes", warm.arena_page_bytes)
          .field("backend", b.label)
          .field("numerics", true)
          .field("output_matches_baseline", matches);
      j.emit(jf);
      j.emit(stdout);
    }

    const double host_speedup = interp_host_ms / jit_host_ms;
    std::printf("host speedup (jit vs interp): %.2fx; outputs identical: %s; "
                "sim latency identical: %s\n",
                host_speedup, outputs_identical ? "yes" : "NO",
                sim_identical ? "yes" : "NO");

    bench::JsonObject j = bench::bench_row("serving_jit_summary", plat.name,
                                           "InceptionV1", "sequential");
    j.field("host_speedup", host_speedup)
        .field("outputs_identical", outputs_identical)
        .field("sim_latency_identical", sim_identical)
        .field("jit_kernels", cm.jit_kernels())
        .field("jit_nodes_covered", cm.jit_nodes_covered())
        .field("jit_flags", codegen::jit::Toolchain::host().flags());
    j.emit(jf);
    j.emit(stdout);
  }

  // --- open-loop serving engine: worker pool x arrival-rate sweep ----------
  {
    // Two InceptionV1 tenants multiplexed over one worker pool. The second
    // tenant compiles from the first one's warm TuneDb, so both share the
    // same schedules (and the same deterministic simulated latency).
    Rng rng(0x5eed);
    CompileOptions copts;
    copts.tune_trials = 64;
    const tune::TuneDb& warm = workloads[0].cm.tune_db();
    copts.warm_db = &warm;
    CompiledModel tenant_b =
        compile(models::build_inception_v1(rng), plat, copts);
    const std::vector<const CompiledModel*> tenants = {&workloads[0].cm,
                                                       &tenant_b};

    // Rates bracket the paced per-worker capacity (~1000 / 3.9 ms ~= 250
    // req/s): 150/s keeps even one worker comfortable, 400/s saturates one
    // worker but not two, 1600/s saturates every pool size so the top-rate
    // column isolates worker scaling.
    const double duration_ms = 1500.0;
    std::vector<EngineCell> cells;
    if (quick) {
      // One cell, identical identity/config to the full sweep's middle
      // cell, so the CI gate matches it against the committed baseline.
      cells = {{2, 400.0}};
    } else {
      for (const int workers : {1, 2, 4}) {
        for (const double rate : {150.0, 400.0, 1600.0}) {
          cells.push_back({workers, rate});
        }
      }
    }

    std::printf("\n=== Open-loop serving engine: %zu InceptionV1 tenants, "
                "Poisson arrivals, %d ms/cell ===\n",
                tenants.size(), static_cast<int>(duration_ms));
    std::printf("%-10s | %8s | %8s | %6s %6s %6s | %6s | %s | %s\n", "(cell)",
                "offered/s", "goodput/s", "admit", "shed", "rej", "batch",
                "e2e p50/p95/p99 ms", "qwait p50/p95/p99 ms");
    double goodput_w1 = 0.0, goodput_wmax = 0.0;
    for (const EngineCell& cell : cells) {
      // The gate cell (w2_r400 — the one quick mode replays) also runs a
      // traced companion replay so its row carries trace_overhead_pct and
      // the CI advisory watch can see tracing-cost regressions.
      double traced_goodput = -1.0;
      if (cell.workers == 2 && cell.offered_per_s == 400.0) {
        traced_goodput =
            run_engine_cell(jf, plat, tenants, cell, duration_ms, {},
                            /*traced=*/true, /*emit_row=*/false);
      }
      const double g =
          run_engine_cell(jf, plat, tenants, cell, duration_ms, {},
                          /*traced=*/false, /*emit_row=*/true, traced_goodput);
      if (cell.offered_per_s == 1600.0) {
        if (cell.workers == 1) goodput_w1 = g;
        if (cell.workers == 4) goodput_wmax = g;
      }
    }
    // Mixed-resolution sharing cell (full mode): the same InceptionV1 served
    // as two tenants — one at the compiled 224x224 seed, one dynamically
    // bound to 300x300 — over ONE shared page pool. The row's
    // arena_peak_bytes vs slab_bytes comparison shows paged sharing beating
    // (workers x tenants) private slabs on peak memory.
    if (!quick) {
      std::printf("\n--- mixed-resolution tenants (224 + 300) on one shared "
                  "page pool ---\n");
      const std::vector<const CompiledModel*> mixed = {&workloads[0].cm,
                                                       &workloads[0].cm};
      run_engine_cell(jf, plat, mixed, {2, 400.0}, duration_ms,
                      /*tenant_hw=*/{0, 300});
    }

    if (!quick && goodput_w1 > 0.0) {
      const double scaling = goodput_wmax / goodput_w1;
      std::printf("goodput scaling at 1600/s offered (4 workers vs 1): "
                  "%.2fx\n",
                  scaling);
      bench::JsonObject j = bench::bench_row("serving_engine_summary",
                                             plat.name, "InceptionV1", "engine");
      j.field("tenants", 2)
          .field("offered_per_s", 1600.0)
          .field("goodput_1_worker_per_s", goodput_w1)
          .field("goodput_4_workers_per_s", goodput_wmax)
          .field("worker_scaling", scaling);
      j.emit(jf);
      j.emit(stdout);
    }
  }

  if (serve) {
    server.stop();
    sampler.stop();
  }
  std::fclose(jf);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
