// igc-compile: the command-line face of the stack — what a deployment
// service (the paper's SageMaker Neo) would invoke per (model, device).
//
//   compile_cli <model> <device> [flags]   (see --help)
//
//   model:  resnet50 | inception | mobilenet | squeezenet | ssd_mobilenet
//           | ssd_resnet50 | yolov3 | fcn
//   device: aws-deeplens | acer-aisage | jetson-nano
//
// Observability: --trace writes a Chrome trace-event JSON of the inference
// (open in chrome://tracing or https://ui.perfetto.dev — one track per
// simulated lane plus the host thread that ran the nodes, plus counter
// tracks for occupancy/GFLOPS/GB/s), --report prints the per-layer
// breakdown derived from the same trace, --counters prints the per-op
// simulated hardware counter table, --roofline prints the roofline
// attribution report, --tune-journal records every tuning trial to a JSONL
// flight-recorder file, and --metrics writes a JSON snapshot of the
// process-wide metrics registry.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/jit.h"
#include "core/compiler.h"
#include "models/models.h"
#include "obs/http.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/roofline.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "sim/device_spec.h"
#include "tune/journal.h"
#include "tune/tunedb.h"

namespace {

// "interp" | "jit" -> Backend; anything else exits 2 via the caller.
bool parse_backend(const std::string& value, igc::Backend* out) {
  if (value == "interp") {
    *out = igc::Backend::kInterp;
    return true;
  }
  if (value == "jit") {
    *out = igc::Backend::kJit;
    return true;
  }
  return false;
}

// Strict integer flag value in [lo, hi]; rejects trailing garbage.
bool parse_int_arg(const char* s, long lo, long hi, long* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

// Strict floating-point flag value in [lo, hi]; rejects trailing garbage
// (and NaN, which fails both range comparisons).
bool parse_double_arg(const char* s, double lo, double hi, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= lo) || !(v <= hi)) return false;
  *out = v;
  return true;
}

igc::models::Model build_by_name(const std::string& name, igc::Rng& rng) {
  using namespace igc::models;  // NOLINT
  if (name == "resnet50") return build_resnet50(rng);
  if (name == "inception") return build_inception_v1(rng);
  if (name == "mobilenet") return build_mobilenet(rng);
  if (name == "squeezenet") return build_squeezenet(rng);
  if (name == "ssd_mobilenet") return build_ssd(rng, SsdBackbone::kMobileNet, 512);
  if (name == "ssd_resnet50") return build_ssd(rng, SsdBackbone::kResNet50, 512);
  if (name == "yolov3") return build_yolov3(rng, 416);
  if (name == "fcn") return build_fcn_resnet50(rng);
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  std::exit(2);
}

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s <model> <device> [flags]\n"
      "  model:  resnet50 | inception | mobilenet | squeezenet |\n"
      "          ssd_mobilenet | ssd_resnet50 | yolov3 | fcn\n"
      "  device: aws-deeplens | acer-aisage | jetson-nano\n"
      "compilation flags:\n"
      "  --backend interp|jit    numerics engine (jit compiles host kernels;\n"
      "                          outputs and simulated times are identical)\n"
      "  --kernel-cache DIR      compiled-kernel artifact cache directory\n"
      "                          (default $IGC_KERNEL_CACHE or\n"
      "                          ~/.cache/igc-kernels)\n"
      "  --trials N              tuning trials per conv workload\n"
      "  --untuned               skip tensor-level tuning\n"
      "  --fallback-nms          place the vision block (box_nms,\n"
      "                          ssd_detection, yolo_decode,\n"
      "                          detection_concat) on the CPU\n"
      "  --passes a,b,c          explicit pass pipeline (run order); must\n"
      "                          include dce or place, which compact the\n"
      "                          graph\n"
      "  --no-pass NAME          disable one pass (repeatable)\n"
      "  --dump-graph-after NAME dump the graph after one pass\n"
      "  --save-db PATH / --load-db PATH   persist / warm the TuneDb\n"
      "execution flags:\n"
      "  --wavefront             report the per-lane critical-path latency\n"
      "                          (default: the serial sum)\n"
      "  --arena                 the model's persistent arena (default: a\n"
      "                          per-call arena over the same plan)\n"
      "observability flags:\n"
      "  --trace PATH            Chrome trace JSON (spans + counter tracks)\n"
      "  --report                per-layer breakdown from the trace\n"
      "  --counters              per-op simulated hardware counter table\n"
      "  --roofline              roofline attribution report\n"
      "  --tune-journal PATH     JSONL tuning flight recorder\n"
      "  --metrics PATH          metrics registry snapshot JSON\n"
      "  --jit-stats             print the JIT flags (ISA level) and module +\n"
      "                          kernel-cache statistics\n"
      "serving flags:\n"
      "  --serve-metrics PORT    after the first run, keep running inference\n"
      "                          while serving /metrics /healthz\n"
      "                          /snapshot.json /series.json on\n"
      "                          127.0.0.1:PORT (0 picks an ephemeral port)\n"
      "  --metrics-interval-ms N telemetry sampler period (default 1000)\n"
      "  --serve-runs N          serving-loop run count (default 0 = keep\n"
      "                          running until the process is killed)\n"
      "  --serve                 open-loop serving-engine demo: N tenants of\n"
      "                          this model behind the request queue +\n"
      "                          dynamic batcher + worker pool, driven by\n"
      "                          Poisson arrivals (shapes-only runs; service\n"
      "                          time is the scaled simulated latency).\n"
      "                          Combines with --serve-metrics to scrape the\n"
      "                          serve.* family live.\n"
      "  --serve-tenants N       demo tenant count (default 2)\n"
      "  --serve-rate R          total offered arrival rate, req/s, float\n"
      "                          (default 200)\n"
      "  --serve-duration-ms D   demo offered-load window, float ms\n"
      "                          (default 1000)\n"
      "  --serve-workers N       worker threads (default 2)\n"
      "  --serve-batch N         max dynamic batch size (default 8)\n"
      "  --serve-wait-ms W       max batch wait, float ms (default 2.0)\n"
      "  --serve-pacing P        simulated-device pacing factor, float\n"
      "                          (default 0.05; 0 = host-speed service)\n"
      "  --trace-requests [R]    per-request tracing in the --serve demo:\n"
      "                          request timelines feed a tail-sampled\n"
      "                          flight recorder (served on /debug/requests\n"
      "                          and /debug/request/<id> with\n"
      "                          --serve-metrics) and e2e/queue-wait\n"
      "                          exemplars; optional head-sample rate R in\n"
      "                          [0,1] (default 0 = tail-only). Prints the\n"
      "                          3 slowest request timelines after the run.\n"
      "other:\n"
      "  --dump-graph, --dump-kernels, --help\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace igc;  // NOLINT
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(argv[0], stdout);
      return 0;
    }
  }
  if (argc < 3) {
    usage(argv[0], stderr);
    return 2;
  }
  const std::string model_name = argv[1];
  const sim::Platform& platform = sim::platform_by_name(argv[2]);

  CompileOptions opts;
  bool dump_graph = false, dump_kernels = false;
  bool wavefront = false, arena = false, report = false;
  bool counters = false, roofline = false, jit_stats = false;
  bool serve = false, serve_demo = false;
  long serve_port = 0, metrics_interval_ms = 1000, serve_runs = 0;
  long serve_tenants = 2, serve_workers = 2, serve_batch = 8;
  double serve_rate = 200.0, serve_duration_ms = 1000.0;
  double serve_wait_ms = 2.0, serve_pacing = 0.05;
  bool trace_requests = false;
  double trace_head_rate = 0.0;
  std::string save_db, load_db, trace_path, metrics_path, journal_path;
  tune::TuneJournal journal;
  for (int i = 3; i < argc; ++i) {
    std::string backend_value;
    if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
      opts.tune_trials = std::atoi(argv[++i]);
    } else if (!std::strncmp(argv[i], "--backend=", 10) ||
               (!std::strcmp(argv[i], "--backend") && i + 1 < argc)) {
      backend_value = argv[i][9] == '=' ? argv[i] + 10 : argv[++i];
      if (!parse_backend(backend_value, &opts.backend)) {
        std::fprintf(stderr, "unknown backend '%s' (expected interp|jit)\n\n",
                     backend_value.c_str());
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strncmp(argv[i], "--kernel-cache=", 15)) {
      opts.kernel_cache_dir = argv[i] + 15;
    } else if (!std::strcmp(argv[i], "--kernel-cache") && i + 1 < argc) {
      opts.kernel_cache_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--jit-stats")) {
      jit_stats = true;
    } else if (!std::strcmp(argv[i], "--serve-metrics") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 0, 65535, &serve_port)) {
        std::fprintf(stderr, "bad --serve-metrics port '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
      serve = true;
    } else if (!std::strcmp(argv[i], "--metrics-interval-ms") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 1, 3600 * 1000, &metrics_interval_ms)) {
        std::fprintf(stderr, "bad --metrics-interval-ms '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-runs") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 0, 1000000000, &serve_runs)) {
        std::fprintf(stderr, "bad --serve-runs '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve")) {
      serve_demo = true;
    } else if (!std::strcmp(argv[i], "--serve-tenants") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 1, 64, &serve_tenants)) {
        std::fprintf(stderr, "bad --serve-tenants '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-workers") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 1, 64, &serve_workers)) {
        std::fprintf(stderr, "bad --serve-workers '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-batch") && i + 1 < argc) {
      if (!parse_int_arg(argv[++i], 1, 256, &serve_batch)) {
        std::fprintf(stderr, "bad --serve-batch '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-rate") && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], 1e-3, 1e6, &serve_rate)) {
        std::fprintf(stderr, "bad --serve-rate '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-duration-ms") && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], 1.0, 3600.0 * 1000.0,
                            &serve_duration_ms)) {
        std::fprintf(stderr, "bad --serve-duration-ms '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-wait-ms") && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], 0.0, 10000.0, &serve_wait_ms)) {
        std::fprintf(stderr, "bad --serve-wait-ms '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--serve-pacing") && i + 1 < argc) {
      if (!parse_double_arg(argv[++i], 0.0, 1000.0, &serve_pacing)) {
        std::fprintf(stderr, "bad --serve-pacing '%s'\n\n", argv[i]);
        usage(argv[0], stderr);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--trace-requests")) {
      trace_requests = true;
      // Optional head-sample rate: consume the next token when it is a
      // value rather than a flag. Strict — a malformed rate is exit 2, not
      // a silently ignored argument.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        if (!parse_double_arg(argv[++i], 0.0, 1.0, &trace_head_rate)) {
          std::fprintf(stderr, "bad --trace-requests head_rate '%s'\n\n",
                       argv[i]);
          usage(argv[0], stderr);
          return 2;
        }
      }
    } else if (!std::strcmp(argv[i], "--fallback-nms")) {
      opts.cpu_fallback_ops = {
          graph::OpKind::kBoxNms, graph::OpKind::kSsdDetection,
          graph::OpKind::kYoloDecode, graph::OpKind::kDetectionConcat};
    } else if (!std::strcmp(argv[i], "--dump-graph")) {
      dump_graph = true;
    } else if (!std::strcmp(argv[i], "--dump-kernels")) {
      dump_kernels = true;
    } else if (!std::strcmp(argv[i], "--save-db") && i + 1 < argc) {
      save_db = argv[++i];
    } else if (!std::strcmp(argv[i], "--load-db") && i + 1 < argc) {
      load_db = argv[++i];
    } else if (!std::strcmp(argv[i], "--untuned")) {
      opts.skip_tuning = true;
    } else if (!std::strcmp(argv[i], "--wavefront")) {
      wavefront = true;
    } else if (!std::strcmp(argv[i], "--arena")) {
      arena = true;
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--report")) {
      report = true;
    } else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--counters")) {
      counters = true;
    } else if (!std::strcmp(argv[i], "--roofline")) {
      roofline = true;
    } else if (!std::strcmp(argv[i], "--tune-journal") && i + 1 < argc) {
      journal_path = argv[++i];
      opts.tune_journal = &journal;
    } else if (!std::strcmp(argv[i], "--passes") && i + 1 < argc) {
      // Explicit pipeline, comma-separated in run order.
      const std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) opts.pass_names.push_back(list.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (!std::strncmp(argv[i], "--no-pass=", 10)) {
      opts.disabled_passes.insert(argv[i] + 10);
    } else if (!std::strcmp(argv[i], "--no-pass") && i + 1 < argc) {
      opts.disabled_passes.insert(argv[++i]);
    } else if (!std::strncmp(argv[i], "--dump-graph-after=", 19)) {
      opts.dump_graph_after.insert(argv[i] + 19);
    } else if (!std::strcmp(argv[i], "--dump-graph-after") && i + 1 < argc) {
      opts.dump_graph_after.insert(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n\n", argv[i]);
      usage(argv[0], stderr);
      return 2;
    }
  }

  tune::TuneDb warm;
  if (!load_db.empty()) {
    warm = tune::TuneDb::load(load_db);
    opts.warm_db = &warm;
    std::printf("loaded %zu tuning records from %s\n", warm.size(),
                load_db.c_str());
  }

  Rng rng(0x5eed);
  models::Model model = build_by_name(model_name, rng);
  std::printf("compiling %s for %s (%d trials/workload)...\n",
              model.name.c_str(), platform.name.c_str(), opts.tune_trials);
  // A bad pipeline (an unknown pass name, or one that never compacts the
  // graph with dce or place) is a usage error, not a crash.
  std::optional<CompiledModel> compiled;
  try {
    compiled.emplace(compile(std::move(model), platform, opts));
  } catch (const Error& e) {
    std::fprintf(stderr, "compile failed: %s\n", e.what());
    return 2;
  }
  const CompiledModel& cm = *compiled;
  std::printf("  passes:");
  for (const auto& st : cm.pass_report()) {
    std::printf(" %s(%d rewrites, %.2f ms)", st.pass.c_str(), st.rewrites,
                st.wall_ms);
  }
  std::printf("\n");
  std::printf("  %d GPU nodes, %d CPU nodes, %d copies; %zu tuned workloads\n",
              cm.pass_stats().gpu_nodes, cm.pass_stats().cpu_nodes,
              cm.pass_stats().copies_inserted, cm.tune_db().size());
  if (opts.backend == Backend::kJit) {
    if (cm.jit_enabled()) {
      std::printf("  jit: %d kernels covering %d nodes\n", cm.jit_kernels(),
                  cm.jit_nodes_covered());
    } else {
      std::printf("  jit: unavailable (%s); running the reference path\n",
                  cm.jit_error().c_str());
    }
  }

  const bool big_model = model_name.rfind("ssd", 0) == 0 ||
                         model_name == "yolov3" || model_name == "fcn";
  obs::TraceRecorder recorder;
  RunOptions ropts;
  ropts.input_seed = 1;
  ropts.compute_numerics = !big_model;
  ropts.mode = wavefront ? graph::ExecMode::kWavefront
                         : graph::ExecMode::kSequential;
  ropts.use_arena = arena;
  if (!trace_path.empty() || report || counters || roofline)
    ropts.trace = &recorder;
  const RunResult r = cm.run(ropts);
  std::printf("  latency %.2f ms [%s%s] (conv %.2f, vision %.2f, copies %.3f, "
              "fallback %.2f, other %.2f)\n",
              r.latency_ms, wavefront ? "wavefront" : "sequential",
              arena ? ", persistent arena" : "", r.conv_ms, r.vision_ms,
              r.copy_ms, r.fallback_ms, r.other_ms);
  if (r.counters.launches > 0) {
    std::printf("  counters: %lld launches, %.1f GFLOPS achieved, %.1f GB/s "
                "DRAM, occupancy %.2f, %s-bound overall\n",
                static_cast<long long>(r.counters.launches),
                r.counters.achieved_gflops(), r.counters.achieved_gbps(),
                r.counters.occupancy,
                std::string(sim::bound_name(r.counters.bound)).c_str());
  }
  const auto plan = cm.memory_plan();
  std::printf("  activation memory: %.2f MB planned (%.2f MB unshared)\n",
              static_cast<double>(plan.total_bytes()) / 1e6,
              static_cast<double>(plan.unshared_bytes) / 1e6);

  if (!trace_path.empty()) {
    if (!recorder.save_chrome_trace(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %zu trace spans to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                recorder.spans().size(), trace_path.c_str());
  }
  if (jit_stats) {
    // jit.* metrics accumulate process-wide; for a single compile+run CLI
    // invocation they describe exactly this model's JIT activity.
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    std::printf("\n-- jit stats --\n");
    // The flags name the ISA level the module was compiled for.
    const codegen::jit::Toolchain& tc = codegen::jit::Toolchain::host();
    std::printf("  %-28s %s\n", "jit.flags",
                tc.available() ? tc.flags().c_str() : "(no toolchain)");
    bool any = false;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("jit.", 0) != 0) continue;
      std::printf("  %-28s %lld\n", name.c_str(),
                  static_cast<long long>(value));
      any = true;
    }
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind("jit.", 0) != 0) continue;
      std::printf("  %-28s count=%lld sum=%.6g p99=%.6g\n", name.c_str(),
                  static_cast<long long>(h.count), h.sum, h.percentile(0.99));
      any = true;
    }
    if (!any) std::printf("  (no JIT activity; compile with --backend jit)\n");
  }
  if (report) std::printf("\n%s", recorder.report().c_str());
  if (counters) std::printf("\n%s", obs::counters_table(recorder).c_str());
  if (roofline) {
    std::printf("\n%s",
                obs::roofline_report(recorder, platform.gpu).str().c_str());
  }
  if (!journal_path.empty()) {
    if (!journal.save(journal_path)) {
      std::fprintf(stderr, "failed to write tuning journal to %s\n",
                   journal_path.c_str());
      return 1;
    }
    std::printf("wrote %zu tuning trials to %s\n%s", journal.size(),
                journal_path.c_str(), journal.convergence_report().c_str());
  }
  if (!metrics_path.empty()) {
    const std::string doc = obs::MetricsRegistry::global().snapshot_json();
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  if (!save_db.empty()) {
    cm.tune_db().save(save_db);
    std::printf("saved %zu tuning records to %s\n", cm.tune_db().size(),
                save_db.c_str());
  }
  if (dump_graph) {
    std::printf("\n-- optimized graph --\n");
    // Re-derive from the compiled model's run-facing view: print via a fresh
    // compile-time summary (the graph lives inside CompiledModel).
    std::printf("%s", cm.graph_summary().c_str());
  }
  if (dump_kernels) {
    for (const auto& [key, src] : cm.generated_sources()) {
      std::printf("\n-- %s --\n%s", key.c_str(), src.c_str());
    }
  }

  if (serve_demo) {
    // Open-loop serving-engine demo: N tenants of this one compiled model
    // behind the request queue + dynamic batcher + worker pool, offered a
    // Poisson arrival stream. Shapes-only runs (the demo measures the
    // serving layer, not host numerics); each request holds its worker for
    // the scaled simulated latency, like a worker blocked on its device.
    obs::TelemetrySampler::Options sopts;
    sopts.interval_ms = static_cast<int>(metrics_interval_ms);
    obs::TelemetrySampler sampler(sopts);

    serve::EngineOptions eo;
    eo.num_workers = static_cast<int>(serve_workers);
    eo.queue.max_depth = 256;
    eo.queue.max_batch_size = static_cast<int>(serve_batch);
    eo.queue.max_wait_ms = serve_wait_ms;
    eo.sim_pacing = serve_pacing;
    eo.trace.enabled = trace_requests;
    eo.trace.head_sample_rate = trace_head_rate;
    serve::ServingEngine engine(eo);

    obs::MetricsHttpServer::Options hopts;
    hopts.port = static_cast<uint16_t>(serve_port);
    hopts.sampler = &sampler;
    hopts.const_labels = {{"model", model_name}, {"platform", platform.name}};
    hopts.health = [&engine](bool* healthy) {
      const serve::EngineHealth h = engine.health();
      *healthy = h.healthy();
      return h.json();
    };
    hopts.flight_recorder = engine.flight_recorder();  // null when untraced
    hopts.exemplars = engine.exemplars();
    obs::MetricsHttpServer server(hopts);
    if (serve) {
      sampler.start();
      std::string err;
      if (!server.start(&err)) {
        std::fprintf(stderr, "--serve-metrics failed: %s\n", err.c_str());
        return 1;
      }
      std::printf("serving telemetry on http://127.0.0.1:%d/metrics\n",
                  server.port());
      std::fflush(stdout);
    }
    for (long t = 0; t < serve_tenants; ++t) {
      serve::TenantSpec spec;
      spec.name = model_name + "#" + std::to_string(t);
      spec.model = &cm;
      spec.run.mode = ropts.mode;
      spec.run.compute_numerics = false;
      engine.add_tenant(std::move(spec));
    }
    engine.start();

    std::printf("\n-- open-loop serving demo: %ld tenants x %s, %.0f req/s "
                "offered for %.0f ms, %ld workers, batch<=%ld, wait %.1f ms, "
                "pacing %.3g --\n",
                serve_tenants, model_name.c_str(), serve_rate,
                serve_duration_ms, serve_workers, serve_batch, serve_wait_ms,
                serve_pacing);
    std::vector<std::pair<double, int>> schedule;  // (arrival ms, tenant)
    for (long t = 0; t < serve_tenants; ++t) {
      const auto times = serve::poisson_arrival_times_ms(
          serve_rate / static_cast<double>(serve_tenants), serve_duration_ms,
          0xc11u + static_cast<uint64_t>(t));
      for (double at : times) schedule.emplace_back(at, static_cast<int>(t));
    }
    std::sort(schedule.begin(), schedule.end());

    std::vector<std::future<serve::RequestOutcome>> futures;
    futures.reserve(schedule.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double, std::milli>(schedule[i].first));
      serve::SubmitResult sr =
          engine.submit(schedule[i].second, static_cast<uint64_t>(i));
      if (sr.admitted()) futures.push_back(std::move(sr.outcome));
    }
    engine.stop();
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();

    obs::LatencyHistogram e2e, qwait;
    for (auto& f : futures) {
      const serve::RequestOutcome o = f.get();
      e2e.observe(o.e2e_ms());
      qwait.observe(o.queue_wait_ms());
    }
    const serve::EngineStats s = engine.stats();
    std::printf("  offered %lld, admitted %lld, shed %lld, rejected %lld; "
                "completed %lld in %.0f ms (goodput %.1f req/s)\n",
                static_cast<long long>(s.submitted),
                static_cast<long long>(s.admitted),
                static_cast<long long>(s.shed),
                static_cast<long long>(s.rejected_full + s.rejected_shutdown),
                static_cast<long long>(s.completed), elapsed_ms,
                elapsed_ms > 0 ? s.completed * 1000.0 / elapsed_ms : 0.0);
    std::printf("  batches %lld (mean size %.2f), queue depth peak %d\n",
                static_cast<long long>(s.batches),
                s.batches > 0 ? static_cast<double>(s.completed) /
                                    static_cast<double>(s.batches)
                              : 0.0,
                s.queue_depth_peak);
    std::printf("  e2e p50/p95/p99: %.2f/%.2f/%.2f ms; queue-wait "
                "p50/p95/p99: %.2f/%.2f/%.2f ms\n",
                e2e.percentile(0.50), e2e.percentile(0.95),
                e2e.percentile(0.99), qwait.percentile(0.50),
                qwait.percentile(0.95), qwait.percentile(0.99));
    for (long t = 0; t < serve_tenants; ++t) {
      std::printf("  %-24s completed %lld\n", engine.tenant_name(t).c_str(),
                  static_cast<long long>(
                      s.completed_per_tenant[static_cast<size_t>(t)]));
    }
    if (trace_requests && engine.flight_recorder() != nullptr) {
      // Post-run flight-recorder readout: the retained timelines with the
      // highest end-to-end latency, event by event.
      std::vector<obs::RequestTimeline> tls =
          engine.flight_recorder()->snapshot();
      std::sort(tls.begin(), tls.end(),
                [](const obs::RequestTimeline& a,
                   const obs::RequestTimeline& b) {
                  if (a.e2e_ms() != b.e2e_ms()) return a.e2e_ms() > b.e2e_ms();
                  return a.trace_id < b.trace_id;
                });
      std::printf("  -- 3 slowest traced requests (%zu retained, %lld "
                  "offered) --\n",
                  tls.size(),
                  static_cast<long long>(engine.flight_recorder()->offered()));
      const size_t top = tls.size() < 3 ? tls.size() : 3;
      for (size_t i = 0; i < top; ++i) {
        const obs::RequestTimeline& tl = tls[i];
        std::printf("  #%llu %s %s e2e %.2f ms\n",
                    static_cast<unsigned long long>(tl.trace_id),
                    tl.tenant_name.c_str(),
                    obs::request_status_name(tl.status), tl.e2e_ms());
        for (const obs::RequestEvent& e : tl.events) {
          std::printf("    %+9.3f ms %-12s", e.t_ms - tl.submit_ms(),
                      obs::request_event_name(e.kind));
          if (e.queue_depth >= 0) std::printf(" depth=%d", e.queue_depth);
          if (e.batch_id >= 0)
            std::printf(" batch=%lld", static_cast<long long>(e.batch_id));
          if (e.batch_size > 0) std::printf(" size=%d", e.batch_size);
          if (e.worker_id >= 0) std::printf(" worker=%d", e.worker_id);
          if (e.sim_latency_ms > 0.0)
            std::printf(" sim=%.3fms", e.sim_latency_ms);
          if (!e.detail.empty()) std::printf(" %s", e.detail.c_str());
          std::printf("\n");
        }
      }
    }
    if (serve) {
      server.stop();
      sampler.stop();
    }
    return 0;
  }

  if (serve) {
    // Serving mode: keep re-running inference while the telemetry endpoints
    // are live, so a scrape watches run.* and exec.* series actually move.
    obs::TelemetrySampler::Options sopts;
    sopts.interval_ms = static_cast<int>(metrics_interval_ms);
    obs::TelemetrySampler sampler(sopts);
    sampler.start();

    obs::MetricsHttpServer::Options hopts;
    hopts.port = static_cast<uint16_t>(serve_port);
    hopts.sampler = &sampler;
    hopts.const_labels = {{"model", model_name}, {"platform", platform.name}};
    obs::MetricsHttpServer server(hopts);
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "--serve-metrics failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("serving telemetry on http://127.0.0.1:%d/metrics "
                "(sampler interval %ld ms)%s\n",
                server.port(), metrics_interval_ms,
                serve_runs == 0 ? "; press Ctrl-C to stop" : "");
    std::fflush(stdout);
    for (long i = 0; serve_runs == 0 || i < serve_runs; ++i) cm.run(ropts);
    server.stop();
    sampler.stop();
    std::printf("completed %ld serving runs\n", serve_runs);
  }
  return 0;
}
