// Workload program of the repository benchmark (see README.md beside it).
//
//   perfbench --workload classify_jit|detect_wavefront|serve_overload
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Builds the workload's models, compiles them, serves requests for S
// seconds, checks the outputs outside the timed window, and prints a report
// followed by one machine-readable line, "PERFBENCH {json}", which run.py
// turns into the benchmark's result.
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// per-layer metrics from outside the program: it replays set-up as the
// public calls compile() makes and times each one, serves requests with
// RunOptions::trace (and EngineOptions::trace for serve_overload), and takes
// counts from MetricsRegistry snapshot deltas. Nothing here reaches into the
// library's internals.
//
// The seed drives everything a request sees: per-request input seeds, the
// detection model order, and the Poisson arrival schedule. Model weights
// and tuning are fixed, as in bench_serving_throughput, so simulated
// latencies can be checked against the committed BENCH_serving.json rows.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "host_probe.h"

#include "codegen/jit.h"
#include "codegen/jit_lower.h"
#include "core/compiler.h"
#include "graph/memory_planner.h"
#include "graph/pass_manager.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "sim/device_spec.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Milliseconds since process start; also the serving engine's clock, so
/// engine timestamps and the load generator's schedule share one timeline.
double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

void sleep_until_ms(double t_ms) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(t_ms)));
}

constexpr uint64_t kModelSeed = 0x5eed;
constexpr int kTuneTrials = 64;
/// Input seed of the committed BENCH_serving.json rows (RunOptions default).
constexpr uint64_t kCommittedInputSeed = 0xbe5c;
/// Committed simulated latencies (BENCH_serving.json, aws-deeplens).
constexpr double kInceptionSimMs = 78.0609;
constexpr double kSsdWavefrontSimMs = 417.472;
constexpr double kYoloWavefrontSimMs = 1960.51;
/// A request finishing later than this after its scheduled arrival misses.
constexpr double kGoodputLimitMs = 2000.0;

// The closed loops' host times follow the shared host's speed, which swings
// by up to 1.6x over minutes; they run the host-speed probe (host_probe.h)
// between requests and report their times at the speed at which the probe
// takes kReferenceProbeMs. serve_overload's service time is mostly paced
// wall-clock time, so it reports what it measures.
constexpr double kProbeIntervalMs = 250.0;
constexpr double kReferenceProbeMs = 1.0;

// Set-up is single-shot CPU work, and the host's speed drifts over seconds,
// so a run deploys for at least kSetupSeconds (and kMinDeploys times) and
// reports the fastest deploy. The traced run replays set-up before each of
// its kReplays deploys instead.
constexpr double kSetupSeconds = 8.0;
constexpr int kMinDeploys = 3;
constexpr int kReplays = 3;
constexpr size_t kClassifyInterpChecks = 2;
constexpr size_t kDetectSequentialChecks = 16;

// serve_overload: the ROADMAP's w2_r1600 engine cell, run long.
constexpr double kServeRatePerS = 1600.0;
constexpr int kServeWarmups = 16;

const igc::sim::Platform& platform() {
  return igc::sim::platform(igc::sim::PlatformId::kDeepLens);
}

uint64_t mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

bool same_bits(const igc::Tensor& a, const igc::Tensor& b) {
  return a.shape() == b.shape() && a.dtype() == b.dtype() &&
         std::memcmp(a.raw_data(), b.raw_data(),
                     static_cast<size_t>(a.nbytes())) == 0;
}

/// The committed rows print six significant digits; a simulated latency
/// matches when it rounds to the committed value.
bool matches_committed(double sim_ms, double committed_ms) {
  const double digit =
      std::pow(10.0, std::floor(std::log10(committed_ms)) - 5.0);
  return std::fabs(sim_ms - committed_ms) <= 0.5 * digit;
}

volatile uint64_t calibration_sink = 0;

/// Fixed integer work timed before and after the window, so a reader can
/// tell a run on a drifted CPU from a slower program.
double calibration_ms() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  const double t0 = now_ms();
  for (int i = 0; i < (1 << 26); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  calibration_sink = x;
  return now_ms() - t0;
}

/// The host-speed probe on as many threads as the library's pools run.
double run_probe_ms() {
  return perfbench::host_probe_ms(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t counter_delta(const igc::obs::MetricsSnapshot& before,
                      const std::string& name) {
  const igc::obs::MetricsSnapshot d =
      before.delta_to(igc::obs::MetricsRegistry::global().snapshot());
  auto it = d.counters.find(name);
  return it == d.counters.end() ? 0 : it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ----- report ---------------------------------------------------------------

struct Entry {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured: the metrics, noise diagnostics and check results.
struct Report {
  std::vector<Entry> metrics;
  std::vector<Entry> diag;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    diag.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }

  void print(const std::string& workload, uint64_t seed, bool trace) const {
    std::printf("\n%s  seed=%llu  trace=%d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), trace ? 1 : 0);
    for (const Entry& e : metrics) {
      std::printf("  %-32s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
    std::printf("  diagnostics:\n");
    for (const Entry& e : diag) {
      std::printf("    %-30s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
    std::printf("  attempted %lld, failed %lld\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (const std::string& e : errors) {
      std::printf("  CHECK FAILED: %s\n", e.c_str());
    }
    auto entries = [](const std::vector<Entry>& es) {
      std::string out = "{";
      for (size_t i = 0; i < es.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + json_escape(es[i].name) + "\": {\"value\": " +
               json_number(es[i].value) + ", \"unit\": \"" +
               json_escape(es[i].unit) + "\"}";
      }
      return out + "}";
    };
    std::string errs = "[";
    for (size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) errs += ", ";
      errs += "\"" + json_escape(errors[i]) + "\"";
    }
    errs += "]";
    std::printf(
        "PERFBENCH {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"errors\": %s, \"metrics\": %s, \"diag\": %s}\n",
        json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
        trace ? 1 : 0, errors.empty() ? "true" : "false",
        static_cast<long long>(attempted), static_cast<long long>(failed),
        errs.c_str(), entries(metrics).c_str(), entries(diag).c_str());
    std::fflush(stdout);
  }
};

// ----- per-layer accounting -------------------------------------------------

/// Set-up layer times of one replay, summed over the workload's models.
struct SetupLayers {
  double build_ms = 0.0;
  double passes_ms = 0.0;
  double tune_ms = 0.0;
  double plan_ms = 0.0;
  double toolchain_ms = 0.0;  // cold codegen (first replay only)
  double load_ms = 0.0;       // codegen against the primed cache
  int64_t rewrites = 0;
  int64_t trials = 0;
  int64_t plan_bytes = 0;
  int64_t toolchain_invocations_cold = 0;
  int64_t toolchain_invocations_warm = 0;
  int64_t kernels = 0;
  int64_t nodes_covered = 0;
};

/// Where the JIT replay compiles: cold into `cold_dir` (empty directory on
/// the first replay), then warm against a fresh copy of it.
struct JitReplay {
  std::string cold_dir;
  std::string warm_dir;
  bool cold = false;
};

/// Replays compile() for one model as its public calls, in compile()'s
/// order, timing each: the model's build function, the pass pipeline, the
/// layout tuner, the memory planner and, for JIT models, the codegen step.
/// Leaves the tuned database in `db` (a second tenant tunes from it).
void replay_compile(const std::function<igc::models::Model()>& build,
                    const igc::CompileOptions& copts, igc::tune::TuneDb& db,
                    const JitReplay* jit, SetupLayers& out) {
  using namespace igc;
  const auto& reg = obs::MetricsRegistry::global();
  double t = now_ms();
  models::Model model = build();
  out.build_ms += now_ms() - t;

  t = now_ms();
  const graph::PassPipeline pipeline =
      graph::build_pipeline(copts.pass_names, copts.disabled_passes,
                            copts.cpu_fallback_ops);
  const std::vector<graph::PassRunStats> report = pipeline.run(model.graph);
  out.passes_ms += now_ms() - t;
  for (const graph::PassRunStats& s : report) out.rewrites += s.rewrites;

  tune::TuneOptions topts;
  topts.n_trials = copts.tune_trials;
  topts.strategy = copts.strategy;
  obs::MetricsSnapshot before = reg.snapshot();
  t = now_ms();
  graphtune::tune_graph_layouts(model.graph, platform().gpu, db, topts);
  out.tune_ms += now_ms() - t;
  out.trials += counter_delta(before, "tune.trials");

  t = now_ms();
  const graph::MemoryPlan plan = graph::plan_memory(model.graph);
  out.plan_ms += now_ms() - t;
  out.plan_bytes += plan.total_bytes();

  if (jit == nullptr) return;
  if (jit->cold) {
    codegen::jit::KernelCache cache(jit->cold_dir);
    before = reg.snapshot();
    t = now_ms();
    const codegen::jit::LowerResult lr =
        codegen::jit::build_dispatch_table(model.graph, cache);
    out.toolchain_ms += now_ms() - t;
    out.toolchain_invocations_cold +=
        counter_delta(before, "jit.toolchain_invocations");
    out.kernels += lr.kernels;
    out.nodes_covered += lr.nodes_covered;
    if (lr.table == nullptr) throw std::runtime_error("JIT: " + lr.error);
  }
  fs::remove_all(jit->warm_dir);
  fs::copy(jit->cold_dir, jit->warm_dir, fs::copy_options::recursive);
  codegen::jit::KernelCache cache(jit->warm_dir);
  before = reg.snapshot();
  t = now_ms();
  const codegen::jit::LowerResult lr =
      codegen::jit::build_dispatch_table(model.graph, cache);
  out.load_ms += now_ms() - t;
  out.toolchain_invocations_warm +=
      counter_delta(before, "jit.toolchain_invocations");
  if (lr.table == nullptr) throw std::runtime_error("JIT: " + lr.error);
}

/// Per-request host time split into rows by op kind, from the host windows
/// of RunOptions::trace spans. The rows sum to the traced run() time by
/// construction: exec.overhead_ms is what no span covers.
struct HostSplit {
  std::map<std::string, double> row_ms;
  double run_ms = 0.0;
  int64_t requests = 0;

  static const char* row_of(const std::string& op) {
    static const std::map<std::string, const char*> rows = {
        {"conv2d", "ops.nn.conv2d_ms"},
        {"pool2d", "ops.nn.pool2d_ms"},
        {"concat", "ops.nn.concat_ms"},
        {"dense", "ops.nn.dense_ms"},
        {"ssd_detection", "ops.vision.ssd_detection_ms"},
        {"yolo_decode", "ops.vision.yolo_decode_ms"},
        {"box_nms", "ops.vision.box_nms_ms"},
        {"input", "exec.input_ms"},
    };
    auto it = rows.find(op);
    return it == rows.end() ? "ops.other_ms" : it->second;
  }

  void add(const igc::obs::TraceRecorder& rec, double host_ms) {
    double spans_ms = 0.0;
    for (const igc::obs::TraceSpan& s : rec.spans()) {
      const double w = (s.host_end_us - s.host_start_us) / 1000.0;
      row_ms[row_of(s.op)] += w;
      spans_ms += w;
    }
    row_ms["exec.overhead_ms"] += host_ms - spans_ms;
    run_ms += host_ms;
    ++requests;
  }

  double per_request(const std::string& row) const {
    auto it = row_ms.find(row);
    return it == row_ms.end() || requests == 0
               ? 0.0
               : it->second / static_cast<double>(requests);
  }
};

/// Simulated-time breakdown (exact; printed and checked, not gated).
struct SimSplit {
  double conv = 0, vision = 0, copy = 0, fallback = 0, other = 0;
  double serial = 0, critical_path = 0;
  int64_t requests = 0;

  void add(const igc::RunResult& r) {
    conv += r.conv_ms;
    vision += r.vision_ms;
    copy += r.copy_ms;
    fallback += r.fallback_ms;
    other += r.other_ms;
    serial += r.serial_ms;
    critical_path += r.critical_path_ms;
    ++requests;
  }

  void report(Report& rep) const {
    const double n = requests > 0 ? static_cast<double>(requests) : 1.0;
    rep.note("sim.conv_ms", conv / n, "ms");
    rep.note("sim.vision_ms", vision / n, "ms");
    rep.note("sim.copy_ms", copy / n, "ms");
    rep.note("sim.fallback_ms", fallback / n, "ms");
    rep.note("sim.other_ms", other / n, "ms");
    rep.note("sim.serial_ms", serial / n, "ms");
    rep.note("sim.critical_path_ms", critical_path / n, "ms");
    const double parts = conv + vision + copy + fallback + other;
    if (std::fabs(parts - serial) > 1e-6 * std::max(1.0, serial)) {
      rep.fail("sim category fields do not sum to serial_ms");
    }
  }
};

/// Values a workload contributes to the per-layer table; every per-layer
/// metric is printed on every workload, zero where the layer is not used.
struct Layers {
  SetupLayers setup;
  double warmup_ms = 0.0;
  double traced_setup_ms = 0.0;
  HostSplit host;
  SimSplit sim;
  int64_t exec_nodes = 0;
  int64_t jit_dispatches = 0;
  int64_t page_allocs = 0;
  int64_t arena_peak_bytes = 0;
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
  // serve_overload only.
  double submit_us_p50 = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double run_ms_p50 = 0.0;
  double pacing_ms_p50 = 0.0;
  double batch_size_mean = 0.0;
  int64_t batches = 0;
  double shed_share = 0.0;
  int64_t queue_depth_peak = 0;
  int64_t pool_peak_bytes = 0;
  double e2e_ms_p99 = 0.0;
  double late_ms_p99 = 0.0;

  void report(Report& rep) const {
    const auto n = [&](int64_t v) {
      return host.requests > 0
                 ? static_cast<double>(v) / static_cast<double>(host.requests)
                 : 0.0;
    };
    rep.metric("models.build_ms", setup.build_ms, "ms");
    rep.metric("graph.passes_ms", setup.passes_ms, "ms");
    rep.metric("graph.pass_rewrites", static_cast<double>(setup.rewrites),
               "count");
    rep.metric("tune.layout_tune_ms", setup.tune_ms, "ms");
    rep.metric("tune.trials", static_cast<double>(setup.trials), "count");
    rep.metric("graph.plan_ms", setup.plan_ms, "ms");
    rep.metric("graph.plan_bytes", static_cast<double>(setup.plan_bytes),
               "bytes");
    rep.metric("codegen.toolchain_ms", setup.toolchain_ms, "ms");
    rep.metric("codegen.toolchain_invocations",
               static_cast<double>(setup.toolchain_invocations_cold), "count");
    rep.metric("codegen.load_ms", setup.load_ms, "ms");
    rep.metric("codegen.kernels", static_cast<double>(setup.kernels), "count");
    rep.metric("codegen.nodes_covered",
               static_cast<double>(setup.nodes_covered), "count");
    rep.metric("exec.warmup_ms", warmup_ms, "ms");
    rep.metric("codegen.dispatches", n(jit_dispatches), "count");
    rep.metric("exec.run_ms",
               host.requests > 0
                   ? host.run_ms / static_cast<double>(host.requests)
                   : 0.0,
               "ms");
    rep.metric("exec.overhead_ms", host.per_request("exec.overhead_ms"), "ms");
    rep.metric("exec.nodes", n(exec_nodes), "count");
    rep.metric("exec.input_ms", host.per_request("exec.input_ms"), "ms");
    for (const char* row :
         {"ops.nn.conv2d_ms", "ops.nn.pool2d_ms", "ops.nn.concat_ms",
          "ops.nn.dense_ms", "ops.vision.ssd_detection_ms",
          "ops.vision.yolo_decode_ms", "ops.vision.box_nms_ms",
          "ops.other_ms"}) {
      rep.metric(row, host.per_request(row), "ms");
    }
    rep.metric("tensor.arena_peak_bytes",
               static_cast<double>(arena_peak_bytes), "bytes");
    rep.metric("tensor.page_allocs", n(page_allocs), "count");
    rep.metric("serve.submit_us_p50", submit_us_p50, "us");
    rep.metric("serve.queue_wait_ms_p50", queue_wait_ms_p50, "ms");
    rep.metric("serve.run_ms_p50", run_ms_p50, "ms");
    rep.metric("serve.pacing_ms_p50", pacing_ms_p50, "ms");
    rep.metric("serve.batch_size_mean", batch_size_mean, "count");
    rep.metric("serve.batches", static_cast<double>(batches), "count");
    rep.metric("serve.shed_share", shed_share, "ratio");
    rep.metric("serve.queue_depth_peak", static_cast<double>(queue_depth_peak),
               "count");
    rep.metric("serve.pool_peak_bytes", static_cast<double>(pool_peak_bytes),
               "bytes");
    rep.metric("serve.e2e_ms_p99", e2e_ms_p99, "ms");
    rep.metric("load.late_ms_p99", late_ms_p99, "ms");
    rep.metric("obs.trace_overhead_pct",
               untraced_p50_ms > 0.0
                   ? (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms * 100.0
                   : 0.0,
               "%");

    rep.note("setup.traced_ms", traced_setup_ms, "ms");
    rep.note("setup.layers_sum_ms",
             setup.build_ms + setup.passes_ms + setup.tune_ms + setup.plan_ms +
                 setup.load_ms + warmup_ms,
             "ms");
    rep.note("codegen.toolchain_invocations_warm",
             static_cast<double>(setup.toolchain_invocations_warm), "count");
    rep.note("latency.untraced_p50_ms", untraced_p50_ms, "ms");
    rep.note("latency.traced_p50_ms", traced_p50_ms, "ms");
    rep.note("traced.requests", static_cast<double>(host.requests), "count");
    sim.report(rep);
  }
};

// ----- closed loops (classify_jit, detect_wavefront) ------------------------

/// One model of a closed-loop workload and the run template it serves with.
struct LoopModel {
  const igc::CompiledModel* model = nullptr;
  igc::RunOptions run;
};

/// One request kept for the output checks.
struct Sampled {
  int model = 0;
  uint64_t seed = 0;
  igc::RunResult result;
};

/// One closed-loop window: per-request host and simulated times, plus a
/// seeded uniform sample of whole requests for the output checks (kept by
/// reservoir sampling, so memory does not grow with the window).
struct LoopRecord {
  std::vector<double> host_ms;
  std::vector<double> sim_ms;
  std::vector<double> probe_ms;  // host-speed probe samples
  std::vector<Sampled> sample;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t peak_intermediate_bytes = 0;
  double elapsed_ms = 0.0;  // the window, less the time spent probing

  /// Multiplier that takes a host time of this window to the reference
  /// host speed (README.md, "Host speed").
  double to_reference() const {
    return kReferenceProbeMs / median(probe_ms);
  }
};

/// One client thread: each round issues one request per model, in a
/// seeded order, and the window closes at a round boundary so every model
/// serves the same number of requests. Between rounds, every
/// kProbeIntervalMs, it runs the host-speed probe while the program is idle.
/// `trace`, when set, traces every run and feeds `split`.
LoopRecord closed_loop(const std::vector<LoopModel>& models, uint64_t seed,
                       double seconds, size_t sample_size,
                       igc::obs::TraceRecorder* trace, HostSplit* split,
                       SimSplit* sim) {
  igc::Rng rng(seed);
  igc::Rng pick(mix(seed, 7));
  LoopRecord rec;
  std::vector<int> order(models.size());
  std::iota(order.begin(), order.end(), 0);
  const double t0 = now_ms();
  const double deadline = t0 + seconds * 1000.0;
  double next_probe = t0;
  double probing_ms = 0.0;
  while (now_ms() < deadline) {
    if (const double p0 = now_ms(); p0 >= next_probe) {
      rec.probe_ms.push_back(run_probe_ms());
      next_probe = now_ms() + kProbeIntervalMs;
      probing_ms += now_ms() - p0;
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (int m : order) {
      igc::RunOptions o = models[static_cast<size_t>(m)].run;
      o.input_seed = rng.next_u64();
      o.trace = trace;
      ++rec.attempted;
      const double r0 = now_ms();
      try {
        igc::RunResult r = models[static_cast<size_t>(m)].model->run(o);
        const double host = now_ms() - r0;
        if (trace != nullptr) split->add(*trace, host);
        if (sim != nullptr) sim->add(r);
        rec.host_ms.push_back(host);
        rec.sim_ms.push_back(r.latency_ms);
        rec.peak_intermediate_bytes =
            std::max(rec.peak_intermediate_bytes, r.peak_intermediate_bytes);
        const size_t seen = rec.host_ms.size();
        if (rec.sample.size() < sample_size) {
          rec.sample.push_back({m, o.input_seed, std::move(r)});
        } else if (const size_t j = pick.next_below(seen); j < sample_size) {
          rec.sample[j] = {m, o.input_seed, std::move(r)};
        }
      } catch (const std::exception& e) {
        ++rec.failed;
        std::fprintf(stderr, "request failed: %s\n", e.what());
      }
    }
  }
  rec.elapsed_ms = now_ms() - t0 - probing_ms;
  return rec;
}

/// The models a workload serves (and for serve_overload the engine over
/// them), with what deploying them cost.
struct Deploy {
  std::vector<std::unique_ptr<igc::CompiledModel>> models;
  std::unique_ptr<igc::serve::ServingEngine> engine;  // refers to models
  double setup_ms = 0.0;   // deploy start to the first timed request
  double warmup_ms = 0.0;  // the warm-up requests, set-up's last part

  /// Closes the deploy's timing: `t0` is its start, `t1` the end of
  /// compiling, and the warm-up requests have just finished.
  void timed(double t0, double t1) {
    const double t2 = now_ms();
    warmup_ms = t2 - t1;
    setup_ms = t2 - t0;
  }
};

/// Set-up of one run. Set-up is single-shot CPU work that drifts with the
/// host's speed, and interference only adds time to it, so a run deploys
/// several times and keeps the fastest deploy: it is setup_s, and in a
/// traced run the set-up the layer rows are checked against. A traced run
/// replays compile()'s public calls before each deploy, so drift hits both
/// sides of that check alike, and reports the fastest replay of each layer.
struct SetupSamples {
  double setup_ms = INFINITY;
  double warmup_ms = INFINITY;
  int deploys = 0;
  std::vector<SetupLayers> replays;

  Layers layers() const {
    Layers l;
    auto fastest = [&](double SetupLayers::*f) {
      double best = replays.front().*f;
      for (const SetupLayers& r : replays) best = std::min(best, r.*f);
      return best;
    };
    l.setup = replays.front();  // counts come from the first replay
    l.setup.build_ms = fastest(&SetupLayers::build_ms);
    l.setup.passes_ms = fastest(&SetupLayers::passes_ms);
    l.setup.tune_ms = fastest(&SetupLayers::tune_ms);
    l.setup.plan_ms = fastest(&SetupLayers::plan_ms);
    l.setup.load_ms = fastest(&SetupLayers::load_ms);
    for (const SetupLayers& r : replays) {
      l.setup.toolchain_invocations_warm = std::max(
          l.setup.toolchain_invocations_warm, r.toolchain_invocations_warm);
    }
    l.warmup_ms = warmup_ms;
    l.traced_setup_ms = setup_ms;
    return l;
  }
};

/// Deploys for kSetupSeconds, or kReplays times with `replay` before each
/// deploy when the run is traced, and returns the last deploy, which the
/// workload then serves. Both callbacks take the deploy's index.
Deploy deploy_repeatedly(const std::function<Deploy(int)>& deploy,
                         const std::function<void(int, SetupLayers&)>& replay,
                         bool trace, SetupSamples& setups) {
  const double until = now_ms() + kSetupSeconds * 1000.0;
  const auto again = [&](int i) {
    return trace ? i < kReplays : i < kMinDeploys || now_ms() < until;
  };
  Deploy d;
  for (int i = 0; again(i); ++i) {
    if (trace) replay(i, setups.replays.emplace_back());
    d.engine.reset();  // before the models it refers to
    d.models.clear();
    d = deploy(i);
    setups.setup_ms = std::min(setups.setup_ms, d.setup_ms);
    setups.warmup_ms = std::min(setups.warmup_ms, d.warmup_ms);
    ++setups.deploys;
  }
  return d;
}

/// Fidelity, checked once outside the timed window: a plain run() at the
/// committed rows' input seed simulates the committed latency. The timed
/// requests' simulated latency is reported, not checked, so a change to how
/// requests execute (batching, say) is measured rather than failed.
void check_committed_sim(const igc::CompiledModel& cm, igc::RunOptions o,
                         const std::string& name, double committed_ms,
                         Report& rep) {
  o.input_seed = kCommittedInputSeed;
  const double sim_ms = cm.run(o).latency_ms;
  rep.note("sim_latency_ms." + name, sim_ms, "ms");
  if (!matches_committed(sim_ms, committed_ms)) {
    rep.fail(name + " sim latency " + std::to_string(sim_ms) +
             " != committed " + std::to_string(committed_ms));
  }
}

/// Brackets a timed window with the CPU calibration loop and the host-speed
/// probe.
template <typename Window>
auto calibrated(Report& rep, const Window& window) {
  rep.note("calibration.before_ms", calibration_ms(), "ms");
  rep.note("probe.before_ms", run_probe_ms(), "ms");
  auto out = window();
  rep.note("calibration.after_ms", calibration_ms(), "ms");
  rep.note("probe.after_ms", run_probe_ms(), "ms");
  return out;
}

/// The untraced run of a closed loop: its end-to-end metrics. Latency and
/// goodput are host times, so they are reported at the reference host speed;
/// the figures as measured are in the diagnostics.
LoopRecord measure_closed_loop(const std::vector<LoopModel>& models,
                               uint64_t seed, double seconds,
                               size_t sample_size, const SetupSamples& setups,
                               Report& rep) {
  LoopRecord rec = calibrated(rep, [&] {
    return closed_loop(models, mix(seed, 1), seconds, sample_size, nullptr,
                       nullptr, nullptr);
  });
  int64_t good = 0;
  for (double h : rec.host_ms) good += h <= kGoodputLimitMs ? 1 : 0;
  const double p50 = median(rec.host_ms);
  const double p90 = quantile(rec.host_ms, 0.9);
  const double goodput =
      static_cast<double>(good) / (rec.elapsed_ms / 1000.0);
  const double scale = rec.to_reference();
  rep.metric("setup_s", setups.setup_ms / 1000.0, "s");
  rep.note("setup.deploys", setups.deploys, "count");
  rep.metric("latency_ms_p50", p50 * scale, "ms");
  rep.metric("latency_ms_p90", p90 * scale, "ms");
  rep.metric("goodput_per_s", goodput / scale, "req/s");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  rep.attempted = rec.attempted;
  rep.failed = rec.failed;
  const size_t n = rec.host_ms.size();
  rep.note("latency.samples", static_cast<double>(n), "count");
  rep.note("latency.beyond_p90", std::floor(0.1 * static_cast<double>(n)),
           "count");
  rep.note("probe.median_ms", median(rec.probe_ms), "ms");
  rep.note("probe.samples", static_cast<double>(rec.probe_ms.size()),
           "count");
  rep.note("measured.latency_ms_p50", p50, "ms");
  rep.note("measured.latency_ms_p90", p90, "ms");
  rep.note("measured.goodput_per_s", goodput, "req/s");
  rep.note("sim_latency_ms", mean(rec.sim_ms), "ms");
  return rec;
}

/// The traced run of a closed loop: an untraced window for the
/// trace-overhead baseline, then a traced window feeding the per-layer rows.
/// Returns the traced window for the output checks.
LoopRecord trace_closed_loop(const std::vector<LoopModel>& models,
                             uint64_t seed, double seconds, size_t sample_size,
                             const SetupSamples& setups, Report& rep) {
  Layers layers = setups.layers();
  igc::obs::TraceRecorder recorder;
  auto [plain, rec, before] = calibrated(rep, [&] {
    LoopRecord p = closed_loop(models, mix(seed, 1), seconds, 0, nullptr,
                               nullptr, nullptr);
    igc::obs::MetricsSnapshot b =
        igc::obs::MetricsRegistry::global().snapshot();
    LoopRecord r = closed_loop(models, mix(seed, 2), seconds, sample_size,
                               &recorder, &layers.host, &layers.sim);
    return std::make_tuple(std::move(p), std::move(r), std::move(b));
  });
  layers.exec_nodes = counter_delta(before, "exec.nodes");
  layers.jit_dispatches = counter_delta(before, "jit.dispatches");
  layers.page_allocs = counter_delta(before, "arena.page_allocs");
  layers.untraced_p50_ms = median(plain.host_ms);
  layers.traced_p50_ms = median(rec.host_ms);
  layers.arena_peak_bytes = rec.peak_intermediate_bytes;
  rep.note("probe.median_ms", median(rec.probe_ms), "ms");
  layers.report(rep);
  rep.attempted = plain.attempted + rec.attempted;
  rep.failed = plain.failed + rec.failed;
  return std::move(rec);
}

// ----- classify_jit ---------------------------------------------------------

igc::models::Model build_inception() {
  igc::Rng rng(kModelSeed);
  return igc::models::build_inception_v1(rng);
}

igc::RunOptions classify_run() {
  igc::RunOptions o;
  o.compute_numerics = true;
  o.mode = igc::graph::ExecMode::kSequential;
  o.use_arena = true;
  return o;
}

igc::CompileOptions classify_compile_options(const std::string& cache_dir) {
  igc::CompileOptions c;
  c.tune_trials = kTuneTrials;
  c.backend = igc::Backend::kJit;
  c.kernel_cache_dir = cache_dir;
  return c;
}

/// Set-up as a user pays it on a host whose kernel cache already holds the
/// module: build, compile() (which loads the module from `cache_dir`), and
/// warm-up requests.
Deploy deploy_classify(const std::string& cache_dir) {
  Deploy d;
  const double t0 = now_ms();
  const igc::CompiledModel& cm =
      *d.models.emplace_back(std::make_unique<igc::CompiledModel>(igc::compile(
          build_inception(), platform(), classify_compile_options(cache_dir))));
  if (!cm.jit_enabled()) {
    throw std::runtime_error("JIT unavailable: " + cm.jit_error());
  }
  const double t1 = now_ms();
  igc::RunOptions o = classify_run();
  for (uint64_t i = 0; i < 2; ++i) {
    o.input_seed = i + 1;
    cm.run(o);
  }
  d.timed(t0, t1);
  return d;
}

/// Copies the primed kernel cache into a directory no KernelCache in this
/// process has opened, so compile() loads the module from disk.
std::string primed_copy(const fs::path& primed, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(primed, to, fs::copy_options::recursive);
  return to.string();
}

void check_classify(const igc::CompiledModel& cm, const LoopRecord& rec,
                    Report& rep) {
  check_committed_sim(cm, classify_run(), "InceptionV1", kInceptionSimMs,
                      rep);
  // The seeded sample against the reference interpreter on the same model.
  for (const Sampled& s : rec.sample) {
    igc::RunOptions o = classify_run();
    o.input_seed = s.seed;
    o.backend = igc::RunBackend::kInterp;
    const igc::RunResult ref = cm.run(o);
    if (!same_bits(ref.output, s.result.output) ||
        ref.latency_ms != s.result.latency_ms) {
      ++rep.failed;
      rep.fail("classify_jit request with input seed " +
               std::to_string(s.seed) +
               " differs from the reference interpreter");
    }
  }
}

void classify_jit(const fs::path& work, uint64_t seed, double seconds,
                  bool trace, Report& rep) {
  const fs::path primed = work / "jit-primed";
  if (!trace) {
    // Untimed priming compile: the one toolchain invocation (4-6 s). The
    // traced run's first replay primes the cache instead, and times it.
    const igc::CompiledModel prime = igc::compile(
        build_inception(), platform(), classify_compile_options(primed));
    if (!prime.jit_enabled()) {
      throw std::runtime_error("JIT unavailable: " + prime.jit_error());
    }
  }
  SetupSamples setups;
  const Deploy d = deploy_repeatedly(
      [&](int i) {
        return deploy_classify(primed_copy(
            primed, work / ("jit-deploy-" + std::to_string(i))));
      },
      [&](int i, SetupLayers& layers) {
        const JitReplay jit{
            primed.string(),
            (work / ("jit-replay-" + std::to_string(i))).string(), i == 0};
        igc::tune::TuneDb db;
        replay_compile(build_inception, classify_compile_options(""), db,
                       &jit, layers);
      },
      trace, setups);
  const std::vector<LoopModel> models = {{d.models[0].get(), classify_run()}};
  const LoopRecord rec =
      trace ? trace_closed_loop(models, seed, seconds, kClassifyInterpChecks,
                                setups, rep)
            : measure_closed_loop(models, seed, seconds, kClassifyInterpChecks,
                                  setups, rep);
  check_classify(*d.models[0], rec, rep);
}

// ----- detect_wavefront -----------------------------------------------------

struct DetectSpec {
  const char* name;
  double committed_sim_ms;
  std::set<igc::graph::OpKind> fallback;
  igc::models::Model (*build)();
};

const std::vector<DetectSpec>& detect_specs() {
  using igc::graph::OpKind;
  static const std::vector<DetectSpec> specs = {
      {"SSD_MobileNet1.0", kSsdWavefrontSimMs,
       {OpKind::kSsdDetection, OpKind::kBoxNms},
       [] {
         igc::Rng rng(kModelSeed);
         return igc::models::build_ssd(rng,
                                       igc::models::SsdBackbone::kMobileNet);
       }},
      {"Yolov3", kYoloWavefrontSimMs,
       {OpKind::kYoloDecode, OpKind::kBoxNms},
       [] {
         igc::Rng rng(kModelSeed);
         return igc::models::build_yolov3(rng);
       }},
  };
  return specs;
}

igc::RunOptions detect_run() {
  igc::RunOptions o;
  o.compute_numerics = false;
  o.mode = igc::graph::ExecMode::kWavefront;
  o.use_arena = true;
  return o;
}

igc::CompileOptions detect_compile_options(const DetectSpec& s) {
  igc::CompileOptions c;
  c.tune_trials = kTuneTrials;
  c.cpu_fallback_ops = s.fallback;
  return c;
}

Deploy deploy_detect() {
  Deploy d;
  const double t0 = now_ms();
  for (const DetectSpec& s : detect_specs()) {
    d.models.push_back(std::make_unique<igc::CompiledModel>(
        igc::compile(s.build(), platform(), detect_compile_options(s))));
  }
  const double t1 = now_ms();
  igc::RunOptions o = detect_run();
  for (const auto& cm : d.models) {
    for (uint64_t i = 0; i < 2; ++i) {
      o.input_seed = i + 1;
      cm->run(o);
    }
  }
  d.timed(t0, t1);
  return d;
}

void check_detect(const Deploy& d, const LoopRecord& rec, Report& rep) {
  const std::vector<DetectSpec>& specs = detect_specs();
  for (size_t m = 0; m < specs.size(); ++m) {
    check_committed_sim(*d.models[m], detect_run(), specs[m].name,
                        specs[m].committed_sim_ms, rep);
  }
  // The seeded sample against sequential runs of the same seeds.
  for (const Sampled& s : rec.sample) {
    igc::RunOptions o = detect_run();
    o.mode = igc::graph::ExecMode::kSequential;
    o.input_seed = s.seed;
    const igc::RunResult ref = d.models[static_cast<size_t>(s.model)]->run(o);
    if (!same_bits(ref.output, s.result.output) ||
        ref.serial_ms != s.result.serial_ms ||
        ref.critical_path_ms != s.result.critical_path_ms) {
      ++rep.failed;
      rep.fail(std::string(specs[static_cast<size_t>(s.model)].name) +
               " request with input seed " + std::to_string(s.seed) +
               " differs from its sequential run");
    }
  }
}

void detect_wavefront(const fs::path&, uint64_t seed, double seconds,
                      bool trace, Report& rep) {
  SetupSamples setups;
  const Deploy d = deploy_repeatedly(
      [](int) { return deploy_detect(); },
      [](int, SetupLayers& layers) {
        for (const DetectSpec& s : detect_specs()) {
          igc::tune::TuneDb db;
          replay_compile(s.build, detect_compile_options(s), db, nullptr,
                         layers);
        }
      },
      trace, setups);
  std::vector<LoopModel> models;
  for (const auto& cm : d.models) models.push_back({cm.get(), detect_run()});
  const LoopRecord rec =
      trace ? trace_closed_loop(models, seed, seconds,
                                kDetectSequentialChecks, setups, rep)
            : measure_closed_loop(models, seed, seconds,
                                  kDetectSequentialChecks, setups, rep);
  check_detect(d, rec, rep);
}

// ----- serve_overload -------------------------------------------------------

igc::RunOptions serve_run() {
  igc::RunOptions o;
  o.compute_numerics = false;
  o.use_arena = true;  // the engine serves it from per-worker contexts
  return o;
}

igc::CompileOptions serve_compile_options() {
  igc::CompileOptions c;
  c.tune_trials = kTuneTrials;
  return c;
}

/// A started engine over the two tenants, past its warm-up requests.
std::unique_ptr<igc::serve::ServingEngine> make_engine(
    const igc::CompiledModel& a, const igc::CompiledModel& b, bool traced) {
  igc::serve::EngineOptions eo;
  eo.num_workers = 2;
  eo.queue.max_depth = 256;
  eo.queue.max_batch_size = 8;
  eo.queue.max_wait_ms = 2.0;
  eo.sim_pacing = 0.05;
  eo.clock_ms = now_ms;
  if (traced) {
    // Keep every completed timeline: the per-layer stage times are medians
    // over all of them.
    eo.trace.enabled = true;
    eo.trace.head_sample_rate = 1.0;
    eo.trace.keep_head = 1 << 20;
  }
  auto engine = std::make_unique<igc::serve::ServingEngine>(eo);
  int t = 0;
  for (const igc::CompiledModel* cm : {&a, &b}) {
    igc::serve::TenantSpec spec;
    spec.name = "tenant" + std::to_string(t++);
    spec.model = cm;
    spec.run = serve_run();
    engine->add_tenant(std::move(spec));
  }
  engine->start();
  std::vector<std::future<igc::serve::RequestOutcome>> warmups;
  for (int i = 0; i < kServeWarmups; ++i) {
    igc::serve::SubmitResult r =
        engine->submit(i % 2, static_cast<uint64_t>(i + 1));
    if (!r.admitted()) throw std::runtime_error("warm-up request refused");
    warmups.push_back(std::move(r.outcome));
  }
  for (auto& f : warmups) f.get();
  return engine;
}

/// Two InceptionV1 tenants; the second compiles from the first one's TuneDb.
Deploy deploy_serve() {
  Deploy d;
  const double t0 = now_ms();
  const igc::CompiledModel& a =
      *d.models.emplace_back(std::make_unique<igc::CompiledModel>(igc::compile(
          build_inception(), platform(), serve_compile_options())));
  igc::CompileOptions cb = serve_compile_options();
  cb.warm_db = &a.tune_db();
  const igc::CompiledModel& b = *d.models.emplace_back(
      std::make_unique<igc::CompiledModel>(
          igc::compile(build_inception(), platform(), cb)));
  const double t1 = now_ms();
  d.engine = make_engine(a, b, /*traced=*/false);
  d.timed(t0, t1);
  return d;
}

/// One open-loop window: requests in the window, their outcomes, and the
/// engine's accounting over exactly those requests.
struct OpenLoop {
  std::vector<double> e2e_ms;  // completion minus scheduled arrival
  std::vector<double> queue_wait_ms;
  std::vector<double> late_ms;  // submit minus scheduled arrival
  std::vector<double> submit_us;
  std::vector<double> sim_ms;
  igc::serve::EngineStats stats;  // delta over the window
  int64_t failed = 0;             // threw, or refused for a non-load reason
  double seconds = 0.0;

  double goodput_per_s() const {
    int64_t good = 0;
    for (double e : e2e_ms) good += e <= kGoodputLimitMs ? 1 : 0;
    return static_cast<double>(good) / seconds;
  }
  double load_refused_share() const {
    return static_cast<double>(stats.shed + stats.rejected_full) /
           static_cast<double>(std::max<int64_t>(1, stats.submitted));
  }
};

/// One generator thread replays a seeded Poisson schedule into a started
/// engine, dealing arrivals to the two tenants in turn, then stops the
/// engine and checks its accounting. (With an independent stream per
/// tenant, the two lanes' depths random-walk under overload, so each run
/// would sample a different split of queue wait between the tenants.)
OpenLoop open_loop(igc::serve::ServingEngine& engine, uint64_t seed,
                   double seconds, Report& rep) {
  const std::vector<double> arrivals = igc::serve::poisson_arrival_times_ms(
      kServeRatePerS, seconds * 1000.0, mix(seed, 10));
  igc::Rng input_seeds(mix(seed, 3));

  OpenLoop out;
  out.seconds = seconds;
  const igc::serve::EngineStats s0 = engine.stats();
  std::vector<std::pair<double, std::future<igc::serve::RequestOutcome>>>
      admitted;
  admitted.reserve(arrivals.size());
  const double start = now_ms() + 1.0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const int tenant = static_cast<int>(i % 2);
    const double due = start + arrivals[i];
    sleep_until_ms(due);
    const double t_submit = now_ms();
    igc::serve::SubmitResult r = engine.submit(tenant, input_seeds.next_u64());
    out.submit_us.push_back((now_ms() - t_submit) * 1000.0);
    out.late_ms.push_back(t_submit - due);
    if (r.admitted()) admitted.emplace_back(due, std::move(r.outcome));
  }
  engine.stop();  // drains the queue; every admitted future resolves

  int64_t resolved = 0, threw = 0;
  for (auto& [due, f] : admitted) {
    try {
      const igc::serve::RequestOutcome o = f.get();
      ++resolved;
      out.e2e_ms.push_back(o.finish_ms - due);
      out.queue_wait_ms.push_back(o.queue_wait_ms());
      out.sim_ms.push_back(o.sim_latency_ms);
    } catch (const std::exception& e) {
      ++threw;
      ++out.failed;
      std::fprintf(stderr, "request failed: %s\n", e.what());
    }
  }
  const igc::serve::EngineStats s1 = engine.stats();
  igc::serve::EngineStats& d = out.stats;
  d.submitted = s1.submitted - s0.submitted;
  d.admitted = s1.admitted - s0.admitted;
  d.shed = s1.shed - s0.shed;
  d.rejected_full = s1.rejected_full - s0.rejected_full;
  d.rejected_shutdown = s1.rejected_shutdown - s0.rejected_shutdown;
  d.rejected_unknown_tenant =
      s1.rejected_unknown_tenant - s0.rejected_unknown_tenant;
  d.completed = s1.completed - s0.completed;
  d.failed = s1.failed - s0.failed;
  d.batches = s1.batches - s0.batches;
  d.queue_depth_peak = s1.queue_depth_peak;
  // Load refusals (shedding, a full queue) are priced into goodput; any
  // other refusal is a failure.
  out.failed += d.rejected_shutdown + d.rejected_unknown_tenant;

  const int64_t accounted = d.completed + d.shed + d.rejected_full +
                            d.rejected_shutdown + d.rejected_unknown_tenant +
                            d.failed;
  if (d.submitted != static_cast<int64_t>(arrivals.size()) ||
      d.submitted != accounted) {
    rep.fail("serve_overload accounting: submitted " +
             std::to_string(d.submitted) +
             " != completed + shed + rejected + failed " +
             std::to_string(accounted));
  }
  if (resolved != d.completed || threw != d.failed) {
    rep.fail("serve_overload: resolved futures disagree with completions");
  }
  return out;
}

/// The traced run's serve_overload part: engine request timelines for the
/// serve.* stages, plus the tenant's run template replayed in a closed loop
/// with RunOptions::trace for the op-kind rows (a recorder cannot be shared
/// by the engine's concurrent workers).
void trace_serve(const Deploy& d, uint64_t seed, double seconds,
                 const SetupSamples& setups, Report& rep) {
  Layers layers = setups.layers();
  auto [plain, w, engine] = calibrated(rep, [&] {
    OpenLoop p = open_loop(*d.engine, mix(seed, 1), seconds, rep);
    auto e = make_engine(*d.models[0], *d.models[1], /*traced=*/true);
    OpenLoop t = open_loop(*e, mix(seed, 2), seconds, rep);
    return std::make_tuple(std::move(p), std::move(t), std::move(e));
  });
  layers.untraced_p50_ms = median(plain.e2e_ms);
  layers.traced_p50_ms = median(w.e2e_ms);
  layers.submit_us_p50 = median(w.submit_us);
  layers.queue_wait_ms_p50 = median(w.queue_wait_ms);
  layers.batch_size_mean =
      w.stats.batches > 0 ? static_cast<double>(w.stats.completed) /
                                static_cast<double>(w.stats.batches)
                          : 0.0;
  layers.batches = w.stats.batches;
  layers.shed_share = w.load_refused_share();
  layers.queue_depth_peak = w.stats.queue_depth_peak;
  layers.pool_peak_bytes = engine->page_pool()->peak_bytes_in_use();
  layers.e2e_ms_p99 = quantile(w.e2e_ms, 0.99);
  layers.late_ms_p99 = quantile(w.late_ms, 0.99);
  std::vector<double> run_ms, pacing_ms;
  for (const igc::obs::RequestTimeline& tl :
       engine->flight_recorder()->snapshot()) {
    if (tl.status != igc::obs::RequestStatus::kCompleted) continue;
    double start = -1, run = -1, finish = -1;
    for (const igc::obs::RequestEvent& e : tl.events) {
      if (e.kind == igc::obs::RequestEventKind::kWorkerStart) start = e.t_ms;
      if (e.kind == igc::obs::RequestEventKind::kRun) run = e.t_ms;
      if (e.kind == igc::obs::RequestEventKind::kFinish) finish = e.t_ms;
    }
    if (start < 0 || run < 0 || finish < 0) continue;
    run_ms.push_back(run - start);
    pacing_ms.push_back(finish - run);
  }
  layers.run_ms_p50 = median(run_ms);
  layers.pacing_ms_p50 = median(pacing_ms);
  rep.note("traced.timelines", static_cast<double>(run_ms.size()), "count");

  const igc::CompiledModel& tenant = *d.models[0];
  std::unique_ptr<igc::ServingContext> ctx =
      tenant.make_serving_context(0, 0, engine->page_pool());
  igc::RunOptions o = serve_run();
  o.serving_context = ctx.get();
  igc::obs::TraceRecorder recorder;
  o.trace = &recorder;
  const igc::obs::MetricsSnapshot before =
      igc::obs::MetricsRegistry::global().snapshot();
  igc::Rng rng(mix(seed, 4));
  const double deadline = now_ms() + seconds * 1000.0 / 3.0;
  while (now_ms() < deadline) {
    o.input_seed = rng.next_u64();
    const double r0 = now_ms();
    const igc::RunResult r = tenant.run(o);
    layers.host.add(recorder, now_ms() - r0);
    layers.sim.add(r);
    layers.arena_peak_bytes =
        std::max(layers.arena_peak_bytes, r.peak_intermediate_bytes);
  }
  layers.exec_nodes = counter_delta(before, "exec.nodes");
  layers.jit_dispatches = counter_delta(before, "jit.dispatches");
  layers.page_allocs = counter_delta(before, "arena.page_allocs");
  layers.report(rep);
  rep.attempted = plain.stats.submitted + w.stats.submitted;
  rep.failed = plain.failed + w.failed;
}

void serve_overload(const fs::path&, uint64_t seed, double seconds,
                    bool trace, Report& rep) {
  SetupSamples setups;
  const Deploy d = deploy_repeatedly(
      [](int) { return deploy_serve(); },
      [](int, SetupLayers& layers) {
        igc::tune::TuneDb db;
        replay_compile(build_inception, serve_compile_options(), db, nullptr,
                       layers);
        // The second tenant tunes from the first one's database.
        igc::tune::TuneDb warm = db;
        replay_compile(build_inception, serve_compile_options(), warm,
                       nullptr, layers);
      },
      trace, setups);
  for (size_t t = 0; t < d.models.size(); ++t) {
    check_committed_sim(*d.models[t], serve_run(),
                        "InceptionV1.tenant" + std::to_string(t),
                        kInceptionSimMs, rep);
  }
  if (trace) {
    trace_serve(d, seed, seconds, setups, rep);
    return;
  }
  const OpenLoop w = calibrated(
      rep, [&] { return open_loop(*d.engine, mix(seed, 1), seconds, rep); });
  rep.metric("setup_s", setups.setup_ms / 1000.0, "s");
  rep.note("setup.deploys", setups.deploys, "count");
  rep.metric("latency_ms_p50", median(w.e2e_ms), "ms");
  rep.metric("latency_ms_p90", quantile(w.e2e_ms, 0.9), "ms");
  rep.metric("goodput_per_s", w.goodput_per_s(), "req/s");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  rep.attempted = w.stats.submitted;
  rep.failed = w.failed;
  rep.note("latency.samples", static_cast<double>(w.e2e_ms.size()), "count");
  rep.note("load.late_ms_p99", quantile(w.late_ms, 0.99), "ms");
  rep.note("serve.shed_share", w.load_refused_share(), "ratio");
  rep.note("sim_latency_ms", mean(w.sim_ms), "ms");
}

// ----- main -----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload classify_jit|detect_wavefront|"
               "serve_overload --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &seed)) return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds == 0 || seconds > 600) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || work_dir.empty() || !have_seed ||
      seconds == 0 || trace > 1) {
    return usage();
  }
  using Workload = void (*)(const fs::path&, uint64_t, double, bool, Report&);
  const std::map<std::string, Workload> workloads = {
      {"classify_jit", classify_jit},
      {"detect_wavefront", detect_wavefront},
      {"serve_overload", serve_overload},
  };
  auto it = workloads.find(workload);
  if (it == workloads.end()) return usage();

  double load[3] = {0, 0, 0};
  const bool have_load = getloadavg(load, 3) > 0;
  Report rep;
  const fs::path work =
      fs::path(work_dir) / (workload + "-" + std::to_string(getpid()));
  try {
    fs::remove_all(work);
    fs::create_directories(work);
    it->second(work, seed, static_cast<double>(seconds), trace == 1, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
    std::error_code ec;
    fs::remove_all(work, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  rep.note("seed", static_cast<double>(seed), "");
  rep.note("nproc", static_cast<double>(std::thread::hardware_concurrency()),
           "count");
  rep.note("loadavg_1m_at_start", have_load ? load[0] : -1.0, "");
  rep.note("failed_share",
           rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted)
                             : 0.0,
           "ratio");
  rep.print(workload, seed, trace == 1);
  return rep.errors.empty() && rep.failed == 0 ? 0 : 1;
}
