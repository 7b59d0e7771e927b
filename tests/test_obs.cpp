// Tests for the observability stack (src/obs): the in-repo JSON parser, the
// metrics registry, and the trace recorder threaded through the executor.
//
// The load-bearing invariants:
//   * tracing never changes outputs — traced runs are bit-identical to
//     untraced runs in every dispatch mode;
//   * the trace is a faithful decomposition of the run: category totals
//     match the ExecResult breakdown, per-lane spans never overlap, and the
//     last lane end-time is exactly the wavefront critical path;
//   * the Chrome export and the metrics snapshot are valid JSON (round-trip
//     through obs::json, including from files on disk) with one track per
//     simulated lane;
//   * metric deltas are deterministic: repeated arena-backed runs move every
//     counter and histogram by exactly the same amount.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "core/compiler.h"
#include "core/error.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "models/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/roofline.h"
#include "obs/trace.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

CompiledModel compile_fast(models::Model model, const sim::Platform& plat,
                           std::set<graph::OpKind> fallback = {}) {
  CompileOptions copts;
  copts.tune_trials = 8;
  copts.cpu_fallback_ops = std::move(fallback);
  return compile(std::move(model), plat, copts);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Counts the "thread_name" metadata events the export declares for the
/// simulated-platform process (pid 1) — one per lane track.
int count_lane_tracks(const obs::json::Value& doc) {
  int lanes = 0;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "thread_name" &&
        ev.at("pid").as_int() == 1) {
      ++lanes;
    }
  }
  return lanes;
}

// ----- JSON parser ---------------------------------------------------------

TEST(ObsJson, ParsesTheGrammarTheExportersEmit) {
  const obs::json::Value v = obs::json::parse(
      R"({"s": "a\"b\\cé", "n": -2.5e2, "i": 42, "t": true,)"
      R"( "nul": null, "arr": [1, {"k": "v"}, []]})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\xc3\xa9");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -250.0);
  EXPECT_EQ(v.at("i").as_int(), 42);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("nul").is_null());
  ASSERT_EQ(v.at("arr").size(), 3u);
  EXPECT_EQ(v.at("arr").at(1).at("k").as_string(), "v");
  EXPECT_FALSE(v.has("missing"));
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_THROW(v.at("s").as_number(), Error);  // kind mismatch
}

TEST(ObsJson, RejectsMalformedDocuments) {
  EXPECT_THROW(obs::json::parse(""), Error);
  EXPECT_THROW(obs::json::parse("{\"a\":}"), Error);
  EXPECT_THROW(obs::json::parse("[1, 2"), Error);
  EXPECT_THROW(obs::json::parse("{} trailing"), Error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), Error);
}

// ----- metrics registry ----------------------------------------------------

TEST(Metrics, InstrumentsAndSnapshotDeltas) {
  auto& m = obs::MetricsRegistry::global();
  auto& c = m.counter("test.counter");
  auto& g = m.gauge("test.gauge");
  auto& h = m.histogram("test.hist");

  const obs::MetricsSnapshot before = m.snapshot();
  c.add(3);
  g.update_max(10);
  g.update_max(7);  // high-water: no effect
  h.observe(0);
  h.observe(5);  // bit_width(5) == 3
  const obs::MetricsSnapshot after = m.snapshot();

  const obs::MetricsSnapshot d = before.delta_to(after);
  EXPECT_EQ(d.counters.at("test.counter"), 3);
  EXPECT_EQ(d.gauges.at("test.gauge"), 10);  // gauges carry, not diff
  EXPECT_EQ(d.histograms.at("test.hist").count, 2);
  EXPECT_EQ(d.histograms.at("test.hist").sum, 5);

  // The snapshot export is valid JSON naming every instrument.
  const obs::json::Value doc = obs::json::parse(m.snapshot_json());
  EXPECT_TRUE(doc.has("test.counter"));
  EXPECT_TRUE(doc.has("test.gauge"));
  EXPECT_TRUE(doc.has("test.hist"));
}

// ----- executor tracing ----------------------------------------------------

TEST(Trace, CategoryTotalsMatchBreakdownAndLanesAreWellFormed) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  // SSD with a CPU-fallback detection tail exercises all five categories
  // (conv, vision, copy, fallback, other) and all three lanes.
  const CompiledModel cm =
      compile_fast(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                   plat, {graph::OpKind::kSsdDetection});

  obs::TraceRecorder rec;
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.use_arena = true;
  ropts.trace = &rec;
  const RunResult r = cm.run(ropts);

  ASSERT_FALSE(rec.spans().empty());
  EXPECT_EQ(rec.meta().model, cm.model_name());
  EXPECT_EQ(rec.meta().mode, "wavefront");
  EXPECT_TRUE(rec.meta().arena);

  // The trace is a faithful decomposition of the breakdown.
  EXPECT_NEAR(rec.category_ms(sim::OpCategory::kConv), r.conv_ms, 1e-6);
  EXPECT_NEAR(rec.category_ms(sim::OpCategory::kVision), r.vision_ms, 1e-6);
  EXPECT_NEAR(rec.category_ms(sim::OpCategory::kCopy), r.copy_ms, 1e-6);
  EXPECT_NEAR(rec.category_ms(sim::OpCategory::kFallback), r.fallback_ms, 1e-6);
  EXPECT_NEAR(rec.category_ms(sim::OpCategory::kOther), r.other_ms, 1e-6);
  EXPECT_GT(r.fallback_ms, 0.0);
  EXPECT_GT(r.copy_ms, 0.0);

  // Per-lane spans are monotone and never overlap; the overall makespan is
  // the executor's critical path.
  for (int l = 0; l < sim::kNumLanes; ++l) {
    std::vector<const obs::TraceSpan*> lane;
    for (const obs::TraceSpan& s : rec.spans()) {
      if (static_cast<int>(s.lane) == l) lane.push_back(&s);
    }
    std::sort(lane.begin(), lane.end(),
              [](const obs::TraceSpan* a, const obs::TraceSpan* b) {
                return a->sim_start_ms < b->sim_start_ms;
              });
    double prev_end = 0.0;
    for (const obs::TraceSpan* s : lane) {
      EXPECT_GE(s->sim_start_ms, prev_end - 1e-9) << s->name;
      EXPECT_GE(s->sim_end_ms, s->sim_start_ms) << s->name;
      prev_end = s->sim_end_ms;
    }
  }
  double max_lane_end = 0.0;
  for (int l = 0; l < sim::kNumLanes; ++l) {
    max_lane_end =
        std::max(max_lane_end, rec.lane_end_ms(static_cast<sim::Lane>(l)));
  }
  EXPECT_DOUBLE_EQ(rec.makespan_ms(), max_lane_end);
  EXPECT_DOUBLE_EQ(max_lane_end, r.critical_path_ms);
}

TEST(Trace, TracedRunsAreBitIdenticalToUntraced) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_inception_v1(rng, 64), plat);

  for (const graph::ExecMode mode :
       {graph::ExecMode::kSequential, graph::ExecMode::kWavefront}) {
    RunOptions ropts;
    ropts.input_seed = 0x717;
    ropts.mode = mode;
    const RunResult plain = cm.run(ropts);

    obs::TraceRecorder rec;
    ropts.trace = &rec;
    const RunResult traced = cm.run(ropts);

    ASSERT_TRUE(traced.output.shape() == plain.output.shape());
    EXPECT_EQ(traced.output.max_abs_diff(plain.output), 0.0f);
    EXPECT_DOUBLE_EQ(traced.latency_ms, plain.latency_ms);
    EXPECT_DOUBLE_EQ(traced.serial_ms, plain.serial_ms);
    EXPECT_DOUBLE_EQ(traced.critical_path_ms, plain.critical_path_ms);
    EXPECT_FALSE(rec.spans().empty());
  }
}

TEST(Trace, SequentialAndWavefrontTracesAgreeOnSimTime) {
  // Both modes synthesize the same deterministic lane schedule, so the
  // simulated spans must match node for node.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_inception_v1(rng, 64), plat);

  obs::TraceRecorder seq, wave;
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.trace = &seq;
  cm.run(ropts);
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.trace = &wave;
  cm.run(ropts);

  ASSERT_EQ(seq.spans().size(), wave.spans().size());
  for (size_t i = 0; i < seq.spans().size(); ++i) {
    const obs::TraceSpan& a = seq.spans()[i];
    const obs::TraceSpan& b = wave.spans()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.lane, b.lane);
    EXPECT_EQ(a.category, b.category);
    EXPECT_DOUBLE_EQ(a.sim_start_ms, b.sim_start_ms) << a.name;
    EXPECT_DOUBLE_EQ(a.sim_end_ms, b.sim_end_ms) << a.name;
  }
}

TEST(Trace, ChromeExportIsValidJsonWithLaneTracks) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_inception_v1(rng, 64), plat);

  obs::TraceRecorder rec;
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.use_arena = true;
  ropts.trace = &rec;
  cm.run(ropts);

  const obs::json::Value doc = obs::json::parse(rec.chrome_trace_json());
  EXPECT_EQ(doc.at("otherData").at("model").as_string(), cm.model_name());
  EXPECT_EQ(doc.at("otherData").at("mode").as_string(), "wavefront");
  EXPECT_TRUE(doc.at("otherData").at("arena").as_bool());
  EXPECT_EQ(doc.at("otherData").at("schema_version").as_int(), 2);
  EXPECT_GE(count_lane_tracks(doc), 3);

  // Every duration event is well-formed and, on the simulated pid, maps to
  // one recorded span; counted spans carry the roofline annotations.
  size_t sim_events = 0;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "X") continue;
    EXPECT_GE(ev.at("ts").as_number(), 0.0);
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    if (ev.at("pid").as_int() == 1) {
      ++sim_events;
      EXPECT_TRUE(ev.at("args").has("op"));
      EXPECT_TRUE(ev.at("args").has("shape"));
      EXPECT_TRUE(ev.at("args").has("bytes"));
    }
  }
  EXPECT_EQ(sim_events, rec.spans().size());

  // v2: the export carries the three counter tracks ("ph":"C" samples with
  // a numeric args.value), at least one sample per counted span plus the
  // trailing zero sample per track.
  std::map<std::string, size_t> counter_samples;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "C") continue;
    EXPECT_EQ(ev.at("pid").as_int(), 1);
    EXPECT_GE(ev.at("args").at("value").as_number(), 0.0);
    ++counter_samples[ev.at("name").as_string()];
  }
  size_t counted_spans = 0;
  for (const obs::TraceSpan& s : rec.spans()) {
    if (s.counters.launches > 0) ++counted_spans;
  }
  ASSERT_GT(counted_spans, 0u);
  for (const char* track : {"occupancy", "achieved GFLOPS", "DRAM GB/s"}) {
    EXPECT_EQ(counter_samples[track], counted_spans + 1) << track;
  }

  // The text report carries the same run identity.
  const std::string report = rec.report();
  EXPECT_NE(report.find(cm.model_name()), std::string::npos);
  EXPECT_NE(report.find("category rollup"), std::string::npos);
}

TEST(Metrics, DeltasIdenticalAcrossRepeatedArenaRuns) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_inception_v1(rng, 64), plat);
  auto& m = obs::MetricsRegistry::global();

  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.use_arena = true;
  cm.run(ropts);  // warm up: builds the plan/arena, registers instruments

  const obs::MetricsSnapshot s0 = m.snapshot();
  cm.run(ropts);
  const obs::MetricsSnapshot s1 = m.snapshot();
  cm.run(ropts);
  const obs::MetricsSnapshot s2 = m.snapshot();

  // Counter and histogram movement is a deterministic function of the graph:
  // both runs must move every instrument by exactly the same amount. (Gauges
  // are high-water marks and are deliberately not compared.)
  obs::MetricsSnapshot d1 = s0.delta_to(s1);
  obs::MetricsSnapshot d2 = s1.delta_to(s2);
  EXPECT_EQ(d1.counters, d2.counters);
  // run.host_ms is the one wall-clock (non-simulated) histogram — it cannot
  // be deterministic across runs.
  d1.histograms.erase("run.host_ms");
  d2.histograms.erase("run.host_ms");
  ASSERT_EQ(d1.histograms.size(), d2.histograms.size());
  for (const auto& [name, h1] : d1.histograms) {
    ASSERT_TRUE(d2.histograms.count(name)) << name;
    const auto& h2 = d2.histograms.at(name);
    // Bucket counts are exact; the double sum is a cumulative-total
    // difference, so consecutive windows can disagree by rounding ULPs.
    EXPECT_EQ(h1.count, h2.count) << name;
    EXPECT_EQ(h1.buckets, h2.buckets) << name;
    EXPECT_NEAR(h1.sum, h2.sum, 1e-9 * (1.0 + std::fabs(h1.sum))) << name;
  }
  EXPECT_EQ(d1.counters.at("exec.runs"), 1);
  EXPECT_GT(d1.counters.at("exec.nodes"), 0);
  EXPECT_GT(d1.counters.at("exec.kernels_launched"), 0);
  EXPECT_GT(d1.counters.at("arena.acquires"), 0);
  EXPECT_EQ(d1.counters.at("arena.acquires"), d1.counters.at("arena.releases"));

  // Simulated hardware counters land in the registry, and the per-bound
  // launch counts partition the launch total.
  EXPECT_GT(d1.counters.at("sim.launches"), 0);
  EXPECT_GT(d1.counters.at("sim.flops"), 0);
  EXPECT_GT(d1.counters.at("sim.dram_bytes"), 0);
  EXPECT_EQ(d1.counters.at("sim.compute_bound_launches") +
                d1.counters.at("sim.bandwidth_bound_launches") +
                d1.counters.at("sim.latency_bound_launches"),
            d1.counters.at("sim.launches"));
  EXPECT_EQ(d1.histograms.at("sim.launch_occupancy_pct").count,
            d1.counters.at("sim.launches"));

  // The deprecated alias instruments were removed after their deprecation
  // window; only the canonical names (exec.node_ms, exec.ready_queue_peak,
  // tune.trials) may appear in a post-run snapshot.
  for (const char* dead :
       {"exec.node_us", "sched.ready_queue_peak", "tuner.trials"}) {
    EXPECT_EQ(s2.counters.count(dead), 0u) << dead;
    EXPECT_EQ(s2.gauges.count(dead), 0u) << dead;
    EXPECT_EQ(s2.histograms.count(dead), 0u) << dead;
  }
}

// ----- simulated hardware counters -----------------------------------------

TEST(Counters, ConserveAcrossSpansAndAgreeWithTheBreakdown) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  // SSD with a CPU-fallback detection tail exercises GPU kernels, CPU
  // sections, and copies — every counter source.
  const CompiledModel cm =
      compile_fast(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                   plat, {graph::OpKind::kSsdDetection});

  obs::TraceRecorder rec;
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.trace = &rec;
  const RunResult r = cm.run(ropts);

  // The run aggregate is a faithful rollup of the serial time.
  ASSERT_GT(r.counters.launches, 0);
  EXPECT_NEAR(r.counters.ms, r.serial_ms, 1e-6);
  EXPECT_GT(r.counters.flops, 0);
  EXPECT_GT(r.counters.dram_bytes, 0);
  EXPECT_GT(r.counters.occupancy, 0.0);
  EXPECT_LE(r.counters.occupancy, 1.0);

  // Per-span counters sum to the run aggregate exactly (same additive
  // terms), and each span's counter time is the span's duration.
  int64_t launches = 0, flops = 0, dram = 0;
  double ms = 0.0;
  for (const obs::TraceSpan& s : rec.spans()) {
    launches += s.counters.launches;
    flops += s.counters.flops;
    dram += s.counters.dram_bytes;
    ms += s.counters.ms;
    if (s.counters.launches == 0) continue;
    EXPECT_NEAR(s.counters.ms, s.sim_end_ms - s.sim_start_ms, 1e-9) << s.name;
    EXPECT_GT(s.counters.occupancy, 0.0) << s.name;
    EXPECT_LE(s.counters.occupancy, 1.0) << s.name;
    // The bound classification agrees with the dominating roofline term.
    const sim::KernelCounters& c = s.counters;
    EXPECT_EQ(c.bound,
              sim::KernelCounters::classify(c.compute_ms, c.memory_ms,
                                            c.overhead_ms))
        << s.name;
    switch (c.bound) {
      case sim::BoundKind::kCompute:
        EXPECT_GE(c.compute_ms, c.memory_ms) << s.name;
        break;
      case sim::BoundKind::kBandwidth:
        EXPECT_GT(c.memory_ms, c.compute_ms) << s.name;
        break;
      case sim::BoundKind::kLatency:
        EXPECT_GT(c.overhead_ms, std::max(c.compute_ms, c.memory_ms))
            << s.name;
        break;
    }
    // The derived rates are finite and positive for counted work.
    EXPECT_GE(c.achieved_gflops(), 0.0) << s.name;
    EXPECT_GE(c.achieved_gbps(), 0.0) << s.name;
  }
  EXPECT_EQ(launches, r.counters.launches);
  EXPECT_EQ(flops, r.counters.flops);
  EXPECT_EQ(dram, r.counters.dram_bytes);
  EXPECT_NEAR(ms, r.counters.ms, 1e-6);
}

TEST(Counters, RideAlongWithoutChangingResults) {
  // Counting is always on; this pins the PR-1 baseline invariant the other
  // way round: a run with the trace sink attached (counters merged into
  // spans) reports exactly the same latencies and outputs as one without.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_mobilenet(rng, 64), plat);

  RunOptions ropts;
  ropts.input_seed = 0x717;
  const RunResult plain = cm.run(ropts);
  obs::TraceRecorder rec;
  ropts.trace = &rec;
  const RunResult counted = cm.run(ropts);

  EXPECT_EQ(counted.output.max_abs_diff(plain.output), 0.0f);
  EXPECT_DOUBLE_EQ(counted.latency_ms, plain.latency_ms);
  EXPECT_DOUBLE_EQ(counted.serial_ms, plain.serial_ms);
  EXPECT_EQ(counted.counters.launches, plain.counters.launches);
  EXPECT_EQ(counted.counters.flops, plain.counters.flops);
  EXPECT_DOUBLE_EQ(counted.counters.ms, plain.counters.ms);
}

TEST(Roofline, ClassifiesConvWorkConsistentlyOnAllPlatforms) {
  for (const auto id : {sim::PlatformId::kDeepLens, sim::PlatformId::kAiSage,
                        sim::PlatformId::kJetsonNano}) {
    const sim::Platform& plat = sim::platform(id);
    Rng rng(0x5eed);
    for (int which = 0; which < 2; ++which) {
      models::Model model = which == 0 ? models::build_resnet50(rng)
                                       : models::build_yolov3(rng, 416);
      CompileOptions copts;
      copts.skip_tuning = true;  // template schedules: fine for attribution
      const CompiledModel cm = compile(std::move(model), plat, copts);

      obs::TraceRecorder rec;
      RunOptions ropts;
      ropts.compute_numerics = false;
      ropts.trace = &rec;
      cm.run(ropts);

      const obs::RooflineReport rep = obs::roofline_report(rec, plat.gpu);
      EXPECT_EQ(rep.platform, plat.name);
      EXPECT_GT(rep.peak_gflops, 0.0);
      EXPECT_GT(rep.ridge_intensity, 0.0);
      ASSERT_FALSE(rep.rows.empty());

      double bound_sum = 0.0;
      for (int b = 0; b < sim::kNumBoundKinds; ++b) bound_sum += rep.bound_ms[b];
      EXPECT_NEAR(bound_sum, rep.serial_ms, 1e-6);

      int conv_rows = 0;
      for (const obs::RooflineRow& row : rep.rows) {
        EXPECT_GT(row.ms, 0.0) << row.name;
        EXPECT_GE(row.pct_of_roof, 0.0) << row.name;
        EXPECT_LE(row.pct_of_roof, 1.0 + 1e-9) << row.name;
        if (row.category != sim::OpCategory::kConv) continue;
        ++conv_rows;
        // Convolutions are real kernels: the timing model must call them
        // compute- or bandwidth-bound (launch overhead never dominates),
        // and the call must match the dominating term.
        ASSERT_NE(row.counters.bound, sim::BoundKind::kLatency) << row.name;
        if (row.counters.bound == sim::BoundKind::kCompute) {
          EXPECT_GE(row.counters.compute_ms, row.counters.memory_ms)
              << row.name;
        } else {
          EXPECT_GT(row.counters.memory_ms, row.counters.compute_ms)
              << row.name;
        }
      }
      EXPECT_GT(conv_rows, 0) << plat.name;

      // The printable views render and carry the run identity.
      const std::string text = rep.str();
      EXPECT_NE(text.find(plat.name), std::string::npos);
      EXPECT_NE(obs::counters_table(rec).find("launches"), std::string::npos);
    }
  }
}

// ----- option validation ---------------------------------------------------

TEST(Executor, ArenaOptionInvariantsAreValidatedUpFront) {
  Rng rng(0x5eed);
  models::Model m1 = models::build_mobilenet(rng, 32);
  models::Model m2 = models::build_squeezenet(rng, 32);
  graph::optimize(m1.graph);
  graph::optimize(m2.graph);
  const graph::MemoryPlan plan1 = graph::plan_memory(m1.graph);
  const graph::MemoryPlan plan2 = graph::plan_memory(m2.graph);
  BufferArena arena1(plan1.buffer_bytes);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);

  graph::ExecOptions opts;
  opts.compute_numerics = false;

  // Arena without its plan.
  opts.arena = &arena1;
  opts.plan = nullptr;
  { Rng r(1); EXPECT_THROW(graph::execute(m1.graph, plat, opts, r), Error); }

  // Plan without its arena.
  opts.arena = nullptr;
  opts.plan = &plan1;
  { Rng r(1); EXPECT_THROW(graph::execute(m1.graph, plat, opts, r), Error); }

  // Plan computed for a different graph.
  opts.arena = &arena1;
  opts.plan = &plan2;
  { Rng r(1); EXPECT_THROW(graph::execute(m1.graph, plat, opts, r), Error); }

  // Arena not sized from the provided plan.
  std::vector<int64_t> truncated(plan1.buffer_bytes.begin(),
                                 plan1.buffer_bytes.end() - 1);
  BufferArena bad_arena(truncated);
  opts.arena = &bad_arena;
  opts.plan = &plan1;
  { Rng r(1); EXPECT_THROW(graph::execute(m1.graph, plat, opts, r), Error); }

  // Holder lists that disagree with buffer_of_node: wavefront dispatch
  // derives its anti-dependency edges from them.
  graph::MemoryPlan bad_holders = plan1;
  for (std::vector<int>& hs : bad_holders.buffer_holders) {
    if (hs.size() > 1) {
      hs[1] = m1.graph.num_nodes();
      break;
    }
  }
  opts.arena = &arena1;
  opts.plan = &bad_holders;
  opts.mode = graph::ExecMode::kWavefront;
  { Rng r(1); EXPECT_THROW(graph::execute(m1.graph, plat, opts, r), Error); }
  opts.mode = graph::ExecMode::kSequential;

  // The matched pair still works.
  opts.arena = &arena1;
  opts.plan = &plan1;
  { Rng r(1); EXPECT_GT(graph::execute(m1.graph, plat, opts, r).latency_ms, 0.0); }
}

// ----- end-to-end file round-trip ------------------------------------------

TEST(ObsEndToEnd, TraceAndMetricsFilesRoundTripThroughTheParser) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  const CompiledModel cm =
      compile_fast(models::build_inception_v1(rng, 64), plat);

  obs::TraceRecorder rec;
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.use_arena = true;
  ropts.trace = &rec;
  cm.run(ropts);

  const std::string trace_path =
      testing::TempDir() + "igc_test_trace.json";
  ASSERT_TRUE(rec.save_chrome_trace(trace_path));
  const obs::json::Value trace = obs::json::parse(read_file(trace_path));
  EXPECT_GE(count_lane_tracks(trace), 3);
  EXPECT_GE(trace.at("traceEvents").size(), rec.spans().size());
  EXPECT_EQ(trace.at("otherData").at("platform").as_string(), plat.name);
  std::remove(trace_path.c_str());

  const std::string metrics_path =
      testing::TempDir() + "igc_test_metrics.json";
  {
    std::ofstream out(metrics_path, std::ios::binary);
    out << obs::MetricsRegistry::global().snapshot_json();
  }
  const obs::json::Value metrics = obs::json::parse(read_file(metrics_path));
  EXPECT_GE(metrics.at("exec.runs").as_int(), 1);
  EXPECT_GE(metrics.at("exec.nodes").as_int(), 1);
  EXPECT_GE(metrics.at("arena.high_water_bytes").as_int(), 1);
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace igc
