// Tests for the wavefront executor and the plan-backed buffer arena: outputs
// must be bit-identical to a no-reuse reference in every mode and storage
// combination, peak intermediate memory must respect the static plan, and the
// simulated critical path must never exceed the serial sum (and must beat it
// when the graph has genuinely overlappable work).
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "models/models.h"
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

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  EXPECT_EQ(a.max_abs_diff(b), 0.0f) << what;
}

/// The storage reference: a sequential run of `g` over a memory plan that
/// never reuses a buffer (buffer i belongs to node i alone). The plan is
/// built from the struct's public fields rather than plan_memory(), so a
/// reuse bug in the planner or in the executor's release and
/// anti-dependency logic cannot hide in the reference.
graph::ExecResult run_no_reuse(const graph::Graph& g,
                               const sim::Platform& plat,
                               graph::ExecOptions opts, uint64_t seed) {
  graph::MemoryPlan plan;
  for (const graph::Node& n : g.nodes()) {
    plan.buffer_of_node.push_back(n.id);
    plan.buffer_bytes.push_back(n.out_shape.numel() * 4);
    plan.buffer_holders.push_back({n.id});
  }
  BufferArena arena(plan.buffer_bytes);
  opts.mode = graph::ExecMode::kSequential;
  opts.plan = &plan;
  opts.arena = &arena;
  Rng rng(seed);
  return graph::execute(g, plat, opts, rng);
}

/// Compiles `model` and runs every {sequential, wavefront} x {per-call
/// arena, persistent arena, serving context} combination. Each must match
/// the no-reuse reference bit for bit, on outputs and on both simulated
/// time models: compile()'s pass pipeline replayed on a copy of the graph,
/// run with the model's schedules and layouts.
void check_all_modes(const models::Model& model, const sim::Platform& plat,
                     bool numerics, std::set<graph::OpKind> fallback = {}) {
  constexpr uint64_t kSeed = 0x515;
  const CompiledModel cm =
      compile_fast(models::Model{model.name, model.graph}, plat, fallback);

  graph::Graph g = model.graph;
  graph::optimize(g, fallback);
  graph::ExecOptions eopts;
  eopts.compute_numerics = numerics;
  eopts.db = &cm.tune_db();
  eopts.conv_layout_block = cm.layouts();
  const graph::ExecResult ref = run_no_reuse(g, plat, eopts, kSeed);

  const std::unique_ptr<ServingContext> ctx = cm.make_serving_context();
  struct Storage {
    const char* name;
    bool persistent;
    ServingContext* context;
  };
  for (const graph::ExecMode mode :
       {graph::ExecMode::kSequential, graph::ExecMode::kWavefront}) {
    for (const Storage& s : {Storage{"per-call arena", false, nullptr},
                             Storage{"persistent arena", true, nullptr},
                             Storage{"serving context", false, ctx.get()}}) {
      RunOptions ropts;
      ropts.input_seed = kSeed;
      ropts.compute_numerics = numerics;
      ropts.mode = mode;
      ropts.use_arena = s.persistent;
      ropts.serving_context = s.context;
      const RunResult r = cm.run(ropts);
      const std::string what =
          cm.model_name() +
          (mode == graph::ExecMode::kWavefront ? " wavefront "
                                               : " sequential ") +
          s.name;
      expect_bit_identical(r.output, ref.output, what);
      // The same per-node charges feed both time models, so these agree no
      // matter which mode ran.
      EXPECT_DOUBLE_EQ(r.serial_ms, ref.serial_ms) << what;
      EXPECT_DOUBLE_EQ(r.critical_path_ms, ref.critical_path_ms) << what;
    }
  }
}

TEST(Wavefront, ClassificationNumericsBitIdentical) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  check_all_modes(models::build_mobilenet(rng, 64), plat, true);
  check_all_modes(models::build_squeezenet(rng, 64), plat, true);
  check_all_modes(models::build_inception_v1(rng, 64), plat, true);
}

TEST(Wavefront, ResNetAndFcnNumericsBitIdentical) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kJetsonNano);
  Rng rng(0x5eed);
  check_all_modes(models::build_resnet50(rng, 64), plat, true);
  check_all_modes(models::build_fcn_resnet50(rng, 64, 1, 5), plat, true);
}

TEST(Wavefront, DetectionShapesOnlyBitIdentical) {
  // Shapes-only is where placeholder handling matters: arena slabs are
  // deliberately left uninitialized because no op reads them. CPU fallback
  // adds device-copy nodes and a second execution lane.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  check_all_modes(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                  plat, false, {graph::OpKind::kSsdDetection});
  check_all_modes(models::build_yolov3(rng, 128, 1, 20), plat, false,
                  {graph::OpKind::kYoloDecode, graph::OpKind::kBoxNms});
}

TEST(Wavefront, AllPlatformsBitIdentical) {
  Rng rng(0x5eed);
  const models::Model m = models::build_inception_v1(rng, 64);
  for (const sim::Platform& plat : sim::all_platforms()) {
    check_all_modes(m, plat, false);
  }
}

TEST(Wavefront, PeakIntermediateBytesRespectsPlan) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  for (CompiledModel cm :
       {compile_fast(models::build_inception_v1(rng, 64), plat),
        compile_fast(models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128),
                     plat, {graph::OpKind::kSsdDetection})}) {
    const int64_t plan_bytes = cm.memory_plan().total_bytes();
    for (const graph::ExecMode mode :
         {graph::ExecMode::kSequential, graph::ExecMode::kWavefront}) {
      for (const bool persistent : {false, true}) {
        RunOptions ropts;
        ropts.compute_numerics = false;
        ropts.mode = mode;
        ropts.use_arena = persistent;
        const RunResult r = cm.run(ropts);
        EXPECT_GT(r.peak_intermediate_bytes, 0) << cm.model_name();
        EXPECT_LE(r.peak_intermediate_bytes, plan_bytes) << cm.model_name();
        EXPECT_EQ(r.arena_bytes, plan_bytes) << cm.model_name();
      }
    }
  }
}

TEST(Wavefront, CriticalPathNeverExceedsSerialSum) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  for (CompiledModel cm :
       {compile_fast(models::build_inception_v1(rng, 64), plat),
        compile_fast(models::build_mobilenet(rng, 64), plat)}) {
    RunOptions ropts;
    ropts.compute_numerics = false;
    ropts.mode = graph::ExecMode::kWavefront;
    const RunResult r = cm.run(ropts);
    EXPECT_EQ(r.latency_ms, r.critical_path_ms);
    EXPECT_LE(r.critical_path_ms, r.serial_ms * (1.0 + 1e-12));
    EXPECT_GT(r.critical_path_ms, 0.0);
  }
}

TEST(Wavefront, HeterogeneousGraphOverlapsLanes) {
  // With the YOLO decode heads on the companion CPU, decode of the shallow
  // scale and its device copies overlap remaining GPU backbone work, so the
  // per-lane critical path must beat the serial sum strictly.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompiledModel cm =
      compile_fast(models::build_yolov3(rng, 128, 1, 20), plat,
                   {graph::OpKind::kYoloDecode, graph::OpKind::kBoxNms});
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  const RunResult r = cm.run(ropts);
  EXPECT_LT(r.critical_path_ms, r.serial_ms);
}

TEST(Wavefront, RepeatedArenaRunsAreDeterministic) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompiledModel cm = compile_fast(models::build_inception_v1(rng, 64), plat);
  RunOptions ropts;
  ropts.compute_numerics = false;
  ropts.mode = graph::ExecMode::kWavefront;
  ropts.use_arena = true;
  const RunResult first = cm.run(ropts);
  for (int i = 0; i < 3; ++i) {
    const RunResult again = cm.run(ropts);  // reuses the serving arena
    expect_bit_identical(again.output, first.output, "repeat run");
    EXPECT_DOUBLE_EQ(again.latency_ms, first.latency_ms);
    EXPECT_EQ(again.arena_bytes, first.arena_bytes);
  }
  // Different seeds must still produce different inputs (the arena does not
  // leak one run's data into the next run's observable output).
  ropts.input_seed = 0x9999;
  ropts.compute_numerics = true;
  const RunResult other = cm.run(ropts);
  ropts.input_seed = 0x515;
  const RunResult base = cm.run(ropts);
  ASSERT_TRUE(other.output.shape() == base.output.shape());
  EXPECT_GT(other.output.max_abs_diff(base.output), 0.0f);
}

TEST(Wavefront, ExecutorBuildsLocalArenaWhenNoneProvided) {
  // graph::execute without a caller-provided (arena, plan) pair sizes a
  // private arena from its own plan_memory() call.
  Rng model_rng(0x5eed);
  models::Model m = models::build_squeezenet(model_rng, 64);
  graph::optimize(m.graph);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);

  const graph::ExecResult ref = run_no_reuse(m.graph, plat, {}, 0x11);

  graph::ExecOptions opts;
  opts.mode = graph::ExecMode::kWavefront;
  Rng rng(0x11);
  const graph::ExecResult local = graph::execute(m.graph, plat, opts, rng);

  expect_bit_identical(local.output, ref.output, "local arena");
  EXPECT_EQ(local.arena_bytes, graph::plan_memory(m.graph).total_bytes());
  EXPECT_LE(local.peak_intermediate_bytes, local.arena_bytes);
}

TEST(Wavefront, SequentialModeMatchesSeedExecutorContract) {
  // The sequential mode must keep the original executor's reporting: latency
  // is the serial sum and the event trace accounts for all of it.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng(0x5eed);
  CompiledModel cm = compile_fast(models::build_inception_v1(rng, 64), plat);
  const RunResult r = cm.run(0x515, false);
  EXPECT_DOUBLE_EQ(r.latency_ms, r.serial_ms);
}

}  // namespace
}  // namespace igc
