// Tests for the pass manager: named pipelines with per-pass metrics and
// validation after every pass, idempotence of every registered pass,
// constant pre-computing, dead-node compaction (bit-identical outputs,
// fully-planned memory, mandatory before planning), compiling with any
// single pass disabled, and fused activations computing what the unfused
// graph computes.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/pass_manager.h"
#include "graph/passes.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

using graph::Graph;
using graph::OpKind;

CompiledModel compile_fast(models::Model model, const sim::Platform& plat,
                           std::function<void(CompileOptions&)> tweak = {}) {
  CompileOptions copts;
  copts.tune_trials = 8;
  if (tweak) tweak(copts);
  return compile(std::move(model), plat, copts);
}

/// Model graphs used as pass fodder, small enough for numerics.
std::vector<models::Model> pass_fodder() {
  Rng rng(0x5eed);
  std::vector<models::Model> out;
  out.push_back(models::build_mobilenet(rng, 64, 1, 10));
  out.push_back(models::build_resnet50(rng, 64, 1, 10));
  out.push_back(models::build_inception_v1(rng, 64));
  out.push_back(models::build_yolov3(rng, 128, 1, 20));
  return out;
}

/// A graph with an all-constant subgraph feeding the live path: two
/// constants -> add -> relu, concatenated with a conv over the input.
Graph constant_subgraph(Rng& rng) {
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  ops::Conv2dParams p;
  p.in_channels = 4;
  p.out_channels = 4;
  p.in_h = p.in_w = 8;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  const int conv = g.add_conv2d(
      "conv", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int ca =
      g.add_constant("ca", Tensor::random_normal(Shape{1, 4, 8, 8}, rng));
  const int cb =
      g.add_constant("cb", Tensor::random_normal(Shape{1, 4, 8, 8}, rng));
  const int add = g.add_add("cadd", ca, cb);
  const int relu = g.add_activation("crelu", add, ops::Activation::kRelu);
  const int cat = g.add_concat("cat", {conv, relu});
  g.set_output(cat);
  return g;
}

/// Same shape, dtype and bytes (NaN-aware, unlike max_abs_diff == 0).
::testing::AssertionResult same_bytes(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape() || a.dtype() != b.dtype()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape().str() << " vs " << b.shape().str();
  }
  if (std::memcmp(a.raw_data(), b.raw_data(),
                  static_cast<size_t>(a.nbytes())) != 0) {
    return ::testing::AssertionFailure()
           << "bytes differ (max_abs_diff " << a.max_abs_diff(b) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// input -> scale_shift(scale 1, shift -0.5) -> relu: a ScaleShift no conv
/// precedes, so fold_scale_shift leaves it and fuse_activation fuses the
/// relu into it.
Graph scale_shift_relu() {
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const int ss = g.add_scale_shift("ss", in, Tensor::full(Shape{4}, 1.0f),
                                   Tensor::full(Shape{4}, -0.5f));
  g.set_output(g.add_activation("relu", ss, ops::Activation::kRelu));
  return g;
}

/// A constant -> scale_shift -> relu branch added to the input: the fused
/// scale_shift has only constant inputs, so constant_precompute folds it.
Graph constant_scale_shift_relu() {
  Rng rng(13);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const int c =
      g.add_constant("c", Tensor::random_normal(Shape{1, 4, 8, 8}, rng, 1.0f));
  const int ss = g.add_scale_shift("css", c, Tensor::full(Shape{4}, 2.0f),
                                   Tensor::full(Shape{4}, -0.25f));
  const int relu = g.add_activation("crelu", ss, ops::Activation::kRelu);
  g.set_output(g.add_add("sum", in, relu));
  return g;
}

graph::ExecResult run_graph(const Graph& g, uint64_t seed) {
  graph::ExecOptions opts;
  Rng rng(seed);
  return graph::execute(g, sim::platform(sim::PlatformId::kDeepLens), opts,
                        rng);
}

TEST(PassManager, DefaultPipelineNamesAndJoin) {
  const auto& names = graph::default_pass_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(graph::default_pass_names_joined(),
            "fold_scale_shift,fuse_activation,constant_precompute,dce,place");
  EXPECT_EQ(graph::join_pass_names({}), "");
  EXPECT_EQ(graph::join_pass_names({"a", "b"}), "a,b");
  const graph::PassPipeline pipe = graph::build_pipeline({}, {});
  EXPECT_EQ(pipe.pass_names(), names);
}

TEST(PassManager, UnknownPassNameThrows) {
  EXPECT_THROW(graph::make_pass("no_such_pass"), Error);
  EXPECT_THROW(graph::build_pipeline({"fold_scale_shift", "bogus"}, {}),
               Error);
}

TEST(PassManager, RunRecordsMetricsAndReport) {
  auto& reg = obs::MetricsRegistry::global();
  const auto before = reg.snapshot();
  Rng rng(1);
  models::Model m = models::build_mobilenet(rng, 64, 1, 10);
  const graph::PassPipeline pipe = graph::build_pipeline({}, {});
  const auto report = pipe.run(m.graph);
  ASSERT_EQ(report.size(), graph::default_pass_names().size());
  const auto delta = before.delta_to(reg.snapshot());
  for (const auto& st : report) {
    EXPECT_EQ(st.pass, graph::default_pass_names()[static_cast<size_t>(
                           &st - report.data())]);
    EXPECT_GE(st.rewrites, 0);
    EXPECT_GE(st.wall_ms, 0.0);
    const std::string prefix = "graph.pass." + st.pass;
    EXPECT_EQ(delta.counters.at(prefix + ".runs"), 1) << st.pass;
    EXPECT_EQ(delta.counters.at(prefix + ".rewrites"), st.rewrites) << st.pass;
    EXPECT_EQ(delta.histograms.at(prefix + ".us").count, 1) << st.pass;
  }
  // MobileNet folds batch norms and fuses activations.
  EXPECT_GT(report[0].rewrites, 0);
  EXPECT_GT(report[1].rewrites, 0);
}

TEST(PassManager, EveryPassIdempotentAndValidates) {
  for (models::Model& m : pass_fodder()) {
    // Fresh pipelines per model: passes run in default order, and after each
    // stage the graph still validates; a second run of the same pass
    // rewrites nothing.
    for (const std::string& name : graph::default_pass_names()) {
      auto pass = graph::make_pass(name);
      pass->run(m.graph);
      m.graph.validate();
      auto again = graph::make_pass(name);
      EXPECT_EQ(again->run(m.graph), 0) << m.name << ": " << name;
      m.graph.validate();
    }
  }
}

TEST(PassManager, ValidateAfterEachAndDumpHooks) {
  Rng rng(2);
  models::Model m = models::build_squeezenet(rng, 64, 1, 10);
  std::ostringstream dump;
  graph::PassPipelineOptions popts;
  popts.dump_graph_after = {"dce"};
  popts.dump_stream = &dump;
  const graph::PassPipeline pipe =
      graph::build_pipeline({}, {}, {}, std::move(popts));
  pipe.run(m.graph);
  EXPECT_NE(dump.str().find("graph after pass 'dce'"), std::string::npos);
  EXPECT_NE(dump.str().find("conv"), std::string::npos);
}

/// A broken rewrite: wires the first node to the last, an edge that breaks
/// topological order.
class BackEdgePass : public graph::Pass {
 public:
  std::string_view name() const override { return "back_edge"; }
  int run(Graph& g) override {
    g.node(0).inputs.push_back(g.num_nodes() - 1);
    return 1;
  }
};

TEST(PassManager, EveryPipelineValidatesAfterEachPass) {
  Rng rng(2);
  models::Model m = models::build_squeezenet(rng, 64, 1, 10);
  graph::PassPipeline pipe = graph::build_pipeline({}, {});
  pipe.add(std::make_unique<BackEdgePass>());
  EXPECT_THROW(pipe.run(m.graph), Error);
}

TEST(Passes, ConstantPrecomputeFoldsSubgraphBitIdentical) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  Rng rng_a(3), rng_b(3);
  models::Model ma{"const_subgraph", constant_subgraph(rng_a)};
  models::Model mb{"const_subgraph", constant_subgraph(rng_b)};
  const CompiledModel with_pc = compile_fast(std::move(ma), plat);
  const CompiledModel without_pc =
      compile_fast(std::move(mb), plat, [](CompileOptions& o) {
        o.disabled_passes = {"constant_precompute"};
      });
  // fuse folds crelu into cadd; precompute then evaluates cadd(+relu) into
  // one constant, leaving ca, cb, and the bypassed crelu for dce.
  EXPECT_EQ(with_pc.pass_stats().precomputed_constants, 1);
  EXPECT_EQ(with_pc.pass_stats().removed_dead_nodes, 3);
  EXPECT_EQ(without_pc.pass_stats().precomputed_constants, 0);
  const RunResult a = with_pc.run();
  const RunResult b = without_pc.run();
  ASSERT_TRUE(a.output.shape() == b.output.shape());
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
  // The folded add kernel no longer runs, so inference gets faster.
  EXPECT_LT(a.latency_ms, b.latency_ms);
}

TEST(Passes, DeadNodeEliminationCompacts) {
  Rng rng(5);
  Graph g = constant_subgraph(rng);
  const int before = g.num_nodes();
  ASSERT_GT(graph::constant_precompute_pass(g), 0);
  // Feeder constants (ca, cb) and the folded add are dead markers now, and
  // the planner refuses a graph that still holds them.
  EXPECT_THROW(graph::plan_memory(g), Error);
  const int removed = graph::dead_node_elimination_pass(g);
  EXPECT_EQ(removed, 3);
  EXPECT_EQ(g.num_nodes(), before - removed);
  g.validate();
  const auto live = g.live_mask();
  for (bool b : live) EXPECT_TRUE(b);
  // Every node gets a planned buffer after compaction.
  const graph::MemoryPlan plan = graph::plan_memory(g);
  for (int buf : plan.buffer_of_node) EXPECT_GE(buf, 0);
}

TEST(Passes, CompactionPreservesOutputsAcrossModels) {
  // The default pipeline (with dce) and a dce-less pipeline must produce
  // bit-identical outputs and timing in every executor mode: compaction
  // renumbers ids but keeps names, and all executor randomness is seeded
  // from names.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  struct Case {
    std::function<models::Model(Rng&)> build;
    bool numerics;
  };
  const std::vector<Case> cases = {
      {[](Rng& r) { return models::build_mobilenet(r, 64, 1, 10); }, true},
      {[](Rng& r) { return models::build_squeezenet(r, 64, 1, 10); }, true},
      {[](Rng& r) { return models::build_resnet50(r, 64, 1, 10); }, true},
      {[](Rng& r) { return models::build_inception_v1(r, 64); }, true},
      {[](Rng& r) { return models::build_fcn_resnet50(r, 64, 1, 5); }, true},
      {[](Rng& r) {
         return models::build_ssd(r, models::SsdBackbone::kMobileNet, 128);
       },
       false},
      {[](Rng& r) { return models::build_yolov3(r, 128, 1, 20); }, false},
  };
  for (const Case& c : cases) {
    Rng rng_a(0x5eed), rng_b(0x5eed);
    const CompiledModel with_dce = compile_fast(c.build(rng_a), plat);
    const CompiledModel without_dce =
        compile_fast(c.build(rng_b), plat, [](CompileOptions& o) {
          o.disabled_passes = {"dce"};
        });
    for (const graph::ExecMode mode :
         {graph::ExecMode::kSequential, graph::ExecMode::kWavefront}) {
      RunOptions ropts;
      ropts.input_seed = 0x515;
      ropts.compute_numerics = c.numerics;
      ropts.mode = mode;
      const RunResult a = with_dce.run(ropts);
      const RunResult b = without_dce.run(ropts);
      const std::string what =
          with_dce.model_name() +
          (mode == graph::ExecMode::kWavefront ? " wavefront" : " sequential");
      ASSERT_TRUE(a.output.shape() == b.output.shape()) << what;
      EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f) << what;
      EXPECT_DOUBLE_EQ(a.serial_ms, b.serial_ms) << what;
      EXPECT_DOUBLE_EQ(a.critical_path_ms, b.critical_path_ms) << what;
    }
    // The compacted plan never leaves an unplanned slot.
    const graph::MemoryPlan plan = with_dce.memory_plan();
    for (int buf : plan.buffer_of_node) {
      EXPECT_GE(buf, 0) << with_dce.model_name();
    }
  }
}

TEST(Passes, DisablingAnySinglePassStillCompilesAndRuns) {
  const sim::Platform& plat = sim::platform(sim::PlatformId::kJetsonNano);
  for (const std::string& name : graph::default_pass_names()) {
    Rng rng(0x5eed);
    const CompiledModel cm =
        compile_fast(models::build_squeezenet(rng, 64, 1, 10), plat,
                     [&](CompileOptions& o) { o.disabled_passes = {name}; });
    const auto pipeline = cm.pass_pipeline();
    EXPECT_EQ(pipeline.size(), graph::default_pass_names().size() - 1);
    for (const auto& p : pipeline) EXPECT_NE(p, name);
    const RunResult r = cm.run();
    EXPECT_EQ(r.output.shape(), Shape({1, 10}));
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

TEST(Passes, PipelineThatNeverCompactsIsRefused) {
  // Cut before dce/place, the fold/fuse markers stay in the node list; the
  // memory planner refuses such a graph, so compile() fails instead of
  // planning and running dead nodes. It fails before tuning, so a tuned
  // compile runs no trial first.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const obs::Counter& trials =
      obs::MetricsRegistry::global().counter("tune.trials");
  for (bool skip_tuning : {true, false}) {
    Rng rng(0x5eed);
    const int64_t trials_before = trials.value();
    try {
      compile_fast(models::build_mobilenet(rng, 64, 1, 10), plat,
                   [&](CompileOptions& o) {
                     o.skip_tuning = skip_tuning;
                     o.pass_names = {"fold_scale_shift", "fuse_activation"};
                   });
      ADD_FAILURE() << "compile() accepted a pipeline that never compacts";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("dce"), std::string::npos) << msg;
      EXPECT_NE(msg.find("place"), std::string::npos) << msg;
    }
    EXPECT_EQ(trials.value(), trials_before) << "skip_tuning " << skip_tuning;
  }
}

TEST(Passes, ScaleShiftKeepsItsFusedActivation) {
  // fuse_activation fuses into a ScaleShift no conv precedes; the fused node
  // must still apply the relu (half of these inputs go negative).
  const Graph raw = scale_shift_relu();
  Graph optimized = scale_shift_relu();
  EXPECT_EQ(graph::optimize(optimized).fused_activations, 1);
  const graph::ExecResult a = run_graph(raw, 0x515);
  const graph::ExecResult b = run_graph(optimized, 0x515);
  EXPECT_TRUE(same_bytes(a.output, b.output));
  for (float x : b.output.span_f32()) ASSERT_GE(x, 0.0f);
}

TEST(Passes, PrecomputedScaleShiftMatchesRuntime) {
  // The default pipeline folds the fused constant branch into a constant;
  // without constant_precompute it runs every time. Both, and the raw graph,
  // must agree bit for bit.
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const CompiledModel with_pc =
      compile_fast(models::Model{"css", constant_scale_shift_relu()}, plat);
  const CompiledModel without_pc = compile_fast(
      models::Model{"css", constant_scale_shift_relu()}, plat,
      [](CompileOptions& o) { o.disabled_passes = {"constant_precompute"}; });
  EXPECT_EQ(with_pc.pass_stats().fused_activations, 1);
  EXPECT_EQ(with_pc.pass_stats().precomputed_constants, 1);
  EXPECT_EQ(without_pc.pass_stats().precomputed_constants, 0);
  RunOptions ropts;
  ropts.input_seed = 0x515;
  const RunResult a = with_pc.run(ropts);
  const RunResult b = without_pc.run(ropts);
  EXPECT_TRUE(same_bytes(a.output, b.output));
  EXPECT_TRUE(
      same_bytes(a.output, run_graph(constant_scale_shift_relu(), 0x515).output));
}

TEST(Passes, ConcurrentWavefrontRunsWithCompactedGraph) {
  // TSan fodder: arena-less wavefront runs on one compiled model from
  // several threads; compaction must not introduce shared mutable state.
  Rng rng(0x5eed);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const CompiledModel cm =
      compile_fast(models::build_squeezenet(rng, 64, 1, 10), plat);
  RunOptions ropts;
  ropts.mode = graph::ExecMode::kWavefront;
  const RunResult base = cm.run(ropts);
  std::vector<std::thread> threads;
  std::vector<RunResult> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { results[static_cast<size_t>(t)] = cm.run(ropts); });
  }
  for (auto& t : threads) t.join();
  for (const RunResult& r : results) {
    EXPECT_EQ(r.output.max_abs_diff(base.output), 0.0f);
    EXPECT_DOUBLE_EQ(r.latency_ms, base.latency_ms);
  }
}

}  // namespace
}  // namespace igc
