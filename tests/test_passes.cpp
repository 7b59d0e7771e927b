// Tests for the pass manager: named pipelines with per-pass metrics,
// idempotence of every registered pass, constant pre-computing, dead-node
// compaction (bit-identical outputs, fully-planned memory), and compiling
// with any single pass disabled.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/compiler.h"
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
  popts.validate_after_each = true;
  popts.dump_graph_after = {"dce"};
  popts.dump_stream = &dump;
  const graph::PassPipeline pipe =
      graph::build_pipeline({}, {}, {}, std::move(popts));
  pipe.run(m.graph);
  EXPECT_NE(dump.str().find("graph after pass 'dce'"), std::string::npos);
  EXPECT_NE(dump.str().find("conv"), std::string::npos);
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
  // Feeder constants (ca, cb) and the folded add are dead markers now.
  const int removed = graph::dead_node_elimination_pass(g);
  EXPECT_EQ(removed, 3);
  EXPECT_EQ(g.num_nodes(), before - removed);
  g.validate();
  const auto live = g.live_mask();
  for (bool b : live) EXPECT_TRUE(b);
  // Every live node gets a planned buffer after compaction.
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

TEST(Passes, PassStatsCountLiveNodesOnly) {
  // With the pipeline cut before compaction/placement, dead fold/fuse
  // markers remain in the node list; the device counts must ignore them.
  Rng rng(0x5eed);
  const sim::Platform& plat = sim::platform(sim::PlatformId::kDeepLens);
  const CompiledModel cm =
      compile_fast(models::build_mobilenet(rng, 64, 1, 10), plat,
                   [](CompileOptions& o) {
                     o.pass_names = {"fold_scale_shift", "fuse_activation"};
                   });
  const graph::PassStats& st = cm.pass_stats();
  EXPECT_GT(st.folded_scale_shifts, 0);
  EXPECT_GT(st.fused_activations, 0);
  int live_nodes = 0;
  // CompiledModel does not expose the graph; count via the memory plan,
  // whose -1 slots are exactly the dead markers.
  for (int buf : cm.memory_plan().buffer_of_node) live_nodes += buf >= 0;
  EXPECT_EQ(st.gpu_nodes + st.cpu_nodes, live_nodes);
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
