// Cross-module integration tests: the full pipeline (build -> optimize ->
// tune -> graph-tune -> execute) on every platform, database persistence
// across runs, cross-platform numerical agreement, and end-to-end invariants
// the benchmarks rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/vendor.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/conv_tuner.h"

namespace igc {
namespace {

using graph::ExecOptions;
using graph::ExecResult;
using sim::PlatformId;

/// Full "ours" pipeline for one prebuilt model.
ExecResult full_pipeline(models::Model& m, const sim::Platform& plat,
                         tune::TuneDb& db, bool numerics,
                         uint64_t input_seed = 99) {
  graph::optimize(m.graph);
  tune::TuneOptions topts;
  topts.n_trials = 32;
  graphtune::tune_graph_layouts(m.graph, plat.gpu, db, topts);
  ExecOptions opts;
  opts.compute_numerics = numerics;
  Rng rng(input_seed);
  return graph::execute(m.graph, plat, opts, rng);
}

TEST(Integration, SmallModelAcrossAllPlatformsSameNumerics) {
  Tensor reference_out;
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage,
                  PlatformId::kJetsonNano}) {
    Rng rng(5);
    models::Model m = models::build_mobilenet(rng, 64, 1, 10);
    tune::TuneDb db;
    const ExecResult r =
        full_pipeline(m, sim::platform(id), db, /*numerics=*/true);
    ASSERT_EQ(r.output.shape(), Shape({1, 10}));
    if (!reference_out.defined()) {
      reference_out = r.output;
    } else {
      // The simulated device never changes the math, only the clock.
      EXPECT_LT(r.output.max_abs_diff(reference_out), 1e-5f)
          << "platform " << sim::platform(id).name;
    }
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

TEST(Integration, TunedPipelineBeatsUntunedOnEveryPlatform) {
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage,
                  PlatformId::kJetsonNano}) {
    Rng rng(6);
    models::Model m = models::build_squeezenet(rng, 64, 1, 10);
    graph::optimize(m.graph);
    const graph::Graph untuned = m.graph;  // no schedules: the templates
    tune::TuneDb db;
    tune::TuneOptions topts;
    topts.n_trials = 32;
    graphtune::tune_graph_layouts(m.graph, sim::platform(id).gpu, db, topts);
    ExecOptions opts;
    opts.compute_numerics = false;
    Rng r1(1), r2(1);
    const double before =
        graph::execute(untuned, sim::platform(id), opts, r1).latency_ms;
    const double after =
        graph::execute(m.graph, sim::platform(id), opts, r2).latency_ms;
    EXPECT_LT(after, before) << sim::platform(id).name;
  }
}

TEST(Integration, TuneDbPersistsAcrossProcessBoundary) {
  Rng rng(7);
  models::Model m = models::build_mobilenet(rng, 64, 1, 10);
  graph::optimize(m.graph);
  const auto& plat = sim::platform(PlatformId::kJetsonNano);
  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 24;
  const auto layouts =
      graphtune::tune_graph_layouts(m.graph, plat.gpu, db, topts);
  const std::string path =
      (std::filesystem::temp_directory_path() / "igc_integration_db.txt")
          .string();
  db.save(path);

  // Reload, write its schedules onto a copy of the graph, and verify the
  // executor produces the identical simulated time.
  const tune::TuneDb reloaded = tune::TuneDb::load(path);
  EXPECT_EQ(reloaded.size(), db.size());
  graph::Graph from_reloaded = m.graph;
  graphtune::write_schedules(from_reloaded, plat.gpu, layouts.layout_of_conv,
                             &reloaded);
  for (int id : m.graph.conv_node_ids()) {
    EXPECT_EQ(from_reloaded.node(id).schedule, m.graph.node(id).schedule);
  }
  ExecOptions opts;
  opts.compute_numerics = false;
  Rng r1(3), r2(3);
  const double t1 = graph::execute(m.graph, plat, opts, r1).latency_ms;
  const double t2 = graph::execute(from_reloaded, plat, opts, r2).latency_ms;
  EXPECT_DOUBLE_EQ(t1, t2);
  std::remove(path.c_str());
}

TEST(Integration, GraphTunerNeverWorseThanAllNchwEndToEnd) {
  for (auto id : {PlatformId::kDeepLens, PlatformId::kJetsonNano}) {
    Rng rng(8);
    models::Model m = models::build_resnet50(rng, 64, 1, 10);
    graph::optimize(m.graph);
    tune::TuneDb db;
    tune::TuneOptions topts;
    topts.n_trials = 24;
    const auto layouts =
        graphtune::tune_graph_layouts(m.graph, sim::platform(id).gpu, db, topts);
    EXPECT_LE(layouts.tuned_ms, layouts.nchw_ms * 1.0001)
        << sim::platform(id).name;
  }
}

TEST(Integration, DetectionPipelineInvariantsOnAllPlatforms) {
  for (auto id : {PlatformId::kDeepLens, PlatformId::kAiSage,
                  PlatformId::kJetsonNano}) {
    Rng rng(9);
    models::Model m =
        models::build_ssd(rng, models::SsdBackbone::kMobileNet, 128);
    tune::TuneDb db;
    const ExecResult r =
        full_pipeline(m, sim::platform(id), db, /*numerics=*/false);
    // NMS output invariants: valid rows are prefix-compacted per batch and
    // scores are non-increasing.
    const float* o = r.output.data_f32();
    const int64_t n = r.output.shape()[1];
    bool seen_invalid = false;
    float prev_score = 2.0f;
    for (int64_t i = 0; i < n; ++i) {
      if (o[i * 6] < 0.0f) {
        seen_invalid = true;
        continue;
      }
      EXPECT_FALSE(seen_invalid) << "valid row after invalid at " << i;
      EXPECT_LE(o[i * 6 + 1], prev_score);
      prev_score = o[i * 6 + 1];
    }
    EXPECT_GT(r.vision_ms, 0.0);
  }
}

TEST(Integration, FallbackOverheadIsSmall) {
  // The Sec. 3.1.2 claim at test scale: moving NMS to the CPU changes
  // end-to-end latency by a small fraction only.
  const auto& plat = sim::platform(PlatformId::kDeepLens);
  tune::TuneDb db;
  auto run = [&](bool fallback) {
    Rng rng(10);
    models::Model m =
        models::build_ssd(rng, models::SsdBackbone::kMobileNet, 256);
    std::set<graph::OpKind> cpu_ops;
    if (fallback) cpu_ops = {graph::OpKind::kSsdDetection};
    graph::optimize(m.graph, cpu_ops);
    tune::TuneOptions topts;
    topts.n_trials = 24;
    graphtune::tune_graph_layouts(m.graph, plat.gpu, db, topts);
    ExecOptions opts;
    opts.compute_numerics = false;
    Rng r(11);
    return graph::execute(m.graph, plat, opts, r).latency_ms;
  };
  const double gpu_only = run(false);
  const double with_fb = run(true);
  EXPECT_LT(std::abs(with_fb - gpu_only) / gpu_only, 0.05);
}

TEST(Integration, MemoryPlannerShrinksRealModels) {
  Rng rng(12);
  models::Model m = models::build_resnet50(rng, 224);
  graph::optimize(m.graph);
  const graph::MemoryPlan plan = plan_memory(m.graph);
  // Buffer reuse must cut intermediate memory by a large factor on a deep
  // chain-dominated network.
  EXPECT_LT(plan.total_bytes() * 3, plan.unshared_bytes);
  EXPECT_GT(plan.buffer_bytes.size(), 1u);
}

TEST(Integration, BaselineAndOursAgreeOnModelCoverage) {
  Rng rng(13);
  auto zoo = models::build_all(rng, false);
  EXPECT_EQ(zoo.size(), 6u);
  int openvino_unsupported = 0;
  for (const auto& m : zoo) {
    const auto r = baselines::run_baseline(
        baselines::VendorLib::kOpenVino, m,
        sim::platform(PlatformId::kDeepLens));
    if (!r.supported) ++openvino_unsupported;
    // ACL and cuDNN support everything.
    EXPECT_TRUE(baselines::run_baseline(baselines::VendorLib::kAcl, m,
                                        sim::platform(PlatformId::kAiSage))
                    .supported);
    EXPECT_TRUE(baselines::run_baseline(baselines::VendorLib::kCudnnMxnet, m,
                                        sim::platform(PlatformId::kJetsonNano))
                    .supported);
  }
  EXPECT_EQ(openvino_unsupported, 3);  // the three detection models
}

TEST(Integration, BatchEntriesAreIndependent) {
  // Running a batch-2 model must compute, for batch entry 0, exactly what a
  // batch-1 run computes on the same input prefix (every operator treats
  // batch entries independently).
  Rng rng1(20);
  models::Model m2 = models::build_squeezenet(rng1, 64, /*batch=*/2, 10);
  Rng rng2(20);
  models::Model m1 = models::build_squeezenet(rng2, 64, /*batch=*/1, 10);
  graph::optimize(m2.graph);
  graph::optimize(m1.graph);
  ExecOptions opts;
  // The input node draws numel values from the rng in order, so batch 0 of
  // the batch-2 input equals the whole batch-1 input for the same seed.
  Rng in1(77), in2(77);
  const auto r2 = graph::execute(m2.graph, sim::platform(PlatformId::kDeepLens),
                                 opts, in1);
  const auto r1 = graph::execute(m1.graph, sim::platform(PlatformId::kDeepLens),
                                 opts, in2);
  ASSERT_EQ(r2.output.shape(), Shape({2, 10}));
  ASSERT_EQ(r1.output.shape(), Shape({1, 10}));
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(r2.output.data_f32()[i], r1.output.data_f32()[i], 1e-5f);
  }
  // Batch 2 costs more than batch 1 but less than 2x (better occupancy).
  EXPECT_GT(r2.latency_ms, r1.latency_ms);
  EXPECT_LT(r2.latency_ms, r1.latency_ms * 2.0);
}

TEST(Integration, EventTraceAccountsForTotalLatency) {
  Rng rng(14);
  models::Model m = models::build_squeezenet(rng, 64, 1, 10);
  tune::TuneDb db;
  const ExecResult r =
      full_pipeline(m, sim::platform(PlatformId::kAiSage), db, false);
  double sum = 0.0;
  for (const auto& e : r.events) sum += e.ms;
  EXPECT_NEAR(sum, r.latency_ms, 1e-6);
  EXPECT_NEAR(r.conv_ms + r.vision_ms + r.copy_ms + r.other_ms, r.latency_ms,
              1e-6);
}

}  // namespace
}  // namespace igc
