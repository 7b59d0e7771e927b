// Randomized property tests: generated graphs through the full pass
// pipeline, vision operators against their references over many seeds, and
// statistical sanity of the tuner's cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rng.h"
#include "graph/executor.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "models/common.h"
#include "ops/nn/conv2d.h"
#include "ops/vision/nms.h"
#include "ops/vision/prefix_sum.h"
#include "ops/vision/segmented_sort.h"
#include "sim/device_spec.h"
#include "tune/cost_model.h"

namespace igc {
namespace {

using graph::Graph;
using sim::PlatformId;

/// Generates a random but valid conv-net graph: a chain of conv/pool/
/// activation/scale-shift ops with occasional residual joins.
Graph random_graph(Rng& rng, int num_ops) {
  Graph g;
  int64_t channels = 4 * rng.next_int(1, 3);
  int64_t hw = 16;
  int x = g.add_input("data", Shape{1, channels, hw, hw});
  int skip = -1;
  for (int i = 0; i < num_ops; ++i) {
    const std::string name = "op" + std::to_string(i);
    switch (rng.next_int(0, 5)) {
      case 0:
      case 1: {  // conv (maybe channel-changing)
        const int64_t out_c = 4 * rng.next_int(1, 4);
        x = models::conv_bn_act(g, rng, name, x, out_c, 3, 1, 1);
        channels = out_c;
        break;
      }
      case 2: {  // pointwise conv
        const int64_t out_c = 4 * rng.next_int(1, 4);
        x = models::conv_bn_act(g, rng, name, x, out_c, 1, 1, 0);
        channels = out_c;
        break;
      }
      case 3: {  // pool (only while the map is big enough)
        if (hw >= 8) {
          ops::Pool2dParams p;
          p.kind = rng.next_int(0, 1) == 0 ? ops::PoolKind::kMax
                                           : ops::PoolKind::kAvg;
          x = g.add_pool2d(name, x, p);
          hw /= 2;
        }
        break;
      }
      case 4: {  // start or close a residual
        if (skip >= 0 && g.node(skip).out_shape == g.node(x).out_shape) {
          x = g.add_add(name, x, skip);
          skip = -1;
        } else {
          skip = x;
        }
        break;
      }
      case 5:
        x = g.add_activation(name, x, ops::Activation::kLeakyRelu, 0.1f);
        break;
    }
  }
  const int gap = g.add_global_avg_pool("gap", x);
  const int flat = g.add_flatten("flat", gap);
  g.set_output(g.add_softmax("prob", flat));
  return g;
}

class GraphFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphFuzz, PassesPreserveNumericsAndPlannerIsValid) {
  Rng build_rng(GetParam());
  const int num_ops = static_cast<int>(build_rng.next_int(3, 12));
  Rng r1(GetParam());
  Graph raw = random_graph(r1, num_ops);
  Rng r2(GetParam());
  Graph optimized = random_graph(r2, num_ops);
  graph::optimize(optimized);

  graph::ExecOptions opts;
  Rng in1(GetParam() * 7 + 1), in2(GetParam() * 7 + 1);
  const auto a = graph::execute(raw, sim::platform(PlatformId::kAiSage), opts, in1);
  const auto b =
      graph::execute(optimized, sim::platform(PlatformId::kAiSage), opts, in2);
  ASSERT_EQ(a.output.shape(), b.output.shape());
  EXPECT_LT(a.output.max_abs_diff(b.output), 1e-3f);
  // Optimization must never be slower on the simulated clock.
  EXPECT_LE(b.latency_ms, a.latency_ms * 1.0001);

  // Memory-planner invariant on the optimized graph, over storage roots: an
  // alias (Flatten, DeviceCopy) is stored in its input's buffer, so each
  // value belongs to a root, and a root's group — the root and every alias
  // of it — is live until the last consumer of any of its values.
  const graph::MemoryPlan plan = graph::plan_memory(optimized);
  const int n = optimized.num_nodes();
  std::vector<int> root(static_cast<size_t>(n));
  std::vector<int> group_last(static_cast<size_t>(n), -1);
  for (const auto& node : optimized.nodes()) {
    const size_t id = static_cast<size_t>(node.id);
    root[id] = node.id;
    if (graph::is_alias(node.kind)) {
      const size_t in = static_cast<size_t>(node.inputs[0]);
      root[id] = root[in];
      EXPECT_EQ(plan.buffer_of_node[id], plan.buffer_of_node[in])
          << "alias " << id << " is not stored in its input's buffer";
    }
    for (int in : node.inputs) {
      const size_t r = static_cast<size_t>(root[static_cast<size_t>(in)]);
      group_last[r] = std::max(group_last[r], node.id);
    }
  }
  const int out_root = root[static_cast<size_t>(optimized.output())];
  group_last[static_cast<size_t>(out_root)] = n;
  // Distinct roots that share a buffer have disjoint group lifetimes.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (root[static_cast<size_t>(i)] != i ||
          root[static_cast<size_t>(j)] != j) {
        continue;
      }
      const int bi = plan.buffer_of_node[static_cast<size_t>(i)];
      const int bj = plan.buffer_of_node[static_cast<size_t>(j)];
      if (bi < 0 || bi != bj) continue;
      EXPECT_LE(group_last[static_cast<size_t>(i)], j)
          << "roots " << i << " and " << j << " share buffer " << bi;
    }
  }
  // Each root but the output's is released exactly once, after its group's
  // last consumer; aliases and the output's root are never released.
  ASSERT_EQ(plan.release_after.size(), optimized.nodes().size());
  std::vector<int> released_at(static_cast<size_t>(n), -1);
  for (int id = 0; id < n; ++id) {
    for (int v : plan.release_after[static_cast<size_t>(id)]) {
      EXPECT_EQ(released_at[static_cast<size_t>(v)], -1)
          << "value " << v << " released twice";
      released_at[static_cast<size_t>(v)] = id;
    }
  }
  for (int v = 0; v < n; ++v) {
    const bool released = root[static_cast<size_t>(v)] == v && v != out_root;
    const int expected = released ? group_last[static_cast<size_t>(v)] : -1;
    EXPECT_EQ(released_at[static_cast<size_t>(v)], expected) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

class VisionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VisionFuzz, SegmentedSortAllVariantsAgree) {
  Rng rng(GetParam());
  const int64_t n = rng.next_int(1, 3000);
  const int64_t num_segs = rng.next_int(1, 40);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = static_cast<float>(rng.next_int(0, 20));  // heavy ties
  }
  std::vector<int64_t> cuts;
  for (int64_t i = 0; i < num_segs - 1; ++i) cuts.push_back(rng.next_int(0, n));
  std::sort(cuts.begin(), cuts.end());
  ops::Segments segs;
  segs.offsets.push_back(0);
  for (int64_t c : cuts) segs.offsets.push_back(c);
  segs.offsets.push_back(n);

  const bool desc = rng.next_int(0, 1) == 1;
  const auto expected = ops::segmented_argsort_reference(v, segs, desc);
  sim::SimClock c1, c2;
  sim::GpuSimulator g1(sim::platform(PlatformId::kDeepLens).gpu, c1);
  sim::GpuSimulator g2(sim::platform(PlatformId::kJetsonNano).gpu, c2);
  const int64_t block = rng.next_int(0, 1) == 0 ? 0 : rng.next_int(8, 256);
  EXPECT_EQ(ops::segmented_argsort_gpu(g1, v, segs, desc, block), expected);
  EXPECT_EQ(ops::segmented_argsort_gpu_naive(g2, v, segs, desc), expected);
}

TEST_P(VisionFuzz, PrefixSumArbitraryProcessorCounts) {
  Rng rng(GetParam() * 13);
  const int64_t n = rng.next_int(1, 5000);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.next_int(-3, 3));
  const auto expected = ops::prefix_sum_reference(v);
  sim::SimClock clock;
  sim::GpuSimulator gpu(sim::platform(PlatformId::kAiSage).gpu, clock);
  const int procs = static_cast<int>(rng.next_int(1, 200));
  EXPECT_EQ(ops::prefix_sum_gpu(gpu, v, procs), expected);
}

TEST_P(VisionFuzz, NmsAllVariantsAgreeUnderRandomParams) {
  Rng rng(GetParam() * 31);
  const int64_t bsz = rng.next_int(1, 3);
  const int64_t n = rng.next_int(5, 400);
  Tensor in(Shape{bsz, n, 6}, DType::kFloat32);
  for (int64_t i = 0; i < bsz * n; ++i) {
    float* row = in.data_f32() + i * 6;
    const bool invalid = rng.next_double() < 0.1;
    row[0] = invalid ? -1.0f : static_cast<float>(rng.next_int(0, 5));
    row[1] = rng.next_float(0.0f, 1.0f);
    const float x1 = rng.next_float(0.0f, 0.8f);
    const float y1 = rng.next_float(0.0f, 0.8f);
    row[2] = x1;
    row[3] = y1;
    row[4] = x1 + rng.next_float(0.01f, 0.4f);
    row[5] = y1 + rng.next_float(0.01f, 0.4f);
  }
  ops::NmsParams p;
  p.iou_threshold = rng.next_float(0.2f, 0.8f);
  p.valid_thresh = rng.next_float(0.0f, 0.2f);
  p.topk = rng.next_int(0, 1) == 0 ? -1 : rng.next_int(1, n);
  p.force_suppress = rng.next_int(0, 1) == 1;

  const Tensor expected = ops::box_nms_reference(in, p);
  sim::SimClock c1, c2;
  sim::GpuSimulator g1(sim::platform(PlatformId::kAiSage).gpu, c1);
  sim::GpuSimulator g2(sim::platform(PlatformId::kDeepLens).gpu, c2);
  EXPECT_EQ(ops::box_nms_gpu(g1, in, p).max_abs_diff(expected), 0.0f);
  EXPECT_EQ(ops::box_nms_gpu_naive(g2, in, p).max_abs_diff(expected), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisionFuzz,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CostModelProperty, RanksHeldOutConfigs) {
  // Fit the boosted-stump model on half the measurements of a real config
  // space; its ranking on the held-out half must correlate positively with
  // the truth (Spearman rho).
  ops::Conv2dParams p;
  p.in_channels = p.out_channels = 64;
  p.in_h = p.in_w = 28;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  const auto& dev = sim::platform(PlatformId::kJetsonNano).gpu;
  const auto space = ops::conv2d_config_space(p, dev);
  Rng rng(99);
  std::vector<std::vector<double>> x_train, x_test;
  std::vector<double> y_train, y_test;
  for (int i = 0; i < 400; ++i) {
    const auto cfg = space.random(rng);
    const double ms = ops::conv2d_latency_ms(p, cfg, dev);
    if (i % 2 == 0) {
      x_train.push_back(tune::config_features(cfg));
      y_train.push_back(ms);
    } else {
      x_test.push_back(tune::config_features(cfg));
      y_test.push_back(ms);
    }
  }
  tune::CostModel model;
  model.fit(x_train, y_train);
  std::vector<double> pred;
  for (const auto& f : x_test) pred.push_back(model.predict(f));

  // Spearman rank correlation.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(pred);
  const auto rb = ranks(y_test);
  double d2 = 0.0;
  for (size_t i = 0; i < ra.size(); ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  const double nn = static_cast<double>(ra.size());
  const double rho = 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0));
  EXPECT_GT(rho, 0.5) << "cost model fails to rank configs";
}

}  // namespace
}  // namespace igc
