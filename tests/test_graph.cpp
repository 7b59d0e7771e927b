// Tests for the computational graph, optimization passes, and memory planner.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "models/common.h"

namespace igc::graph {
namespace {

ops::Conv2dParams small_conv(int64_t ci, int64_t co, int64_t hw) {
  ops::Conv2dParams p;
  p.in_channels = ci;
  p.out_channels = co;
  p.in_h = p.in_w = hw;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  return p;
}

Graph conv_bn_relu_graph(Rng& rng) {
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const auto p = small_conv(4, 8, 8);
  Tensor w = Tensor::random_normal(Shape{8, 4, 3, 3}, rng);
  const int conv = g.add_conv2d("conv", in, p, w);
  Tensor scale = Tensor::random_uniform(Shape{8}, rng, 0.5f, 1.5f);
  Tensor shift = Tensor::random_normal(Shape{8}, rng);
  const int bn = g.add_scale_shift("bn", conv, scale, shift);
  const int relu = g.add_activation("relu", bn, ops::Activation::kRelu);
  g.set_output(relu);
  return g;
}

TEST(Graph, TopologicalConstructionEnforced) {
  Graph g;
  const int in = g.add_input("data", Shape{1, 2, 4, 4});
  EXPECT_EQ(in, 0);
  EXPECT_EQ(g.node(in).kind, OpKind::kInput);
  // Mismatched conv input shape is rejected.
  auto p = small_conv(3, 4, 4);
  EXPECT_THROW(
      g.add_conv2d("bad", in, p, Tensor::zeros(Shape{4, 3, 3, 3})), Error);
}

TEST(Graph, ShapeInference) {
  Rng rng(1);
  Graph g;
  const int in = g.add_input("data", Shape{1, 3, 32, 32});
  ops::Conv2dParams p;
  p.in_channels = 3;
  p.out_channels = 16;
  p.in_h = p.in_w = 32;
  p.kernel_h = p.kernel_w = 3;
  p.stride_h = p.stride_w = 2;
  p.pad_h = p.pad_w = 1;
  const int conv =
      g.add_conv2d("c", in, p, Tensor::random_normal(Shape{16, 3, 3, 3}, rng));
  EXPECT_EQ(g.node(conv).out_shape, Shape({1, 16, 16, 16}));
  ops::Pool2dParams pool;
  const int pl = g.add_pool2d("p", conv, pool);
  EXPECT_EQ(g.node(pl).out_shape, Shape({1, 16, 8, 8}));
  const int gap = g.add_global_avg_pool("g", pl);
  EXPECT_EQ(g.node(gap).out_shape, Shape({1, 16, 1, 1}));
  const int fl = g.add_flatten("f", gap);
  EXPECT_EQ(g.node(fl).out_shape, Shape({1, 16}));
}

TEST(Graph, ConsumersAndConvIds) {
  Rng rng(2);
  Graph g = conv_bn_relu_graph(rng);
  const auto cons = g.consumers();
  EXPECT_EQ(cons[0].size(), 1u);  // input -> conv
  EXPECT_EQ(g.conv_node_ids().size(), 1u);
  EXPECT_GT(g.total_conv_flops(), 0);
}

TEST(Passes, FoldScaleShiftRemovesNodeAndUpdatesWeights) {
  Rng rng(3);
  Graph g = conv_bn_relu_graph(rng);
  const Tensor w_before = g.node(1).weight.clone();
  const int folded = fold_scale_shift_pass(g);
  EXPECT_EQ(folded, 1);
  // The activation now reads the conv directly.
  EXPECT_EQ(g.node(3).inputs[0], 1);
  // Weights changed (scaled).
  EXPECT_GT(g.node(1).weight.max_abs_diff(w_before), 0.0f);
  EXPECT_TRUE(g.node(1).bias.defined());
}

TEST(Passes, FoldSkippedWhenConvHasMultipleConsumers) {
  Rng rng(4);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const auto p = small_conv(4, 4, 8);
  const int conv =
      g.add_conv2d("conv", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int bn = g.add_scale_shift("bn", conv, Tensor::full(Shape{4}, 2.0f),
                                   Tensor::zeros(Shape{4}));
  const int other = g.add_activation("other", conv, ops::Activation::kRelu);
  const int sum = g.add_add("sum", bn, other);
  g.set_output(sum);
  EXPECT_EQ(fold_scale_shift_pass(g), 0);
}

TEST(Passes, FuseActivationSetsEpilogue) {
  Rng rng(5);
  Graph g = conv_bn_relu_graph(rng);
  fold_scale_shift_pass(g);
  const int fused = fuse_activation_pass(g);
  EXPECT_EQ(fused, 1);
  EXPECT_TRUE(g.node(1).fused_activation);
  EXPECT_EQ(g.output(), 1);
}

TEST(Passes, PlacementInsertsCopiesAroundCpuOps) {
  Rng rng(6);
  Graph g;
  const int in = g.add_input("data", Shape{1, 100, 6});
  ops::NmsParams np;
  const int nms = g.add_box_nms("nms", in, np);
  g.set_output(nms);
  const int copies = placement_pass(g, {OpKind::kBoxNms});
  // Input (CPU) -> nms (CPU): no copy needed.
  EXPECT_EQ(copies, 0);

  Graph g2;
  const int in2 = g2.add_input("data", Shape{1, 4, 8, 8});
  const auto p = small_conv(4, 4, 8);
  const int conv = g2.add_conv2d("conv", in2, p,
                                 Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int act = g2.add_activation("relu", conv, ops::Activation::kRelu);
  g2.set_output(act);
  // Conv on GPU, activation forced to CPU: copies in (input->conv) and
  // (conv->relu).
  const int copies2 = placement_pass(g2, {OpKind::kActivation});
  EXPECT_EQ(copies2, 2);
  int copy_nodes = 0;
  for (const Node& n : g2.nodes()) {
    if (n.kind == OpKind::kDeviceCopy) ++copy_nodes;
  }
  EXPECT_EQ(copy_nodes, 2);
  g2.validate();
}

TEST(Passes, PlacementAllGpuInsertsOnlyInputUpload) {
  Rng rng(7);
  Graph g = conv_bn_relu_graph(rng);
  const int copies = placement_pass(g, {});
  // Only the input -> conv upload.
  EXPECT_EQ(copies, 1);
}

TEST(Passes, OptimizePipelineStats) {
  Rng rng(8);
  Graph g = conv_bn_relu_graph(rng);
  const PassStats stats = optimize(g);
  EXPECT_EQ(stats.folded_scale_shifts, 1);
  EXPECT_EQ(stats.fused_activations, 1);
  EXPECT_EQ(stats.copies_inserted, 1);
  EXPECT_GT(stats.gpu_nodes, 0);
  EXPECT_GT(stats.cpu_nodes, 0);  // the input node
}

// ---- memory planner -------------------------------------------------------

TEST(MemoryPlanner, ChainReusesBuffers) {
  Rng rng(9);
  Graph g;
  int x = g.add_input("data", Shape{1, 8, 16, 16});
  for (int i = 0; i < 6; ++i) {
    const auto p = small_conv(8, 8, 16);
    x = g.add_conv2d("conv" + std::to_string(i), x, p,
                     Tensor::random_normal(Shape{8, 8, 3, 3}, rng));
  }
  g.set_output(x);
  const MemoryPlan plan = plan_memory(g);
  // A chain needs only 2 rotating buffers regardless of depth.
  EXPECT_EQ(plan.buffer_bytes.size(), 2u);
  EXPECT_LT(plan.total_bytes(), plan.unshared_bytes);
}

TEST(MemoryPlanner, NoLiveIntervalsShareABuffer) {
  Rng rng(10);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const auto p = small_conv(4, 4, 8);
  const int c1 =
      g.add_conv2d("c1", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int c2 =
      g.add_conv2d("c2", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int sum = g.add_add("sum", c1, c2);  // c1 and c2 live simultaneously
  g.set_output(sum);
  const MemoryPlan plan = plan_memory(g);

  // Recompute liveness and assert the invariant directly.
  std::vector<int> last_use(static_cast<size_t>(g.num_nodes()), -1);
  for (const Node& n : g.nodes()) {
    for (int i : n.inputs) {
      last_use[static_cast<size_t>(i)] =
          std::max(last_use[static_cast<size_t>(i)], n.id);
    }
  }
  last_use[static_cast<size_t>(g.output())] = g.num_nodes();
  for (int a = 0; a < g.num_nodes(); ++a) {
    for (int b = a + 1; b < g.num_nodes(); ++b) {
      const int ba = plan.buffer_of_node[static_cast<size_t>(a)];
      const int bb = plan.buffer_of_node[static_cast<size_t>(b)];
      if (ba < 0 || bb < 0 || ba != bb) continue;
      // Same buffer: intervals [a, last_use[a]] and [b, last_use[b]] must
      // not overlap (b > a, so require last_use[a] <= b).
      EXPECT_LE(last_use[static_cast<size_t>(a)], b)
          << "nodes " << a << " and " << b << " share buffer " << ba;
    }
  }
}

TEST(MemoryPlanner, AnAliasIsStoredInItsInputsBufferUntilItsLastReader) {
  // data -> data_to_gpu -> conv -> gap -> gap_to_cpu -> flat (the output):
  // placement puts the Flatten on the CPU, so it reads a DeviceCopy.
  Rng rng(12);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const int conv = g.add_conv2d("conv", in, small_conv(4, 4, 8),
                                Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  g.set_output(g.add_flatten("flat", g.add_global_avg_pool("gap", conv)));
  ASSERT_EQ(placement_pass(g, {OpKind::kFlatten}), 2);
  const std::vector<OpKind> kinds = {OpKind::kInput, OpKind::kDeviceCopy,
                                     OpKind::kConv2d, OpKind::kGlobalAvgPool,
                                     OpKind::kDeviceCopy, OpKind::kFlatten};
  ASSERT_EQ(g.num_nodes(), static_cast<int>(kinds.size()));
  for (int id = 0; id < g.num_nodes(); ++id) {
    ASSERT_EQ(g.node(id).kind, kinds[static_cast<size_t>(id)]) << id;
  }

  const MemoryPlan plan = plan_memory(g);
  // Each alias holds its root's buffer: data's for the upload, gap's for the
  // copy back and the Flatten. data stays live until conv reads the upload,
  // so conv takes a second buffer; gap reuses data's.
  EXPECT_EQ(plan.buffer_of_node, (std::vector<int>{0, 0, 1, 0, 0, 0}));
  // Only roots are released, after the last reader of any alias of them:
  // data after conv, conv after gap. gap's group escapes as the output.
  EXPECT_EQ(plan.release_after,
            (std::vector<std::vector<int>>{{}, {}, {0}, {2}, {}, {}}));
  EXPECT_EQ(plan.buffer_holders,
            (std::vector<std::vector<int>>{{0, 1, 3, 4, 5}, {2}}));
  EXPECT_EQ(plan.buffer_bytes, (std::vector<int64_t>{4 * 8 * 8 * 4,
                                                     4 * 8 * 8 * 4}));
}

TEST(MemoryPlanner, DiamondNeedsThreeBuffers) {
  Rng rng(11);
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 8, 8});
  const auto p = small_conv(4, 4, 8);
  const int c1 =
      g.add_conv2d("c1", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int c2 =
      g.add_conv2d("c2", in, p, Tensor::random_normal(Shape{4, 4, 3, 3}, rng));
  const int sum = g.add_add("sum", c1, c2);
  g.set_output(sum);
  const MemoryPlan plan = plan_memory(g);
  EXPECT_GE(plan.buffer_bytes.size(), 3u);
}

}  // namespace
}  // namespace igc::graph
