// Tests for the graph tuner: layout candidates, transform costs, DP
// optimality (exact against exhaustive enumeration on conv chains), and the
// schedules it writes onto the conv nodes.
#include <gtest/gtest.h>

#include <limits>

#include "core/rng.h"
#include "graphtune/graph_tuner.h"
#include "tune/conv_tuner.h"

namespace igc::graphtune {
namespace {

using graph::Graph;

TEST(LayoutCandidates, RespectChannelDivisibility) {
  const auto& dev = sim::platform(sim::PlatformId::kDeepLens).gpu;
  ops::Conv2dParams p;
  p.in_channels = 24;
  p.out_channels = 48;
  p.in_h = p.in_w = 8;
  // 4 and 8 divide both; 16 divides neither.
  EXPECT_EQ(layout_candidates(p, dev), (std::vector<int>{1, 4, 8}));
  p.in_channels = 3;
  EXPECT_EQ(layout_candidates(p, dev), (std::vector<int>{1}));
}

TEST(LayoutCandidates, CappedBySimdWidth) {
  const auto& mali = sim::platform(sim::PlatformId::kAiSage).gpu;  // simd 4
  ops::Conv2dParams p;
  p.in_channels = 64;
  p.out_channels = 64;
  p.in_h = p.in_w = 8;
  const auto cands = layout_candidates(p, mali);
  for (int c : cands) EXPECT_LE(c, mali.simd_width * 2);
}

TEST(TransformCost, ZeroWhenEqualPositiveOtherwise) {
  const auto& dev = sim::platform(sim::PlatformId::kJetsonNano).gpu;
  EXPECT_EQ(transform_cost_ms(dev, 1000, 8, 8), 0.0);
  EXPECT_GT(transform_cost_ms(dev, 1000, 1, 8), 0.0);
  EXPECT_GT(transform_cost_ms(dev, 1 << 22, 1, 8),
            transform_cost_ms(dev, 1 << 10, 1, 8));
}

Graph conv_chain(Rng& rng, const std::vector<int64_t>& channels, int64_t hw) {
  Graph g;
  int x = g.add_input("data", Shape{1, channels[0], hw, hw});
  for (size_t i = 1; i < channels.size(); ++i) {
    ops::Conv2dParams p;
    p.in_channels = channels[i - 1];
    p.out_channels = channels[i];
    p.in_h = p.in_w = hw;
    p.kernel_h = p.kernel_w = 3;
    p.pad_h = p.pad_w = 1;
    x = g.add_conv2d("conv" + std::to_string(i), x, p,
                     Tensor::random_normal(
                         Shape{channels[i], channels[i - 1], 3, 3}, rng));
  }
  g.set_output(x);
  return g;
}

/// Exhaustive minimum over all per-conv layout assignments of a chain.
double exhaustive_chain_cost(const Graph& g, const sim::DeviceSpec& dev,
                             tune::TuneDb& db, const tune::TuneOptions& opts) {
  const auto convs = g.conv_node_ids();
  std::vector<std::vector<int>> cands;
  for (int id : convs) {
    cands.push_back(layout_candidates(g.node(id).conv, dev));
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<size_t> choice(cands.size(), 0);
  for (;;) {
    double cost = 0.0;
    for (size_t i = 0; i < convs.size(); ++i) {
      const int b = cands[i][choice[i]];
      cost += tune::tune_conv2d(g.node(convs[i]).conv, dev, b, db, opts).best_ms;
      if (i > 0) {
        const int pb = cands[i - 1][choice[i - 1]];
        cost += transform_cost_ms(
            dev, g.node(convs[i - 1]).out_shape.numel(), pb, b);
      }
    }
    // Final transform back to NCHW.
    cost += transform_cost_ms(dev, g.node(convs.back()).out_shape.numel(),
                              cands.back()[choice.back()], 1);
    best = std::min(best, cost);
    // Advance the mixed-radix counter.
    size_t i = 0;
    while (i < choice.size() && ++choice[i] == cands[i].size()) {
      choice[i] = 0;
      ++i;
    }
    if (i == choice.size()) break;
  }
  return best;
}

TEST(GraphTuner, DpMatchesExhaustiveOnChains) {
  Rng rng(21);
  const auto& dev = sim::platform(sim::PlatformId::kDeepLens).gpu;
  tune::TuneOptions opts;
  opts.n_trials = 24;
  for (const auto& channels :
       {std::vector<int64_t>{8, 16, 16}, std::vector<int64_t>{4, 8, 32, 16},
        std::vector<int64_t>{16, 16, 16, 16, 16}}) {
    Graph g = conv_chain(rng, channels, 14);
    tune::TuneDb db;
    const GraphTuneResult r = tune_graph_layouts(g, dev, db, opts);
    tune::TuneDb db2 = db;  // reuse tuned kernels for identical times
    const double exhaustive = exhaustive_chain_cost(g, dev, db2, opts);
    EXPECT_NEAR(r.tuned_ms, exhaustive, 1e-9)
        << "chain of " << channels.size() << " convs";
  }
}

TEST(GraphTuner, BlockedLayoutsChosenWhenProfitable) {
  Rng rng(22);
  // Deep chain of well-blocked convs: transforms amortize, blocked layouts
  // should win on at least some layers.
  Graph g = conv_chain(rng, {32, 64, 64, 64, 64, 64, 64, 32}, 28);
  const auto& dev = sim::platform(sim::PlatformId::kDeepLens).gpu;
  tune::TuneDb db;
  tune::TuneOptions opts;
  opts.n_trials = 48;
  const GraphTuneResult r = tune_graph_layouts(g, dev, db, opts);
  EXPECT_LE(r.tuned_ms, r.nchw_ms * 1.0001);
  int blocked = 0;
  for (const auto& [id, b] : r.layout_of_conv) {
    if (b > 1) ++blocked;
    // Each conv carries its tuned record at the chosen block.
    const graph::Node& n = g.node(id);
    const auto rec =
        db.get(tune::TuneDb::make_key(dev.name, n.conv.workload_key(), b));
    ASSERT_TRUE(rec.has_value()) << n.name;
    EXPECT_EQ(n.schedule, rec->config) << n.name;
    EXPECT_EQ(n.schedule.at("layout_block"), b) << n.name;
  }
  EXPECT_GT(blocked, 0);
}

TEST(GraphTuner, HandlesBranchyGraphs) {
  Rng rng(23);
  // Diamond: conv -> (conv, conv) -> add. The DP must produce a valid
  // assignment and a finite cost (the apportioning approximation).
  Graph g;
  const int in = g.add_input("data", Shape{1, 16, 14, 14});
  ops::Conv2dParams p;
  p.in_channels = 16;
  p.out_channels = 16;
  p.in_h = p.in_w = 14;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  auto w = [&] { return Tensor::random_normal(Shape{16, 16, 3, 3}, rng); };
  const int c0 = g.add_conv2d("c0", in, p, w());
  const int c1 = g.add_conv2d("c1", c0, p, w());
  const int c2 = g.add_conv2d("c2", c0, p, w());
  const int sum = g.add_add("sum", c1, c2);
  g.set_output(sum);
  const auto& dev = sim::platform(sim::PlatformId::kJetsonNano).gpu;
  tune::TuneDb db;
  tune::TuneOptions opts;
  opts.n_trials = 24;
  const GraphTuneResult r = tune_graph_layouts(g, dev, db, opts);
  EXPECT_EQ(r.layout_of_conv.size(), 3u);
  EXPECT_GT(r.tuned_ms, 0.0);
  EXPECT_TRUE(std::isfinite(r.tuned_ms));
}

TEST(GraphTuner, EmptyGraphNoConvs) {
  Graph g;
  const int in = g.add_input("data", Shape{1, 4, 4, 4});
  g.set_output(in);
  const auto& dev = sim::platform(sim::PlatformId::kDeepLens).gpu;
  tune::TuneDb db;
  const GraphTuneResult r = tune_graph_layouts(g, dev, db);
  EXPECT_TRUE(r.layout_of_conv.empty());
  EXPECT_EQ(r.tuned_ms, 0.0);
}

}  // namespace
}  // namespace igc::graphtune
