#include "graphtune/graph_tuner.h"

#include <algorithm>
#include <limits>
#include <set>

#include "core/error.h"
#include "ops/nn/nn_ops.h"
#include "tune/conv_tuner.h"

namespace igc::graphtune {

std::vector<int> layout_candidates(const ops::Conv2dParams& p,
                                   const sim::DeviceSpec& dev) {
  std::vector<int> out{1};
  const int64_t cog = p.out_channels / p.groups;
  const int64_t cig = p.in_channels / p.groups;
  for (int b : {4, 8, 16}) {
    if (b > dev.simd_width * 2) continue;  // pointless beyond 2x SIMD width
    if (cog % b == 0 && cig % b == 0) out.push_back(b);
  }
  return out;
}

double transform_cost_ms(const sim::DeviceSpec& dev, int64_t numel,
                         int from_block, int to_block) {
  if (from_block == to_block) return 0.0;
  return sim::estimate_latency_ms(
      dev, ops::layout_transform_kernel_cost("layout_transform", numel));
}

namespace {

/// Kernel latency of one conv under one layout, tuning on first use.
double tuned_kernel_ms(const ops::Conv2dParams& p, const sim::DeviceSpec& dev,
                       int block, tune::TuneDb& db,
                       const tune::TuneOptions& opts) {
  return tune::tune_conv2d(p, dev, block, db, opts).best_ms;
}

}  // namespace

GraphTuneResult tune_graph_layouts(graph::Graph& g, const sim::DeviceSpec& dev,
                                   tune::TuneDb& db,
                                   const tune::TuneOptions& opts) {
  const std::vector<int> convs = g.conv_node_ids();
  GraphTuneResult result;
  if (convs.empty()) return result;

  // conv_sources[node] = conv ancestors reachable through non-conv nodes.
  std::vector<std::set<int>> conv_sources(static_cast<size_t>(g.num_nodes()));
  for (const graph::Node& n : g.nodes()) {
    for (int in : n.inputs) {
      const graph::Node& p = g.node(in);
      if (p.is_conv()) {
        conv_sources[static_cast<size_t>(n.id)].insert(in);
      } else {
        const auto& src = conv_sources[static_cast<size_t>(in)];
        conv_sources[static_cast<size_t>(n.id)].insert(src.begin(), src.end());
      }
    }
  }

  // Direct conv->conv edges and per-conv consumer counts.
  std::map<int, std::vector<int>> conv_preds;  // conv id -> pred conv ids
  std::map<int, int> conv_consumers;           // conv id -> #conv consumers
  for (int id : convs) conv_consumers[id] = 0;
  for (int id : convs) {
    const graph::Node& n = g.node(id);
    std::set<int> preds;
    for (int in : n.inputs) {
      const graph::Node& p = g.node(in);
      if (p.is_conv()) {
        preds.insert(in);
      } else {
        const auto& src = conv_sources[static_cast<size_t>(in)];
        preds.insert(src.begin(), src.end());
      }
    }
    conv_preds[id] = {preds.begin(), preds.end()};
    for (int p : preds) conv_consumers[p]++;
  }

  // dp[conv][block] = apportioned cost of this conv's subtree given it runs
  // with `block`, including upstream transforms.
  std::map<int, std::map<int, double>> dp;
  for (int id : convs) {
    const graph::Node& n = g.node(id);
    for (int block : layout_candidates(n.conv, dev)) {
      double cost = tuned_kernel_ms(n.conv, dev, block, db, opts);
      for (int p : conv_preds[id]) {
        const graph::Node& pn = g.node(p);
        const int64_t edge_numel = pn.out_shape.numel();
        const double share =
            1.0 / static_cast<double>(std::max(conv_consumers[p], 1));
        double best = std::numeric_limits<double>::infinity();
        for (const auto& [pb, pcost] : dp[p]) {
          best = std::min(best, pcost * share +
                                    transform_cost_ms(dev, edge_numel, pb, block));
        }
        IGC_CHECK(std::isfinite(best));
        cost += best;
      }
      dp[id][block] = cost;
    }
  }

  // Total: sinks (convs with no conv consumer) pay a final transform back to
  // NCHW if they end blocked (downstream ops expect plain layout).
  double total = 0.0;
  for (int id : convs) {
    if (conv_consumers[id] != 0) continue;
    const graph::Node& n = g.node(id);
    double best = std::numeric_limits<double>::infinity();
    for (const auto& [b, c] : dp[id]) {
      best = std::min(c + transform_cost_ms(dev, n.out_shape.numel(), b, 1),
                      best);
    }
    total += best;
  }
  result.tuned_ms = total;

  // Backtrack: choose, per conv in reverse topological order, the block that
  // minimizes its dp cost plus the downstream transform given the already
  // chosen consumer layouts.
  std::map<int, std::vector<int>> conv_succs;
  for (const auto& [id, preds] : conv_preds) {
    for (int p : preds) conv_succs[p].push_back(id);
  }
  for (auto it = convs.rbegin(); it != convs.rend(); ++it) {
    const int id = *it;
    const graph::Node& n = g.node(id);
    double best = std::numeric_limits<double>::infinity();
    int best_block = 1;
    for (const auto& [b, c] : dp[id]) {
      double downstream = 0.0;
      if (conv_succs[id].empty()) {
        downstream = transform_cost_ms(dev, n.out_shape.numel(), b, 1);
      } else {
        for (int s : conv_succs[id]) {
          downstream += transform_cost_ms(dev, n.out_shape.numel(), b,
                                          result.layout_of_conv.at(s));
        }
      }
      if (c + downstream < best) {
        best = c + downstream;
        best_block = b;
      }
    }
    result.layout_of_conv[id] = best_block;
  }

  // Baseline: all plain NCHW.
  for (int id : convs) {
    result.nchw_ms += tuned_kernel_ms(g.node(id).conv, dev, 1, db, opts);
  }
  write_schedules(g, dev, result.layout_of_conv, &db);
  return result;
}

void write_schedules(graph::Graph& g, const sim::DeviceSpec& dev,
                     const std::map<int, int>& layout_of_conv,
                     const tune::TuneDb* db) {
  for (int id : g.conv_node_ids()) {
    graph::Node& n = g.node(id);
    const auto it = layout_of_conv.find(id);
    const int block = it == layout_of_conv.end() ? 1 : it->second;
    n.schedule = tune::lookup_or_default(n.conv, dev, block, db);
  }
}

}  // namespace igc::graphtune
