#include "graph/memory_planner.h"

#include <algorithm>

#include "core/error.h"
#include "obs/metrics.h"

namespace igc::graph {
namespace {

obs::Counter& plan_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("graph.plan.plans");
  return c;
}

}  // namespace

MemoryPlan plan_memory(const Graph& g) {
  const int n = g.num_nodes();
  // Compaction is mandatory: the executor runs every node, so a node that
  // does not reach the output would run and hold a buffer for nothing.
  const std::vector<bool> live = g.live_mask();
  const auto dead = std::find(live.begin(), live.end(), false);
  IGC_CHECK(dead == live.end())
      << "plan_memory: node '" << g.nodes()[dead - live.begin()].name
      << "' does not reach the graph output; the pass pipeline must compact "
         "the graph (include dce or place)";
  MemoryPlan plan;
  plan.buffer_of_node.assign(static_cast<size_t>(n), -1);
  plan.release_after.assign(static_cast<size_t>(n), {});

  // Liveness: node output is live from its definition to its last consumer;
  // the graph output is live to the end.
  std::vector<int> last_use(static_cast<size_t>(n), -1);
  for (const Node& node : g.nodes()) {
    for (int in : node.inputs) {
      last_use[static_cast<size_t>(in)] =
          std::max(last_use[static_cast<size_t>(in)], node.id);
    }
  }
  last_use[static_cast<size_t>(g.output())] = n;

  struct FreeBuf {
    int id;
    int64_t bytes;
  };
  std::vector<FreeBuf> free_list;
  // Buffers whose producing value dies at step i are returned after step i.
  std::vector<std::vector<int>> expiring(static_cast<size_t>(n + 1));

  for (const Node& node : g.nodes()) {
    const int64_t bytes = node.out_shape.numel() * 4;
    plan.unshared_bytes += bytes;
    // Best-fit reuse: smallest free buffer that fits.
    int best = -1;
    for (size_t i = 0; i < free_list.size(); ++i) {
      if (free_list[i].bytes >= bytes &&
          (best < 0 || free_list[i].bytes < free_list[static_cast<size_t>(best)].bytes)) {
        best = static_cast<int>(i);
      }
    }
    int buf_id;
    if (best >= 0) {
      buf_id = free_list[static_cast<size_t>(best)].id;
      free_list.erase(free_list.begin() + best);
    } else {
      buf_id = static_cast<int>(plan.buffer_bytes.size());
      plan.buffer_bytes.push_back(bytes);
      plan.buffer_holders.emplace_back();
    }
    plan.buffer_bytes[static_cast<size_t>(buf_id)] =
        std::max(plan.buffer_bytes[static_cast<size_t>(buf_id)], bytes);
    plan.buffer_of_node[static_cast<size_t>(node.id)] = buf_id;
    plan.buffer_holders[static_cast<size_t>(buf_id)].push_back(node.id);
    expiring[static_cast<size_t>(last_use[static_cast<size_t>(node.id)])]
        .push_back(buf_id);
    // Return buffers freed by values that died at this step.
    for (int freed : expiring[static_cast<size_t>(node.id)]) {
      free_list.push_back(
          {freed, plan.buffer_bytes[static_cast<size_t>(freed)]});
    }
    // The values this node reads for the last time, each listed once at its
    // last input edge.
    for (auto in = node.inputs.begin(); in != node.inputs.end(); ++in) {
      if (last_use[static_cast<size_t>(*in)] == node.id &&
          std::find(in + 1, node.inputs.end(), *in) == node.inputs.end()) {
        plan.release_after[static_cast<size_t>(node.id)].push_back(*in);
      }
    }
  }
  plan_counter().add(1);
  return plan;
}

std::vector<int64_t> resolve_buffer_bytes(const MemoryPlan& plan,
                                          const Graph& shaped) {
  std::vector<int64_t> bytes(plan.buffer_bytes.size(), 0);
  for (size_t b = 0; b < plan.buffer_holders.size(); ++b) {
    for (int node_id : plan.buffer_holders[b]) {
      IGC_CHECK_GE(node_id, 0);
      IGC_CHECK_LT(node_id, shaped.num_nodes())
          << "resolve_buffer_bytes: plan does not match the shaped graph";
      bytes[b] = std::max(bytes[b],
                          shaped.nodes()[static_cast<size_t>(node_id)]
                                  .out_shape.numel() *
                              4);
    }
  }
  return bytes;
}

}  // namespace igc::graph
