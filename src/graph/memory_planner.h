// Static memory planning for graph execution, with dynamic-shape binding.
//
// Integrated GPUs share scarce DRAM with the CPU (the paper notes Acer
// aiSage must shrink SSD inputs to 300x300 because of Mali memory limits),
// so the runtime plans intermediate-buffer reuse ahead of time: each node's
// output gets a buffer id, and buffers are recycled once the last consumer
// has run.
//
// The plan alone decides storage. An alias (Flatten, DeviceCopy: see
// graph::is_alias) is stored in its input's buffer, so every value belongs to
// a *storage root*, the non-alias value that owns the buffer. A root stays
// live until the last consumer of any value stored in it, and only roots are
// released; the executor views an alias's buffer under the alias's shape and
// acquires nothing for it.
//
// The plan is split into a shape-independent part and a shape-dependent
// part. Buffer *assignment* (buffer_of_node, buffer_holders, release_after)
// depends only on liveness — which nodes exist and who consumes whom — so it
// survives any rebinding of batch/resolution within a model's ShapeSpec. Buffer
// *sizes* are symbolic: per-element cost x the node's extent at the bound
// shape, resolved by resolve_buffer_bytes() against a shape-bound graph.
// plan_memory() therefore runs once per compile; new shape bindings only
// re-resolve sizes (counted by the graph.plan.plans metric — a dynamic-shape
// run must not increment it).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace igc::graph {

struct MemoryPlan {
  /// Buffer id assigned to each node's output (every node gets one: the
  /// planned graph is compact). An alias gets its input's buffer.
  std::vector<int> buffer_of_node;
  /// For each node, the storage roots it is the last consumer of (of the root
  /// or of any alias of it; each root once, in the order of the last input
  /// edge stored in it), which the executor releases after the node runs.
  /// Aliases are never listed, nor is the graph output's root: it escapes
  /// the run.
  std::vector<std::vector<int>> release_after;
  /// Size in bytes of each buffer at the shape the plan was made (or last
  /// rebound) for. The PagedArena resolves this to page counts at bind time.
  std::vector<int64_t> buffer_bytes;
  /// Node ids sharing each buffer, in execution order (the inverse of
  /// buffer_of_node; an alias is listed with its root, at the same element
  /// count). resolve_buffer_bytes() reads it to re-size buffers at a new
  /// shape binding.
  std::vector<std::vector<int>> buffer_holders;

  int64_t total_bytes() const {
    int64_t t = 0;
    for (int64_t b : buffer_bytes) t += b;
    return t;
  }
  /// Total bytes if every node had a private buffer (for reporting).
  int64_t unshared_bytes = 0;
};

/// Greedy liveness-based buffer assignment: a root's buffer is reusable after
/// the last consumer of any value stored in it executes. Weights/constants
/// are not counted (they are resident for the model's lifetime). Increments the
/// graph.plan.plans metric — dynamic-shape rebinding must go through
/// resolve_buffer_bytes() instead of replanning. Throws igc::Error when a
/// node does not reach the output: compaction (the dce or place pass) is
/// mandatory before planning.
MemoryPlan plan_memory(const Graph& g);

/// Resolves the plan's buffer sizes against `shaped` — a graph with the same
/// node structure as the one the plan was made from, but with shapes rebound
/// (see graph/shape_infer.h). Returns one size per buffer: the max over the
/// buffer's holders of numel x 4 bytes. Shape-independent by construction in
/// everything except the sizes, so this is the whole cost of a rebinding.
std::vector<int64_t> resolve_buffer_bytes(const MemoryPlan& plan,
                                          const Graph& shaped);

}  // namespace igc::graph
