// Graph-level optimization passes (Sec. 3.2.3 "general graph-level
// optimizations" and Sec. 3.1.2 heterogeneous placement).
//
// Each pass rewrites the node list in place and returns the number of
// rewrites it performed. Rewiring passes (fold, fuse, precompute) leave
// bypassed nodes in the list as unreferenced pass-through markers so node
// ids stay stable *within* the pass; the dead-node-elimination pass (or the
// placement rebuild) then actually removes them and renumbers the survivors.
// Compaction is mandatory: plan_memory() refuses a graph with a dead node,
// so downstream stages (memory planner, executor, JIT lowering, trace spans)
// only ever see a compact, fully-live graph.
//
// These free functions are the raw rewrites; src/graph/pass_manager.h wraps
// them as named `Pass` objects composed into an instrumented `PassPipeline`.
#pragma once

#include <set>

#include "graph/graph.h"

namespace igc::graph {

struct PassStats {
  int folded_scale_shifts = 0;
  int fused_activations = 0;
  /// Nodes replaced by pre-computed constants (constant_precompute).
  int precomputed_constants = 0;
  /// Dead pass-through nodes removed by compaction (dce).
  int removed_dead_nodes = 0;
  /// Device counts over live nodes only.
  int gpu_nodes = 0;
  int cpu_nodes = 0;
  int copies_inserted = 0;
};

/// Folds ScaleShift (inference batch norm) nodes that directly follow a
/// convolution into the convolution's weights and bias ("simplifying
/// inference for batch-norm"). The ScaleShift node becomes a pass-through.
int fold_scale_shift_pass(Graph& g);

/// Fuses Activation nodes into the preceding Conv2d / Add / ScaleShift /
/// Dense as an epilogue (Node::fused_activation), removing one elementwise
/// kernel launch per fusion.
int fuse_activation_pass(Graph& g);

/// Constant pre-computing (Sec. 3.2.3): evaluates every node whose inputs
/// are all bound constants at compile time and replaces it with a kConstant
/// node holding the result (graph::reference_output(), the executor's own
/// rule), so the work never runs at inference time. Walks in topological
/// order, so whole constant subgraphs collapse in one run; the absorbed
/// feeder constants become dead (removed by compaction).
int constant_precompute_pass(Graph& g);

/// Dead-node elimination with graph compaction: removes every node
/// unreachable from the output (the pass-through markers left by rewiring
/// passes) and renumbers the survivors densely, preserving topological
/// order. After this pass every node id is live, as plan_memory() requires.
int dead_node_elimination_pass(Graph& g);

/// Heterogeneous placement, exactly as described in Sec. 3.1.2:
/// pass 1 tags every node GPU if its op kind is in the known-performant
/// list (everything except `cpu_ops`), else CPU; pass 2 inserts a
/// device_copy node between any two directly connected nodes with different
/// devices (rebuilding the node list, which also drops any dead nodes).
/// Returns the number of copies inserted.
int placement_pass(Graph& g, const std::set<OpKind>& cpu_ops);

/// Runs the default pipeline (see pass_manager.h: fold, fuse, precompute,
/// dce, place). Vision ops stay on the GPU unless listed in `cpu_ops` (the
/// fallback set).
PassStats optimize(Graph& g, const std::set<OpKind>& cpu_ops = {});

}  // namespace igc::graph
