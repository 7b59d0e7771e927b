// Graph-level layout tuning (Sec. 3.2.3 "Graph-level tuning: Graph Tuner",
// after Liu et al. [26]).
//
// Every convolution may run in plain NCHW or in a channel-blocked NCHW[x]c
// layout. Blocked layouts make the kernel faster (contiguous SIMD loads)
// but converting between layouts costs memory traffic. The graph tuner runs
// dynamic programming over the conv nodes in topological order, weighing
// tuned kernel time per (workload, layout) against the transform overhead on
// every producer->consumer edge, and returns the per-conv layout choice that
// minimizes estimated end-to-end time.
//
// The DP is exact on chains and trees (each producer feeding one conv). For
// multi-consumer producers the upstream cost is apportioned across
// consumers, the standard approximation for DAGs.
//
// The result is fixed at compile time: write_schedules() stores each
// conv's schedule — its tuned record at the chosen block — on the graph node,
// the one place the executor reads it from.
#pragma once

#include <map>
#include <vector>

#include "graph/graph.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"
#include "tune/tuner.h"

namespace igc::graphtune {

struct GraphTuneResult {
  /// Chosen layout block per conv node id (1 = plain NCHW).
  std::map<int, int> layout_of_conv;
  /// Estimated conv + transform time with the chosen layouts.
  double tuned_ms = 0.0;
  /// Estimated conv time with every conv in NCHW (no transforms).
  double nchw_ms = 0.0;
};

/// Candidate layout blocks for one conv workload on one device: 1 plus the
/// blocks from {4, 8, 16} that divide both channel counts (per group).
std::vector<int> layout_candidates(const ops::Conv2dParams& p,
                                   const sim::DeviceSpec& dev);

/// Cost of transforming a tensor of `numel` elements between two layouts
/// (0 when equal).
double transform_cost_ms(const sim::DeviceSpec& dev, int64_t numel,
                         int from_block, int to_block);

/// Tunes every conv workload under every candidate layout (records land in
/// `db`), solves the layout-assignment DP, and writes the chosen schedules
/// onto `g` (write_schedules with `db`).
GraphTuneResult tune_graph_layouts(graph::Graph& g, const sim::DeviceSpec& dev,
                                   tune::TuneDb& db,
                                   const tune::TuneOptions& opts = {});

/// Sets every conv node's `schedule`: the `db` record of its workload at its
/// block in `layout_of_conv` (1 when absent), or the hand-written template at
/// that block when `db` is null or holds no record. Looks up only; never
/// tunes.
void write_schedules(graph::Graph& g, const sim::DeviceSpec& dev,
                     const std::map<int, int>& layout_of_conv,
                     const tune::TuneDb* db);

}  // namespace igc::graphtune
