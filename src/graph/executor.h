// The heterogeneous graph executor.
//
// Runs an optimized graph against a simulated platform. Every run walks its
// nodes in id (topological) order on the calling thread; data parallelism
// lives inside a node (the JIT's grid split, the simulator's work-groups and
// the SSD and YOLOv3 decodes over ThreadPool::global(), whose parallel_for
// also runs chunks on the calling thread, so a node finishes even when every
// pool thread is busy). Each run computes two simulated time models from the
// same per-node charges, and ExecMode picks which one it reports as its
// latency:
//
//   * kSequential — the serial sum of every kernel charge (one in-order
//     queue, the paper's baseline executor).
//   * kWavefront  — the critical-path makespan of a deterministic per-lane
//     schedule (GPU queue, companion CPU, copy engine — see
//     sim::LaneSchedule), where independent branches (Inception limbs,
//     SSD/YOLO heads) and CPU-fallback operators overlap GPU work.
//
// Outputs, ClockEvents and counters are therefore identical in both modes.
// Every node draws its synthetic data from a private Rng seeded from (input
// seed, node name), so its numerics do not depend on which nodes ran before.
//
// Each conv runs the schedule compiled onto its node (Node::schedule, whose
// layout_block knob is its activation layout); the executor never consults a
// tuning database. A conv without one runs the hand-written template in NCHW.
//
// Every node output lives in a plan-backed PagedArena (see
// src/tensor/arena.h): each node acquires the buffer its MemoryPlan assigns,
// except an alias (Flatten, DeviceCopy), which views its input's buffer
// under its own shape, and after each node the run releases the storage
// roots MemoryPlan::release_after lists for it, so buffers are recycled
// across nodes within a run and, when the caller keeps the arena
// (CompiledModel does), across repeated runs — steady-state serving then
// performs no intermediate heap allocations for node outputs.
//
// One node step: charge the layout transforms on its input edges; run the
// input, constant, alias or vision case; or else charge the tensor op from
// its shapes and schedule, then store a placeholder (numerics off), the JIT
// kernel's output, or reference_output().
//
// Two execution modes for numerics:
//   * numerics on  — every operator computes its real output (tests,
//     examples, small inputs);
//   * numerics off — compute-heavy tensor ops propagate shapes only while
//     still charging their cost; vision ops always run functionally, on
//     synthetic-but-realistic detection inputs (graph/synthetic.h), because
//     their cost depends on the data distribution. This mode makes
//     full-size model benchmarks (SSD at 512x512) cheap on the host.
//
// A numerics-off run computes only the data a later step reads:
//   * An input node is filled only when its data is read: it is the graph
//     output, or a vision op consumes it directly or through Flatten /
//     DeviceCopy aliases (an input feeding box_nms or ROIAlign). Otherwise
//     it is a placeholder.
//   * A detection head that is a placeholder is synthesized from the
//     consuming node's Rng, element by element, and never filled.
//     yolo_decode reads a (cell, anchor)'s class logits only when its
//     objectness can reach conf_thresh, and their sigmoids only when the
//     bound from their max can. ssd_detection reads an anchor's class
//     logits only when one of their detection draws fires, and its deltas
//     only when it passes valid_thresh, skipping the softmax of anchors a
//     bound proves rejected. The CPU NMS sorts only rows that can survive.
// Outputs, charges, ClockEvents and counters stay bit-identical to filling
// everything: the Rng is counter-based, so a synthesized element is a pure
// function of (node seed, index) whether or not its neighbours were drawn;
// each skip is taken only where the full computation provably yields the
// same row (NaN and infinities included); and every charge is computed from
// shapes, not from the host work done.
#pragma once

#include <optional>
#include <vector>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/memory_planner.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"

namespace igc::codegen::jit {
struct DispatchTable;
}

namespace igc::graph {

/// The one categorization rule behind every breakdown: ExecResult's
/// per-category fields, ClockEvent tags, and trace spans all derive from it.
/// A CPU-placed operator (other than the copies around it) is a fallback op
/// (Sec. 3.1.2) whatever its kind.
sim::OpCategory categorize(OpKind kind, Place place);

/// What a tensor op computes: node `n`'s output from its input tensors
/// through the reference operators, fused activation included. The
/// executor's reference path and constant_precompute both call it. Input,
/// constant, device-copy and vision nodes have none (std::nullopt).
std::optional<Tensor> reference_output(const Node& n,
                                       const std::vector<Tensor>& inputs);

enum class ExecMode { kSequential, kWavefront };

struct ExecOptions {
  bool compute_numerics = true;
  /// Sec. 3.1 optimizations on vision ops; off = Table 4 "Before".
  bool optimized_vision_ops = true;

  /// Time model reported as ExecResult::latency_ms (see file comment). The
  /// dispatch, outputs and every other result field are the same either way.
  ExecMode mode = ExecMode::kSequential;
  /// The arena node outputs live in and the memory plan it was sized from.
  /// Both or neither (validated at execute() entry): with neither, the run
  /// plans memory itself and builds a private arena; pass a persistent pair
  /// to reuse buffers across runs. Concurrent runs must not share one.
  PagedArena* arena = nullptr;
  const MemoryPlan* plan = nullptr;

  /// Host-JIT dispatch table for this graph (codegen/jit_lower.h). Nodes
  /// present in the table compute their numerics through compiled host
  /// kernels — bit-identical to the reference implementations — writing
  /// straight into their output buffer; absent nodes (and every node when
  /// null) take the reference path. Simulated charges and counters are
  /// unaffected either way.
  const codegen::jit::DispatchTable* jit = nullptr;

  /// When set, one TraceSpan per executed node is appended to this recorder
  /// (simulated lane windows, host dispatch times, category, shapes, bytes,
  /// chosen conv schedule). Spans are recorded in the deterministic post-run
  /// merge, so tracing never perturbs outputs or simulated times. The
  /// recorder must outlive the run; concurrent runs must not share one.
  obs::TraceRecorder* trace = nullptr;
};

struct ExecResult {
  Tensor output;
  /// Simulated end-to-end latency under the chosen time model: serial_ms for
  /// kSequential, critical_path_ms for kWavefront.
  double latency_ms = 0.0;
  /// Serial sum of every node's charge (== kSequential latency).
  double serial_ms = 0.0;
  /// Per-lane critical-path makespan (== kWavefront latency). Filled in
  /// every run, so one run reports both time models.
  double critical_path_ms = 0.0;
  /// Per-category breakdown of the serial sum, attributed by categorize():
  /// conv / vision / copies / CPU-fallback ops / everything else. The five
  /// fields sum to serial_ms.
  double conv_ms = 0.0;
  double vision_ms = 0.0;
  double copy_ms = 0.0;
  double fallback_ms = 0.0;
  double other_ms = 0.0;
  /// High-water mark of the arena's acquired planned-buffer bytes during the
  /// run; bounded by MemoryPlan::total_bytes().
  int64_t peak_intermediate_bytes = 0;
  /// Capacity of the arena used (the plan's total bytes).
  int64_t arena_bytes = 0;
  /// Physical page bytes the arena still held when the run finished (0 for
  /// arenas that return pages to a shared pool on release).
  int64_t arena_page_bytes = 0;
  std::vector<sim::ClockEvent> events;
  /// Hardware counters merged over every charge of the run (so counters.ms
  /// equals serial_ms up to summation order).
  sim::KernelCounters counters;
};

/// Executes `g` on `platform`. `input_rng` seeds the synthetic model input
/// (and, in shapes-only mode, the synthetic detection tensors): one value is
/// drawn from it, and every node derives a private Rng from that value and
/// its stable node name.
ExecResult execute(const Graph& g, const sim::Platform& platform,
                   const ExecOptions& opts, Rng& input_rng);

}  // namespace igc::graph
