// The heterogeneous graph executor.
//
// Runs an optimized graph against a simulated platform in one of two
// dispatch modes:
//
//   * kSequential — walks nodes in topological order on the calling thread.
//     Simulated latency is the serial sum of every kernel charge (one
//     in-order queue, the paper's baseline executor).
//   * kWavefront  — dispatches every node whose dependencies have resolved
//     onto the scheduler thread pool, so independent branches (Inception
//     limbs, SSD/YOLO heads) and CPU-fallback operators execute concurrently
//     with GPU work on the host. Simulated latency is the critical-path
//     makespan of a deterministic per-lane schedule (GPU queue, companion
//     CPU, copy engine — see sim::LaneSchedule), not the serial sum.
//
// Both modes produce bit-identical outputs: every node draws its synthetic
// data from a private Rng seeded from (input seed, node name), so numerics
// never depend on dispatch order or on which nodes run concurrently.
//
// Every node output lives in a plan-backed BufferArena (see
// src/tensor/arena.h): each node acquires the buffer its MemoryPlan assigns
// and releases it after its last consumer, so buffers are recycled across
// nodes within a run and, when the caller keeps the arena (CompiledModel
// does), across repeated runs — steady-state serving then performs no
// intermediate heap allocations for node outputs. Under wavefront dispatch,
// anti-dependency edges derived from the plan keep a reused buffer from
// being acquired while a concurrent node still reads its previous contents.
//
// Two execution modes for numerics:
//   * numerics on  — every operator computes its real output (tests,
//     examples, small inputs);
//   * numerics off — compute-heavy tensor ops propagate shapes only while
//     still charging their cost; vision ops always run functionally, on
//     synthetic-but-realistic detection inputs from the workload generator,
//     because their cost depends on the data distribution. This mode makes
//     full-size model benchmarks (SSD at 512x512) cheap on the host.
#pragma once

#include <map>
#include <set>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/memory_planner.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/device_spec.h"
#include "tensor/arena.h"
#include "tune/tunedb.h"

namespace igc::codegen::jit {
struct DispatchTable;
}

namespace igc::graph {

/// The one categorization rule behind every breakdown: ExecResult's
/// per-category fields, ClockEvent tags, and trace spans all derive from it.
/// A CPU-placed operator (other than the copies around it) is a fallback op
/// (Sec. 3.1.2) whatever its kind.
sim::OpCategory categorize(OpKind kind, Place place);

enum class ExecMode { kSequential, kWavefront };

struct ExecOptions {
  bool compute_numerics = true;
  /// Sec. 3.1 optimizations on vision ops; off = Table 4 "Before".
  bool optimized_vision_ops = true;
  /// Use tuned schedules from `db` for conv2d; off = Table 5 "Before".
  bool use_tuned_configs = true;
  const tune::TuneDb* db = nullptr;
  /// Graph-tuner layout choice per conv node id (block size, 1 = NCHW).
  std::map<int, int> conv_layout_block;

  /// Dispatch mode (see file comment). Outputs are identical either way.
  ExecMode mode = ExecMode::kSequential;
  /// The arena node outputs live in and the memory plan it was sized from.
  /// Both or neither (validated at execute() entry): with neither, the run
  /// plans memory itself and builds a private arena; pass a persistent pair
  /// to reuse buffers across runs. Concurrent runs must not share one.
  BufferArena* arena = nullptr;
  const MemoryPlan* plan = nullptr;

  /// Host-JIT dispatch table for this graph (codegen/jit_lower.h). Nodes
  /// present in the table compute their numerics through compiled host
  /// kernels — bit-identical to the reference implementations — writing
  /// straight into their output buffer; absent nodes (and every node when
  /// null) take the reference path. Simulated charges and counters are
  /// unaffected either way.
  const codegen::jit::DispatchTable* jit = nullptr;
  /// Pre-resolved conv schedule per node id (CompiledModel fills this at
  /// compile time). Replaces the per-dispatch tuning-database lookup — and
  /// its workload-key string building — on the serving hot path; nodes
  /// missing from the map fall back to the lookup.
  const std::map<int, tune::ScheduleConfig>* conv_schedules = nullptr;

  /// When set, one TraceSpan per executed node is appended to this recorder
  /// (simulated lane windows, host dispatch times, category, shapes, bytes,
  /// chosen conv schedule). Spans are recorded in the deterministic post-run
  /// merge, so tracing never perturbs outputs or wavefront scheduling. The
  /// recorder must outlive the run; concurrent runs must not share one.
  obs::TraceRecorder* trace = nullptr;
};

struct ExecResult {
  Tensor output;
  /// Simulated end-to-end latency under the chosen dispatch mode: serial
  /// sum for kSequential, per-lane critical path for kWavefront.
  double latency_ms = 0.0;
  /// Serial sum of every node's charge (== kSequential latency).
  double serial_ms = 0.0;
  /// Per-lane critical-path makespan (== kWavefront latency). Also filled
  /// in sequential runs, so one run reports both time models.
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
