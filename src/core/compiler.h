// The top-level public API: compile a model for a platform, then run it.
//
// Bundles the full Fig. 1 pipeline — graph-level optimization, heterogeneous
// placement, tensor-level schedule search (AutoTVM), graph-level layout
// tuning, and code generation — behind two calls:
//
//   igc::CompileOptions copts;
//   igc::CompiledModel cm = igc::compile(std::move(model), platform, copts);
//   igc::RunResult r = cm.run();
//
// Every run executes out of buffers planned once at compile() time: node
// outputs live in a PagedArena sized from the model's memory plan (see
// ServingContext for who owns it).
//
// This is the interface the Amazon SageMaker Neo-style service in the paper
// exposes to application developers.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "graph/executor.h"
#include "graph/graph.h"
#include "graph/memory_planner.h"
#include "graph/pass_manager.h"
#include "graph/passes.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"
#include "tune/tuner.h"

namespace igc::codegen::jit {
struct DispatchTable;
}

namespace igc {

/// Which engine computes operator numerics. Simulated latencies, counters,
/// and outputs are bit-identical either way; the JIT only changes how many
/// host milliseconds a numerics-on run costs.
enum class Backend {
  kInterp,  // reference host implementations (the functional path)
  kJit,     // compiled host kernels for covered ops, reference for the rest
};

struct CompileOptions {
  /// Measurement budget per convolution workload.
  int tune_trials = 96;
  tune::SearchStrategy strategy = tune::SearchStrategy::kModelGuided;
  /// Operator kinds to fall back to the companion CPU (Sec. 3.1.2).
  std::set<graph::OpKind> cpu_fallback_ops;
  /// Reuse a pre-populated tuning database (e.g. loaded from disk) so
  /// compilation never searches the same workload twice (Sec. 3.2.3).
  const tune::TuneDb* warm_db = nullptr;
  /// Skip tuning entirely: run the hand-written templates (for comparisons).
  bool skip_tuning = false;
  /// When set, every tuning trial compile() measures is appended to this
  /// flight recorder (one record per trial: config, measured ms, predicted
  /// ms, best-so-far — see tune/journal.h). Must outlive the call.
  tune::TuneJournal* tune_journal = nullptr;

  // --- host JIT backend (see codegen/jit_lower.h) -------------------------
  /// kJit lowers every coverable operator through the host C++ codegen
  /// target, compiles one module per model through the on-disk artifact
  /// cache, and dispatches via function pointers at run time. Degrades to
  /// the reference path (with jit_error() set) when the host has no C++
  /// toolchain.
  Backend backend = Backend::kInterp;
  /// Artifact-cache directory for compiled kernels; empty resolves
  /// $IGC_KERNEL_CACHE, then ~/.cache/igc-kernels.
  std::string kernel_cache_dir;
  /// When set, JIT lowering / emission / toolchain steps record one span
  /// each on this recorder. Must outlive the call.
  obs::TraceRecorder* compile_trace = nullptr;

  // --- graph pass pipeline (see graph/pass_manager.h) ---------------------
  /// Explicit pass order; empty runs graph::default_pass_names(). Unknown
  /// names raise igc::Error at compile() time.
  std::vector<std::string> pass_names;
  /// Passes dropped from the pipeline (whatever its order). The compiler
  /// tolerates any subset: the executor and memory planner handle
  /// un-compacted and unplaced graphs.
  std::set<std::string> disabled_passes;
  /// Run Graph::validate() after every pass (compile-time cost only).
  bool validate_after_each_pass = false;
  /// Stream Graph::summary() after each named pass to `dump_stream`
  /// (std::cerr when null) — the `igc-compile --dump-graph-after` view.
  std::set<std::string> dump_graph_after;
  std::ostream* dump_stream = nullptr;
};

/// Per-run numerics-engine choice (see Backend). kAuto runs whatever
/// compile() prepared.
enum class RunBackend { kAuto, kInterp, kJit };

/// The storage one run executes out of: the memory plan of one model at one
/// shape binding plus a PagedArena sized from it. Every run uses one, owned
/// by the caller (RunOptions::serving_context), by the model (use_arena), or
/// by the call itself. A caller-owned context lets a pool of workers serve
/// the same CompiledModel concurrently, each on its own context, without
/// the model's mutex. Its arena draws pages from a shared PagePool and
/// returns them between requests (cache_runs off), so contexts across
/// workers and across tenant models recycle one physical page set instead
/// of each holding a private full-size slab. The caller guarantees at most
/// one run uses a given context at a time (a worker thread owning one
/// context per tenant model satisfies this). Created by
/// CompiledModel::make_serving_context(); it runs only on that model.
class ServingContext {
 public:
  int64_t arena_bytes() const;
  /// Physical page bytes the context's arena holds right now (0 between
  /// requests — pages live in the shared pool).
  int64_t arena_page_bytes() const;
  /// The page pool this context draws from.
  const std::shared_ptr<PagePool>& page_pool() const;
  /// The shape binding this context was built for (0 = compiled seed).
  int64_t batch() const { return batch_; }
  int64_t input_hw() const { return hw_; }

 private:
  friend class CompiledModel;
  ServingContext() = default;
  const graph::MemoryPlan* plan_ = nullptr;  // owned by the model
  std::unique_ptr<BufferArena> arena_;
  int64_t batch_ = 0;
  int64_t hw_ = 0;
};

/// Knobs for one inference call. Outputs are bit-identical across every
/// combination of mode/use_arena/serving_context/backend for a fixed
/// input_seed.
struct RunOptions {
  uint64_t input_seed = 0xbe5c;
  /// Off propagates shapes and synthetic detection data only (fast for
  /// full-size models).
  bool compute_numerics = true;
  /// kWavefront dispatches independent nodes concurrently and reports the
  /// per-lane critical-path latency instead of the serial sum.
  graph::ExecMode mode = graph::ExecMode::kSequential;
  /// Which arena holds the intermediate tensors. On: the model's persistent
  /// arena, whose private pool keeps page runs cached across calls, so
  /// repeated runs perform no page traffic (steady-state serving); runs on
  /// it serialize on the model. Off: a per-call arena over the binding's
  /// compiled plan that borrows pages from page_pool() and returns them when
  /// the call ends, so concurrent calls on one model do not serialize.
  bool use_arena = false;
  /// When set, the run starts a fresh trace on this recorder (model /
  /// platform / mode metadata) and records one span per executed node.
  /// Tracing never changes outputs. The recorder must outlive the call;
  /// concurrent runs must not share one.
  obs::TraceRecorder* trace = nullptr;
  /// kInterp forces the reference path even on a JIT-compiled model; kJit
  /// on a model compiled without a JIT module just runs the reference path
  /// (there is nothing compiled to dispatch to).
  RunBackend backend = RunBackend::kAuto;
  /// When set, intermediate tensors come from this context's arena
  /// (use_arena is ignored) and the run skips the model's mutex. The context
  /// must come from this model's make_serving_context(); at most one run may
  /// use it at a time (see ServingContext).
  ServingContext* serving_context = nullptr;
  /// Dynamic shape binding: input batch (0 = the compiled seed batch) and
  /// input resolution (0 = the compiled seed resolution), validated against
  /// the model's declared ShapeSpec. A non-seed binding reuses the compiled
  /// schedules and the memory plan's buffer assignment — zero replanning,
  /// zero retuning — re-deriving only shapes and buffer sizes (cached per
  /// binding). With a serving context, the binding must match the context's.
  int64_t batch = 0;
  int64_t input_hw = 0;
};

/// What run() returns: the executor's result (see graph::ExecResult).
using RunResult = graph::ExecResult;

class CompiledModel {
 public:
  RunResult run(const RunOptions& opts) const;

  /// Runs one inference. `compute_numerics` off propagates shapes and
  /// synthetic detection data only (fast for full-size models).
  RunResult run(uint64_t input_seed = 0xbe5c,
                bool compute_numerics = true) const;

  /// Runs one inference at a dynamic shape binding: input batch `batch`
  /// (0 = seed) at resolution `input_hw` x `input_hw` (0 = seed), within the
  /// model's declared ShapeSpec bounds. Outputs and simulated latencies are
  /// bit-identical to a model statically compiled at that shape; no
  /// replanning or retuning happens (see RunOptions::batch).
  RunResult run(int64_t batch, int64_t input_hw, const RunOptions& opts) const;

  const std::string& model_name() const { return name_; }
  const sim::Platform& platform() const { return *platform_; }
  const graph::PassStats& pass_stats() const { return pass_stats_; }
  /// Per-pass record (name, rewrites, wall ms) of the pipeline compile() ran.
  const std::vector<graph::PassRunStats>& pass_report() const {
    return pass_report_;
  }
  /// Ordered names of the passes compile() ran.
  std::vector<std::string> pass_pipeline() const;
  const tune::TuneDb& tune_db() const { return db_; }
  const std::map<int, int>& layouts() const { return layouts_; }
  /// Memory plan of the optimized graph, computed once at compile() time
  /// (dynamic-shape bindings reuse its buffer assignment unchanged).
  graph::MemoryPlan memory_plan() const;
  /// The model's declared dynamic-shape bounds.
  const graph::ShapeSpec& shape_spec() const { return graph_.shape_spec(); }

  /// Builds a private plan + arena for one serving worker (see
  /// ServingContext / RunOptions::serving_context) at the compiled seed
  /// shape, drawing pages from the model's own shared pool.
  std::unique_ptr<ServingContext> make_serving_context() const;
  /// Same, at a dynamic shape binding (`batch`/`input_hw` 0 = seed), drawing
  /// pages from `pool` — pass one pool to every tenant's contexts and they
  /// share physical pages (null = the model's own pool).
  std::unique_ptr<ServingContext> make_serving_context(
      int64_t batch, int64_t input_hw, std::shared_ptr<PagePool> pool) const;

  /// The page pool backing this model's serving contexts and per-call arenas
  /// (created on first use). The persistent use_arena context keeps a
  /// private pool: it caches its page runs across runs, so sharing would
  /// never materialize.
  std::shared_ptr<PagePool> page_pool() const;

  /// Table view of the optimized, placed graph (Graph::summary).
  std::string graph_summary() const { return graph_.summary(); }

  /// OpenCL or CUDA source (per the platform's API) for every distinct
  /// tuned convolution kernel, keyed by workload.
  std::map<std::string, std::string> generated_sources() const;

  /// True when compile() built a host-JIT module for this model (backend
  /// kJit and a working toolchain).
  bool jit_enabled() const { return jit_ != nullptr; }
  /// Distinct kernels in the JIT module / graph nodes it covers (0 without
  /// a module).
  int jit_kernels() const { return jit_kernels_; }
  int jit_nodes_covered() const { return jit_nodes_covered_; }
  /// Why the JIT backend is absent when it was requested ("" otherwise).
  const std::string& jit_error() const { return jit_error_; }

 private:
  friend CompiledModel compile(models::Model model,
                               const sim::Platform& platform,
                               const CompileOptions& opts);

  /// One cached dynamic-shape binding: the rebound graph, a plan copy with
  /// re-resolved buffer sizes (same buffer assignment), and the conv
  /// schedules resolved for the rebound workloads. Built once per distinct
  /// (batch, hw) and immutable afterwards, so concurrent runs share it.
  struct ShapeVariant {
    int64_t batch = 0;
    int64_t hw = 0;
    graph::Graph graph;
    graph::MemoryPlan plan;
    std::map<int, tune::ScheduleConfig> conv_schedules;
  };

  /// Lazily built serving state: the persistent context use_arena runs share
  /// plus the mutex that serializes them (buffers would alias otherwise),
  /// the shape-variant cache, and the model's page pool. Held behind a
  /// pointer so the model stays movable.
  struct ServingState {
    std::mutex mu;
    std::unique_ptr<ServingContext> context;  // guarded by mu
    /// Variant cache and pool, guarded by variants_mu (separate from mu so
    /// other runs never touch the persistent context's lock).
    std::mutex variants_mu;
    std::map<std::pair<int64_t, int64_t>, std::unique_ptr<ShapeVariant>>
        variants;
    std::shared_ptr<PagePool> pool;
  };

  /// Resolves (and caches) the variant for a non-seed binding; null when the
  /// binding is the seed shape. Throws igc::Error on out-of-bounds bindings.
  const ShapeVariant* resolve_variant(int64_t batch, int64_t input_hw) const;
  /// Points `ctx` at the plan and shape of `variant` (null = the seed).
  void bind_context(ServingContext& ctx, const ShapeVariant* variant) const;
  /// A context bound to `variant` whose arena draws pages from `pool`.
  std::unique_ptr<ServingContext> new_context(const ShapeVariant* variant,
                                              std::shared_ptr<PagePool> pool,
                                              bool cache_runs) const;
  /// The schedule conv node `id` of `g` runs with: its tuned-database entry
  /// at the graph tuner's layout block, or the hand-written template when
  /// compiled with skip_tuning.
  tune::ScheduleConfig conv_schedule(const graph::Graph& g, int id) const;

  std::string name_;
  graph::Graph graph_;
  /// Memory plan computed once at compile(); every binding reuses its
  /// buffer assignment (see memory_planner.h).
  std::shared_ptr<const graph::MemoryPlan> plan_;
  const sim::Platform* platform_ = nullptr;
  graph::PassStats pass_stats_;
  std::vector<graph::PassRunStats> pass_report_;
  tune::TuneDb db_;
  std::map<int, int> layouts_;
  bool tuned_ = true;
  /// Conv schedules resolved once at compile() time (ExecOptions::
  /// conv_schedules), so serving runs skip the per-dispatch db lookup.
  std::map<int, tune::ScheduleConfig> conv_schedules_;
  /// Host-JIT dispatch table (null unless compiled with Backend::kJit and a
  /// working toolchain).
  std::shared_ptr<codegen::jit::DispatchTable> jit_;
  int jit_kernels_ = 0;
  int jit_nodes_covered_ = 0;
  std::string jit_error_;
  std::shared_ptr<ServingState> serving_ = std::make_shared<ServingState>();
};

/// Compiles `model` for `platform`: optimizes the graph, tunes every conv
/// workload, and solves the layout DP. Deterministic for fixed inputs.
CompiledModel compile(models::Model model, const sim::Platform& platform,
                      const CompileOptions& opts = {});

}  // namespace igc
