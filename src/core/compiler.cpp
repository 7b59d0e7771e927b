#include "core/compiler.h"

#include <chrono>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/jit_lower.h"
#include "core/error.h"
#include "graph/shape_infer.h"
#include "graphtune/graph_tuner.h"
#include "obs/metrics.h"
#include "ops/nn/conv2d.h"

namespace igc {

CompiledModel compile(models::Model model, const sim::Platform& platform,
                      const CompileOptions& opts) {
  CompiledModel cm;
  cm.name_ = model.name;
  cm.platform_ = &platform;
  cm.graph_ = std::move(model.graph);
  graph::PassPipelineOptions popts;
  popts.dump_graph_after = opts.dump_graph_after;
  popts.dump_stream = opts.dump_stream;
  const graph::PassPipeline pipeline = graph::build_pipeline(
      opts.pass_names, opts.disabled_passes, opts.cpu_fallback_ops,
      std::move(popts));
  cm.pass_report_ = pipeline.run(cm.graph_);
  cm.pass_stats_ = graph::pass_stats_from(cm.pass_report_, cm.graph_);
  // Plan memory once, before tuning: the plan depends only on shapes and
  // liveness, and plan_memory() refuses a graph the pipeline left
  // uncompacted, so a bad pipeline fails before any trial runs. Every
  // dynamic-shape binding reuses this plan with re-resolved sizes — zero
  // replanning at run time (the graph.plan.plans metric stays flat).
  cm.plan_ =
      std::make_shared<const graph::MemoryPlan>(graph::plan_memory(cm.graph_));
  if (opts.warm_db != nullptr) cm.db_ = *opts.warm_db;
  cm.tuned_ = !opts.skip_tuning;
  // Every conv's schedule lands on its node here, once: tuned, or the
  // template under skip_tuning (never the warm records).
  if (!opts.skip_tuning) {
    tune::TuneOptions topts;
    topts.n_trials = opts.tune_trials;
    topts.strategy = opts.strategy;
    topts.journal = opts.tune_journal;
    cm.layouts_ =
        graphtune::tune_graph_layouts(cm.graph_, platform.gpu, cm.db_, topts)
            .layout_of_conv;
  } else {
    graphtune::write_schedules(cm.graph_, platform.gpu, {}, nullptr);
  }

  if (opts.backend == Backend::kJit) {
    auto& cache = codegen::jit::KernelCache::shared(opts.kernel_cache_dir);
    codegen::jit::LowerResult lr =
        codegen::jit::build_dispatch_table(cm.graph_, cache);
    cm.jit_ = lr.table;
    cm.jit_kernels_ = lr.kernels;
    cm.jit_nodes_covered_ = lr.nodes_covered;
    cm.jit_error_ = lr.error;
  }
  return cm;
}

RunResult CompiledModel::run(const RunOptions& opts) const {
  // Resolve the shape binding first: a non-seed (batch, hw) runs the cached
  // variant — rebound graph with its conv schedules rewritten, re-resolved
  // buffer sizes over the same buffer assignment. The seed binding runs the
  // compiled graph exactly as before.
  const ShapeVariant* variant = resolve_variant(opts.batch, opts.input_hw);
  const graph::Graph& run_graph = variant != nullptr ? variant->graph : graph_;
  const graph::MemoryPlan* plan =
      variant != nullptr ? &variant->plan : plan_.get();

  graph::ExecOptions eopts;
  eopts.compute_numerics = opts.compute_numerics;
  eopts.mode = opts.mode;
  eopts.trace = opts.trace;
  // JIT kernels are specialized to the seed shapes; non-seed bindings take
  // the reference path (bit-identical numerics, host time only).
  if (opts.backend != RunBackend::kInterp && variant == nullptr) {
    eopts.jit = jit_.get();
  }
  if (opts.trace != nullptr) {
    obs::TraceMeta meta;
    meta.model = name_;
    meta.platform = platform_->name;
    meta.mode =
        opts.mode == graph::ExecMode::kWavefront ? "wavefront" : "sequential";
    opts.trace->begin(std::move(meta));
  }

  // The context whose arena this run's node outputs live in.
  ServingContext* ctx = opts.serving_context;
  std::unique_lock<std::mutex> serving_lock;
  std::unique_ptr<ServingContext> per_call;
  if (ctx != nullptr) {
    // A worker-private context: the caller guarantees exclusivity, so no
    // model-wide lock — this is what lets a serving pool run one model
    // concurrently across workers.
    IGC_CHECK(ctx->plan_ == plan)
        << "the serving context (batch " << ctx->batch_ << ", hw " << ctx->hw_
        << ") was not built for this model at this run's shape binding — "
           "build it with make_serving_context(batch, hw, pool)";
  } else if (opts.use_arena) {
    // The persistent context: its buffers are shared, so runs serialize on
    // the model. Its arena owns a private pool and keeps page runs cached
    // across calls; a binding change rebuilds it over the new plan.
    serving_lock = std::unique_lock<std::mutex>(serving_->mu);
    std::unique_ptr<ServingContext>& own = serving_->context;
    if (own == nullptr || own->plan_ != plan) {
      own = new_context(variant, nullptr);
    }
    ctx = own.get();
  } else {
    // A per-call arena over the binding's compiled plan: pages come from the
    // model's pool and go back when the call ends, so concurrent calls do
    // not serialize and nothing is replanned.
    per_call = new_context(variant, page_pool());
    ctx = per_call.get();
  }
  eopts.plan = ctx->plan_;
  eopts.arena = ctx->arena_.get();

  Rng rng(opts.input_seed);
  const auto host_t0 = std::chrono::steady_clock::now();
  RunResult out = graph::execute(run_graph, *platform_, eopts, rng);
  const double host_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - host_t0)
                             .count();

  // Serving telemetry: every run() feeds the process-wide latency families,
  // so a sampler or /metrics scrape can watch tail latency on a live
  // endpoint. run.latency_ms and the per-category families are simulated
  // times (deterministic per run); run.host_ms is real wall clock (the only
  // non-deterministic metric a run records).
  auto& m = obs::MetricsRegistry::global();
  static auto& run_latency = m.histogram("run.latency_ms");
  static auto& run_host = m.histogram("run.host_ms");
  static auto& run_conv = m.histogram("run.conv_ms");
  static auto& run_vision = m.histogram("run.vision_ms");
  static auto& run_copy = m.histogram("run.copy_ms");
  static auto& run_fallback = m.histogram("run.fallback_ms");
  static auto& run_other = m.histogram("run.other_ms");
  run_latency.observe(out.latency_ms);
  run_host.observe(host_ms);
  run_conv.observe(out.conv_ms);
  run_vision.observe(out.vision_ms);
  run_copy.observe(out.copy_ms);
  run_fallback.observe(out.fallback_ms);
  run_other.observe(out.other_ms);
  return out;
}

RunResult CompiledModel::run(uint64_t input_seed, bool compute_numerics) const {
  RunOptions opts;
  opts.input_seed = input_seed;
  opts.compute_numerics = compute_numerics;
  return run(opts);
}

graph::MemoryPlan CompiledModel::memory_plan() const { return *plan_; }

const CompiledModel::ShapeVariant* CompiledModel::resolve_variant(
    int64_t batch, int64_t input_hw) const {
  const graph::ShapeSpec& spec = graph_.shape_spec();
  const int64_t b = batch == 0 ? spec.seed_batch : batch;
  const int64_t hw = input_hw;
  if (b == spec.seed_batch && (hw == 0 || hw == spec.seed_hw)) return nullptr;
  graph::validate_binding(spec, b, hw);
  const std::pair<int64_t, int64_t> key{b, hw == 0 ? spec.seed_hw : hw};

  std::lock_guard<std::mutex> lock(serving_->variants_mu);
  auto it = serving_->variants.find(key);
  if (it != serving_->variants.end()) return it->second.get();

  auto v = std::make_unique<ShapeVariant>();
  v->batch = key.first;
  v->hw = key.second;
  v->graph = graph::rebind_shapes(graph_, b, hw == spec.seed_hw ? 0 : hw);
  // Same buffer assignment and release lists, re-resolved sizes — no
  // plan_memory() call.
  v->plan = *plan_;
  v->plan.buffer_bytes = graph::resolve_buffer_bytes(*plan_, v->graph);
  v->plan.unshared_bytes = 0;
  for (const graph::Node& n : v->graph.nodes()) {
    v->plan.unshared_bytes += n.out_shape.numel() * 4;
  }
  // A rebound conv is a different workload: look it up at the same block
  // (no tuning trials happen here).
  graphtune::write_schedules(v->graph, platform_->gpu, layouts_,
                             tuned_ ? &db_ : nullptr);
  const ShapeVariant* raw = v.get();
  serving_->variants.emplace(key, std::move(v));
  return raw;
}

int64_t ServingContext::arena_bytes() const {
  return arena_->capacity_bytes();
}

int64_t ServingContext::arena_page_bytes() const {
  return arena_->page_bytes_held();
}

const std::shared_ptr<PagePool>& ServingContext::page_pool() const {
  return arena_->pool();
}

std::shared_ptr<PagePool> CompiledModel::page_pool() const {
  std::lock_guard<std::mutex> lock(serving_->variants_mu);
  if (serving_->pool == nullptr) serving_->pool = std::make_shared<PagePool>();
  return serving_->pool;
}

std::unique_ptr<ServingContext> CompiledModel::make_serving_context() const {
  return make_serving_context(0, 0, nullptr);
}

std::unique_ptr<ServingContext> CompiledModel::make_serving_context(
    int64_t batch, int64_t input_hw, std::shared_ptr<PagePool> pool) const {
  // Pages return to the shared pool per request.
  return new_context(resolve_variant(batch, input_hw),
                     pool != nullptr ? std::move(pool) : page_pool());
}

std::unique_ptr<ServingContext> CompiledModel::new_context(
    const ShapeVariant* variant, std::shared_ptr<PagePool> pool) const {
  auto ctx = std::unique_ptr<ServingContext>(new ServingContext());
  const graph::ShapeSpec& spec = graph_.shape_spec();
  ctx->plan_ = variant != nullptr ? &variant->plan : plan_.get();
  ctx->batch_ = variant != nullptr ? variant->batch : spec.seed_batch;
  ctx->hw_ = variant != nullptr ? variant->hw : spec.seed_hw;
  const std::vector<int64_t>& bytes = ctx->plan_->buffer_bytes;
  ctx->arena_ = pool != nullptr
                    ? std::make_unique<PagedArena>(bytes, std::move(pool))
                    : std::make_unique<PagedArena>(bytes);
  return ctx;
}

std::vector<std::string> CompiledModel::pass_pipeline() const {
  std::vector<std::string> names;
  names.reserve(pass_report_.size());
  for (const auto& st : pass_report_) names.push_back(st.pass);
  return names;
}

std::map<std::string, std::string> CompiledModel::generated_sources() const {
  std::map<std::string, std::string> out;
  for (int id : graph_.conv_node_ids()) {
    const auto& p = graph_.node(id).conv;
    if (p.groups != 1) continue;  // IR lowering covers non-grouped conv
    const std::string key = p.workload_key();
    if (out.count(key)) continue;
    tune::ScheduleConfig cfg = graph_.node(id).schedule;
    // The IR lowering tiles along oc/ow; fall back to safe divisors if the
    // tuned tiles do not divide (remainder handling is a codegen TODO).
    auto fix_tile = [&](const char* knob, int64_t extent) {
      int64_t t = cfg.get_or(knob, 1);
      if (t <= 0 || extent % t != 0) cfg.set(knob, 1);
    };
    fix_tile("tile_oc", p.out_channels);
    fix_tile("tile_ow", p.out_w());
    const ir::LoweredKernel kernel = ops::conv2d_build_ir(p, cfg);
    out.emplace(key, codegen::emit_for_device(kernel, platform_->gpu));
  }
  return out;
}

}  // namespace igc
