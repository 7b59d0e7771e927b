#include "graph/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "codegen/jit.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "ops/nn/conv2d.h"
#include "ops/nn/nn_ops.h"
#include "ops/vision/nms.h"
#include "ops/vision/roi_align.h"
#include "ops/vision/yolo.h"
#include "sim/simulator.h"
#include "sim/timing_model.h"
#include "tune/conv_tuner.h"

namespace igc::graph {
namespace {

/// Tracks one node's runtime value: the tensor (always shape-correct),
/// whether its contents are real numerics or placeholder data, and the
/// planned arena buffer backing it.
struct Value {
  Tensor tensor;
  bool materialized = false;
  int arena_buffer = -1;  // arena buffer id backing this value, -1 if none
};

/// Everything one node's execution touches that must not be shared between
/// concurrently running nodes: its simulated clock/GPU and its private Rng.
/// The Rng is seeded from (run seed, node name) so synthetic data is
/// identical no matter which dispatch mode or host interleaving ran the node.
struct NodeCtx {
  sim::SimClock clock;
  sim::GpuSimulator gpu;
  Rng rng;
  std::string schedule;  // conv ScheduleConfig str, captured on traced runs
  NodeCtx(const sim::DeviceSpec& dev, uint64_t seed)
      : gpu(dev, clock), rng(seed) {}
};

/// The simulated cost and trace of one node, merged after dispatch. The
/// host_* fields are only filled on traced runs: they are written by the
/// thread that executed the node (into its private NodeRun slot) and read in
/// the single-threaded post-run merge.
struct NodeRun {
  double ms = 0.0;
  std::vector<sim::ClockEvent> events;
  double host_start_us = 0.0;  // wall clock relative to the run epoch
  double host_end_us = 0.0;
  uint64_t host_thread = 0;    // hashed std::thread::id
  std::string schedule;        // chosen conv ScheduleConfig (traced runs)
};

/// Synthetic detection-head tensors for shapes-only execution. Scores follow
/// an edge-realistic distribution: the background class dominates almost
/// every anchor, with a small fraction of genuine detections, so NMS does a
/// production-like amount of work (a few hundred to ~1k candidates).
///
/// The head layout is (B, A*C, H, W): channel ch belongs to class ch % C,
/// class 0 = background.
Tensor synthesize_ssd_cls(const Shape& shape, int64_t num_classes, Rng& rng) {
  Tensor t(shape, DType::kFloat32);
  const int64_t b = shape[0];
  const int64_t channels = shape[1];
  const int64_t hw = shape.numel() / (b * channels);
  float* p = t.data_f32();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ch = 0; ch < channels; ++ch) {
      const int64_t cls = ch % num_classes;
      for (int64_t i = 0; i < hw; ++i) {
        float v;
        if (cls == 0) {
          v = 6.0f;  // strong background logit
        } else if (rng.next_double() < 0.002) {
          v = rng.next_float(2.0f, 7.0f);  // a genuine detection
        } else {
          v = rng.next_float(-6.0f, -2.0f);
        }
        p[(bi * channels + ch) * hw + i] = v;
      }
    }
  }
  return t;
}

Tensor synthesize_yolo_head(const Shape& shape, Rng& rng) {
  // Objectness logits mostly strongly negative; decode sees ~1% positives.
  Tensor t(shape, DType::kFloat32);
  for (float& v : t.span_f32()) {
    v = rng.next_double() < 0.01 ? rng.next_float(0.0f, 2.0f)
                                 : rng.next_float(-8.0f, -4.0f);
  }
  return t;
}

Tensor synthesize_nms_input(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::full(shape, -1.0f);
  const int64_t n = shape[0] * shape[1];
  float* p = t.data_f32();
  for (int64_t i = 0; i < n; ++i) {
    if (rng.next_double() >= 0.02) continue;
    const float x1 = rng.next_float(0.0f, 0.8f);
    const float y1 = rng.next_float(0.0f, 0.8f);
    p[i * 6 + 0] = static_cast<float>(rng.next_int(0, 19));
    p[i * 6 + 1] = rng.next_float(0.05f, 1.0f);
    p[i * 6 + 2] = x1;
    p[i * 6 + 3] = y1;
    p[i * 6 + 4] = x1 + rng.next_float(0.02f, 0.2f);
    p[i * 6 + 5] = y1 + rng.next_float(0.02f, 0.2f);
  }
  return t;
}

/// Per-worker reusable buffers for JIT dispatch: the kernel-argument array
/// and the zero-padded conv input. Thread-local so steady-state serving
/// performs no per-dispatch heap allocation — the vectors grow to the
/// largest node once and are reused by every later launch on that thread.
struct WorkerScratch {
  std::vector<float*> args;
  std::vector<float> padded;
};

WorkerScratch& worker_scratch() {
  thread_local WorkerScratch scratch;
  return scratch;
}

/// Zero-pads NCHW `src` (n, c, h, w) into `dst` shaped (n, c, h+2ph, w+2pw).
/// The pad frame is zeroed so the JIT conv's out-of-bounds taps read
/// +0.0f (bit-transparent to the reference's skip-OOB accumulation).
void zero_pad_nchw(const float* src, float* dst, int64_t n, int64_t c,
                   int64_t h, int64_t w, int64_t ph, int64_t pw) {
  const int64_t hp = h + 2 * ph;
  const int64_t wp = w + 2 * pw;
  std::memset(dst, 0, static_cast<size_t>(n * c * hp * wp) * sizeof(float));
  for (int64_t plane = 0; plane < n * c; ++plane) {
    const float* s = src + plane * h * w;
    float* d = dst + plane * hp * wp + ph * wp + pw;
    for (int64_t y = 0; y < h; ++y) {
      std::memcpy(d + y * wp, s + y * w, static_cast<size_t>(w) * sizeof(float));
    }
  }
}

/// FNV-1a over the node's stable name (node ids are renumbered by passes;
/// names survive them, so differently-placed or differently-optimized builds
/// of one model synthesize identical per-node data).
uint64_t hash_name(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

class ExecutorImpl {
 public:
  ExecutorImpl(const Graph& g, const sim::Platform& platform,
               const ExecOptions& opts, Rng& input_rng)
      : g_(g), platform_(platform), opts_(opts), input_rng_(input_rng) {}

  ExecResult run() {
    g_.validate();
    validate_options();
    if (opts_.trace != nullptr) run_epoch_ = std::chrono::steady_clock::now();
    const size_t n_nodes = static_cast<size_t>(g_.num_nodes());
    values_.resize(n_nodes);
    layout_block_.assign(n_nodes, 1);
    node_runs_.resize(n_nodes);
    compute_liveness();
    base_seed_ = input_rng_.next_u64();
    setup_arena();

    // Reference counts for eager buffer release (the runtime analogue of the
    // memory planner): a node's tensor is dropped after its last consumer.
    pending_.assign(n_nodes, 0);
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      for (int in : n.inputs) ++pending_[static_cast<size_t>(in)];
    }

    try {
      // A nested execute() from a scheduler worker (a model run inside a
      // node task) must not block on its own pool: degrade to sequential
      // dispatch. Simulated timing is unaffected — it is derived from the
      // per-node charges, not from how the host interleaved them.
      if (opts_.mode == ExecMode::kWavefront &&
          !ThreadPool::scheduler().on_worker_thread()) {
        run_wavefront();
      } else {
        run_sequential();
      }
    } catch (...) {
      release_all_arena();
      throw;
    }
    return finalize();
  }

 private:
  bool live(int id) const { return live_[static_cast<size_t>(id)]; }

  /// Arena invariants, checked up front so misuse fails with a clear
  /// igc::Error instead of a deep assertion: the caller-provided (arena,
  /// plan) pair comes together or not at all, and a provided plan must have
  /// been computed from this graph.
  void validate_options() const {
    IGC_CHECK(!(opts_.arena != nullptr && opts_.plan == nullptr))
        << "ExecOptions: an arena but no plan — pass the MemoryPlan the "
           "arena was sized from (or neither, for a private per-run arena)";
    IGC_CHECK(!(opts_.arena == nullptr && opts_.plan != nullptr))
        << "ExecOptions: a plan but no arena — pass the BufferArena sized "
           "from the plan (or neither, for a private per-run arena)";
    if (opts_.plan != nullptr) {
      IGC_CHECK_EQ(static_cast<int>(opts_.plan->buffer_of_node.size()),
                   g_.num_nodes())
          << "ExecOptions: the provided MemoryPlan was computed for a "
             "different graph (node count mismatch)";
      IGC_CHECK_EQ(opts_.arena->num_buffers(),
                   static_cast<int>(opts_.plan->buffer_bytes.size()))
          << "ExecOptions: the provided BufferArena was not sized from the "
             "provided MemoryPlan (buffer count mismatch)";
    }
  }

  // Compacted graphs (the default pipeline) are fully live; the mask only
  // filters dead markers when a custom pipeline skipped compaction.
  void compute_liveness() { live_ = g_.live_mask(); }

  /// Binds the caller's (arena, plan) pair, or plans memory for this run
  /// and builds a private arena when none was passed.
  void setup_arena() {
    if (opts_.arena != nullptr) {
      plan_ = opts_.plan;
      arena_ = opts_.arena;
    } else {
      local_plan_ = plan_memory(g_);
      plan_ = &*local_plan_;
      local_arena_.emplace(local_plan_->buffer_bytes);
      arena_ = &*local_arena_;
    }
    IGC_CHECK_EQ(arena_->in_use_bytes(), 0)
        << "arena still holds buffers from a previous run";
    arena_->reset_peak();
  }

  // ----- dispatch ---------------------------------------------------------

  void run_sequential() {
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      node_runs_[static_cast<size_t>(n.id)] = exec_one(n);
      on_node_done(n);
    }
  }

  void run_wavefront() {
    const size_t n_nodes = static_cast<size_t>(g_.num_nodes());
    // Dependency edges: data inputs, plus anti-dependency edges for recycled
    // buffers — the next holder of a planned buffer must not start before
    // the previous holder and all of its readers have finished.
    std::vector<std::set<int>> deps(n_nodes);
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      for (int in : n.inputs) deps[static_cast<size_t>(n.id)].insert(in);
    }
    add_anti_deps(deps);

    std::vector<int> indeg(n_nodes, 0);
    std::vector<std::vector<int>> succ(n_nodes);
    std::vector<int> roots;
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      indeg[static_cast<size_t>(n.id)] =
          static_cast<int>(deps[static_cast<size_t>(n.id)].size());
      if (deps[static_cast<size_t>(n.id)].empty()) roots.push_back(n.id);
      for (int d : deps[static_cast<size_t>(n.id)]) {
        succ[static_cast<size_t>(d)].push_back(n.id);
      }
    }

    TaskGroup group(ThreadPool::scheduler());
    // Ready-queue depth: tasks spawned (dependencies resolved) but not yet
    // finished. The peak is a host-scheduling observable, not part of the
    // deterministic time model, so it lives in the metrics registry only.
    std::atomic<int> ready_depth{0};
    std::atomic<int> ready_peak{0};
    auto note_spawn = [&] {
      const int d = ready_depth.fetch_add(1, std::memory_order_relaxed) + 1;
      int peak = ready_peak.load(std::memory_order_relaxed);
      while (d > peak && !ready_peak.compare_exchange_weak(
                             peak, d, std::memory_order_relaxed)) {
      }
    };
    // Spawns are only issued while holding sched_mu_ (or before any task
    // runs), and group.wait() joins every task before the locals above go out
    // of scope, so the reference captures below are safe.
    std::function<void(int)> spawn = [&](int id) {
      note_spawn();
      group.run([this, &group, &succ, &indeg, &spawn, &ready_depth, id] {
        const Node& n = g_.node(id);
        NodeRun r = exec_one(n);
        std::lock_guard<std::mutex> lock(sched_mu_);
        node_runs_[static_cast<size_t>(id)] = std::move(r);
        on_node_done(n);
        ready_depth.fetch_sub(1, std::memory_order_relaxed);
        if (group.failed()) return;  // stop fanning out after an error
        for (int s : succ[static_cast<size_t>(id)]) {
          if (--indeg[static_cast<size_t>(s)] == 0) spawn(s);
        }
      });
    };
    // Roots were snapshotted before anything ran: re-reading indeg here
    // would race with finishing tasks and could spawn a node twice.
    for (int id : roots) spawn(id);
    group.wait();
    const int peak = ready_peak.load(std::memory_order_relaxed);
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("exec.ready_queue_peak").update_max(peak);
  }

  /// Anti-dependency edges derived from the memory plan's buffer holders
  /// (execution order). The planner assigns buffers walking nodes in id
  /// order and recycles a buffer only after the previous holder's last
  /// consumer, so every edge points to a higher id and the graph stays
  /// acyclic.
  void add_anti_deps(std::vector<std::set<int>>& deps) const {
    std::vector<std::vector<int>> consumers(
        static_cast<size_t>(g_.num_nodes()));
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      for (int in : n.inputs) consumers[static_cast<size_t>(in)].push_back(n.id);
    }
    // A caller-built plan whose holder lists disagree with buffer_of_node
    // would index out of range or wait on a node that never runs.
    auto holds = [&](int id, size_t buf) {
      return id >= 0 && id < g_.num_nodes() && live(id) &&
             plan_->buffer_of_node[static_cast<size_t>(id)] ==
                 static_cast<int>(buf);
    };
    for (size_t buf = 0; buf < plan_->buffer_holders.size(); ++buf) {
      const std::vector<int>& hs = plan_->buffer_holders[buf];
      for (size_t i = 0; i + 1 < hs.size(); ++i) {
        const int prev = hs[i];
        const int next = hs[i + 1];
        IGC_CHECK(holds(prev, buf) && holds(next, buf))
            << "memory plan's holders of buffer " << buf
            << " disagree with buffer_of_node";
        deps[static_cast<size_t>(next)].insert(prev);
        for (int c : consumers[static_cast<size_t>(prev)]) {
          IGC_CHECK_LT(c, next) << "memory plan reuses buffer " << buf
                                << " before its last consumer";
          deps[static_cast<size_t>(next)].insert(c);
        }
      }
    }
  }

  NodeRun exec_one(const Node& n) {
    const bool traced = opts_.trace != nullptr;
    NodeRun r;
    if (traced) {
      r.host_start_us = host_us_since_epoch();
      r.host_thread =
          std::hash<std::thread::id>{}(std::this_thread::get_id());
    }
    NodeCtx cx(platform_.gpu, base_seed_ ^ hash_name(n.name));
    cx.clock.set_tags(lane_of(n), categorize(n.kind, n.place));
    exec_node(cx, n);
    r.ms = cx.clock.total_ms();
    r.events = cx.clock.events();
    if (traced) {
      r.schedule = std::move(cx.schedule);
      r.host_end_us = host_us_since_epoch();
    }
    return r;
  }

  double host_us_since_epoch() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - run_epoch_)
        .count();
  }

  /// Post-execution bookkeeping for one node: eager release of inputs whose
  /// last consumer just ran. Called inline in sequential dispatch and under
  /// sched_mu_ in wavefront dispatch; releases happen before successors are
  /// spawned, which is what makes the anti-dependency edges sufficient for
  /// safe concurrent buffer reuse.
  void on_node_done(const Node& n) {
    for (int in : n.inputs) {
      if (--pending_[static_cast<size_t>(in)] == 0 && in != g_.output()) {
        release_value(val(in));
      }
    }
  }

  void release_value(Value& v) {
    if (v.arena_buffer < 0) return;
    v.tensor = Tensor();
    arena_->release(v.arena_buffer);
    v.arena_buffer = -1;
  }

  void release_all_arena() {
    for (Value& v : values_) release_value(v);
  }

  ExecResult finalize() {
    ExecResult result;
    // Simulated time, merged deterministically from the per-node charges in
    // topological id order: the serial sum models the sequential executor's
    // single in-order queue; the lane schedule models the wavefront executor
    // (per-device engines running independent nodes concurrently). Trace
    // spans are recorded here, from the same deterministic merge — never
    // from concurrently running node tasks.
    double serial = 0.0;
    sim::LaneSchedule lanes;
    size_t total_events = 0;
    for (const NodeRun& r : node_runs_) total_events += r.events.size();
    result.events.reserve(total_events);
    std::vector<double> finish(static_cast<size_t>(g_.num_nodes()), 0.0);
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      const NodeRun& r = node_runs_[static_cast<size_t>(n.id)];
      serial += r.ms;
      attribute(n, r.ms, result);
      double ready = 0.0;
      for (int in : n.inputs) {
        ready = std::max(ready, finish[static_cast<size_t>(in)]);
      }
      const double end = lanes.schedule(lane_of(n), ready, r.ms);
      finish[static_cast<size_t>(n.id)] = end;
      if (opts_.trace != nullptr) record_span(n, r, end);
      for (const sim::ClockEvent& e : r.events) {
        result.counters.merge(e.counters);
      }
      result.events.insert(result.events.end(), r.events.begin(),
                           r.events.end());
    }
    result.serial_ms = serial;
    record_metrics(result);
    result.critical_path_ms = finish[static_cast<size_t>(g_.output())];
    result.latency_ms = opts_.mode == ExecMode::kWavefront
                            ? result.critical_path_ms
                            : result.serial_ms;

    // The output escapes the run by copy: its buffer is recycled by the next
    // run over the same arena.
    result.output = val(g_.output()).tensor.clone();
    release_all_arena();
    result.peak_intermediate_bytes = arena_->peak_in_use_bytes();
    result.arena_bytes = arena_->capacity_bytes();
    result.arena_page_bytes = arena_->page_bytes_held();
    return result;
  }

  /// One trace span for node `n`: the simulated lane window ending at `end`
  /// plus everything captured while the node ran.
  void record_span(const Node& n, const NodeRun& r, double end) {
    obs::TraceSpan s;
    s.name = n.name;
    s.op = std::string(op_kind_name(n.kind));
    s.category = categorize(n.kind, n.place);
    s.lane = lane_of(n);
    s.sim_start_ms = end - r.ms;
    s.sim_end_ms = end;
    s.host_start_us = r.host_start_us;
    s.host_end_us = r.host_end_us;
    s.host_thread = r.host_thread;
    s.shape = n.out_shape.str();
    s.layout_block = layout_block_[static_cast<size_t>(n.id)];
    for (const sim::ClockEvent& e : r.events) {
      s.bytes += e.bytes;
      s.counters.merge(e.counters);
    }
    s.schedule = r.schedule;
    opts_.trace->record(std::move(s));
  }

  /// Batch-updates the process-wide registry from the merged run. Instrument
  /// references are resolved once per process; everything recorded here is a
  /// deterministic function of the graph and options, so repeated identical
  /// runs produce identical metric deltas.
  void record_metrics(const ExecResult& result) {
    auto& m = obs::MetricsRegistry::global();
    static auto& runs = m.counter("exec.runs");
    static auto& nodes = m.counter("exec.nodes");
    static auto& kernels = m.counter("exec.kernels_launched");
    static auto& fallbacks = m.counter("exec.fallback_ops");
    static auto& copies = m.counter("exec.copies");
    static auto& copy_bytes = m.counter("exec.copy_bytes");
    static auto& node_ms = m.histogram("exec.node_ms");
    static auto& sim_launches = m.counter("sim.launches");
    static auto& sim_flops = m.counter("sim.flops");
    static auto& sim_dram = m.counter("sim.dram_bytes");
    static auto& sim_compute_bound = m.counter("sim.compute_bound_launches");
    static auto& sim_bandwidth_bound =
        m.counter("sim.bandwidth_bound_launches");
    static auto& sim_latency_bound = m.counter("sim.latency_bound_launches");
    static auto& sim_occ_pct = m.histogram("sim.launch_occupancy_pct");
    runs.add(1);
    for (const Node& n : g_.nodes()) {
      if (!live(n.id)) continue;
      nodes.add(1);
      if (categorize(n.kind, n.place) == sim::OpCategory::kFallback) {
        fallbacks.add(1);
      }
      const double run_ms = node_runs_[static_cast<size_t>(n.id)].ms;
      node_ms.observe(run_ms);
    }
    for (const sim::ClockEvent& e : result.events) {
      if (e.lane == sim::Lane::kGpu) kernels.add(1);
      if (e.category == sim::OpCategory::kCopy) {
        copies.add(1);
        copy_bytes.add(e.bytes);
      }
      if (e.counters.launches > 0) {
        sim_launches.add(e.counters.launches);
        sim_flops.add(e.counters.flops);
        sim_dram.add(e.counters.dram_bytes);
        switch (e.counters.bound) {
          case sim::BoundKind::kCompute: sim_compute_bound.add(1); break;
          case sim::BoundKind::kBandwidth: sim_bandwidth_bound.add(1); break;
          case sim::BoundKind::kLatency: sim_latency_bound.add(1); break;
        }
        sim_occ_pct.observe(
            static_cast<int64_t>(e.counters.occupancy * 100.0));
      }
    }
  }

  static sim::Lane lane_of(const Node& n) {
    if (n.kind == OpKind::kDeviceCopy) return sim::Lane::kCopy;
    return n.place == Place::kCpu ? sim::Lane::kCpu : sim::Lane::kGpu;
  }

  static void attribute(const Node& n, double ms, ExecResult& r) {
    switch (categorize(n.kind, n.place)) {
      case sim::OpCategory::kConv:
        r.conv_ms += ms;
        break;
      case sim::OpCategory::kVision:
        r.vision_ms += ms;
        break;
      case sim::OpCategory::kCopy:
        r.copy_ms += ms;
        break;
      case sim::OpCategory::kFallback:
        r.fallback_ms += ms;
        break;
      case sim::OpCategory::kOther:
        r.other_ms += ms;
        break;
    }
  }

  // ----- value storage ----------------------------------------------------

  Value& val(int id) { return values_[static_cast<size_t>(id)]; }

  const Tensor& in_tensor(const Node& n, size_t i = 0) {
    return val(n.inputs[i]).tensor;
  }
  bool in_materialized(const Node& n) {
    for (int in : n.inputs) {
      if (!val(in).materialized) return false;
    }
    return !n.inputs.empty();
  }

  /// Views node `n`'s planned arena buffer as its output tensor.
  Tensor arena_acquire(const Node& n, const Shape& shape, DType dtype,
                       bool zero_fill) {
    const int buf = plan_->buffer_of_node[static_cast<size_t>(n.id)];
    IGC_CHECK_GE(buf, 0) << "live node " << n.name << " has no planned buffer";
    val(n.id).arena_buffer = buf;
    return arena_->acquire(buf, shape, dtype, zero_fill);
  }

  /// Stores a shape-only placeholder output. Placeholder contents are never
  /// read by any operator, so buffers stay uninitialized — except for the
  /// graph output, which escapes to the caller as zeros.
  void set_placeholder(const Node& n) {
    Value& v = val(n.id);
    v.tensor = arena_acquire(n, n.out_shape, DType::kFloat32,
                             /*zero_fill=*/n.id == g_.output());
    v.materialized = false;
  }

  /// Stores a computed output, copying it into the node's planned buffer so
  /// the result's lifetime is plan-managed.
  void set_computed(const Node& n, const Tensor& t) {
    Value& v = val(n.id);
    v.tensor = arena_acquire(n, t.shape(), t.dtype(), /*zero_fill=*/false);
    std::memcpy(v.tensor.raw_data(), t.raw_data(),
                static_cast<size_t>(t.nbytes()));
    v.materialized = true;
  }

  /// Flatten and DeviceCopy alias their input: acquire_shared() refcounts
  /// the source buffer's pages, and a later acquirer of those pages sees the
  /// outstanding reference and takes fresh ones (copy-on-reacquire), so the
  /// alias stays valid even after the source buffer is recycled.
  void set_aliased(const Node& n) {
    Value& v = val(n.id);
    const Value& src = val(n.inputs[0]);
    if (src.materialized) {
      const int buf = plan_->buffer_of_node[static_cast<size_t>(n.id)];
      IGC_CHECK_GE(buf, 0) << "live node " << n.name
                           << " has no planned buffer";
      v.tensor = arena_->acquire_shared(buf, src.arena_buffer, n.out_shape,
                                        src.tensor.dtype());
      v.arena_buffer = buf;
    } else {
      // Unmaterialized placeholders carry no data worth sharing; zero-fill
      // only when the value escapes as the graph output.
      v.tensor = arena_acquire(n, n.out_shape, src.tensor.dtype(),
                               /*zero_fill=*/n.id == g_.output());
    }
    v.materialized = src.materialized;
  }

  // ----- per-op execution -------------------------------------------------

  /// Charges one elementwise GPU kernel (or the CPU equivalent).
  void charge_elementwise(NodeCtx& cx, const Node& n, int64_t numel,
                          int inputs_per_elem, int64_t flops_per_elem) {
    if (n.place == Place::kCpu) {
      cx.clock.charge_cpu(platform_.cpu, numel * flops_per_elem,
                          4 * numel * (inputs_per_elem + 1), 0.9, n.name);
    } else {
      cx.clock.charge(platform_.gpu,
                      ops::elementwise_kernel_cost(n.name, numel,
                                                   inputs_per_elem,
                                                   flops_per_elem));
    }
  }

  /// Charges a layout transform on an edge whose producer layout block
  /// differs from what this node requires.
  void charge_layout_edges(NodeCtx& cx, const Node& n, int required_block) {
    for (int in : n.inputs) {
      const int have = layout_block_[static_cast<size_t>(in)];
      if (have == required_block) continue;
      const int64_t numel = g_.node(in).out_shape.numel();
      sim::KernelLaunch k;
      k.name = "layout_transform_" + g_.node(in).name;
      k.flops = numel;
      k.dram_read_bytes = 4 * numel;
      k.dram_write_bytes = 4 * numel;
      k.work_items = numel;
      k.work_group_size = 64;
      k.compute_efficiency = 0.6;
      // A layout transform is a GPU kernel whoever consumes its output:
      // charge it on the GPU lane explicitly so transforms feeding a
      // CPU-placed node don't book as CPU-lane time.
      cx.clock.charge_on(sim::Lane::kGpu, platform_.gpu, k);
    }
  }

  /// Layout a node's output carries forward.
  int propagate_layout(const Node& n, int own_block) {
    switch (n.kind) {
      case OpKind::kConv2d:
        return own_block;
      case OpKind::kActivation:
      case OpKind::kScaleShift:
      case OpKind::kAdd:
      case OpKind::kPool2d:
      case OpKind::kUpsample2x:
      case OpKind::kDeviceCopy:
        return n.inputs.empty()
                   ? 1
                   : layout_block_[static_cast<size_t>(n.inputs[0])];
      default:
        return 1;  // everything else requires/produces plain layout
    }
  }

  void exec_node(NodeCtx& cx, const Node& n) {
    switch (n.kind) {
      case OpKind::kInput: {
        Value& v = val(n.id);
        v.tensor = arena_acquire(n, n.out_shape, DType::kFloat32,
                                 /*zero_fill=*/false);
        for (float& x : v.tensor.span_f32()) x = cx.rng.next_float(0.0f, 1.0f);
        v.materialized = true;
        layout_block_[static_cast<size_t>(n.id)] = 1;
        return;
      }
      case OpKind::kConstant: {
        // Pre-computed at compile time and resident like a weight in unified
        // memory: charges no kernel and no clock time. The value copies into
        // its planned buffer so downstream buffer reuse stays plan-managed.
        Value& v = val(n.id);
        v.tensor = arena_acquire(n, n.out_shape, n.weight.dtype(),
                                 /*zero_fill=*/false);
        std::memcpy(v.tensor.raw_data(), n.weight.raw_data(),
                    static_cast<size_t>(n.weight.nbytes()));
        v.materialized = true;
        layout_block_[static_cast<size_t>(n.id)] = 1;
        return;
      }
      case OpKind::kConv2d:
        exec_conv(cx, n);
        return;
      case OpKind::kConv2dTranspose: {
        charge_layout_edges(cx, n, 1);
        if (n.place == Place::kCpu) {
          cx.clock.charge_cpu(platform_.cpu, n.deconv.flops(),
                              n.weight.nbytes(), 0.9, n.name);
        } else {
          cx.clock.charge(platform_.gpu,
                          ops::conv2d_transpose_kernel_cost(n.deconv,
                                                            platform_.gpu));
        }
        finish_heavy(n, [&] {
          Tensor t = ops::conv2d_transpose_reference(
              in_tensor(n), n.weight, n.bias.defined() ? &n.bias : nullptr,
              n.deconv);
          if (n.fused_activation) {
            t = ops::activation_reference(t, n.fused_act, n.fused_act_alpha);
          }
          return t;
        });
        return;
      }
      case OpKind::kScaleShift: {
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 2);
        finish_elementwise(n, [&] {
          Tensor t = ops::scale_shift_reference(in_tensor(n), n.scale, n.shift);
          return t;
        });
        return;
      }
      case OpKind::kActivation: {
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 2);
        finish_elementwise(n, [&] {
          return ops::activation_reference(in_tensor(n), n.act, n.act_alpha);
        });
        return;
      }
      case OpKind::kAdd: {
        charge_elementwise(cx, n, n.out_shape.numel(), 2, 1);
        finish_elementwise(n, [&] {
          Tensor t = ops::add_reference(in_tensor(n, 0), in_tensor(n, 1));
          if (n.fused_activation) {
            t = ops::activation_reference(t, n.fused_act, n.fused_act_alpha);
          }
          return t;
        });
        return;
      }
      case OpKind::kConcat: {
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 0);
        finish_elementwise(n, [&] {
          std::vector<Tensor> ins;
          for (int in : n.inputs) ins.push_back(val(in).tensor);
          return ops::concat_channels_reference(ins);
        });
        return;
      }
      case OpKind::kPool2d: {
        const Shape& s = g_.node(n.inputs[0]).out_shape;
        if (n.place == Place::kCpu) {
          charge_elementwise(cx, n, n.out_shape.numel(), 1,
                             n.pool.kernel * n.pool.kernel);
        } else {
          cx.clock.charge(platform_.gpu, ops::pool2d_kernel_cost(s, n.pool));
        }
        finish_elementwise(
            n, [&] { return ops::pool2d_reference(in_tensor(n), n.pool); });
        return;
      }
      case OpKind::kGlobalAvgPool: {
        charge_elementwise(cx, n, g_.node(n.inputs[0]).out_shape.numel(), 1, 1);
        finish_elementwise(
            n, [&] { return ops::global_avg_pool_reference(in_tensor(n)); });
        return;
      }
      case OpKind::kDense: {
        charge_layout_edges(cx, n, 1);
        if (n.place == Place::kCpu) {
          cx.clock.charge_cpu(platform_.cpu, n.dense.flops(),
                              n.weight.nbytes(), 0.9, n.name);
        } else {
          cx.clock.charge(platform_.gpu,
                          ops::dense_kernel_cost(n.dense, platform_.gpu));
        }
        finish_heavy(n, [&] {
          Tensor t = ops::dense_reference(in_tensor(n), n.weight,
                                          n.bias.defined() ? &n.bias : nullptr,
                                          n.dense);
          if (n.fused_activation) {
            t = ops::activation_reference(t, n.fused_act, n.fused_act_alpha);
          }
          return t;
        });
        return;
      }
      case OpKind::kFlatten: {
        charge_layout_edges(cx, n, 1);
        set_aliased(n);
        layout_block_[static_cast<size_t>(n.id)] = 1;
        return;
      }
      case OpKind::kSoftmax: {
        charge_layout_edges(cx, n, 1);
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 4);
        finish_elementwise(
            n, [&] { return ops::softmax_reference(in_tensor(n)); });
        return;
      }
      case OpKind::kUpsample2x: {
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 0);
        finish_elementwise(
            n, [&] { return ops::upsample2x_reference(in_tensor(n)); });
        return;
      }
      case OpKind::kDeviceCopy: {
        const int64_t bytes = n.out_shape.numel() * 4;
        cx.clock.charge_copy(platform_.gpu, bytes, n.name);
        set_aliased(n);
        layout_block_[static_cast<size_t>(n.id)] =
            layout_block_[static_cast<size_t>(n.inputs[0])];
        return;
      }
      case OpKind::kMultiboxDetection:
        exec_multibox(cx, n);
        return;
      case OpKind::kSsdDetection:
        exec_ssd_detection(cx, n);
        return;
      case OpKind::kYoloDecode: {
        charge_layout_edges(cx, n, 1);
        Tensor head = val(n.inputs[0]).materialized
                          ? in_tensor(n)
                          : synthesize_yolo_head(g_.node(n.inputs[0]).out_shape,
                                                 cx.rng);
        Tensor out;
        if (n.place == Place::kCpu) {
          out = ops::yolo_decode_reference(head, n.yolo);
          cx.clock.charge_cpu(platform_.cpu, head.numel() * 8, head.nbytes(),
                              0.9, n.name);
        } else {
          out = ops::yolo_decode_gpu(cx.gpu, head, n.yolo);
        }
        set_computed(n, std::move(out));
        return;
      }
      case OpKind::kDetectionConcat: {
        charge_elementwise(cx, n, n.out_shape.numel(), 1, 0);
        Tensor out = arena_acquire(n, n.out_shape, DType::kFloat32,
                                   /*zero_fill=*/false);
        int64_t off = 0;
        const int64_t bsz = n.out_shape[0];
        const int64_t total = n.out_shape[1];
        for (int in : n.inputs) {
          const Tensor& t =
              val(in).materialized
                  ? val(in).tensor
                  : synthesize_nms_input(g_.node(in).out_shape, cx.rng);
          const int64_t ni = t.shape()[1];
          for (int64_t b = 0; b < bsz; ++b) {
            std::copy(t.data_f32() + b * ni * 6, t.data_f32() + (b + 1) * ni * 6,
                      out.data_f32() + (b * total + off) * 6);
          }
          off += ni;
        }
        Value& v = val(n.id);
        v.tensor = std::move(out);
        v.materialized = true;
        return;
      }
      case OpKind::kBoxNms:
        exec_box_nms(cx, n);
        return;
      case OpKind::kRoiAlign: {
        charge_layout_edges(cx, n, 1);
        const bool have = in_materialized(n);
        Tensor feats = have ? in_tensor(n, 0)
                            : Tensor::zeros(g_.node(n.inputs[0]).out_shape);
        Tensor rois = in_tensor(n, 1);
        if (!val(n.inputs[1]).materialized) {
          // Synthesize plausible proposals inside the feature map.
          const Shape& fs = g_.node(n.inputs[0]).out_shape;
          rois = Tensor(g_.node(n.inputs[1]).out_shape, DType::kFloat32);
          for (int64_t r = 0; r < rois.shape()[0]; ++r) {
            float* row = rois.data_f32() + r * 5;
            row[0] = static_cast<float>(cx.rng.next_int(0, fs[0] - 1));
            const float x1 =
                cx.rng.next_float(0.0f, static_cast<float>(fs[3]) * 0.6f);
            const float y1 =
                cx.rng.next_float(0.0f, static_cast<float>(fs[2]) * 0.6f);
            row[1] = x1;
            row[2] = y1;
            row[3] = x1 + cx.rng.next_float(2.0f, static_cast<float>(fs[3]) * 0.4f);
            row[4] = y1 + cx.rng.next_float(2.0f, static_cast<float>(fs[2]) * 0.4f);
          }
        }
        Tensor out;
        if (n.place == Place::kCpu) {
          out = ops::roi_align_reference(feats, rois, n.roi);
          cx.clock.charge_cpu(platform_.cpu, n.out_shape.numel() * 40,
                              feats.nbytes(), 0.9, n.name);
        } else {
          out = ops::roi_align_gpu(cx.gpu, feats, rois, n.roi);
        }
        set_computed(n, std::move(out));
        return;
      }
    }
    IGC_CHECK(false) << "unhandled op " << op_kind_name(n.kind);
  }

  /// Computes node `n` through its compiled host kernel when the run carries
  /// a dispatch table covering it. Writes straight into the node's planned
  /// buffer (no set_computed copy) and splits the kernel's flattened grid
  /// over the data-parallel pool; disjoint blocks write disjoint outputs, so
  /// the partition is race-free and the result is bit-identical to the
  /// reference path regardless of chunking.
  /// Returns false when the node is not covered (caller runs the reference).
  bool try_jit(const Node& n) {
    if (opts_.jit == nullptr) return false;
    const codegen::jit::NodeKernel* k = opts_.jit->find(n.id);
    if (k == nullptr) return false;
    static auto& dispatches =
        obs::MetricsRegistry::global().counter("jit.dispatches");

    Tensor out =
        arena_acquire(n, n.out_shape, DType::kFloat32, /*zero_fill=*/false);
    WorkerScratch& scratch = worker_scratch();
    scratch.args.clear();
    for (codegen::jit::ArgKind kind : k->args) {
      scratch.args.push_back(bind_arg(kind, n, *k, out, scratch));
    }

    ThreadPool& pool = ThreadPool::global();
    const int64_t grid = k->grid;
    const int64_t chunks =
        std::min<int64_t>(grid, std::max(1, 4 * pool.num_threads()));
    float* const* args = scratch.args.data();
    codegen::jit::KernelFn fn = k->fn;
    if (chunks <= 1 || pool.on_worker_thread()) {
      fn(args, 0, grid);
    } else {
      pool.parallel_for(chunks, [args, fn, grid, chunks](int64_t c) {
        fn(args, grid * c / chunks, grid * (c + 1) / chunks);
      });
    }
    dispatches.add(1);

    Value& v = val(n.id);
    v.tensor = std::move(out);
    v.materialized = true;
    return true;
  }

  /// Resolves one kernel-argument slot to a buffer pointer. Inputs are
  /// const_cast through the uniform float** ABI; the emitted kernels declare
  /// them `const float* __restrict__` and never write them.
  float* bind_arg(codegen::jit::ArgKind kind, const Node& n,
                  const codegen::jit::NodeKernel& k, Tensor& out,
                  WorkerScratch& scratch) {
    using codegen::jit::ArgKind;
    auto mut = [](const Tensor& t) {
      return const_cast<float*>(t.data_f32());
    };
    switch (kind) {
      case ArgKind::kInput0:
        return mut(in_tensor(n, 0));
      case ArgKind::kInput1:
        return mut(in_tensor(n, 1));
      case ArgKind::kPaddedInput0: {
        const Tensor& in = in_tensor(n, 0);
        if (k.pad_h == 0 && k.pad_w == 0) return mut(in);
        const Shape& s = in.shape();
        const int64_t need =
            s[0] * s[1] * (s[2] + 2 * k.pad_h) * (s[3] + 2 * k.pad_w);
        if (static_cast<int64_t>(scratch.padded.size()) < need) {
          scratch.padded.resize(static_cast<size_t>(need));
        }
        zero_pad_nchw(in.data_f32(), scratch.padded.data(), s[0], s[1], s[2],
                      s[3], k.pad_h, k.pad_w);
        return scratch.padded.data();
      }
      case ArgKind::kWeight:
        return mut(n.weight);
      case ArgKind::kBias:
        return mut(n.bias);
      case ArgKind::kScale:
        return mut(n.scale);
      case ArgKind::kShift:
        return mut(n.shift);
      case ArgKind::kFusedScale:
        return mut(n.fused_scale);
      case ArgKind::kFusedShift:
        return mut(n.fused_shift);
      case ArgKind::kOutput:
        return out.data_f32();
    }
    IGC_CHECK(false) << "bad ArgKind";
    return nullptr;
  }

  // Elementwise helpers: numerics only when inputs are materialized.
  template <typename Fn>
  void finish_elementwise(const Node& n, Fn&& compute) {
    if (opts_.compute_numerics && in_materialized(n)) {
      if (!try_jit(n)) {
        Tensor t = compute();
        IGC_CHECK(t.shape() == n.out_shape)
            << n.name << ": " << t.shape().str();
        set_computed(n, std::move(t));
      }
    } else {
      set_placeholder(n);
    }
    layout_block_[static_cast<size_t>(n.id)] = propagate_layout(n, 1);
  }

  template <typename Fn>
  void finish_heavy(const Node& n, Fn&& compute) {
    finish_elementwise(n, std::forward<Fn>(compute));
  }

  void exec_conv(NodeCtx& cx, const Node& n) {
    const int block = [&] {
      auto it = opts_.conv_layout_block.find(n.id);
      return it == opts_.conv_layout_block.end() ? 1 : it->second;
    }();
    charge_layout_edges(cx, n, block);
    // Schedule resolution order: the pre-resolved per-node map (no string
    // key building on the hot path), then the tuning database, then the
    // hand-written template (Table 5 Before). All three agree on content —
    // the map is just the lookup hoisted to compile time.
    const tune::ScheduleConfig* pre = nullptr;
    if (opts_.conv_schedules != nullptr) {
      auto it = opts_.conv_schedules->find(n.id);
      if (it != opts_.conv_schedules->end()) pre = &it->second;
    }
    tune::ScheduleConfig looked_up;
    if (pre == nullptr) {
      looked_up =
          opts_.use_tuned_configs
              ? tune::lookup_or_default(n.conv, platform_.gpu, block, opts_.db)
              : [&] {
                  auto c = ops::conv2d_manual_schedule(n.conv, platform_.gpu);
                  c.set("layout_block", block);
                  return c;
                }();
    }
    const tune::ScheduleConfig& cfg = pre != nullptr ? *pre : looked_up;
    if (opts_.trace != nullptr) cx.schedule = cfg.str();
    if (n.place == Place::kCpu) {
      cx.clock.charge_cpu(platform_.cpu, n.conv.flops(), n.conv.min_bytes(),
                          0.9, n.name);
    } else {
      sim::KernelLaunch k = ops::conv2d_kernel_cost(n.conv, cfg, platform_.gpu);
      if (n.fused_scale_shift) k.flops += 2 * n.out_shape.numel();
      if (n.fused_activation) k.flops += n.out_shape.numel();
      cx.clock.charge(platform_.gpu, k);
    }
    if (opts_.compute_numerics && in_materialized(n)) {
      if (!try_jit(n)) {
        Tensor t = ops::conv2d_reference(
            in_tensor(n), n.weight, n.bias.defined() ? &n.bias : nullptr,
            n.conv);
        if (n.fused_scale_shift) {
          t = ops::scale_shift_reference(t, n.fused_scale, n.fused_shift);
        }
        if (n.fused_activation) {
          t = ops::activation_reference(t, n.fused_act, n.fused_act_alpha);
        }
        set_computed(n, std::move(t));
      }
    } else {
      set_placeholder(n);
    }
    layout_block_[static_cast<size_t>(n.id)] = block;
  }

  /// Shared tail of every multibox path: NMS over the decoded candidates on
  /// the placed device, with the matching cost.
  Tensor run_nms_stage(NodeCtx& cx, const Node& n, const Tensor& decoded,
                       const ops::NmsParams& nms) {
    if (n.place == Place::kCpu) {
      int64_t evals = 0;
      Tensor out = ops::box_nms_reference_counted(decoded, nms, &evals);
      const int64_t count = decoded.shape()[0] * decoded.shape()[1];
      const int64_t sort_flops = static_cast<int64_t>(
          static_cast<double>(count) *
          std::log2(static_cast<double>(count) + 2.0) * 4.0);
      cx.clock.charge_cpu(platform_.cpu, evals * 16 + sort_flops,
                          decoded.nbytes() * 2, 0.3, n.name + "_nms_cpu");
      return out;
    }
    if (opts_.optimized_vision_ops) {
      return ops::box_nms_gpu(cx.gpu, decoded, nms);
    }
    return ops::box_nms_gpu_naive(cx.gpu, decoded, nms);
  }

  void exec_multibox(NodeCtx& cx, const Node& n) {
    charge_layout_edges(cx, n, 1);
    const bool have = in_materialized(n);
    // The (B, C, N) class-probability tensor: dim 1 is the class axis
    // (class 0 = background). Synthesize realistic probabilities directly.
    Tensor cls = in_tensor(n, 0);
    if (!have) {
      const Shape& cs = g_.node(n.inputs[0]).out_shape;
      cls = Tensor(cs, DType::kFloat32);
      const int64_t nc = cs[1];
      const int64_t na = cs[2];
      for (int64_t b = 0; b < cs[0]; ++b) {
        for (int64_t c = 0; c < nc; ++c) {
          for (int64_t i = 0; i < na; ++i) {
            float v = c == 0 ? 0.95f : 0.002f;
            if (c != 0 && cx.rng.next_double() < 0.002) {
              v = cx.rng.next_float(0.2f, 0.9f);
            }
            cls.data_f32()[(b * nc + c) * na + i] = v;
          }
        }
      }
    }
    Tensor loc = have ? in_tensor(n, 1)
                      : Tensor::random_normal(g_.node(n.inputs[1]).out_shape,
                                              cx.rng, 0.3f);
    // Decode stage.
    const Tensor decoded =
        ops::multibox_decode_reference(cls, loc, n.anchors, n.mbox);
    if (n.place == Place::kCpu) {
      cx.clock.charge_cpu(platform_.cpu, cls.numel() * 4,
                          cls.nbytes() + loc.nbytes(), 0.8,
                          n.name + "_decode_cpu");
    } else {
      cx.gpu.launch_elementwise("multibox_decode",
                                cls.shape()[0] * n.anchors.shape()[0],
                                [](int64_t) {}, 2 * cls.shape()[1] + 20,
                                4 * (cls.shape()[1] + 8));
    }
    set_computed(n, run_nms_stage(cx, n, decoded, n.mbox.nms));
  }

  void exec_ssd_detection(NodeCtx& cx, const Node& n) {
    charge_layout_edges(cx, n, 1);
    const int64_t c1 = n.ssd_num_classes;
    const int64_t total = n.out_shape[1];
    const int64_t bsz = n.out_shape[0];

    // Assemble (B, C, N) class probabilities (softmax over classes) and
    // (B, N*4) localization deltas from the per-scale head tensors.
    Tensor cls_prob = Tensor::zeros(Shape{bsz, c1, total});
    Tensor loc_pred = Tensor::zeros(Shape{bsz, total * 4});
    int64_t anchor_off = 0;
    for (size_t h = 0; h + 1 < n.inputs.size(); h += 2) {
      const int cls_id = n.inputs[h];
      const int loc_id = n.inputs[h + 1];
      const Shape& cs = g_.node(cls_id).out_shape;
      const int64_t a = cs[1] / c1;
      const int64_t gh = cs[2];
      const int64_t gw = cs[3];
      const Tensor cls_t = val(cls_id).materialized
                               ? val(cls_id).tensor
                               : synthesize_ssd_cls(cs, c1, cx.rng);
      const Tensor loc_t =
          val(loc_id).materialized
              ? val(loc_id).tensor
              : Tensor::random_normal(g_.node(loc_id).out_shape, cx.rng, 0.3f);
      const float* cp = cls_t.data_f32();
      const float* lp = loc_t.data_f32();
      for (int64_t b = 0; b < bsz; ++b) {
        for (int64_t y = 0; y < gh; ++y) {
          for (int64_t x = 0; x < gw; ++x) {
            for (int64_t ai = 0; ai < a; ++ai) {
              const int64_t anchor = anchor_off + ((y * gw + x) * a + ai);
              // Softmax over the c1 class logits of this anchor.
              float maxv = -1e30f;
              for (int64_t c = 0; c < c1; ++c) {
                maxv = std::max(maxv,
                                cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x]);
              }
              double sum = 0.0;
              for (int64_t c = 0; c < c1; ++c) {
                sum += std::exp(
                    cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x] - maxv);
              }
              for (int64_t c = 0; c < c1; ++c) {
                const float e = std::exp(
                    cp[((b * a * c1 + ai * c1 + c) * gh + y) * gw + x] - maxv);
                cls_prob.data_f32()[(b * c1 + c) * total + anchor] =
                    static_cast<float>(e / sum);
              }
              for (int64_t d = 0; d < 4; ++d) {
                loc_pred.data_f32()[b * total * 4 + anchor * 4 + d] =
                    lp[((b * a * 4 + ai * 4 + d) * gh + y) * gw + x];
              }
            }
          }
        }
      }
      anchor_off += a * gh * gw;
    }
    IGC_CHECK_EQ(anchor_off, total);

    // Charge the assembly + per-anchor softmax as one elementwise kernel.
    charge_elementwise(cx, n, bsz * total * c1, 1, 6);

    // Decode stage.
    const Tensor decoded =
        ops::multibox_decode_reference(cls_prob, loc_pred, n.anchors, n.mbox);
    if (n.place == Place::kCpu) {
      cx.clock.charge_cpu(platform_.cpu, cls_prob.numel() * 4,
                          cls_prob.nbytes() + loc_pred.nbytes(), 0.8,
                          n.name + "_decode_cpu");
    } else {
      cx.gpu.launch_elementwise("ssd_decode", bsz * total, [](int64_t) {},
                                2 * c1 + 20, 4 * (c1 + 8));
    }
    set_computed(n, run_nms_stage(cx, n, decoded, n.mbox.nms));
  }

  void exec_box_nms(NodeCtx& cx, const Node& n) {
    charge_layout_edges(cx, n, 1);
    Tensor in = val(n.inputs[0]).materialized
                    ? in_tensor(n)
                    : synthesize_nms_input(g_.node(n.inputs[0]).out_shape,
                                           cx.rng);
    Tensor out;
    if (n.place == Place::kCpu) {
      int64_t evals = 0;
      out = ops::box_nms_reference_counted(in, n.nms, &evals);
      const int64_t count = in.shape()[0] * in.shape()[1];
      cx.clock.charge_cpu(
          platform_.cpu,
          evals * 16 +
              static_cast<int64_t>(static_cast<double>(count) *
                                   std::log2(static_cast<double>(count) + 2.0) * 4.0),
          in.nbytes() * 2, 0.3, n.name);
    } else if (opts_.optimized_vision_ops) {
      out = ops::box_nms_gpu(cx.gpu, in, n.nms);
    } else {
      out = ops::box_nms_gpu_naive(cx.gpu, in, n.nms);
    }
    set_computed(n, std::move(out));
  }

  const Graph& g_;
  const sim::Platform& platform_;
  const ExecOptions& opts_;
  Rng& input_rng_;
  uint64_t base_seed_ = 0;

  std::vector<Value> values_;
  std::vector<bool> live_;
  std::vector<int> layout_block_;
  std::vector<int> pending_;
  std::vector<NodeRun> node_runs_;

  // The run's storage: the caller's (plan, arena) pair, or the private one
  // setup_arena() builds when the caller passed none.
  std::optional<MemoryPlan> local_plan_;
  std::optional<BufferArena> local_arena_;
  const MemoryPlan* plan_ = nullptr;
  BufferArena* arena_ = nullptr;

  // Guards pending_/indegree bookkeeping and value release under wavefront
  // dispatch.
  std::mutex sched_mu_;

  /// Host wall-clock reference for trace dispatch times (traced runs only).
  std::chrono::steady_clock::time_point run_epoch_{};
};

}  // namespace

sim::OpCategory categorize(OpKind kind, Place place) {
  if (kind == OpKind::kDeviceCopy) return sim::OpCategory::kCopy;
  // Constants are resident data, not kernels; never a fallback regardless of
  // where placement tagged them.
  if (kind == OpKind::kConstant) return sim::OpCategory::kOther;
  if (place == Place::kCpu && kind != OpKind::kInput) {
    return sim::OpCategory::kFallback;
  }
  switch (kind) {
    case OpKind::kConv2d:
      return sim::OpCategory::kConv;
    case OpKind::kMultiboxDetection:
    case OpKind::kSsdDetection:
    case OpKind::kYoloDecode:
    case OpKind::kBoxNms:
    case OpKind::kRoiAlign:
    case OpKind::kDetectionConcat:
      return sim::OpCategory::kVision;
    default:
      return sim::OpCategory::kOther;
  }
}

ExecResult execute(const Graph& g, const sim::Platform& platform,
                   const ExecOptions& opts, Rng& input_rng) {
  return ExecutorImpl(g, platform, opts, input_rng).run();
}

}  // namespace igc::graph
