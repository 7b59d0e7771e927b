#include "graph/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "codegen/jit.h"
#include "core/error.h"
#include "core/hash.h"
#include "core/thread_pool.h"
#include "graph/synthetic.h"
#include "obs/metrics.h"
#include "ops/nn/conv2d.h"
#include "ops/nn/nn_ops.h"
#include "ops/vision/nms.h"
#include "ops/vision/roi_align.h"
#include "ops/vision/yolo.h"
#include "sim/simulator.h"
#include "sim/timing_model.h"

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

/// The simulated cost and trace of one node, merged after dispatch: the
/// contiguous range of the run clock's events the node appended, and their
/// sum. The host_* fields are only filled on traced runs.
struct NodeRun {
  double ms = 0.0;
  size_t events_begin = 0;
  size_t events_end = 0;
  double host_start_us = 0.0;  // wall clock relative to the run epoch
  double host_end_us = 0.0;
};

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

class ExecutorImpl {
 public:
  ExecutorImpl(const Graph& g, const sim::Platform& platform,
               const ExecOptions& opts, Rng& input_rng)
      : g_(g), platform_(platform), opts_(opts), input_rng_(input_rng) {}

  ExecResult run() {
    g_.validate();
    validate_options();
    if (opts_.trace != nullptr) {
      run_epoch_ = std::chrono::steady_clock::now();
      host_thread_ = std::hash<std::thread::id>{}(std::this_thread::get_id());
    }
    const size_t n_nodes = static_cast<size_t>(g_.num_nodes());
    values_.resize(n_nodes);
    node_runs_.resize(n_nodes);
    compute_layouts();
    compute_data_reads();
    base_seed_ = input_rng_.next_u64();
    setup_arena();

    try {
      // Every node runs in id (topological) order on the calling thread; the
      // mode only picks which time model finalize() reports. After each
      // node, the values it read for the last time go back to the arena.
      for (const Node& n : g_.nodes()) {
        node_runs_[static_cast<size_t>(n.id)] = exec_one(n);
        for (int v : plan_->release_after[static_cast<size_t>(n.id)]) {
          release_value(val(v));
        }
      }
    } catch (...) {
      release_all_arena();
      throw;
    }
    return finalize();
  }

 private:
  /// Arena invariants, checked up front so misuse fails with a clear
  /// igc::Error instead of a deep assertion: the caller-provided (arena,
  /// plan) pair comes together or not at all, and a provided plan must have
  /// been computed from this graph.
  void validate_options() const {
    IGC_CHECK(!(opts_.arena != nullptr && opts_.plan == nullptr))
        << "ExecOptions: an arena but no plan — pass the MemoryPlan the "
           "arena was sized from (or neither, for a private per-run arena)";
    IGC_CHECK(!(opts_.arena == nullptr && opts_.plan != nullptr))
        << "ExecOptions: a plan but no arena — pass the PagedArena sized "
           "from the plan (or neither, for a private per-run arena)";
    if (opts_.plan != nullptr) {
      IGC_CHECK(static_cast<int>(opts_.plan->buffer_of_node.size()) ==
                    g_.num_nodes() &&
                static_cast<int>(opts_.plan->release_after.size()) ==
                    g_.num_nodes())
          << "ExecOptions: the provided MemoryPlan was computed for a "
             "different graph (node count mismatch)";
      IGC_CHECK_EQ(opts_.arena->num_buffers(),
                   static_cast<int>(opts_.plan->buffer_bytes.size()))
          << "ExecOptions: the provided PagedArena was not sized from the "
             "provided MemoryPlan (buffer count mismatch)";
    }
  }

  /// The layout block each node's output carries: a conv its schedule's
  /// layout_block (the unscheduled template is NCHW, block 1), the
  /// layout-transparent ops their first input's, everything else block 1.
  void compute_layouts() {
    layout_block_.assign(static_cast<size_t>(g_.num_nodes()), 1);
    for (const Node& n : g_.nodes()) {
      int& block = layout_block_[static_cast<size_t>(n.id)];
      switch (n.kind) {
        case OpKind::kConv2d:
          block = static_cast<int>(n.schedule.get_or("layout_block", 1));
          break;
        case OpKind::kActivation:
        case OpKind::kScaleShift:
        case OpKind::kAdd:
        case OpKind::kPool2d:
        case OpKind::kUpsample2x:
        case OpKind::kDeviceCopy:
          block = layout_block_[static_cast<size_t>(n.inputs[0])];
          break;
        default:
          break;
      }
    }
  }

  /// The layout block node `n` reads its inputs in: a conv its own, the
  /// plain-layout consumers 1. 0 reads whatever arrives, charging no
  /// transform (layout-transparent ops, concat, global pooling, ...).
  int required_layout(const Node& n) const {
    switch (n.kind) {
      case OpKind::kConv2d:
        return layout_block_[static_cast<size_t>(n.id)];
      case OpKind::kConv2dTranspose:
      case OpKind::kDense:
      case OpKind::kFlatten:
      case OpKind::kSoftmax:
      case OpKind::kSsdDetection:
      case OpKind::kYoloDecode:
      case OpKind::kBoxNms:
      case OpKind::kRoiAlign:
        return 1;
      default:
        return 0;
    }
  }

  /// Marks the nodes whose output data some later step reads. With numerics
  /// on, that is every node. With numerics off, the only readers are the
  /// vision ops, which decode a materialized input instead of synthesizing
  /// one, and the graph output, which escapes to the caller; Flatten and
  /// DeviceCopy alias their input, so a read of the alias reads it too. An
  /// input node nothing reads stays a placeholder (see kInput).
  void compute_data_reads() {
    const size_t n_nodes = static_cast<size_t>(g_.num_nodes());
    data_read_.assign(n_nodes, opts_.compute_numerics);
    if (opts_.compute_numerics) return;
    data_read_[static_cast<size_t>(g_.output())] = true;
    for (int id = g_.num_nodes() - 1; id >= 0; --id) {
      const Node& n = g_.node(id);
      bool reads = false;
      switch (n.kind) {
        case OpKind::kSsdDetection:
        case OpKind::kYoloDecode:
        case OpKind::kDetectionConcat:
        case OpKind::kBoxNms:
        case OpKind::kRoiAlign:
          reads = true;
          break;
        case OpKind::kFlatten:
        case OpKind::kDeviceCopy:
          reads = data_read_[static_cast<size_t>(id)];
          break;
        default:
          break;
      }
      if (!reads) continue;
      for (int in : n.inputs) data_read_[static_cast<size_t>(in)] = true;
    }
  }

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

  /// Runs node `n` on the run's clock, tagged with the node's lane and
  /// category. Its Rng is seeded from (run seed, node name), so a node's
  /// synthetic data does not depend on which nodes ran before it. Its `ms`
  /// sums its events in order from 0.0, the additions a clock of its own
  /// would make.
  NodeRun exec_one(const Node& n) {
    const bool traced = opts_.trace != nullptr;
    NodeRun r;
    if (traced) r.host_start_us = host_us_since_epoch();
    r.events_begin = clock_.events().size();
    clock_.set_tags(lane_of(n), categorize(n.kind, n.place));
    // Seeded from the node's stable name, not its id: passes renumber ids,
    // names survive them, so differently-placed or differently-optimized
    // builds of one model synthesize identical per-node data.
    Rng rng(base_seed_ ^ fnv1a(n.name));
    exec_node(rng, n);
    r.events_end = clock_.events().size();
    for (size_t i = r.events_begin; i < r.events_end; ++i) {
      r.ms += clock_.events()[i].ms;
    }
    if (traced) r.host_end_us = host_us_since_epoch();
    return r;
  }

  double host_us_since_epoch() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - run_epoch_)
        .count();
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
    // topological id order: the serial sum models one in-order queue
    // (kSequential); the lane schedule models per-device engines running
    // independent nodes concurrently (kWavefront). Trace spans are recorded
    // here, from the same merge.
    double serial = 0.0;
    sim::LaneSchedule lanes;
    std::vector<double> finish(static_cast<size_t>(g_.num_nodes()), 0.0);
    for (const Node& n : g_.nodes()) {
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
    }
    // The clock holds every node's events, in node order.
    result.events = clock_.take_events();
    for (const sim::ClockEvent& e : result.events) {
      result.counters.merge(e.counters);
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
    s.host_thread = host_thread_;
    s.shape = n.out_shape.str();
    s.layout_block = layout_block_[static_cast<size_t>(n.id)];
    for (size_t i = r.events_begin; i < r.events_end; ++i) {
      const sim::ClockEvent& e = clock_.events()[i];
      s.bytes += e.bytes;
      s.counters.merge(e.counters);
    }
    if (n.kind == OpKind::kConv2d) {
      s.schedule = n.schedule.knobs().empty()
                       ? ops::conv2d_manual_schedule(n.conv, platform_.gpu).str()
                       : n.schedule.str();
    }
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

  /// Views node `n`'s planned arena buffer as its output tensor. The buffer
  /// is recorded only once the acquire returns: a failed acquire (say, an
  /// exhausted page budget) leaves nothing for the run's unwind to release.
  Tensor arena_acquire(const Node& n, const Shape& shape, DType dtype,
                       bool zero_fill) {
    const int buf = plan_->buffer_of_node[static_cast<size_t>(n.id)];
    Tensor t = arena_->acquire(buf, shape, dtype, zero_fill);
    val(n.id).arena_buffer = buf;
    return t;
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
  void charge_elementwise(const Node& n, int64_t numel, int inputs_per_elem,
                          int64_t flops_per_elem) {
    if (n.place == Place::kCpu) {
      clock_.charge_cpu(platform_.cpu, numel * flops_per_elem,
                        4 * numel * (inputs_per_elem + 1), 0.9, n.name);
    } else {
      clock_.charge(platform_.gpu,
                    ops::elementwise_kernel_cost(n.name, numel,
                                                 inputs_per_elem,
                                                 flops_per_elem));
    }
  }

  /// Charges a layout transform on each input edge whose producer's layout
  /// block differs from the one this node requires.
  void charge_layout_edges(const Node& n) {
    const int required = required_layout(n);
    if (required == 0) return;
    for (int in : n.inputs) {
      if (layout_block_[static_cast<size_t>(in)] == required) continue;
      const Node& producer = g_.node(in);
      // A layout transform is a GPU kernel whoever consumes its output:
      // charge it on the GPU lane explicitly so transforms feeding a
      // CPU-placed node don't book as CPU-lane time.
      clock_.charge_on(sim::Lane::kGpu, platform_.gpu,
                       ops::layout_transform_kernel_cost(
                           "layout_transform_" + producer.name,
                           producer.out_shape.numel()));
    }
  }

  void exec_node(Rng& rng, const Node& n) {
    charge_layout_edges(n);
    switch (n.kind) {
      case OpKind::kInput: {
        if (!data_read_[static_cast<size_t>(n.id)]) {  // see compute_data_reads
          set_placeholder(n);
          return;
        }
        Value& v = val(n.id);
        v.tensor = arena_acquire(n, n.out_shape, DType::kFloat32,
                                 /*zero_fill=*/false);
        for (float& x : v.tensor.span_f32()) x = rng.next_float(0.0f, 1.0f);
        v.materialized = true;
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
        return;
      }
      case OpKind::kFlatten:
        set_aliased(n);
        return;
      case OpKind::kDeviceCopy: {
        const int64_t bytes = n.out_shape.numel() * 4;
        clock_.charge_copy(platform_.gpu, bytes, n.name);
        set_aliased(n);
        return;
      }
      case OpKind::kSsdDetection:
        exec_ssd_detection(rng, n);
        return;
      case OpKind::kYoloDecode: {
        // A placeholder head is synthesized element by element, only where
        // the decode reads it.
        const Shape& head = g_.node(n.inputs[0]).out_shape;
        Tensor out;
        if (val(n.inputs[0]).materialized) {
          out = ops::yolo_decode_reference(in_tensor(n), n.yolo);
        } else {
          out = ops::yolo_decode_at(head, SyntheticYoloHead(rng), n.yolo);
        }
        if (n.place == Place::kCpu) {
          clock_.charge_cpu(platform_.cpu, head.numel() * 8,
                            head.numel() * 4, 0.9, n.name);
        } else {
          ops::charge_yolo_decode_gpu(gpu_, head, n.yolo);
        }
        set_computed(n, std::move(out));
        return;
      }
      case OpKind::kDetectionConcat: {
        charge_elementwise(n, n.out_shape.numel(), 1, 0);
        Tensor out = arena_acquire(n, n.out_shape, DType::kFloat32,
                                   /*zero_fill=*/false);
        int64_t off = 0;
        const int64_t bsz = n.out_shape[0];
        const int64_t total = n.out_shape[1];
        for (int in : n.inputs) {
          const Tensor& t =
              val(in).materialized
                  ? val(in).tensor
                  : synthesize_nms_input(g_.node(in).out_shape, rng);
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
      case OpKind::kBoxNms: {
        Tensor in = val(n.inputs[0]).materialized
                        ? in_tensor(n)
                        : synthesize_nms_input(g_.node(n.inputs[0]).out_shape,
                                               rng);
        set_computed(n, run_nms(n, in, n.nms, n.name));
        return;
      }
      case OpKind::kRoiAlign: {
        const bool have = in_materialized(n);
        Tensor feats = have ? in_tensor(n, 0)
                            : Tensor::zeros(g_.node(n.inputs[0]).out_shape);
        const Tensor rois =
            val(n.inputs[1]).materialized
                ? in_tensor(n, 1)
                : synthesize_rois(g_.node(n.inputs[1]).out_shape,
                                  g_.node(n.inputs[0]).out_shape, rng);
        Tensor out;
        if (n.place == Place::kCpu) {
          out = ops::roi_align_reference(feats, rois, n.roi);
          clock_.charge_cpu(platform_.cpu, n.out_shape.numel() * 40,
                            feats.nbytes(), 0.9, n.name);
        } else {
          out = ops::roi_align_gpu(gpu_, feats, rois, n.roi);
        }
        set_computed(n, std::move(out));
        return;
      }
      default:
        break;
    }
    // A tensor op. With numerics on every value is materialized, so the
    // compute_numerics option alone decides whether it computes data.
    charge(n);
    if (!opts_.compute_numerics) {
      set_placeholder(n);
      return;
    }
    if (try_jit(n)) return;
    std::vector<Tensor> inputs;
    inputs.reserve(n.inputs.size());
    for (int in : n.inputs) inputs.push_back(val(in).tensor);
    const Tensor out = reference_output(n, inputs).value();
    IGC_CHECK(out.shape() == n.out_shape) << n.name << ": " << out.shape().str();
    set_computed(n, out);
  }

  /// Books a tensor op's simulated cost. It depends on the node's kind,
  /// shapes, schedule and placement only, never on the data.
  void charge(const Node& n) {
    const bool cpu = n.place == Place::kCpu;
    const int64_t numel = n.out_shape.numel();
    switch (n.kind) {
      case OpKind::kConv2d:
        if (cpu) {
          clock_.charge_cpu(platform_.cpu, n.conv.flops(),
                            n.conv.min_bytes(), 0.9, n.name);
        } else {
          // The schedule compiled onto the node; without one, the
          // hand-written template in NCHW (Table 5 "Before").
          sim::KernelLaunch k =
              n.schedule.knobs().empty()
                  ? ops::conv2d_kernel_cost(
                        n.conv,
                        ops::conv2d_manual_schedule(n.conv, platform_.gpu),
                        platform_.gpu)
                  : ops::conv2d_kernel_cost(n.conv, n.schedule, platform_.gpu);
          if (n.fused_activation) k.flops += numel;
          clock_.charge(platform_.gpu, k);
        }
        return;
      case OpKind::kConv2dTranspose:
        if (cpu) {
          clock_.charge_cpu(platform_.cpu, n.deconv.flops(),
                            n.weight.nbytes(), 0.9, n.name);
        } else {
          clock_.charge(platform_.gpu,
                        ops::conv2d_transpose_kernel_cost(n.deconv,
                                                          platform_.gpu));
        }
        return;
      case OpKind::kDense:
        if (cpu) {
          clock_.charge_cpu(platform_.cpu, n.dense.flops(),
                            n.weight.nbytes(), 0.9, n.name);
        } else {
          clock_.charge(platform_.gpu,
                        ops::dense_kernel_cost(n.dense, platform_.gpu));
        }
        return;
      case OpKind::kPool2d:
        if (cpu) {
          charge_elementwise(n, numel, 1, n.pool.kernel * n.pool.kernel);
        } else {
          clock_.charge(platform_.gpu,
                        ops::pool2d_kernel_cost(
                            g_.node(n.inputs[0]).out_shape, n.pool));
        }
        return;
      case OpKind::kScaleShift:
      case OpKind::kActivation:
        charge_elementwise(n, numel, 1, 2);
        return;
      case OpKind::kAdd:
        charge_elementwise(n, numel, 2, 1);
        return;
      case OpKind::kConcat:
      case OpKind::kUpsample2x:
        charge_elementwise(n, numel, 1, 0);
        return;
      case OpKind::kGlobalAvgPool:
        charge_elementwise(n, g_.node(n.inputs[0]).out_shape.numel(), 1, 1);
        return;
      case OpKind::kSoftmax:
        charge_elementwise(n, numel, 1, 4);
        return;
      default:
        IGC_CHECK(false) << "unhandled op " << op_kind_name(n.kind);
    }
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

    float* const* args = scratch.args.data();
    codegen::jit::KernelFn fn = k->fn;
    ThreadPool::global().parallel_for(
        k->grid, 1, [args, fn](int64_t lo, int64_t hi) { fn(args, lo, hi); });
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
      case ArgKind::kOutput:
        return out.data_f32();
    }
    IGC_CHECK(false) << "bad ArgKind";
    return nullptr;
  }

  /// NMS over decoded candidates on the placed device, with the matching
  /// cost. A CPU-placed run books its charge under `cpu_event`.
  Tensor run_nms(const Node& n, const Tensor& in, const ops::NmsParams& nms,
                 const std::string& cpu_event) {
    if (n.place == Place::kCpu) {
      int64_t evals = 0;
      Tensor out = ops::box_nms_reference_counted(in, nms, &evals);
      const int64_t count = in.shape()[0] * in.shape()[1];
      const int64_t sort_flops = static_cast<int64_t>(
          static_cast<double>(count) *
          std::log2(static_cast<double>(count) + 2.0) * 4.0);
      clock_.charge_cpu(platform_.cpu, evals * 16 + sort_flops,
                        in.nbytes() * 2, 0.3, cpu_event);
      return out;
    }
    if (opts_.optimized_vision_ops) {
      return ops::box_nms_gpu(gpu_, in, nms);
    }
    return ops::box_nms_gpu_naive(gpu_, in, nms);
  }

  void exec_ssd_detection(Rng& rng, const Node& n) {
    const int64_t c1 = n.ssd_num_classes;
    const int64_t total = n.out_shape[1];
    const int64_t bsz = n.out_shape[0];

    // Charge the assembly + per-anchor softmax as one elementwise kernel.
    charge_elementwise(n, bsz * total * c1, 1, 6);

    // Decode stage, charged as a decode over (B, C, N) probabilities and
    // (B, N*4) deltas. Unmaterialized heads come from the node's Rng in
    // input order, each head's class logits and then its deltas, and the Rng
    // jumps past each. Both are read on demand: a class logit only for an
    // anchor the stream's one-draw test cannot reject, a delta only for an
    // anchor that passes valid_thresh. No logit tensor is made.
    Tensor decoded = Tensor::full(Shape{bsz, total, 6}, -1.0f);
    int64_t anchor_off = 0;
    for (size_t h = 0; h < n.inputs.size() / 2; ++h) {
      const int cls_id = n.inputs[2 * h];
      const int loc_id = n.inputs[2 * h + 1];
      const Value& cls = val(cls_id);
      const Value& loc = val(loc_id);
      const Shape& cs = g_.node(cls_id).out_shape;
      std::optional<SyntheticSsdCls> stream;
      if (!cls.materialized) {
        stream.emplace(rng, cs, c1);
        rng.discard(stream->draws());
      }
      ops::SsdHeadView view;
      view.anchors_per_cell = cs[1] / c1;
      view.height = cs[2];
      view.width = cs[3];
      if (loc.materialized) {
        const float* lp = loc.tensor.data_f32();
        view.loc = [lp](int64_t i) { return lp[i]; };
      } else {
        view.loc = SyntheticNormal(rng, 0.3f);
        const int64_t deltas = g_.node(loc_id).out_shape.numel();
        rng.discard(2 * static_cast<uint64_t>(deltas));
      }
      if (stream) {
        ops::ssd_decode_head(*stream, view, c1, anchor_off, n.anchors, n.mbox,
                             decoded);
      } else {
        ops::ssd_decode_head(ops::SsdTensorLogits(cls.tensor, c1), view, c1,
                             anchor_off, n.anchors, n.mbox, decoded);
      }
      anchor_off += view.anchors_per_cell * view.height * view.width;
    }
    IGC_CHECK_EQ(anchor_off, total);
    if (n.place == Place::kCpu) {
      clock_.charge_cpu(platform_.cpu, bsz * c1 * total * 4,
                        4 * bsz * c1 * total + 4 * bsz * total * 4, 0.8,
                        n.name + "_decode_cpu");
    } else {
      gpu_.launch_elementwise("ssd_decode", bsz * total, 2 * c1 + 20,
                              4 * (c1 + 8));
    }
    set_computed(n, run_nms(n, decoded, n.mbox.nms, n.name + "_nms_cpu"));
  }

  const Graph& g_;
  const sim::Platform& platform_;
  const ExecOptions& opts_;
  Rng& input_rng_;
  uint64_t base_seed_ = 0;

  // The run's simulated clock and GPU: every node charges them in id order.
  sim::SimClock clock_;
  sim::GpuSimulator gpu_{platform_.gpu, clock_};

  std::vector<Value> values_;
  std::vector<bool> data_read_;
  std::vector<int> layout_block_;  // see compute_layouts
  std::vector<NodeRun> node_runs_;

  // The run's storage: the caller's (plan, arena) pair, or the private one
  // setup_arena() builds when the caller passed none.
  std::optional<MemoryPlan> local_plan_;
  std::optional<PagedArena> local_arena_;
  const MemoryPlan* plan_ = nullptr;
  PagedArena* arena_ = nullptr;

  /// Host wall-clock reference for trace dispatch times, and the hashed id
  /// of the thread every node runs on (traced runs only).
  std::chrono::steady_clock::time_point run_epoch_{};
  uint64_t host_thread_ = 0;
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

std::optional<Tensor> reference_output(const Node& n,
                                       const std::vector<Tensor>& inputs) {
  const Tensor* bias = n.bias.defined() ? &n.bias : nullptr;
  Tensor out;
  switch (n.kind) {
    case OpKind::kConv2d:
      out = ops::conv2d_reference(inputs[0], n.weight, bias, n.conv);
      break;
    case OpKind::kConv2dTranspose:
      out = ops::conv2d_transpose_reference(inputs[0], n.weight, bias,
                                            n.deconv);
      break;
    case OpKind::kDense:
      out = ops::dense_reference(inputs[0], n.weight, bias, n.dense);
      break;
    case OpKind::kScaleShift:
      out = ops::scale_shift_reference(inputs[0], n.scale, n.shift);
      break;
    case OpKind::kActivation:
      out = ops::activation_reference(inputs[0], n.act, n.act_alpha);
      break;
    case OpKind::kAdd:
      out = ops::add_reference(inputs[0], inputs[1]);
      break;
    case OpKind::kConcat:
      out = ops::concat_channels_reference(inputs);
      break;
    case OpKind::kPool2d:
      out = ops::pool2d_reference(inputs[0], n.pool);
      break;
    case OpKind::kGlobalAvgPool:
      out = ops::global_avg_pool_reference(inputs[0]);
      break;
    case OpKind::kFlatten:
      out = inputs[0].reshape(n.out_shape);
      break;
    case OpKind::kSoftmax:
      out = ops::softmax_reference(inputs[0]);
      break;
    case OpKind::kUpsample2x:
      out = ops::upsample2x_reference(inputs[0]);
      break;
    case OpKind::kInput:
    case OpKind::kConstant:
    case OpKind::kDeviceCopy:
    case OpKind::kSsdDetection:
    case OpKind::kYoloDecode:
    case OpKind::kDetectionConcat:
    case OpKind::kBoxNms:
    case OpKind::kRoiAlign:
      return std::nullopt;
  }
  // The epilogue fuse_activation attached (conv, add, scale-shift, dense).
  if (n.fused_activation) {
    out = ops::activation_reference(out, n.fused_act, n.fused_act_alpha);
  }
  return out;
}

ExecResult execute(const Graph& g, const sim::Platform& platform,
                   const ExecOptions& opts, Rng& input_rng) {
  return ExecutorImpl(g, platform, opts, input_rng).run();
}

}  // namespace igc::graph
