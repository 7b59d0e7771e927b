// The computational graph (Fig. 1: "Computational Graph" /
// "Optimized Computational Graph").
//
// A Graph is a topologically ordered list of nodes. Model builders
// (src/models) construct graphs through the typed helper methods; the passes
// in src/graph/passes.h rewrite them; the graph tuner (src/graphtune) writes
// each conv's schedule onto its node; the executor in src/graph/executor.h
// runs them against a simulated platform.
#pragma once

#include <string>
#include <vector>

#include "ops/nn/conv2d.h"
#include "ops/nn/conv2d_transpose.h"
#include "ops/nn/nn_ops.h"
#include "ops/vision/nms.h"
#include "ops/vision/roi_align.h"
#include "ops/vision/yolo.h"
#include "tensor/layout.h"
#include "tensor/tensor.h"
#include "tune/config.h"

namespace igc::graph {

enum class OpKind {
  kInput,
  kConstant,  // compile-time tensor bound into the graph (resident weight)
  kConv2d,
  kConv2dTranspose,
  kScaleShift,  // folded batch norm
  kActivation,
  kAdd,
  kConcat,
  kPool2d,
  kGlobalAvgPool,
  kDense,
  kFlatten,
  kSoftmax,
  kUpsample2x,
  kSsdDetection,  // fused multi-scale softmax + decode + NMS (SSD head)
  kYoloDecode,
  kDetectionConcat,  // concat (B, N_i, 6) candidate lists along N
  kBoxNms,
  kRoiAlign,  // bilinear region pooling over proposal boxes
  kDeviceCopy,
};

std::string_view op_kind_name(OpKind k);

/// The aliasing ops: a Flatten, or a device_copy between a CPU and a GPU that
/// share one DRAM, is its input's data under a new shape. The memory planner
/// stores it in its input's buffer and the executor views that buffer.
inline bool is_alias(OpKind k) {
  return k == OpKind::kFlatten || k == OpKind::kDeviceCopy;
}

/// Where a node executes after placement (Sec. 3.1.2).
enum class Place { kUnassigned, kGpu, kCpu };

/// Declared dynamic-shape bounds for a model graph. The graph itself is
/// always concretely shaped (the builders bake one *seed* shape, and every
/// stored shape is that of the seed binding); a ShapeSpec says which symbolic
/// dimensions — batch, input height/width — may be rebound at run time and
/// within what bounds. shape_infer.h re-derives every node shape for a new
/// binding; buffer assignment is shape-independent, so rebinding never
/// replans (see memory_planner.h).
///
/// Detection/segmentation models declare dynamic batch only: their anchor
/// grids and skip-connection alignment are baked for the seed resolution, so
/// a resolution change is a hard rebind error rather than a silent drift.
struct ShapeSpec {
  bool dynamic_batch = false;
  bool dynamic_hw = false;
  int64_t min_batch = 1, max_batch = 1;
  int64_t min_hw = 1, max_hw = 1;
  /// The binding the graph's stored shapes correspond to.
  int64_t seed_batch = 1;
  int64_t seed_hw = 0;  // 0 for graphs without a spatial input

  bool is_dynamic() const { return dynamic_batch || dynamic_hw; }
};

struct Node {
  int id = -1;
  std::string name;
  OpKind kind = OpKind::kInput;
  std::vector<int> inputs;
  Shape out_shape;
  Place place = Place::kUnassigned;

  // Operator parameters (used according to `kind`).
  ops::Conv2dParams conv;
  /// Conv: the compiled schedule, written by graphtune::write_schedules
  /// (its layout_block knob is the conv's activation layout). Empty runs the
  /// hand-written template in NCHW (Table 5 "Before").
  tune::ScheduleConfig schedule;
  ops::Conv2dTransposeParams deconv;
  ops::DenseParams dense;
  ops::Pool2dParams pool;
  ops::Activation act = ops::Activation::kRelu;
  float act_alpha = 0.1f;
  ops::MultiboxDetectionParams mbox;
  ops::YoloDecodeParams yolo;
  ops::NmsParams nms;
  ops::RoiAlignParams roi;

  // Bound parameter tensors.
  Tensor weight;   // conv / dense
  Tensor bias;     // conv / dense (may be undefined)
  Tensor scale;    // scale-shift
  Tensor shift;    // scale-shift
  Tensor anchors;  // SSD detection (pre-computed priors)
  /// SSD fused head: number of classes including background.
  int64_t ssd_num_classes = 0;

  // Activation epilogue fused onto a conv, add, scale-shift or dense by
  // fuse_activation (Sec. 3.2.3 "operator fusion"; batch norm folds into
  // the conv's weights instead). graph::reference_output() applies it.
  bool fused_activation = false;
  ops::Activation fused_act = ops::Activation::kRelu;
  float fused_act_alpha = 0.1f;

  bool is_conv() const { return kind == OpKind::kConv2d; }
};

class Graph {
 public:
  /// Node construction (returns the new node id). Inputs must already exist,
  /// preserving topological order by construction.
  int add_input(const std::string& name, Shape shape);
  /// A compile-time constant tensor (stored in the node's `weight` slot).
  /// Resident like model weights: execution charges no kernel for it, and
  /// the constant-precompute pass folds operators whose inputs are all
  /// constants into new constants.
  int add_constant(const std::string& name, Tensor value);
  int add_conv2d(const std::string& name, int input, ops::Conv2dParams p,
                 Tensor weight, Tensor bias = {});
  int add_conv2d_transpose(const std::string& name, int input,
                           ops::Conv2dTransposeParams p, Tensor weight,
                           Tensor bias = {});
  int add_scale_shift(const std::string& name, int input, Tensor scale,
                      Tensor shift);
  int add_activation(const std::string& name, int input, ops::Activation act,
                     float alpha = 0.1f);
  int add_add(const std::string& name, int a, int b);
  int add_concat(const std::string& name, const std::vector<int>& inputs);
  int add_pool2d(const std::string& name, int input, ops::Pool2dParams p);
  int add_global_avg_pool(const std::string& name, int input);
  int add_dense(const std::string& name, int input, ops::DenseParams p,
                Tensor weight, Tensor bias = {});
  int add_flatten(const std::string& name, int input);
  int add_softmax(const std::string& name, int input);
  int add_upsample2x(const std::string& name, int input);
  /// Fused SSD detection head over multiple scales. `heads` holds
  /// (cls_conv, loc_conv) node pairs: cls shape (B, A*(C), H, W) with C
  /// classes including background, loc shape (B, A*4, H, W). `anchors` is
  /// the concatenation of per-scale priors, one row per anchor, in
  /// scale-major, cell-row-major, anchor-minor order.
  int add_ssd_detection(const std::string& name,
                        const std::vector<std::pair<int, int>>& heads,
                        Tensor anchors, int64_t num_classes_incl_bg,
                        ops::MultiboxDetectionParams p);
  int add_yolo_decode(const std::string& name, int input,
                      ops::YoloDecodeParams p);
  int add_detection_concat(const std::string& name,
                           const std::vector<int>& inputs);
  int add_box_nms(const std::string& name, int input, ops::NmsParams p);
  /// ROIAlign over `rois` (R, 5) rows [batch_idx, x1, y1, x2, y2] applied to
  /// a feature map; output (R, C, pooled_h, pooled_w).
  int add_roi_align(const std::string& name, int features, int rois,
                    ops::RoiAlignParams p);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int id);
  const Node& node(int id) const;
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  void set_output(int id) { output_ = id; }
  int output() const { return output_; }

  /// Declared dynamic-shape bounds (default: fully static). Passes that
  /// rebuild the graph must carry the spec across (dce, placement do).
  void set_shape_spec(ShapeSpec spec) { spec_ = spec; }
  const ShapeSpec& shape_spec() const { return spec_; }

  /// Consumers of each node (recomputed on demand).
  std::vector<std::vector<int>> consumers() const;

  /// Per-node reachability from the output. The rewiring passes leave
  /// unreferenced pass-through nodes, which they skip via this mask; dce and
  /// placement remove them. plan_memory() refuses a graph that still has
  /// one, so the executor and JIT lowering only ever see compact graphs.
  std::vector<bool> live_mask() const;

  /// All conv nodes in topological order.
  std::vector<int> conv_node_ids() const;

  /// Total conv FLOPs (for reporting).
  int64_t total_conv_flops() const;

  /// Validates structural invariants: node ids match their list positions,
  /// every edge points to an earlier node (topological order), the output id
  /// is in range, and constants carry a bound tensor. Passes must preserve
  /// all of these; PassPipeline::run() checks them after every pass.
  void validate() const;

  /// Human-readable table of the (live) nodes: id, op, name, output shape,
  /// placement — the `igc-compile --dump-graph` view.
  std::string summary() const;

 private:
  int push(Node n);
  std::vector<Node> nodes_;
  int output_ = -1;
  ShapeSpec spec_;
};

}  // namespace igc::graph
