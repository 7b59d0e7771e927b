// box_nms and the SSD MultiboxPrior / MultiboxDetection operators
// (Sec. 3.1.1 "Other Vision-specific Operators").
//
// The GPU box_nms composes the other two primitives of Sec. 3.1:
//   1. per-batch *segmented argsort* of scores (Fig. 2 pipeline),
//   2. a suppression kernel whose innermost loop is aligned with threads
//      (one work-group per batch; lanes test IoU against the current pivot),
//   3. *prefix-sum* compaction of surviving boxes (Fig. 3 pipeline).
// All outputs are initialized to invalid (-1) up front, which removes the
// divergent "write if kept else mark" branch the paper calls out.
//
// Box encoding follows MXNet's box_nms: each box is a 6-vector
// [class_id, score, x1, y1, x2, y2]; class_id < 0 marks an invalid entry.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "tensor/tensor.h"

namespace igc::ops {

struct NmsParams {
  float iou_threshold = 0.5f;
  /// Entries with score < valid_thresh are dropped before sorting.
  float valid_thresh = 0.01f;
  /// Consider only the top-k entries by score (-1: all).
  int64_t topk = -1;
  /// Suppress across classes when true; only same-class otherwise.
  bool force_suppress = false;
};

/// Intersection-over-union of two corner-format boxes.
float box_iou(const float* a, const float* b);

/// Reference NMS. input: (B, N, 6). Returns (B, N, 6) with surviving boxes
/// first (in descending score order) and all other rows set to -1.
Tensor box_nms_reference(const Tensor& input, const NmsParams& p);

/// Same, additionally reporting the number of IoU evaluations performed
/// (used to charge the CPU-fallback cost model with the true work).
Tensor box_nms_reference_counted(const Tensor& input, const NmsParams& p,
                                 int64_t* iou_evals);

/// GPU NMS on the simulator; numerically identical to the reference.
Tensor box_nms_gpu(sim::GpuSimulator& gpu, const Tensor& input,
                   const NmsParams& p);

/// Unoptimized GPU mapping (Table 4 "Before"): naive per-segment sort and a
/// one-thread-per-batch suppression loop.
Tensor box_nms_gpu_naive(sim::GpuSimulator& gpu, const Tensor& input,
                         const NmsParams& p);

// ---- SSD anchors & detection decode ------------------------------------

struct MultiboxPriorParams {
  int64_t feature_h = 1;
  int64_t feature_w = 1;
  std::vector<float> sizes = {1.0f};
  std::vector<float> ratios = {1.0f};
};

/// Anchor boxes for one feature map: (H*W*A, 4) corner format, A =
/// sizes.size() + ratios.size() - 1 (the GluonCV/MXNet convention).
Tensor multibox_prior_reference(const MultiboxPriorParams& p);

struct MultiboxDetectionParams {
  NmsParams nms;
  /// Center/size decode variances (SSD convention).
  float variances[4] = {0.1f, 0.1f, 0.2f, 0.2f};
};

/// Decode only: produces the (B, N, 6) candidate tensor (best class, score,
/// decoded box per anchor) without NMS. Entries below valid_thresh stay
/// invalid.
Tensor multibox_decode_reference(const Tensor& cls_prob, const Tensor& loc_pred,
                                 const Tensor& anchors,
                                 const MultiboxDetectionParams& p);

/// One scale of SSD head outputs, as ssd_decode_heads() reads it.
struct SsdHeadView {
  /// Class logits, (B, A*C, H, W): channel a*C + c is anchor a's class c,
  /// class 0 = background.
  const float* cls = nullptr;
  /// Element i of the flat (B, A*4, H, W) localization deltas. Called only
  /// for anchors that pass valid_thresh, so a caller may produce deltas on
  /// demand.
  std::function<float(int64_t)> loc;
  int64_t anchors_per_cell = 0;
  int64_t height = 0;
  int64_t width = 0;
};

/// SSD detection decode straight from per-scale heads: per anchor, the
/// softmax over its C class logits, the best non-background class and the
/// decoded box, written to the (B, N, 6) candidates (N = sum of A*H*W over
/// the heads, in the anchors' row order; each scale's rows go (y, x, a)).
/// Bit-identical to assembling (B, C, N) softmax probabilities and (B, N*4)
/// deltas and calling multibox_decode_reference(). An anchor whose every
/// non-background probability provably falls below valid_thresh is skipped
/// without its softmax; an anchor with a non-finite logit, or with every
/// logit below -1e30f, always runs it.
Tensor ssd_decode_heads(const std::vector<SsdHeadView>& heads, int64_t batch,
                        int64_t num_classes, const Tensor& anchors,
                        const MultiboxDetectionParams& p);

/// Decodes SSD head outputs into detections and applies NMS.
///   cls_prob: (B, num_classes + 1, N) with class 0 = background,
///   loc_pred: (B, N * 4),
///   anchors:  (N, 4).
/// Returns (B, N, 6) in box_nms layout.
Tensor multibox_detection_reference(const Tensor& cls_prob,
                                    const Tensor& loc_pred,
                                    const Tensor& anchors,
                                    const MultiboxDetectionParams& p);

/// Same, but decode runs as a simulator kernel and NMS uses box_nms_gpu.
Tensor multibox_detection_gpu(sim::GpuSimulator& gpu, const Tensor& cls_prob,
                              const Tensor& loc_pred, const Tensor& anchors,
                              const MultiboxDetectionParams& p);

}  // namespace igc::ops
