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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
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
///
/// Output and count are those of a stable descending argsort of all N rows
/// followed by greedy suppression, in which topk counts sorted positions
/// (rows with a negative class included) and a candidate is tested only
/// against kept rows of an equal class (any kept row under force_suppress;
/// a NaN class equals none). The sort takes only the rows with score >=
/// valid_thresh, which form that argsort's prefix, unless a score is NaN;
/// then it takes every row.
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

/// Class logits of one SSD scale read from a materialized (B, A*C, H, W)
/// tensor, in which channel a*C + c is anchor a's class c. Nothing is known
/// about an anchor before its logits are read, so every anchor reads them,
/// strided by the feature plane.
class SsdTensorLogits {
 public:
  SsdTensorLogits(const Tensor& cls, int64_t num_classes)
      : data_(cls.data_f32()),
        c1_(num_classes),
        anchors_(cls.shape()[1] / num_classes),
        plane_(cls.shape()[2] * cls.shape()[3]) {}

  void logits(int64_t b, int64_t a, int64_t cell, float* dst) const {
    const float* src = data_ + (b * anchors_ + a) * c1_ * plane_ + cell;
    for (int64_t c = 0; c < c1_; ++c) dst[c] = src[c * plane_];
  }
  double gap_bound(int64_t /*b*/, int64_t /*a*/, int64_t /*cell*/) const {
    return std::numeric_limits<double>::infinity();
  }

 private:
  const float* data_;
  int64_t c1_;
  int64_t anchors_;
  int64_t plane_;
};

/// Output rows (an SSD anchor, a YOLOv3 (anchor, cell) pair) below which a
/// host decode chunk is not worth a thread: the decodes split their work
/// over ThreadPool::global() in chunks of at least this many rows, so small
/// heads stay on the calling thread.
inline constexpr int64_t kDecodeMinChunk = 512;

/// One scale of SSD head outputs besides its class logits, as
/// ssd_decode_head() reads it.
struct SsdHeadView {
  /// Element i of the flat (B, A*4, H, W) localization deltas. Called only
  /// for anchors that pass valid_thresh, so a caller may produce deltas on
  /// demand, and from several threads at once.
  std::function<float(int64_t)> loc;
  int64_t anchors_per_cell = 0;
  int64_t height = 0;
  int64_t width = 0;
};

namespace detail {
/// The log-domain bound below which the decode skips an anchor; -infinity
/// (never skip) unless valid_thresh is a normal positive float.
double ssd_skip_below(float valid_thresh);
/// Scores one anchor from its C logits: false when it stays invalid,
/// otherwise its class and score go to row[0..1]. `e` holds C floats.
bool ssd_score_anchor(const float* logit, int64_t num_classes,
                      double skip_below, float valid_thresh, float* e,
                      float* row);
/// Decodes one anchor's deltas into a corner-format box.
void ssd_decode_box(const float* loc, const float* anchor,
                    const float* variances, float* box_out);
}  // namespace detail

/// SSD detection decode of one scale straight from its heads: per anchor,
/// the softmax over its C class logits, the best non-background class and
/// the decoded box, written to `out`, the (B, N, 6) candidates with every
/// row invalid on entry. The scale's anchors are rows anchor_off + (y*W +
/// x)*A + a of each batch, and of `anchors` (N, 4). Decoding every scale
/// this way is bit-identical to assembling (B, C, N) softmax probabilities
/// and (B, N*4) deltas and calling multibox_decode_reference().
///
/// `cls` is the scale's class-logit source; it answers two queries about
/// anchor a of batch b at feature cell `cell` (class 0 = background):
///   - `cls.logits(b, a, cell, dst)` writes the anchor's C logits to dst;
///   - `cls.gap_bound(b, a, cell)` returns g such that the anchor's logits
///     are finite, the largest is at least -1e30f, and its largest
///     non-background logit minus its largest logit, in float, is at most
///     g; +infinity promises nothing.
/// SsdTensorLogits reads a tensor; graph::SyntheticSsdCls produces
/// shapes-only logits on demand. Both queries, and `h.loc`, are called from
/// several threads at once: the (batch, feature cell) pairs are split over
/// ThreadPool::global() in chunks of at least kDecodeMinChunk anchors, each
/// with its own scratch. Every anchor writes only its own row, so the output
/// does not depend on the split.
///
/// An anchor whose every non-background probability provably falls below
/// valid_thresh is skipped without its softmax. When every logit is finite
/// and the largest is at least the running max's initial -1e30f, the max
/// term contributes exp(0) = 1, so class c's probability is at most
/// exp(l_c - max), and the anchor is skipped when its largest
/// non-background logit minus the max is below ln(valid_thresh) - 1e-3 (a
/// margin far wider than expf's rounding). An anchor with a non-finite
/// logit, or with every logit below -1e30f, always runs the softmax. An
/// anchor whose gap_bound is below that bound is skipped before its logits
/// are read, as the test on them would skip it.
template <typename Cls>
void ssd_decode_head(const Cls& cls, const SsdHeadView& h,
                     int64_t num_classes, int64_t anchor_off,
                     const Tensor& anchors, const MultiboxDetectionParams& p,
                     Tensor& out) {
  const int64_t c1 = num_classes;  // includes background 0
  IGC_CHECK_GE(c1, 2);
  const int64_t batch = out.shape()[0];
  const int64_t total = out.shape()[1];
  const int64_t a = h.anchors_per_cell;
  const int64_t plane = h.height * h.width;
  IGC_CHECK(anchors.shape() == Shape({total, 4}));
  IGC_CHECK_LE(anchor_off + a * plane, total);
  const double skip_below = detail::ssd_skip_below(p.nms.valid_thresh);
  const float* an = anchors.data_f32();
  float* o = out.data_f32();
  const int64_t min_cells = (kDecodeMinChunk + a - 1) / std::max<int64_t>(a, 1);
  ThreadPool::global().parallel_for(
      batch * plane, min_cells, [&](int64_t lo, int64_t hi) {
        std::vector<float> logit(static_cast<size_t>(c1));
        std::vector<float> e(static_cast<size_t>(c1));
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t b = i / plane;
          const int64_t cell = i % plane;
          for (int64_t ai = 0; ai < a; ++ai) {
            if (cls.gap_bound(b, ai, cell) < skip_below) continue;
            cls.logits(b, ai, cell, logit.data());
            const int64_t anchor = anchor_off + cell * a + ai;
            float* row = o + (b * total + anchor) * 6;
            if (!detail::ssd_score_anchor(logit.data(), c1, skip_below,
                                          p.nms.valid_thresh, e.data(), row)) {
              continue;
            }
            const int64_t loc_base = (b * a + ai) * 4 * plane + cell;
            float loc[4];
            for (int64_t d = 0; d < 4; ++d) {
              loc[d] = h.loc(loc_base + d * plane);
            }
            detail::ssd_decode_box(loc, an + anchor * 4, p.variances, row + 2);
          }
        }
      });
}

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
