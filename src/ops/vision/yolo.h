// YOLOv3 detection-head decode (Sec. 4: Yolov3 is one of the evaluated
// object-detection models). Transforms a raw head tensor into scored boxes
// ready for box_nms.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "ops/vision/nms.h"
#include "sim/simulator.h"
#include "tensor/tensor.h"

namespace igc::ops {

struct YoloDecodeParams {
  int64_t num_classes = 80;
  /// Anchor (w, h) pairs in pixels for this head.
  std::vector<std::pair<float, float>> anchors;
  /// Network input resolution (pixels); boxes are emitted normalized.
  int64_t input_size = 416;
  float conf_thresh = 0.01f;
};

namespace detail {
inline float yolo_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace detail

/// The decode body over any element source: `at(i)` returns element i of the
/// flat (B, A*(5+num_classes), H, W) head of shape `head`, so a caller can
/// decode a tensor or produce elements on demand. Returns (B, H*W*A, 6) rows
/// [class_id, score, x1, y1, x2, y2], normalized coordinates; rows whose
/// score falls below conf_thresh stay invalid (-1). Each element is read at
/// most once, and `at` is called from several threads at once: the (batch,
/// anchor, grid row) triples are split over ThreadPool::global() in chunks
/// of at least kDecodeMinChunk (anchor, cell) pairs, each with its own
/// scratch. Every row is written by the one chunk that decodes it, so the
/// output does not depend on the split.
///
/// Two exact early exits skip rows whose score provably misses conf_thresh:
///   - A (cell, anchor) whose objectness misses conf_thresh reads only its
///     objectness and class-0 logits: every class score is at most 1, so
///     score = obj * best <= obj cannot reach the threshold.
///   - Any other row reads its class logits once and takes their max m in
///     the best-class loop's order. Since best = sigmoid(l) for some l <= m,
///     score <= obj * sigmoid(m), and the row is skipped when that bound,
///     computed in double and widened by 1e-5 (far more than the rounding of
///     expf and of the float product), stays below conf_thresh. The test
///     needs a normal positive conf_thresh: below FLT_MIN the float product
///     rounds with an absolute, not a relative, error.
/// A NaN class-0 score (m is then NaN too) or a NaN objectness makes the
/// score NaN; such a row is written, as the comparison lets it through, so
/// neither exit takes it.
template <typename At>
Tensor yolo_decode_at(const Shape& head, At&& at, const YoloDecodeParams& p) {
  using detail::yolo_sigmoid;
  IGC_CHECK_EQ(head.ndim(), 4);
  const int64_t bsz = head[0];
  const int64_t a = static_cast<int64_t>(p.anchors.size());
  IGC_CHECK_GT(a, 0);
  IGC_CHECK_GT(p.num_classes, 0);
  const int64_t per_anchor = 5 + p.num_classes;
  IGC_CHECK_EQ(head[1], a * per_anchor);
  const int64_t gh = head[2];
  const int64_t gw = head[3];
  const int64_t plane = gh * gw;
  const int64_t n = plane * a;

  Tensor out = Tensor::full(Shape{bsz, n, 6}, -1.0f);
  float* o = out.data_f32();
  const float inv_input = 1.0f / static_cast<float>(p.input_size);
  const double reject_below =
      p.conf_thresh >= std::numeric_limits<float>::min()
          ? static_cast<double>(p.conf_thresh)
          : -std::numeric_limits<double>::infinity();

  auto decode_rows = [&](int64_t lo, int64_t hi) {
    std::vector<float> logit(static_cast<size_t>(p.num_classes));
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t b = r / (a * gh);
      const int64_t ai = r / gh % a;
      const int64_t gy = r % gh;
      for (int64_t gx = 0; gx < gw; ++gx) {
        const int64_t base = (b * a + ai) * per_anchor * plane + gy * gw + gx;
        auto ch = [&](int64_t c) { return at(base + c * plane); };
        const float obj = yolo_sigmoid(ch(4));
        logit[0] = ch(5);
        // Class 0's score is NaN exactly when its logit is.
        if (obj < p.conf_thresh && !std::isnan(logit[0])) continue;
        float best = yolo_sigmoid(logit[0]);
        float m = logit[0];
        for (int64_t c = 1; c < p.num_classes; ++c) {
          const float l = ch(5 + c);
          logit[static_cast<size_t>(c)] = l;
          if (l > m) m = l;
        }
        if (!std::isnan(obj) && !std::isnan(m) &&
            static_cast<double>(obj) /
                    (1.0 + std::exp(-static_cast<double>(m))) *
                    (1.0 + 1e-5) <
                reject_below) {
          continue;
        }
        // Best class.
        int64_t best_c = 0;
        for (int64_t c = 1; c < p.num_classes; ++c) {
          const float v = yolo_sigmoid(logit[static_cast<size_t>(c)]);
          if (v > best) {
            best = v;
            best_c = c;
          }
        }
        const float score = obj * best;
        if (score < p.conf_thresh) continue;
        // Box decode: sigmoid offsets within the cell, exp-scaled anchors.
        const float cx = (static_cast<float>(gx) + yolo_sigmoid(ch(0))) /
                         static_cast<float>(gw);
        const float cy = (static_cast<float>(gy) + yolo_sigmoid(ch(1))) /
                         static_cast<float>(gh);
        const float bw = p.anchors[static_cast<size_t>(ai)].first *
                         std::exp(ch(2)) * inv_input * 0.5f;
        const float bh = p.anchors[static_cast<size_t>(ai)].second *
                         std::exp(ch(3)) * inv_input * 0.5f;
        float* row = o + (b * n + (gy * gw + gx) * a + ai) * 6;
        row[0] = static_cast<float>(best_c);
        row[1] = score;
        row[2] = cx - bw;
        row[3] = cy - bh;
        row[4] = cx + bw;
        row[5] = cy + bh;
      }
    }
  };
  const int64_t min_rows =
      (kDecodeMinChunk + gw - 1) / std::max<int64_t>(gw, 1);
  ThreadPool::global().parallel_for(bsz * a * gh, min_rows, decode_rows);
  return out;
}

/// head: (B, A*(5+num_classes), H, W) raw activations; see yolo_decode_at().
Tensor yolo_decode_reference(const Tensor& head, const YoloDecodeParams& p);

/// Charges the GPU decode of a head of shape `head`: one work item per
/// (cell, anchor), fully parallel. The charge depends on the shape only.
void charge_yolo_decode_gpu(sim::GpuSimulator& gpu, const Shape& head,
                            const YoloDecodeParams& p);

/// GPU mapping: the reference decode plus charge_yolo_decode_gpu().
Tensor yolo_decode_gpu(sim::GpuSimulator& gpu, const Tensor& head,
                       const YoloDecodeParams& p);

}  // namespace igc::ops
