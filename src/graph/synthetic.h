// Synthetic detection data for shapes-only runs.
//
// With numerics off, the vision operators still run functionally, because
// their cost depends on the data (Sec. 3.1), so the executor feeds them
// synthetic inputs drawn from each node's private Rng. The distributions are
// edge-realistic: almost every anchor or cell is background, and a small
// fraction are genuine detections, so NMS does a production-like amount of
// work (a few hundred to ~1k candidates).
//
// Rng is counter-based (core/rng.h), so the draws behind any element are
// known in advance: every YOLO head element takes exactly two draws, as does
// every SSD localization delta (Box-Muller) and every non-background SSD
// class logit; background logits take none. The element sources below
// produce element i on demand, from a copy of the generator jumped ahead to
// it, with exactly the value an in-order fill from that generator writes.
#pragma once

#include <cstdint>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace igc::graph {

/// SSD class logits, (B, A*C, H, W): channel ch belongs to class ch % C,
/// class 0 = background. Filled in order, two draws per non-background
/// element.
Tensor synthesize_ssd_cls(const Shape& shape, int64_t num_classes, Rng& rng);

/// MultiboxDetection class probabilities, (B, C, N) with class 0 =
/// background.
Tensor synthesize_multibox_cls(const Shape& shape, Rng& rng);

/// box_nms candidates, (B, N, 6) in box_nms layout, ~2% of rows valid.
Tensor synthesize_nms_input(const Shape& shape, Rng& rng);

/// ROIAlign proposals, (R, 5) rows [batch, x1, y1, x2, y2], inside a
/// feature map of shape `features` (NCHW).
Tensor synthesize_rois(const Shape& shape, const Shape& features, Rng& rng);

/// Element i of a YOLO head filled in order from `rng`: objectness logits
/// mostly strongly negative, so decode sees ~1% positives.
class SyntheticYoloHead {
 public:
  explicit SyntheticYoloHead(const Rng& rng) : rng_(rng) {}
  float operator()(int64_t i) const {
    Rng r = rng_;
    r.discard(2 * static_cast<uint64_t>(i));
    return r.next_double() < 0.01 ? r.next_float(0.0f, 2.0f)
                                  : r.next_float(-8.0f, -4.0f);
  }

 private:
  Rng rng_;
};

/// Element i of Tensor::random_normal(shape, rng, stddev).
class SyntheticNormal {
 public:
  SyntheticNormal(const Rng& rng, float stddev) : rng_(rng), stddev_(stddev) {}
  float operator()(int64_t i) const {
    Rng r = rng_;
    r.discard(2 * static_cast<uint64_t>(i));
    return r.next_gaussian() * stddev_;
  }

 private:
  Rng rng_;
  float stddev_;
};

}  // namespace igc::graph
