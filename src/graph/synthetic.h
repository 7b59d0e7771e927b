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
// The detection heads are never filled in full: a decode reads only the
// elements that decide its output, and the SSD class source can reject an
// anchor from one draw per logit, without producing any logit.
#pragma once

#include <cstdint>
#include <limits>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace igc::graph {

/// box_nms candidates, (B, N, 6) in box_nms layout, ~2% of rows valid.
Tensor synthesize_nms_input(const Shape& shape, Rng& rng);

/// ROIAlign proposals, (R, 5) rows [batch, x1, y1, x2, y2], inside a
/// feature map of shape `features` (NCHW).
Tensor synthesize_rois(const Shape& shape, const Shape& features, Rng& rng);

/// SSD class logits (B, A*C, H, W), with channel ch of class ch % C and
/// class 0 the background, as an in-order fill from `rng` would write them:
/// background logits are the constant 6.0 and take no draw; every other
/// logit takes two, a detection draw (next_double() < 0.002) and then its
/// value, in [2, 7) for a detection and in [-6, -2] otherwise (the float
/// cast can round up to -2).
class SyntheticSsdCls {
 public:
  SyntheticSsdCls(const Rng& rng, const Shape& shape, int64_t num_classes);

  /// The draws an in-order fill takes, so a caller jumps its Rng past the
  /// head with discard(draws()).
  uint64_t draws() const {
    return 2 * static_cast<uint64_t>(batch_ * anchors_ * (c1_ - 1) * plane_);
  }

  /// Writes the C logits of anchor a of batch b at feature cell `cell`.
  void logits(int64_t b, int64_t a, int64_t cell, float* dst) const {
    dst[0] = 6.0f;
    // Foreground class c is the anchor's (c - 1)'th non-background channel.
    Rng r = at((b * anchors_ + a) * (c1_ - 1), cell);
    for (int64_t c = 1; c < c1_; ++c) {
      dst[c] = detection_draw(r) ? r.next_float(2.0f, 7.0f)
                                 : r.next_float(-6.0f, -2.0f);
      r.discard(2 * static_cast<uint64_t>(plane_) - 2);
    }
  }

  /// ops::ssd_decode_head()'s bound on the anchor's largest foreground
  /// logit minus its largest logit, from one draw per foreground logit:
  /// without a detection draw every foreground logit is at most -2 against
  /// the background's 6.0, so the gap is at most -8; with one, +infinity.
  double gap_bound(int64_t b, int64_t a, int64_t cell) const {
    Rng r = at((b * anchors_ + a) * (c1_ - 1), cell);
    for (int64_t c = 1; c < c1_; ++c) {
      if (detection_draw(r)) {
        return std::numeric_limits<double>::infinity();
      }
      r.discard(2 * static_cast<uint64_t>(plane_) - 1);
    }
    return -8.0;
  }

 private:
  /// The in-order fill's detection test: one draw.
  static bool detection_draw(Rng& r) { return r.next_double() < 0.002; }

  /// The Rng before the draws of `cell` in non-background channel `k`.
  Rng at(int64_t k, int64_t cell) const {
    Rng r = rng_;
    r.discard(2 * static_cast<uint64_t>(k * plane_ + cell));
    return r;
  }

  Rng rng_;
  int64_t c1_;
  int64_t batch_;
  int64_t anchors_;
  int64_t plane_;
};

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
