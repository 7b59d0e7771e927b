#include "graph/synthetic.h"

namespace igc::graph {

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

Tensor synthesize_multibox_cls(const Shape& shape, Rng& rng) {
  Tensor t(shape, DType::kFloat32);
  const int64_t nc = shape[1];
  const int64_t na = shape[2];
  for (int64_t b = 0; b < shape[0]; ++b) {
    for (int64_t c = 0; c < nc; ++c) {
      for (int64_t i = 0; i < na; ++i) {
        float v = c == 0 ? 0.95f : 0.002f;
        if (c != 0 && rng.next_double() < 0.002) {
          v = rng.next_float(0.2f, 0.9f);
        }
        t.data_f32()[(b * nc + c) * na + i] = v;
      }
    }
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

Tensor synthesize_rois(const Shape& shape, const Shape& features, Rng& rng) {
  Tensor rois(shape, DType::kFloat32);
  const float fh = static_cast<float>(features[2]);
  const float fw = static_cast<float>(features[3]);
  for (int64_t r = 0; r < shape[0]; ++r) {
    float* row = rois.data_f32() + r * 5;
    row[0] = static_cast<float>(rng.next_int(0, features[0] - 1));
    const float x1 = rng.next_float(0.0f, fw * 0.6f);
    const float y1 = rng.next_float(0.0f, fh * 0.6f);
    row[1] = x1;
    row[2] = y1;
    row[3] = x1 + rng.next_float(2.0f, fw * 0.4f);
    row[4] = y1 + rng.next_float(2.0f, fh * 0.4f);
  }
  return rois;
}

}  // namespace igc::graph
