#include "graph/synthetic.h"

#include "core/error.h"

namespace igc::graph {

SyntheticSsdCls::SyntheticSsdCls(const Rng& rng, const Shape& shape,
                                 int64_t num_classes)
    : rng_(rng), c1_(num_classes) {
  IGC_CHECK_EQ(shape.ndim(), 4);
  IGC_CHECK_GE(c1_, 2);
  IGC_CHECK_EQ(shape[1] % c1_, 0) << "cls channels " << shape[1];
  batch_ = shape[0];
  anchors_ = shape[1] / c1_;
  plane_ = shape[2] * shape[3];
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
