#include "ops/vision/roi_align.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace igc::ops {
namespace {

/// Bilinear sample of one feature plane at (y, x); out-of-range reads 0.
float bilinear(const float* plane, int64_t h, int64_t w, float y, float x) {
  if (y < -1.0f || y > static_cast<float>(h) || x < -1.0f ||
      x > static_cast<float>(w)) {
    return 0.0f;
  }
  y = std::max(y, 0.0f);
  x = std::max(x, 0.0f);
  int64_t y0 = static_cast<int64_t>(y);
  int64_t x0 = static_cast<int64_t>(x);
  int64_t y1 = y0 + 1;
  int64_t x1 = x0 + 1;
  if (y0 >= h - 1) { y0 = y1 = h - 1; y = static_cast<float>(y0); }
  if (x0 >= w - 1) { x0 = x1 = w - 1; x = static_cast<float>(x0); }
  const float ly = y - static_cast<float>(y0);
  const float lx = x - static_cast<float>(x0);
  const float hy = 1.0f - ly;
  const float hx = 1.0f - lx;
  return hy * hx * plane[y0 * w + x0] + hy * lx * plane[y0 * w + x1] +
         ly * hx * plane[y1 * w + x0] + ly * lx * plane[y1 * w + x1];
}

Tensor roi_align_impl(const Tensor& features, const Tensor& rois,
                      const RoiAlignParams& p) {
  IGC_CHECK_EQ(features.shape().ndim(), 4);
  IGC_CHECK_EQ(rois.shape().ndim(), 2);
  IGC_CHECK_EQ(rois.shape()[1], 5);
  const int64_t c = features.shape()[1];
  const int64_t h = features.shape()[2];
  const int64_t w = features.shape()[3];
  const int64_t r = rois.shape()[0];
  Tensor out(Shape{r, c, p.pooled_h, p.pooled_w}, DType::kFloat32);
  const float* f = features.data_f32();
  const float* rr = rois.data_f32();
  float* o = out.data_f32();
  for (int64_t ri = 0; ri < r; ++ri) {
    const float* roi = rr + ri * 5;
    const int64_t b = static_cast<int64_t>(roi[0]);
    IGC_CHECK_GE(b, 0);
    IGC_CHECK_LT(b, features.shape()[0]);
    const float x1 = roi[1] * p.spatial_scale;
    const float y1 = roi[2] * p.spatial_scale;
    const float x2 = roi[3] * p.spatial_scale;
    const float y2 = roi[4] * p.spatial_scale;
    const float roi_w = std::max(x2 - x1, 1.0f);
    const float roi_h = std::max(y2 - y1, 1.0f);
    const float bin_w = roi_w / static_cast<float>(p.pooled_w);
    const float bin_h = roi_h / static_cast<float>(p.pooled_h);
    const int64_t sy = p.sampling_ratio > 0
                           ? p.sampling_ratio
                           : static_cast<int64_t>(std::ceil(bin_h));
    const int64_t sx = p.sampling_ratio > 0
                           ? p.sampling_ratio
                           : static_cast<int64_t>(std::ceil(bin_w));
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = f + (b * c + ci) * h * w;
      for (int64_t py = 0; py < p.pooled_h; ++py) {
        for (int64_t px = 0; px < p.pooled_w; ++px) {
          float acc = 0.0f;
          for (int64_t iy = 0; iy < sy; ++iy) {
            const float yy = y1 + static_cast<float>(py) * bin_h +
                             (static_cast<float>(iy) + 0.5f) * bin_h /
                                 static_cast<float>(sy);
            for (int64_t ix = 0; ix < sx; ++ix) {
              const float xx = x1 + static_cast<float>(px) * bin_w +
                               (static_cast<float>(ix) + 0.5f) * bin_w /
                                   static_cast<float>(sx);
              acc += bilinear(plane, h, w, yy, xx);
            }
          }
          o[((ri * c + ci) * p.pooled_h + py) * p.pooled_w + px] =
              acc / static_cast<float>(sy * sx);
        }
      }
    }
  }
  return out;
}

}  // namespace

Tensor roi_align_reference(const Tensor& features, const Tensor& rois,
                           const RoiAlignParams& p) {
  return roi_align_impl(features, rois, p);
}

Tensor roi_align_gpu(sim::GpuSimulator& gpu, const Tensor& features,
                     const Tensor& rois, const RoiAlignParams& p) {
  Tensor out = roi_align_impl(features, rois, p);
  const int64_t samples = std::max<int64_t>(p.sampling_ratio, 1);
  gpu.launch_elementwise("roi_align", out.numel(),
                         /*flops_per_elem=*/10 * samples * samples,
                         /*bytes_per_elem=*/16 * samples * samples);
  return out;
}

}  // namespace igc::ops
