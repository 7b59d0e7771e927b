#include "tensor/layout.h"

namespace igc {

Tensor nchw_to_nchwc(const Tensor& src, int block) {
  IGC_CHECK_EQ(src.shape().ndim(), 4);
  const int64_t n = src.shape()[0];
  const int64_t c = src.shape()[1];
  const int64_t h = src.shape()[2];
  const int64_t w = src.shape()[3];
  IGC_CHECK_EQ(c % block, 0) << "channels " << c << " not divisible by block "
                             << block;
  const int64_t cb = c / block;
  Tensor dst(Shape{n, cb, h, w, block}, src.dtype());
  const float* s = src.data_f32();
  float* d = dst.data_f32();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t ic = 0; ic < c; ++ic) {
      const int64_t co = ic / block;
      const int64_t ci = ic % block;
      for (int64_t ih = 0; ih < h; ++ih) {
        for (int64_t iw = 0; iw < w; ++iw) {
          d[((((in * cb + co) * h + ih) * w + iw) * block) + ci] =
              s[((in * c + ic) * h + ih) * w + iw];
        }
      }
    }
  }
  return dst;
}

Tensor nchwc_to_nchw(const Tensor& src) {
  IGC_CHECK_EQ(src.shape().ndim(), 5);
  const int64_t n = src.shape()[0];
  const int64_t cb = src.shape()[1];
  const int64_t h = src.shape()[2];
  const int64_t w = src.shape()[3];
  const int64_t block = src.shape()[4];
  const int64_t c = cb * block;
  Tensor dst(Shape{n, c, h, w}, src.dtype());
  const float* s = src.data_f32();
  float* d = dst.data_f32();
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t co = 0; co < cb; ++co) {
      for (int64_t ih = 0; ih < h; ++ih) {
        for (int64_t iw = 0; iw < w; ++iw) {
          for (int64_t ci = 0; ci < block; ++ci) {
            d[((in * c + (co * block + ci)) * h + ih) * w + iw] =
                s[(((in * cb + co) * h + ih) * w + iw) * block + ci];
          }
        }
      }
    }
  }
  return dst;
}

}  // namespace igc
