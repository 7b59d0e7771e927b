#include "ops/nn/nn_ops.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"

namespace igc::ops {

Tensor dense_reference(const Tensor& input, const Tensor& weight,
                       const Tensor* bias, const DenseParams& p) {
  IGC_CHECK(input.shape() == Shape({p.batch, p.in_features}));
  IGC_CHECK(weight.shape() == Shape({p.out_features, p.in_features}));
  Tensor out(Shape{p.batch, p.out_features}, DType::kFloat32);
  const float* in = input.data_f32();
  const float* wt = weight.data_f32();
  const float* bs = bias ? bias->data_f32() : nullptr;
  float* o = out.data_f32();
  ThreadPool::global().parallel_for(p.batch * p.out_features, [&](int64_t idx) {
    const int64_t n = idx / p.out_features;
    const int64_t co = idx % p.out_features;
    float acc = bs ? bs[co] : 0.0f;
    for (int64_t ci = 0; ci < p.in_features; ++ci) {
      acc += in[n * p.in_features + ci] * wt[co * p.in_features + ci];
    }
    o[idx] = acc;
  });
  return out;
}

sim::KernelLaunch dense_kernel_cost(const DenseParams& p,
                                    const sim::DeviceSpec& dev) {
  sim::KernelLaunch k;
  k.name = "dense";
  k.flops = p.flops();
  k.work_items = p.batch * p.out_features;
  k.work_group_size = static_cast<int>(
      std::min<int64_t>(k.work_items, dev.simd_width * 4));
  k.compute_efficiency = 0.55;  // GEMV-like: mostly bandwidth bound anyway
  k.dram_read_bytes = 4 * (p.batch * p.in_features +
                           p.out_features * p.in_features);
  k.dram_write_bytes = 4 * p.batch * p.out_features;
  return k;
}

Tensor pool2d_reference(const Tensor& input, const Pool2dParams& p) {
  IGC_CHECK_EQ(input.shape().ndim(), 4);
  const int64_t n = input.shape()[0];
  const int64_t c = input.shape()[1];
  const int64_t h = input.shape()[2];
  const int64_t w = input.shape()[3];
  const int64_t oh = p.out_dim(h);
  const int64_t ow = p.out_dim(w);
  IGC_CHECK_GT(oh, 0);
  IGC_CHECK_GT(ow, 0);
  Tensor out(Shape{n, c, oh, ow}, DType::kFloat32);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  ThreadPool::global().parallel_for(n * c, [&](int64_t idx) {
    const float* plane = in + idx * h * w;
    float* oplane = o + idx * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        float acc = (p.kind == PoolKind::kMax)
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0f;
        int64_t count = 0;
        for (int64_t ky = 0; ky < p.kernel; ++ky) {
          const int64_t iy = y * p.stride + ky - p.pad;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < p.kernel; ++kx) {
            const int64_t ix = x * p.stride + kx - p.pad;
            if (ix < 0 || ix >= w) continue;
            const float v = plane[iy * w + ix];
            if (p.kind == PoolKind::kMax) {
              acc = std::max(acc, v);
            } else {
              acc += v;
            }
            ++count;
          }
        }
        if (p.kind == PoolKind::kAvg) {
          const int64_t denom =
              p.count_include_pad ? p.kernel * p.kernel : std::max<int64_t>(count, 1);
          acc /= static_cast<float>(denom);
        }
        oplane[y * ow + x] = acc;
      }
    }
  });
  return out;
}

Tensor global_avg_pool_reference(const Tensor& input) {
  IGC_CHECK_EQ(input.shape().ndim(), 4);
  const int64_t n = input.shape()[0];
  const int64_t c = input.shape()[1];
  const int64_t hw = input.shape()[2] * input.shape()[3];
  Tensor out(Shape{n, c, 1, 1}, DType::kFloat32);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  for (int64_t i = 0; i < n * c; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < hw; ++j) acc += in[i * hw + j];
    o[i] = static_cast<float>(acc / static_cast<double>(hw));
  }
  return out;
}

sim::KernelLaunch pool2d_kernel_cost(const Shape& in_shape, const Pool2dParams& p) {
  const int64_t n = in_shape[0], c = in_shape[1], h = in_shape[2], w = in_shape[3];
  const int64_t oh = p.out_dim(h), ow = p.out_dim(w);
  sim::KernelLaunch k;
  k.name = "pool2d";
  k.flops = n * c * oh * ow * p.kernel * p.kernel;
  k.work_items = n * c * oh * ow;
  k.work_group_size = 64;
  k.compute_efficiency = 0.5;
  k.dram_read_bytes = 4 * n * c * h * w;
  k.dram_write_bytes = 4 * n * c * oh * ow;
  return k;
}

Tensor batch_norm_reference(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, const Tensor& mean,
                            const Tensor& var, const BatchNormParams& p) {
  Tensor scale, shift;
  fold_batch_norm(gamma, beta, mean, var, p.epsilon, &scale, &shift);
  return scale_shift_reference(input, scale, shift);
}

void fold_batch_norm(const Tensor& gamma, const Tensor& beta,
                     const Tensor& mean, const Tensor& var, float epsilon,
                     Tensor* scale, Tensor* shift) {
  const int64_t c = gamma.numel();
  IGC_CHECK_EQ(beta.numel(), c);
  IGC_CHECK_EQ(mean.numel(), c);
  IGC_CHECK_EQ(var.numel(), c);
  *scale = Tensor(Shape{c}, DType::kFloat32);
  *shift = Tensor(Shape{c}, DType::kFloat32);
  for (int64_t i = 0; i < c; ++i) {
    const float inv_std =
        1.0f / std::sqrt(var.data_f32()[i] + epsilon);
    scale->data_f32()[i] = gamma.data_f32()[i] * inv_std;
    shift->data_f32()[i] =
        beta.data_f32()[i] - gamma.data_f32()[i] * mean.data_f32()[i] * inv_std;
  }
}

Tensor activation_reference(const Tensor& input, Activation act, float alpha) {
  Tensor out(input.shape(), DType::kFloat32);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  const int64_t n = input.numel();
  switch (act) {
    case Activation::kRelu:
      for (int64_t i = 0; i < n; ++i) o[i] = std::max(0.0f, in[i]);
      break;
    case Activation::kLeakyRelu:
      for (int64_t i = 0; i < n; ++i)
        o[i] = in[i] > 0.0f ? in[i] : alpha * in[i];
      break;
    case Activation::kSigmoid:
      for (int64_t i = 0; i < n; ++i) o[i] = 1.0f / (1.0f + std::exp(-in[i]));
      break;
  }
  return out;
}

Tensor add_reference(const Tensor& a, const Tensor& b) {
  IGC_CHECK(a.shape() == b.shape());
  Tensor out(a.shape(), DType::kFloat32);
  const float* pa = a.data_f32();
  const float* pb = b.data_f32();
  float* o = out.data_f32();
  for (int64_t i = 0; i < a.numel(); ++i) o[i] = pa[i] + pb[i];
  return out;
}

Tensor scale_shift_reference(const Tensor& input, const Tensor& scale,
                             const Tensor& shift) {
  IGC_CHECK_EQ(input.shape().ndim(), 4);
  const int64_t n = input.shape()[0];
  const int64_t c = input.shape()[1];
  const int64_t hw = input.shape()[2] * input.shape()[3];
  IGC_CHECK_EQ(scale.numel(), c);
  IGC_CHECK_EQ(shift.numel(), c);
  Tensor out(input.shape(), DType::kFloat32);
  const float* in = input.data_f32();
  const float* sc = scale.data_f32();
  const float* sh = shift.data_f32();
  float* o = out.data_f32();
  for (int64_t in_idx = 0; in_idx < n; ++in_idx) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float s = sc[ci];
      const float t = sh[ci];
      const float* src = in + (in_idx * c + ci) * hw;
      float* dst = o + (in_idx * c + ci) * hw;
      for (int64_t j = 0; j < hw; ++j) dst[j] = src[j] * s + t;
    }
  }
  return out;
}

Tensor concat_channels_reference(const std::vector<Tensor>& inputs) {
  IGC_CHECK(!inputs.empty());
  const int64_t n = inputs[0].shape()[0];
  const int64_t h = inputs[0].shape()[2];
  const int64_t w = inputs[0].shape()[3];
  int64_t total_c = 0;
  for (const Tensor& t : inputs) {
    IGC_CHECK_EQ(t.shape().ndim(), 4);
    IGC_CHECK_EQ(t.shape()[0], n);
    IGC_CHECK_EQ(t.shape()[2], h);
    IGC_CHECK_EQ(t.shape()[3], w);
    total_c += t.shape()[1];
  }
  Tensor out(Shape{n, total_c, h, w}, DType::kFloat32);
  float* o = out.data_f32();
  for (int64_t in_idx = 0; in_idx < n; ++in_idx) {
    int64_t c_off = 0;
    for (const Tensor& t : inputs) {
      const int64_t c = t.shape()[1];
      const float* src = t.data_f32() + in_idx * c * h * w;
      std::copy(src, src + c * h * w,
                o + (in_idx * total_c + c_off) * h * w);
      c_off += c;
    }
  }
  return out;
}

Tensor softmax_reference(const Tensor& input) {
  const int ndim = input.shape().ndim();
  IGC_CHECK_GE(ndim, 1);
  const int64_t last = input.shape()[ndim - 1];
  const int64_t rows = input.numel() / last;
  Tensor out(input.shape(), DType::kFloat32);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = in + r * last;
    float* dst = o + r * last;
    const float m = *std::max_element(src, src + last);
    double sum = 0.0;
    for (int64_t i = 0; i < last; ++i) {
      dst[i] = std::exp(src[i] - m);
      sum += dst[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t i = 0; i < last; ++i) dst[i] *= inv;
  }
  return out;
}

Tensor upsample2x_reference(const Tensor& input) {
  IGC_CHECK_EQ(input.shape().ndim(), 4);
  const int64_t n = input.shape()[0];
  const int64_t c = input.shape()[1];
  const int64_t h = input.shape()[2];
  const int64_t w = input.shape()[3];
  Tensor out(Shape{n, c, 2 * h, 2 * w}, DType::kFloat32);
  const float* in = input.data_f32();
  float* o = out.data_f32();
  for (int64_t p = 0; p < n * c; ++p) {
    const float* src = in + p * h * w;
    float* dst = o + p * 4 * h * w;
    for (int64_t y = 0; y < 2 * h; ++y) {
      for (int64_t x = 0; x < 2 * w; ++x) {
        dst[y * 2 * w + x] = src[(y / 2) * w + (x / 2)];
      }
    }
  }
  return out;
}

sim::KernelLaunch elementwise_kernel_cost(const std::string& name, int64_t numel,
                                          int inputs_per_elem,
                                          int64_t flops_per_elem) {
  sim::KernelLaunch k;
  k.name = name;
  k.flops = numel * flops_per_elem;
  k.work_items = numel;
  k.work_group_size = 64;
  k.compute_efficiency = 0.6;  // bandwidth bound in practice
  k.dram_read_bytes = 4 * numel * inputs_per_elem;
  k.dram_write_bytes = 4 * numel;
  return k;
}

sim::KernelLaunch layout_transform_kernel_cost(const std::string& name,
                                               int64_t numel) {
  return elementwise_kernel_cost(name, numel, /*inputs_per_elem=*/1,
                                 /*flops_per_elem=*/1);
}

}  // namespace igc::ops
