// The non-convolution neural-network operators used by the model zoo:
// dense (fully connected), pooling, batch norm, activations, elementwise
// arithmetic, concat, softmax, and nearest-neighbor upsampling (YOLOv3).
//
// Each operator has a reference implementation (ground truth) and a cost
// descriptor for the simulator. These ops are memory-bound on integrated
// GPUs; their schedules have a single elementwise template, so they carry no
// per-op config space.
#pragma once

#include <vector>

#include "sim/device_spec.h"
#include "sim/timing_model.h"
#include "tensor/tensor.h"

namespace igc::ops {

// ---- dense ------------------------------------------------------------

struct DenseParams {
  int64_t batch = 1;
  int64_t in_features = 1;
  int64_t out_features = 1;
  int64_t flops() const { return 2 * batch * in_features * out_features; }
};

/// input: (N, CI); weight: (CO, CI); bias: optional (CO). Returns (N, CO).
Tensor dense_reference(const Tensor& input, const Tensor& weight,
                       const Tensor* bias, const DenseParams& p);

sim::KernelLaunch dense_kernel_cost(const DenseParams& p,
                                    const sim::DeviceSpec& dev);

// ---- pooling ----------------------------------------------------------

enum class PoolKind { kMax, kAvg };

struct Pool2dParams {
  PoolKind kind = PoolKind::kMax;
  int64_t kernel = 2;
  int64_t stride = 2;
  int64_t pad = 0;
  /// Average pooling: divide by the full window even when clipped by padding
  /// (count_include_pad), matching the GluonCV default for these models.
  bool count_include_pad = false;

  int64_t out_dim(int64_t in) const { return (in + 2 * pad - kernel) / stride + 1; }
};

Tensor pool2d_reference(const Tensor& input, const Pool2dParams& p);

/// Global average pooling (N, C, H, W) -> (N, C, 1, 1).
Tensor global_avg_pool_reference(const Tensor& input);

sim::KernelLaunch pool2d_kernel_cost(const Shape& in_shape, const Pool2dParams& p);

// ---- batch norm (inference) --------------------------------------------

struct BatchNormParams {
  float epsilon = 1e-5f;
};

/// y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel (dim 1).
Tensor batch_norm_reference(const Tensor& input, const Tensor& gamma,
                            const Tensor& beta, const Tensor& mean,
                            const Tensor& var, const BatchNormParams& p);

/// Folds BN into an affine (scale, shift) per channel — the graph-level
/// "simplify inference" optimization (Sec. 3.2.3).
void fold_batch_norm(const Tensor& gamma, const Tensor& beta,
                     const Tensor& mean, const Tensor& var, float epsilon,
                     Tensor* scale, Tensor* shift);

// ---- activations & elementwise -----------------------------------------

enum class Activation { kRelu, kLeakyRelu, kSigmoid };

Tensor activation_reference(const Tensor& input, Activation act,
                            float alpha = 0.1f);

/// Elementwise binary add (residual connections). Shapes must match.
Tensor add_reference(const Tensor& a, const Tensor& b);

/// Per-channel affine: y[n,c,h,w] = x[n,c,h,w] * scale[c] + shift[c].
Tensor scale_shift_reference(const Tensor& input, const Tensor& scale,
                             const Tensor& shift);

/// Channel concat of NCHW tensors along dim 1.
Tensor concat_channels_reference(const std::vector<Tensor>& inputs);

/// Softmax over the last dimension.
Tensor softmax_reference(const Tensor& input);

/// Nearest-neighbor 2x upsampling of NCHW (YOLOv3 route layers).
Tensor upsample2x_reference(const Tensor& input);

/// Generic cost of an elementwise op over `numel` elements reading
/// `inputs_per_elem` operands.
sim::KernelLaunch elementwise_kernel_cost(const std::string& name, int64_t numel,
                                          int inputs_per_elem,
                                          int64_t flops_per_elem);

/// Cost of converting `numel` elements between NCHW and NCHW[x]c (one read,
/// one write each). The graph tuner's DP weighs layouts with this launch and
/// the executor charges it, so the two cannot disagree.
sim::KernelLaunch layout_transform_kernel_cost(const std::string& name,
                                               int64_t numel);

}  // namespace igc::ops
