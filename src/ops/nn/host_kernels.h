// Host-schedule lowerings for the JIT backend: the same unified IR as the
// device conv template (conv2d_build_ir), but scheduled for a host CPU
// compiled through codegen::emit_cpp — block axes become the dispatch grid,
// everything else plain loops the host compiler vectorizes.
//
// Bit-identity contract: each builder reproduces the corresponding reference
// operator's floating-point evaluation exactly — same accumulation order per
// output element, same single-precision intermediates, min/max as the
// std::min/std::max ternaries — so the executor can swap a JIT kernel for
// the reference implementation with bit-identical outputs (given the JIT
// toolchain's -ffp-contract=off, which holds at every ISA level). The only
// licensed deviations are ones that cannot change bits: the convolution
// consumes a zero-padded input so the out-of-bounds taps the reference skips
// become `acc + 0.0f * w` no-ops, it computes (and discards) outputs in the
// padded columns of its flat stride-1 tiles, and independent outputs may be
// computed in any order.
#pragma once

#include "ir/expr.h"
#include "ops/nn/conv2d.h"
#include "ops/nn/nn_ops.h"

namespace igc::ops {

/// The activation epilogue fused into a conv/dense/add host kernel (mirrors
/// Node::fused_activation, which graph::reference_output() applies
/// tensor-by-tensor).
struct HostEpilogue {
  bool activation = false;
  Activation act = Activation::kRelu;
  float act_alpha = 0.1f;
};

/// True when the JIT can express this activation (sigmoid needs a
/// transcendental the IR does not model; such nodes stay on the reference
/// path).
bool host_act_supported(Activation act);

/// Register tile of the host conv: each block keeps `tc` output channels x
/// `tj` output positions in a local accumulator array for the whole
/// ci -> ky -> kx reduction. Sized per x86-64 ISA level (DESIGN.md,
/// "Host-JIT numerics backend"); not a tuning knob.
struct HostConvTile {
  int64_t tc = 0;
  int64_t tj = 0;
};

/// The tile for the level codegen::jit::Toolchain::isa_level() reports
/// (2, 3, 4; 0 is the compiler's baseline target).
HostConvTile host_conv_tile(int isa_level);

/// Direct convolution over a *pre-padded* input, any groups count
/// (depthwise included). Buffers in order: data (N, CI, H+2ph, W+2pw),
/// weight, [bias], out.
///
/// Grid = batch x channel groups x position tiles. One block owns TC output
/// channels (the largest divisor of the group's out-channels <= tile.tc, so
/// depthwise runs TC = 1) times one tile of up to tile.tj positions, held in
/// a local array: seeded from the bias (or 0), accumulated ci -> ky -> kx
/// with TC weight scalars per tap, then the fused activation and the store.
/// Full tiles and the tail tile are separate bodies with constant extents.
///   * Stride 1: positions are flat, j = y * PW + x over the padded row
///     pitch PW, so every tap reads one contiguous run. Positions with
///     x >= OW (the PW - OW pad columns of each row) are computed from
///     in-bounds padded data and dropped, never stored. J = (OH-1)*PW + OW
///     positions cover the plane; the largest data index read is
///     (PH-1)*PW + PW-1 of the plane.
///   * Stride > 1: a tile is tile.tj consecutive x of one output row, plus
///     an x tail per row.
ir::LoweredKernel conv2d_build_host_ir(const Conv2dParams& p, bool bias,
                                       const HostEpilogue& e,
                                       const std::string& name,
                                       HostConvTile tile);

/// Dense (GEMV) kernel. Buffers: data (N, CI), weight (CO, CI), [bias],
/// out (N, CO). Grid = N*CO; the ci reduction runs ascending like
/// dense_reference.
ir::LoweredKernel dense_build_host_ir(const DenseParams& p, bool bias,
                                      const HostEpilogue& e,
                                      const std::string& name);

/// Elementwise activation over `numel` elements (relu / leaky only).
/// Buffers: data, out. Grid = ceil(numel / chunk).
ir::LoweredKernel activation_build_host_ir(int64_t numel, Activation act,
                                           float alpha,
                                           const std::string& name);

/// Elementwise add with optional fused activation. Buffers: a, b, out.
ir::LoweredKernel add_build_host_ir(int64_t numel, const HostEpilogue& e,
                                    const std::string& name);

/// Per-channel affine over NCHW. Buffers: data, scale, shift, out.
/// Grid = n*c planes.
ir::LoweredKernel scale_shift_build_host_ir(int64_t n, int64_t c, int64_t hw,
                                            const std::string& name);

}  // namespace igc::ops
