// Data layouts for activation and weight tensors.
//
// The graph tuner (Sec. 3.2.3) chooses, per convolution, between the plain
// NCHW layout and channel-blocked NCHW[x]c layouts (x = 4/8/16), trading
// kernel efficiency against layout-transform overhead. Weights use OIHW or
// the matching blocked OIHW[x]i[x]o form.
#pragma once

#include <cstdint>
#include <string>

#include "core/error.h"
#include "tensor/tensor.h"

namespace igc {

/// Activation layouts. kNCHWc covers NCHW[x]c for any block size held in
/// Layout::block.
enum class LayoutKind : uint8_t {
  kNCHW,
  kNCHWc,
};

/// A concrete layout: kind + channel block size (1 for plain NCHW).
struct Layout {
  LayoutKind kind = LayoutKind::kNCHW;
  int block = 1;

  static Layout nchw() { return Layout{LayoutKind::kNCHW, 1}; }
  static Layout nchwc(int block) {
    IGC_CHECK_GT(block, 1);
    return Layout{LayoutKind::kNCHWc, block};
  }

  bool operator==(const Layout& o) const {
    return kind == o.kind && block == o.block;
  }
  bool operator!=(const Layout& o) const { return !(*this == o); }

  std::string str() const {
    if (kind == LayoutKind::kNCHW) return "NCHW";
    return "NCHW" + std::to_string(block) + "c";
  }
};

/// Converts an NCHW activation tensor to NCHW[x]c. Channels must be divisible
/// by the block size. Result shape is (N, C/b, H, W, b).
Tensor nchw_to_nchwc(const Tensor& src, int block);

/// Converts an NCHW[x]c activation tensor of shape (N, C/b, H, W, b) back to
/// NCHW.
Tensor nchwc_to_nchw(const Tensor& src);

}  // namespace igc
