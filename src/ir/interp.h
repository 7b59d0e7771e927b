// Host interpreter for LoweredKernel.
//
// Executes the IR exactly as written — bound axes (block/thread indices) are
// iterated like loops — so the same program that codegen prints as OpenCL or
// CUDA can be validated numerically against the operator library on small
// inputs. Every buffer and local-array access is bounds-checked, so an
// out-of-range index throws instead of reading a neighbouring element.
#pragma once

#include <map>
#include <string>

#include "ir/expr.h"
#include "tensor/tensor.h"

namespace igc::ir {

/// Binds kernel parameters by name to host tensors and runs the kernel.
/// Tensors must match the parameter's dtype and have at least `size`
/// elements; output tensors are written in place.
void interpret(const LoweredKernel& kernel,
               const std::map<std::string, Tensor>& buffers);

}  // namespace igc::ir
