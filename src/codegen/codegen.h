// Code generation from the unified IR (Fig. 1: "Code generation" stage).
//
// The same LoweredKernel is printed as OpenCL C for Intel Graphics and ARM
// Mali, or as CUDA C for Nvidia GPUs. Bound itervars become
// get_group_id()/get_local_id() (OpenCL) or blockIdx/threadIdx (CUDA);
// unrolled loops get the dialect's unroll pragma; vectorized loops are
// annotated for the target compiler's vectorizer; barriers map to
// barrier(CLK_LOCAL_MEM_FENCE) / __syncthreads().
#pragma once

#include <string>

#include "ir/expr.h"
#include "sim/device_spec.h"

namespace igc::codegen {

/// Emits OpenCL C source for the kernel. `use_intel_subgroups` additionally
/// emits the Intel subgroup extension pragma (Sec. 3.2.1).
std::string emit_opencl(const ir::LoweredKernel& kernel,
                        bool use_intel_subgroups = false);

/// Emits CUDA C source for the kernel.
std::string emit_cuda(const ir::LoweredKernel& kernel);

/// Emits standalone host C++ for the kernel (the JIT backend's target).
/// The emitted function has C linkage and the uniform signature
///
///   extern "C" void <name>(float* const* bufs, long long blk_lo,
///                          long long blk_hi);
///
/// where bufs[i] is the storage of kernel.params[i] and [blk_lo, blk_hi) is a
/// range of flattened grid blocks (all block-bound axes collapsed,
/// innermost-nested axis fastest; see ir::LoweredKernel::grid_size()). The
/// caller partitions the grid across host threads; thread-bound axes become
/// ordinary serial loops, so one block is one work-group's worth of work on
/// one host thread. Barriers are rejected — host kernels are written without
/// intra-block synchronization. Local arrays print as block-scoped C arrays.
///
/// Float arithmetic is emitted in single precision with min/max as ternaries,
/// matching the reference operators bit for bit when compiled with
/// contraction disabled (the JIT toolchain passes -ffp-contract=off).
std::string emit_cpp(const ir::LoweredKernel& kernel);

/// Dispatches on the device's API (OpenCL for Intel/Mali, CUDA for Nvidia).
std::string emit_for_device(const ir::LoweredKernel& kernel,
                            const sim::DeviceSpec& dev);

}  // namespace igc::codegen
