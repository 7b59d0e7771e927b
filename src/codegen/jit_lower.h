// Graph -> host dispatch table: the lowering step between the optimized
// graph and the JIT runtime (jit.h).
//
// Every coverable node — conv2d (any groups, with fused scale-shift /
// activation epilogues), dense, add, activation, scale-shift — is lowered
// through the host-schedule IR builders (ops/nn/host_kernels.h), deduplicated
// by workload signature, emitted into ONE translation unit via emit_cpp, and
// compiled/loaded through the artifact cache. A model with 60 convs sharing
// 20 distinct workloads costs 20 kernels and exactly one toolchain
// invocation cold — zero warm.
//
// Convs are register-tiled for the ISA level the toolchain compiles for
// (Toolchain::isa_level()): the level picks the tile (ops::host_conv_tile),
// and the level's -march flag is part of the cache key, so the tile shape and
// the instruction set always travel together.
//
// Nodes the host target cannot express (sigmoid activations, pooling,
// softmax, vision ops, double-accumulating global-avg-pool) are simply
// absent from the table; the executor keeps running them on the reference
// path, bit-identically.
#pragma once

#include <memory>
#include <string>

#include "codegen/jit.h"
#include "graph/graph.h"

namespace igc::codegen::jit {

struct LowerResult {
  /// Null when nothing was coverable, no toolchain exists, or the compile
  /// failed (then `error` says why).
  std::shared_ptr<DispatchTable> table;
  int kernels = 0;        // distinct kernels in the module
  int nodes_covered = 0;  // graph nodes bound to a compiled kernel
  std::string error;
};

/// Lowers `g` and compiles its module through `cache`. Records
/// jit.kernels_compiled when the toolchain actually ran (cache misses only).
LowerResult build_dispatch_table(const graph::Graph& g, KernelCache& cache);

}  // namespace igc::codegen::jit
