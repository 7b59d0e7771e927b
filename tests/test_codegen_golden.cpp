// Golden-source tests: pin the exact text the code generators emit for a
// small fixed kernel, so formatting or dialect regressions are caught
// explicitly rather than by downstream string searches.
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "ir/expr.h"
#include "ir/simplify.h"

namespace igc {
namespace {

using namespace igc::ir;  // NOLINT

LoweredKernel make_axpy_plus_guard() {
  // out[i] = i < n ? 2*x[i] + y[i] : out[i] — with one bound axis, one
  // vectorized axis, a local, a guard, and a barrier: every printer feature.
  LoweredKernel k;
  k.name = "axpy";
  k.params = {{"x", DType::kFloat32, 8, false},
              {"y", DType::kFloat32, 8, false},
              {"out", DType::kFloat32, 8, true}};
  auto g = var("g");
  auto v = var("v");
  auto idx = add(mul(g, imm(4)), v);
  std::vector<StmtPtr> body{
      make_decl_local("t", DType::kFloat32,
                      add(mul(fimm(2.0), load("x", idx)), load("y", idx))),
      make_if(lt(idx, imm(6)),
              {make_store("out", idx, var("t", DType::kFloat32))}),
      make_barrier(),
  };
  StmtPtr loop_v = make_for({"v", 4, IterKind::kVectorized}, body);
  StmtPtr loop_g = make_for({"g", 2, IterKind::kBlockX}, {loop_v});
  k.body = {loop_g};
  return simplify(k);
}

constexpr const char* kGoldenOpenCl =
    R"(// generated by igc from the unified IR
__kernel void axpy(__global const float* restrict x, __global const float* restrict y, __global float* restrict out) {
  const int g = (int)get_group_id(0);
  // vectorize: compiler maps this loop onto SIMD lanes
  __attribute__((opencl_unroll_hint))
  for (int v = 0; v < 4; ++v) {
    float t = ((2.0f * x[((g * 4) + v)]) + y[((g * 4) + v)]);
    if ((((g * 4) + v) < 6)) {
      out[((g * 4) + v)] = t;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
}
)";

constexpr const char* kGoldenCuda =
    R"(// generated by igc from the unified IR
extern "C" __global__ void axpy(const float* __restrict__ x, const float* __restrict__ y, float* __restrict__ out) {
  const int g = (int)blockIdx.x;
  // vectorize: compiler maps this loop onto SIMD lanes
  for (int v = 0; v < 4; ++v) {
    float t = ((2.0f * x[((g * 4) + v)]) + y[((g * 4) + v)]);
    if ((((g * 4) + v) < 6)) {
      out[((g * 4) + v)] = t;
    }
    __syncthreads();
  }
}
)";

TEST(CodegenGolden, OpenClExactText) {
  EXPECT_EQ(codegen::emit_opencl(make_axpy_plus_guard()), kGoldenOpenCl);
}

TEST(CodegenGolden, CudaExactText) {
  EXPECT_EQ(codegen::emit_cuda(make_axpy_plus_guard()), kGoldenCuda);
}

/// A kernel storing 1/3 and 2^24: constants the stream default of 6
/// significant digits would print as other floats (0.333333f, 1.67772e+07f).
LoweredKernel make_constant_stores() {
  LoweredKernel k;
  k.name = "consts";
  k.params = {{"out", DType::kFloat32, 2, true}};
  k.body = {make_store("out", imm(0), fimm(1.0f / 3.0f)),
            make_store("out", imm(1), fimm(16777216.0f))};
  return k;
}

TEST(CodegenGolden, FloatLiteralsRoundTripInEveryDialect) {
  const LoweredKernel k = make_constant_stores();
  for (const std::string& src :
       {codegen::emit_opencl(k), codegen::emit_cuda(k), codegen::emit_cpp(k)}) {
    EXPECT_NE(src.find("= 0.333333343f;"), std::string::npos) << src;
    EXPECT_NE(src.find("= 16777216.0f;"), std::string::npos) << src;
  }
}

TEST(CodegenGolden, SubgroupPragmaPrependsOnly) {
  const std::string with_sg =
      codegen::emit_opencl(make_axpy_plus_guard(), /*use_intel_subgroups=*/true);
  EXPECT_EQ(with_sg,
            std::string("#pragma OPENCL EXTENSION cl_intel_subgroups : enable\n") +
                kGoldenOpenCl);
}

}  // namespace
}  // namespace igc
