// Unit tests for src/ir and src/codegen: expression semantics, the
// interpreter, conv2d lowering, and the OpenCL/CUDA printers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "codegen/codegen.h"
#include "core/rng.h"
#include "ir/expr.h"
#include "ir/interp.h"
#include "ir/simplify.h"
#include "ops/nn/conv2d.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

using namespace igc::ir;  // NOLINT

TEST(Expr, DtypePropagation) {
  auto i = add(imm(1), imm(2));
  EXPECT_EQ(i->dtype, DType::kInt32);
  auto f = add(imm(1), fimm(2.0));
  EXPECT_EQ(f->dtype, DType::kFloat32);
  auto cmp = lt(fimm(1.0), fimm(2.0));
  EXPECT_EQ(cmp->dtype, DType::kInt32);
}

TEST(Expr, BoundAxisClassification) {
  EXPECT_TRUE(is_bound(IterKind::kBlockX));
  EXPECT_TRUE(is_bound(IterKind::kThreadZ));
  EXPECT_FALSE(is_bound(IterKind::kSerial));
  EXPECT_FALSE(is_bound(IterKind::kUnrolled));
  EXPECT_FALSE(is_bound(IterKind::kVectorized));
}

TEST(LoweredKernel, GridAndBlockSizes) {
  LoweredKernel k;
  k.body = {make_for({"b", 10, IterKind::kBlockX},
                     {make_for({"t", 32, IterKind::kThreadX},
                               {make_comment("body")})})};
  EXPECT_EQ(k.grid_size(), 10);
  EXPECT_EQ(k.block_size(), 32);
}

/// A simple saxpy kernel exercises loop + load + store + locals end to end.
LoweredKernel make_saxpy(int64_t n, float alpha) {
  LoweredKernel k;
  k.name = "saxpy";
  k.params = {{"x", DType::kFloat32, n, false},
              {"y", DType::kFloat32, n, true}};
  auto i = var("i");
  auto body = make_store(
      "y", i, add(mul(fimm(alpha), load("x", i)), load("y", i)));
  k.body = {make_for({"i", n, IterKind::kBlockX}, {body})};
  return k;
}

TEST(Interp, SaxpyMatchesDirectComputation) {
  const int64_t n = 64;
  Rng rng(5);
  Tensor x = Tensor::random_uniform(Shape{n}, rng);
  Tensor y = Tensor::random_uniform(Shape{n}, rng);
  Tensor y_expected = y.clone();
  for (int64_t i = 0; i < n; ++i) {
    y_expected.data_f32()[i] += 2.5f * x.data_f32()[i];
  }
  interpret(make_saxpy(n, 2.5f), {{"x", x}, {"y", y}});
  EXPECT_LT(y.max_abs_diff(y_expected), 1e-6f);
}

TEST(Interp, SelectAndBoundsGuard) {
  // out[i] = i < 3 ? 1 : 0, via a select expression.
  LoweredKernel k;
  k.name = "sel";
  k.params = {{"out", DType::kFloat32, 8, true}};
  auto i = var("i");
  k.body = {make_for({"i", 8, IterKind::kSerial},
                     {make_store("out", i,
                                 select(lt(i, imm(3)), fimm(1.0), fimm(0.0)))})};
  Tensor out = Tensor::zeros(Shape{8});
  interpret(k, {{"out", out}});
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(out.data_f32()[j], j < 3 ? 1.0f : 0.0f);
  }
}

TEST(Interp, OutOfBoundsLoadThrows) {
  LoweredKernel k;
  k.name = "oob";
  k.params = {{"x", DType::kFloat32, 4, false},
              {"out", DType::kFloat32, 4, true}};
  k.body = {make_store("out", imm(0), load("x", imm(10)))};
  Tensor x = Tensor::zeros(Shape{4});
  Tensor out = Tensor::zeros(Shape{4});
  EXPECT_THROW(interpret(k, {{"x", x}, {"out", out}}), Error);
}

TEST(Interp, MissingBufferThrows) {
  LoweredKernel k = make_saxpy(4, 1.0f);
  Tensor x = Tensor::zeros(Shape{4});
  EXPECT_THROW(interpret(k, {{"x", x}}), Error);
}

/// A register-tile shaped kernel: out[i] = sum_k x[k] * (i + 1), with the
/// running sums held in a local array across the k loop.
LoweredKernel make_local_array_kernel(int64_t n, int64_t m) {
  LoweredKernel k;
  k.name = "tile";
  k.params = {{"x", DType::kFloat32, m, false},
              {"out", DType::kFloat32, n, true}};
  auto i = var("i");
  k.body = {make_for(
      {"b", 1, IterKind::kBlockX},
      {make_decl_array("acc", DType::kFloat32, n),
       make_for({"i", n, IterKind::kUnrolled},
                {make_store("acc", i, fimm(0.0))}),
       make_for({"k", m, IterKind::kSerial},
                {make_for({"i", n, IterKind::kVectorized},
                          {make_store("acc", i,
                                      add(load("acc", i),
                                          mul(load("x", var("k")),
                                              add(i, imm(1)))))})}),
       make_for({"i", n, IterKind::kSerial},
                {make_store("out", i, load("acc", i))})})};
  return k;
}

TEST(LocalArray, InterpreterAccumulatesInTheArray) {
  Tensor x = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 4.0f});
  Tensor out = Tensor::zeros(Shape{4});
  interpret(make_local_array_kernel(4, 3), {{"x", x}, {"out", out}});
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out.data_f32()[i], 7.0f * static_cast<float>(i + 1));
  }
}

TEST(LocalArray, OutOfRangeIndexThrows) {
  LoweredKernel k;
  k.name = "oob_local";
  k.params = {{"out", DType::kFloat32, 1, true}};
  k.body = {make_decl_array("acc", DType::kFloat32, 4),
            make_store("acc", imm(4), fimm(1.0))};
  Tensor out = Tensor::zeros(Shape{1});
  EXPECT_THROW(interpret(k, {{"out", out}}), Error);
  k.body = {make_decl_array("acc", DType::kFloat32, 4),
            make_store("out", imm(0), load("acc", imm(-1)))};
  EXPECT_THROW(interpret(k, {{"out", out}}), Error);
}

TEST(LocalArray, ReadBeforeWriteIsNaN) {
  LoweredKernel k;
  k.name = "uninit";
  k.params = {{"out", DType::kFloat32, 1, true}};
  k.body = {make_decl_array("acc", DType::kFloat32, 2),
            make_store("out", imm(0), load("acc", imm(1)))};
  Tensor out = Tensor::zeros(Shape{1});
  interpret(k, {{"out", out}});
  EXPECT_TRUE(std::isnan(out.data_f32()[0]));
}

TEST(LocalArray, DevicePrintersEmitAPrivateArray) {
  const LoweredKernel k = make_local_array_kernel(4, 3);
  const std::string cl = codegen::emit_opencl(k);
  EXPECT_NE(cl.find("__private float acc[4];"), std::string::npos) << cl;
  EXPECT_NE(cl.find("acc[i] = (acc[i] + "), std::string::npos) << cl;
  const std::string cu = codegen::emit_cuda(k);
  EXPECT_NE(cu.find("  float acc[4];"), std::string::npos) << cu;
  EXPECT_EQ(cu.find("__private"), std::string::npos) << cu;
  EXPECT_NE(codegen::emit_cpp(k).find("float acc[4];"), std::string::npos);
}

TEST(LocalArray, SimplifyKeepsTheDeclaration) {
  const LoweredKernel k = simplify(make_local_array_kernel(4, 3));
  ASSERT_EQ(k.body.size(), 1u);
  const StmtPtr& decl = k.body[0]->body.at(0);
  EXPECT_EQ(decl->kind, StmtKind::kDeclArray);
  EXPECT_EQ(decl->buffer, "acc");
  EXPECT_EQ(decl->extent, 4);
  EXPECT_EQ(decl->dtype, DType::kFloat32);
  // The simplified kernel still computes the same result.
  Tensor x = Tensor::from_vector(Shape{3}, {1.0f, 2.0f, 4.0f});
  Tensor out = Tensor::zeros(Shape{4});
  interpret(k, {{"x", x}, {"out", out}});
  EXPECT_EQ(out.data_f32()[3], 28.0f);
}

// Infinities and NaN have no decimal spelling: each dialect prints a
// literal its compiler accepts (OpenCL C predefines INFINITY and NAN; CUDA
// reinterprets the IEEE bit pattern).
TEST(Codegen, NonFiniteFloatImmediatesPerDialect) {
  const double inf = std::numeric_limits<double>::infinity();
  LoweredKernel k;
  k.name = "nonfinite";
  k.params = {{"out", DType::kFloat32, 3, true}};
  k.body = {make_store("out", imm(0), fimm(inf)),
            make_store("out", imm(1), fimm(-inf)),
            make_store("out", imm(2),
                       fimm(std::numeric_limits<double>::quiet_NaN()))};
  const std::string cl = codegen::emit_opencl(k);
  EXPECT_NE(cl.find("out[0] = INFINITY;"), std::string::npos) << cl;
  EXPECT_NE(cl.find("out[1] = (-INFINITY);"), std::string::npos) << cl;
  EXPECT_NE(cl.find("out[2] = NAN;"), std::string::npos) << cl;
  const std::string cu = codegen::emit_cuda(k);
  EXPECT_NE(cu.find("out[0] = __int_as_float(0x7f800000);"), std::string::npos)
      << cu;
  EXPECT_NE(cu.find("out[1] = __int_as_float(0xff800000);"), std::string::npos)
      << cu;
  EXPECT_NE(cu.find("out[2] = __int_as_float(0x7fffffff);"), std::string::npos)
      << cu;
  const std::string cpp = codegen::emit_cpp(k);
  EXPECT_NE(cpp.find("out[0LL] = __builtin_inff();"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("out[1LL] = (-__builtin_inff());"), std::string::npos)
      << cpp;
  EXPECT_NE(cpp.find("out[2LL] = __builtin_nanf(\"\");"), std::string::npos)
      << cpp;
  EXPECT_EQ(cpp.find("inff;"), std::string::npos) << cpp;
}

TEST(Codegen, OpenClUsesOpenClIdioms) {
  const LoweredKernel k = make_saxpy(64, 1.0f);
  const std::string src = codegen::emit_opencl(k);
  EXPECT_NE(src.find("__kernel void saxpy"), std::string::npos);
  EXPECT_NE(src.find("__global"), std::string::npos);
  EXPECT_NE(src.find("get_group_id(0)"), std::string::npos);
  EXPECT_EQ(src.find("blockIdx"), std::string::npos);
}

TEST(Codegen, CudaUsesCudaIdioms) {
  const LoweredKernel k = make_saxpy(64, 1.0f);
  const std::string src = codegen::emit_cuda(k);
  EXPECT_NE(src.find("__global__ void saxpy"), std::string::npos);
  EXPECT_NE(src.find("blockIdx.x"), std::string::npos);
  EXPECT_EQ(src.find("get_group_id"), std::string::npos);
}

TEST(Codegen, IntelSubgroupPragmaOnlyWhenRequested) {
  const LoweredKernel k = make_saxpy(8, 1.0f);
  EXPECT_NE(codegen::emit_opencl(k, true).find("cl_intel_subgroups"),
            std::string::npos);
  EXPECT_EQ(codegen::emit_opencl(k, false).find("cl_intel_subgroups"),
            std::string::npos);
}

TEST(Codegen, DeviceDispatch) {
  const LoweredKernel k = make_saxpy(8, 1.0f);
  const auto& deeplens = sim::platform(sim::PlatformId::kDeepLens).gpu;
  const auto& nano = sim::platform(sim::PlatformId::kJetsonNano).gpu;
  const auto& mali = sim::platform(sim::PlatformId::kAiSage).gpu;
  EXPECT_NE(codegen::emit_for_device(k, deeplens).find("cl_intel_subgroups"),
            std::string::npos);
  EXPECT_NE(codegen::emit_for_device(k, nano).find("__global__"),
            std::string::npos);
  // Mali gets OpenCL without the Intel extension.
  const std::string mali_src = codegen::emit_for_device(k, mali);
  EXPECT_NE(mali_src.find("__kernel"), std::string::npos);
  EXPECT_EQ(mali_src.find("cl_intel_subgroups"), std::string::npos);
}

TEST(Codegen, BarrierMapsPerDialect) {
  LoweredKernel k;
  k.name = "b";
  k.params = {{"out", DType::kFloat32, 1, true}};
  k.body = {make_barrier(), make_store("out", imm(0), fimm(0.0))};
  EXPECT_NE(codegen::emit_opencl(k).find("barrier(CLK_LOCAL_MEM_FENCE)"),
            std::string::npos);
  EXPECT_NE(codegen::emit_cuda(k).find("__syncthreads()"), std::string::npos);
}

// The flagship unified-IR test: one lowered conv2d program, interpreted on
// the host, must match the operator library's reference convolution; the
// same program prints as both OpenCL and CUDA.
class ConvIrTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvIrTest, InterpretedConvMatchesReference) {
  const auto [ci, co, k] = GetParam();
  ops::Conv2dParams p;
  p.batch = 1;
  p.in_channels = ci;
  p.in_h = p.in_w = 8;
  p.out_channels = co;
  p.kernel_h = p.kernel_w = k;
  p.pad_h = p.pad_w = k / 2;

  tune::ScheduleConfig cfg;
  cfg.set("tile_oc", co >= 4 ? 4 : 1);
  cfg.set("tile_ow", 4);
  cfg.set("unroll", 2);

  Rng rng(11);
  Tensor input = Tensor::random_uniform(
      Shape{p.batch, p.in_channels, p.in_h, p.in_w}, rng);
  Tensor weight = Tensor::random_uniform(
      Shape{p.out_channels, p.in_channels, p.kernel_h, p.kernel_w}, rng);
  const Tensor expected = ops::conv2d_reference(input, weight, nullptr, p);

  const LoweredKernel kernel = ops::conv2d_build_ir(p, cfg);
  Tensor out = Tensor::zeros(expected.shape());
  interpret(kernel, {{"data", input}, {"weight", weight}, {"out", out}});
  EXPECT_LT(out.max_abs_diff(expected), 1e-4f);

  // And the very same IR prints in both dialects.
  EXPECT_NE(codegen::emit_opencl(kernel).find("__kernel"), std::string::npos);
  EXPECT_NE(codegen::emit_cuda(kernel).find("__global__"), std::string::npos);
}

TEST(Simplify, ConstantFoldingAndIdentities) {
  using namespace igc::ir;  // NOLINT
  // (x * 1) + 0 -> x
  auto x = var("x");
  EXPECT_EQ(simplify(add(mul(x, imm(1)), imm(0))).get(), x.get());
  // 2 + 3 -> 5
  auto folded = simplify(add(imm(2), imm(3)));
  EXPECT_EQ(folded->kind, ExprKind::kIntImm);
  EXPECT_EQ(folded->int_val, 5);
  // x * 0 -> 0
  EXPECT_EQ(simplify(mul(x, imm(0)))->int_val, 0);
  // x - 0 -> x; x / 1 -> x
  EXPECT_EQ(simplify(sub(x, imm(0))).get(), x.get());
  EXPECT_EQ(simplify(div(x, imm(1))).get(), x.get());
  // (1 && cond) -> cond
  auto cond = lt(x, imm(4));
  EXPECT_EQ(simplify(logical_and(imm(1), cond)).get(), cond.get());
  // select(1, a, b) -> a
  EXPECT_EQ(simplify(select(imm(1), x, imm(9))).get(), x.get());
}

TEST(Simplify, DivModByZeroNotFolded) {
  using namespace igc::ir;  // NOLINT
  auto e = simplify(div(imm(4), imm(0)));
  EXPECT_EQ(e->kind, ExprKind::kBinary);  // left for runtime to catch
}

TEST(Simplify, DeadIfBranchesDropped) {
  using namespace igc::ir;  // NOLINT
  auto store = make_store("out", imm(0), fimm(1.0));
  auto dead = make_if(imm(0), {store});
  auto live = make_if(imm(1), {store});
  auto outer = make_for({"i", 2, IterKind::kSerial}, {dead, live});
  auto s = simplify(outer);
  // The dead branch vanishes and the live one is spliced inline.
  ASSERT_EQ(s->body.size(), 1u);
  EXPECT_EQ(s->body[0]->kind, StmtKind::kStore);
}

TEST(Simplify, PreservesConvSemantics) {
  // The conv IR is simplified during lowering; interpreting it must still
  // match the reference (covered by ConvIrTest), and the printed code must
  // not contain trivial identities.
  ops::Conv2dParams p;
  p.in_channels = 2;
  p.in_h = p.in_w = 6;
  p.out_channels = 4;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  tune::ScheduleConfig cfg;
  cfg.set("tile_oc", 2);
  cfg.set("tile_ow", 2);
  cfg.set("unroll", 1);
  const std::string src = codegen::emit_cuda(ops::conv2d_build_ir(p, cfg));
  EXPECT_EQ(src.find("* 1)"), std::string::npos);
  EXPECT_EQ(src.find("+ 0)"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvIrTest,
                         ::testing::Values(std::make_tuple(3, 8, 3),
                                           std::make_tuple(4, 4, 1),
                                           std::make_tuple(8, 16, 3),
                                           std::make_tuple(1, 4, 5)));

}  // namespace
}  // namespace igc
