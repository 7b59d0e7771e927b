#include "ops/nn/host_kernels.h"

#include <algorithm>
#include <functional>

#include "core/error.h"

namespace igc::ops {
namespace {

using ir::add;
using ir::binary;
using ir::div;
using ir::ExprPtr;
using ir::fimm;
using ir::imm;
using ir::IterKind;
using ir::load;
using ir::lt;
using ir::make_decl_local;
using ir::make_assign;
using ir::make_comment;
using ir::make_for;
using ir::make_store;
using ir::make_if;
using ir::max_e;
using ir::mod;
using ir::mul;
using ir::select;
using ir::StmtPtr;
using ir::var;

/// y = act(x) with the reference operators' exact float expressions:
/// relu  -> std::max(0.0f, x)            == ((0.0f) < (x) ? (x) : (0.0f))
/// leaky -> x > 0.0f ? x : alpha * x
ExprPtr apply_act(ExprPtr x, Activation act, float alpha) {
  switch (act) {
    case Activation::kRelu:
      return max_e(fimm(0.0), x);
    case Activation::kLeakyRelu:
      return select(binary(ir::BinOp::kGT, x, fimm(0.0)), x,
                    mul(fimm(static_cast<double>(alpha)), x));
    case Activation::kSigmoid:
      break;
  }
  IGC_CHECK(false) << "activation not lowerable to host IR";
  return x;
}

ExprPtr fvar(const std::string& name) { return var(name, DType::kFloat32); }

}  // namespace

bool host_act_supported(Activation act) {
  return act == Activation::kRelu || act == Activation::kLeakyRelu;
}

// Swept over InceptionV1's convs at each level (DESIGN.md, "Host-JIT
// numerics backend"): the winners keep 12 vector accumulators live where
// the register file allows it.
HostConvTile host_conv_tile(int isa_level) {
  switch (isa_level) {
    case 4:
      return {4, 48};  // AVX-512: 12 of 32 zmm registers
    case 3:
      return {3, 32};  // AVX2: 12 of 16 ymm registers
    default:
      return {3, 24};  // SSE (baseline and v2): 18 xmm, a few spill to L1
  }
}

ir::LoweredKernel conv2d_build_host_ir(const Conv2dParams& p, bool bias,
                                       const HostEpilogue& e,
                                       const std::string& name,
                                       HostConvTile tile) {
  p.validate();
  IGC_CHECK(!e.activation || host_act_supported(e.act));
  IGC_CHECK(tile.tc > 0 && tile.tj > 0);
  const int64_t cig = p.in_channels / p.groups;
  const int64_t cog = p.out_channels / p.groups;
  const int64_t oh = p.out_h();
  const int64_t ow = p.out_w();
  const int64_t ph = p.in_h + 2 * p.pad_h;  // padded input extents
  const int64_t pw = p.in_w + 2 * p.pad_w;

  // A channel group never straddles two conv groups: TC divides cog.
  int64_t tc = std::min(tile.tc, cog);
  while (cog % tc != 0) --tc;
  const int64_t tj = tile.tj;
  // Stride 1 tiles the flat position j = y * PW + x over the padded row
  // pitch, so every tap reads one contiguous run; the PW - OW positions past
  // each row's end are computed and dropped. Larger strides tile the x of
  // one output row.
  const bool flat = p.stride_h == 1 && p.stride_w == 1;
  const int64_t span = flat ? (oh - 1) * pw + ow : ow;
  const int64_t full_tiles = span / tj;
  const int64_t tail = span % tj;
  const int64_t row_tiles = full_tiles + (tail > 0 ? 1 : 0);
  const int64_t tiles = flat ? row_tiles : oh * row_tiles;

  ir::LoweredKernel k;
  k.name = name;
  k.params.push_back({"data", DType::kFloat32,
                      p.batch * p.in_channels * ph * pw, false});
  k.params.push_back({"weight", DType::kFloat32,
                      p.out_channels * cig * p.kernel_h * p.kernel_w, false});
  if (bias) k.params.push_back({"bias", DType::kFloat32, p.out_channels, false});
  k.params.push_back({"out", DType::kFloat32,
                      p.batch * p.out_channels * oh * ow, true});

  const ExprPtr vn = var("n");
  const ExprPtr vt = var("t");
  const ExprPtr vci = var("ci");
  const ExprPtr vky = var("ky");
  const ExprPtr vkx = var("kx");
  const ExprPtr vc = var("c");
  const ExprPtr vj = var("j");
  const ExprPtr vy = var("y");
  const ExprPtr co0 = var("co0");
  const ExprPtr co = add(co0, vc);
  const ExprPtr p0 = var("p0");

  // The block's first output channel co0 and its tile's first position p0:
  // the flat position t * TJ at stride 1, else the first x of output row y.
  std::vector<StmtPtr> block = {
      make_decl_local("co0", DType::kInt32, mul(var("cb"), imm(tc)))};
  if (flat) {
    block.push_back(make_decl_local("p0", DType::kInt32, mul(vt, imm(tj))));
  } else {
    block.push_back(
        make_decl_local("y", DType::kInt32, div(vt, imm(row_tiles))));
    block.push_back(make_decl_local("p0", DType::kInt32,
                                    mul(mod(vt, imm(row_tiles)), imm(tj))));
  }

  // One tile of `width` positions: seed every accumulator from the bias (or
  // 0), add the taps ci -> ky -> kx in reference order, then apply the fused
  // activation and store. The input is pre-padded: taps the reference skips
  // read zeros, and acc + 0.0f * w cannot change the accumulator's bits.
  auto tile_body = [&](int64_t width) {
    const ExprPtr acc_idx = add(mul(vc, imm(width)), vj);
    std::vector<StmtPtr> body;
    body.push_back(ir::make_decl_array("acc", DType::kFloat32, tc * width));
    body.push_back(make_for(
        {"c", tc, IterKind::kUnrolled},
        {make_for({"j", width, IterKind::kVectorized},
                  {make_store("acc", acc_idx,
                              bias ? load("bias", co) : fimm(0.0))})}));

    // in_c = g * cig + ci with g = co0 / cog (grouped); plain ci otherwise.
    const ExprPtr in_c =
        p.groups > 1 ? add(mul(div(co0, imm(cog)), imm(cig)), vci) : vci;
    const ExprPtr row =
        flat ? vky : add(mul(vy, imm(p.stride_h)), vky);  // padded input row
    const ExprPtr col = flat ? add(add(p0, vj), vkx)
                             : add(mul(add(p0, vj), imm(p.stride_w)), vkx);
    const ExprPtr d_idx = add(
        mul(add(mul(add(mul(vn, imm(p.in_channels)), in_c), imm(ph)), row),
            imm(pw)),
        col);
    const ExprPtr w_idx = add(
        mul(add(mul(add(mul(co, imm(cig)), vci), imm(p.kernel_h)), vky),
            imm(p.kernel_w)),
        vkx);
    StmtPtr tap = make_for(
        {"c", tc, IterKind::kUnrolled},
        {make_decl_local("w", DType::kFloat32, load("weight", w_idx)),
         make_for({"j", width, IterKind::kVectorized},
                  {make_store("acc", acc_idx,
                              add(load("acc", acc_idx),
                                  mul(load("data", d_idx), fvar("w"))))})});
    body.push_back(make_for(
        {"ci", cig, IterKind::kSerial},
        {make_for({"ky", p.kernel_h, IterKind::kSerial},
                  {make_for({"kx", p.kernel_w, IterKind::kSerial},
                            {std::move(tap)})})}));

    // Epilogue: the reference activation's per-element float expression.
    const ExprPtr v = fvar("v");
    std::vector<StmtPtr> store;
    store.push_back(make_decl_local("v", DType::kFloat32, load("acc", acc_idx)));
    if (e.activation) {
      store.push_back(make_assign("v", apply_act(v, e.act, e.act_alpha)));
    }
    const ExprPtr plane = add(mul(vn, imm(p.out_channels)), co);
    const ExprPtr x = flat ? var("x") : add(p0, vj);
    store.push_back(make_store(
        "out", add(mul(add(mul(plane, imm(oh)), vy), imm(ow)), x), v));
    std::vector<StmtPtr> j_body;
    if (flat) {
      // Flat position p0 + j is (y, x) = divmod(p0 + j, PW); x >= OW is a
      // pad column, computed but never stored.
      const ExprPtr pos = add(p0, vj);
      j_body = {make_decl_local("y", DType::kInt32, div(pos, imm(pw))),
                make_decl_local("x", DType::kInt32, mod(pos, imm(pw))),
                make_if(lt(x, imm(ow)), std::move(store))};
    } else {
      j_body = std::move(store);
    }
    body.push_back(make_for(
        {"c", tc, IterKind::kUnrolled},
        {make_for({"j", width, IterKind::kSerial}, std::move(j_body))}));
    return body;
  };

  // Full tiles and the tail tile get separate bodies, so each one's loops
  // have constant trip counts the host compiler unrolls and vectorizes.
  if (full_tiles > 0) {
    block.push_back(make_if(lt(p0, imm(full_tiles * tj)), tile_body(tj)));
  }
  if (tail > 0) {
    block.push_back(
        make_if(ir::binary(ir::BinOp::kGE, p0, imm(full_tiles * tj)),
                tile_body(tail)));
  }

  k.body.push_back(make_for(
      {"n", p.batch, IterKind::kBlockZ},
      {make_for({"cb", p.out_channels / tc, IterKind::kBlockY},
                {make_for({"t", tiles, IterKind::kBlockX}, std::move(block))})}));
  return k;
}

ir::LoweredKernel dense_build_host_ir(const DenseParams& p, bool bias,
                                      const HostEpilogue& e,
                                      const std::string& name) {
  IGC_CHECK(!e.activation || host_act_supported(e.act));
  ir::LoweredKernel k;
  k.name = name;
  k.params.push_back({"data", DType::kFloat32, p.batch * p.in_features, false});
  k.params.push_back(
      {"weight", DType::kFloat32, p.out_features * p.in_features, false});
  if (bias) k.params.push_back({"bias", DType::kFloat32, p.out_features, false});
  k.params.push_back({"out", DType::kFloat32, p.batch * p.out_features, true});

  const ExprPtr vnco = var("nco");
  const ExprPtr vn = var("n");
  const ExprPtr vco = var("co");
  const ExprPtr vci = var("ci");
  const ExprPtr acc = fvar("acc");

  std::vector<StmtPtr> body;
  body.push_back(make_decl_local("n", DType::kInt32,
                                 div(vnco, imm(p.out_features))));
  body.push_back(make_decl_local("co", DType::kInt32,
                                 mod(vnco, imm(p.out_features))));
  body.push_back(make_decl_local("acc", DType::kFloat32,
                                 bias ? load("bias", vco) : fimm(0.0)));
  body.push_back(make_for(
      {"ci", p.in_features, IterKind::kSerial},
      {make_assign(
          "acc",
          add(acc, mul(load("data", add(mul(vn, imm(p.in_features)), vci)),
                       load("weight",
                            add(mul(vco, imm(p.in_features)), vci)))))}));
  if (e.activation) {
    body.push_back(make_assign("acc", apply_act(acc, e.act, e.act_alpha)));
  }
  body.push_back(make_store("out", vnco, acc));
  k.body.push_back(make_for(
      {"nco", p.batch * p.out_features, IterKind::kBlockX}, std::move(body)));
  return k;
}

namespace {

/// Shared elementwise frame: grid of `chunk`-element blocks with a bounds
/// guard, body built per element index `idx`.
ir::LoweredKernel elementwise_host_frame(
    int64_t numel, const std::string& name,
    const std::function<std::vector<StmtPtr>(ExprPtr idx)>& body_of) {
  constexpr int64_t kChunk = 4096;
  const int64_t blocks = (numel + kChunk - 1) / kChunk;
  ir::LoweredKernel k;
  k.name = name;
  const ExprPtr idx = var("idx");
  std::vector<StmtPtr> guarded = body_of(idx);
  std::vector<StmtPtr> i_body;
  i_body.push_back(make_decl_local(
      "idx", DType::kInt32,
      add(mul(var("blk"), imm(kChunk)), var("i"))));
  i_body.push_back(make_if(lt(idx, imm(numel)), std::move(guarded)));
  k.body.push_back(make_for(
      {"blk", blocks, IterKind::kBlockX},
      {make_for({"i", kChunk, IterKind::kSerial}, std::move(i_body))}));
  return k;
}

}  // namespace

ir::LoweredKernel activation_build_host_ir(int64_t numel, Activation act,
                                           float alpha,
                                           const std::string& name) {
  IGC_CHECK(host_act_supported(act));
  ir::LoweredKernel k = elementwise_host_frame(
      numel, name, [&](ExprPtr idx) -> std::vector<StmtPtr> {
        return {make_store("out", idx,
                           apply_act(load("data", idx), act, alpha))};
      });
  k.params.insert(k.params.begin(),
                  {{"data", DType::kFloat32, numel, false},
                   {"out", DType::kFloat32, numel, true}});
  return k;
}

ir::LoweredKernel add_build_host_ir(int64_t numel, const HostEpilogue& e,
                                    const std::string& name) {
  IGC_CHECK(!e.activation || host_act_supported(e.act));
  ir::LoweredKernel k = elementwise_host_frame(
      numel, name, [&](ExprPtr idx) -> std::vector<StmtPtr> {
        std::vector<StmtPtr> body;
        body.push_back(make_decl_local(
            "v", DType::kFloat32, add(load("a", idx), load("b", idx))));
        if (e.activation) {
          body.push_back(
              make_assign("v", apply_act(fvar("v"), e.act, e.act_alpha)));
        }
        body.push_back(make_store("out", idx, fvar("v")));
        return body;
      });
  k.params.insert(k.params.begin(),
                  {{"a", DType::kFloat32, numel, false},
                   {"b", DType::kFloat32, numel, false},
                   {"out", DType::kFloat32, numel, true}});
  return k;
}

ir::LoweredKernel scale_shift_build_host_ir(int64_t n, int64_t c, int64_t hw,
                                            const std::string& name) {
  ir::LoweredKernel k;
  k.name = name;
  k.params.push_back({"data", DType::kFloat32, n * c * hw, false});
  k.params.push_back({"scale", DType::kFloat32, c, false});
  k.params.push_back({"shift", DType::kFloat32, c, false});
  k.params.push_back({"out", DType::kFloat32, n * c * hw, true});

  const ExprPtr vp = var("p");
  const ExprPtr vj = var("j");
  const ExprPtr eidx = add(mul(vp, imm(hw)), vj);
  std::vector<StmtPtr> body;
  body.push_back(make_decl_local("ci", DType::kInt32, mod(vp, imm(c))));
  body.push_back(
      make_decl_local("s", DType::kFloat32, load("scale", var("ci"))));
  body.push_back(
      make_decl_local("t", DType::kFloat32, load("shift", var("ci"))));
  body.push_back(make_for(
      {"j", hw, IterKind::kVectorized},
      {make_store("out", eidx,
                  add(mul(load("data", eidx), fvar("s")), fvar("t")))}));
  k.body.push_back(
      make_for({"p", n * c, IterKind::kBlockX}, std::move(body)));
  return k;
}

}  // namespace igc::ops
