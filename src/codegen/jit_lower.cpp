#include "codegen/jit_lower.h"

#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "codegen/codegen.h"
#include "core/error.h"
#include "core/hash.h"
#include "obs/metrics.h"
#include "ops/nn/host_kernels.h"

namespace igc::codegen::jit {
namespace {

using graph::Node;
using graph::OpKind;

/// One deduplicated kernel being assembled into the module.
struct PendingKernel {
  std::string symbol;
  ir::LoweredKernel lowered;
};

/// A node's lowering outcome before symbol resolution.
struct NodePlan {
  int node_id = -1;
  std::string signature;  // dedup key
  NodeKernel kernel;      // fn filled in after dlopen
};

ops::HostEpilogue node_epilogue(const Node& n) {
  ops::HostEpilogue e;
  e.activation = n.fused_activation;
  e.act = n.fused_act;
  e.act_alpha = n.fused_act_alpha;
  return e;
}

/// True when the node's fused epilogue is expressible on the host target.
bool epilogue_supported(const Node& n) {
  return !n.fused_activation || ops::host_act_supported(n.fused_act);
}

void sig_epilogue(std::ostringstream& os, const ops::HostEpilogue& e) {
  if (e.activation) {
    os << "_act" << static_cast<int>(e.act);
    if (e.act == ops::Activation::kLeakyRelu) os << "a" << e.act_alpha;
  }
}

}  // namespace

LowerResult build_dispatch_table(const graph::Graph& g, KernelCache& cache) {
  LowerResult result;
  const ops::HostConvTile tile =
      ops::host_conv_tile(Toolchain::host().isa_level());

  // ---- Lower every coverable node, deduplicating by signature -----------
  std::vector<NodePlan> plans;
  std::map<std::string, PendingKernel> kernels;  // signature -> kernel

  auto intern = [&](const std::string& sig,
                    const std::function<ir::LoweredKernel(
                        const std::string& symbol)>& build) -> PendingKernel& {
    auto it = kernels.find(sig);
    if (it != kernels.end()) return it->second;
    PendingKernel pk;
    pk.symbol = "igc_k" + hex64(fnv1a(sig));
    pk.lowered = build(pk.symbol);
    return kernels.emplace(sig, std::move(pk)).first->second;
  };

  for (const Node& n : g.nodes()) {
    NodePlan plan;
    plan.node_id = n.id;
    switch (n.kind) {
      case OpKind::kConv2d: {
        if (!epilogue_supported(n)) continue;
        const ops::Conv2dParams& p = n.conv;
        const bool bias = n.bias.defined();
        const ops::HostEpilogue e = node_epilogue(n);
        std::ostringstream sig;
        sig << "conv_" << p.workload_key() << (bias ? "_b" : "");
        sig_epilogue(sig, e);
        const PendingKernel& pk = intern(sig.str(), [&](const std::string& sym) {
          return ops::conv2d_build_host_ir(p, bias, e, sym, tile);
        });
        plan.signature = sig.str();
        plan.kernel.grid = pk.lowered.grid_size();
        plan.kernel.pad_h = p.pad_h;
        plan.kernel.pad_w = p.pad_w;
        plan.kernel.args = {ArgKind::kPaddedInput0, ArgKind::kWeight};
        if (bias) plan.kernel.args.push_back(ArgKind::kBias);
        plan.kernel.args.push_back(ArgKind::kOutput);
        break;
      }
      case OpKind::kDense: {
        if (!epilogue_supported(n)) continue;
        const ops::DenseParams& p = n.dense;
        const bool bias = n.bias.defined();
        const ops::HostEpilogue e = node_epilogue(n);
        std::ostringstream sig;
        sig << "dense_" << p.batch << "x" << p.in_features << "x"
            << p.out_features << (bias ? "_b" : "");
        sig_epilogue(sig, e);
        const PendingKernel& pk = intern(sig.str(), [&](const std::string& sym) {
          return ops::dense_build_host_ir(p, bias, e, sym);
        });
        plan.signature = sig.str();
        plan.kernel.grid = pk.lowered.grid_size();
        plan.kernel.args = {ArgKind::kInput0, ArgKind::kWeight};
        if (bias) plan.kernel.args.push_back(ArgKind::kBias);
        plan.kernel.args.push_back(ArgKind::kOutput);
        break;
      }
      case OpKind::kAdd: {
        if (!epilogue_supported(n)) continue;
        const int64_t numel = n.out_shape.numel();
        const ops::HostEpilogue e = node_epilogue(n);
        std::ostringstream sig;
        sig << "add_" << numel;
        sig_epilogue(sig, e);
        const PendingKernel& pk = intern(sig.str(), [&](const std::string& sym) {
          return ops::add_build_host_ir(numel, e, sym);
        });
        plan.signature = sig.str();
        plan.kernel.grid = pk.lowered.grid_size();
        plan.kernel.args = {ArgKind::kInput0, ArgKind::kInput1,
                            ArgKind::kOutput};
        break;
      }
      case OpKind::kActivation: {
        if (!ops::host_act_supported(n.act) || n.fused_activation) continue;
        const int64_t numel = n.out_shape.numel();
        std::ostringstream sig;
        sig << "act" << static_cast<int>(n.act) << "_" << numel;
        if (n.act == ops::Activation::kLeakyRelu) sig << "a" << n.act_alpha;
        const PendingKernel& pk = intern(sig.str(), [&](const std::string& sym) {
          return ops::activation_build_host_ir(numel, n.act, n.act_alpha, sym);
        });
        plan.signature = sig.str();
        plan.kernel.grid = pk.lowered.grid_size();
        plan.kernel.args = {ArgKind::kInput0, ArgKind::kOutput};
        break;
      }
      case OpKind::kScaleShift: {
        // The scale_shift kernel has no activation epilogue: a fused one
        // keeps the node on the reference path.
        if (n.fused_activation) continue;
        if (n.out_shape.ndim() < 2) continue;
        const int64_t nb = n.out_shape[0];
        const int64_t c = n.out_shape[1];
        const int64_t hw = n.out_shape.numel() / (nb * c);
        std::ostringstream sig;
        sig << "ss_" << nb << "x" << c << "x" << hw;
        const PendingKernel& pk = intern(sig.str(), [&](const std::string& sym) {
          return ops::scale_shift_build_host_ir(nb, c, hw, sym);
        });
        plan.signature = sig.str();
        plan.kernel.grid = pk.lowered.grid_size();
        plan.kernel.args = {ArgKind::kInput0, ArgKind::kScale, ArgKind::kShift,
                            ArgKind::kOutput};
        break;
      }
      default:
        continue;
    }
    plans.push_back(std::move(plan));
  }

  if (plans.empty()) return result;

  // ---- Emit one translation unit (kernels in symbol order, so the source
  // bytes — and thus the cache key — are deterministic) -------------------
  std::map<std::string, const ir::LoweredKernel*> by_symbol;
  for (const auto& [sig, pk] : kernels) by_symbol[pk.symbol] = &pk.lowered;
  std::ostringstream src;
  src << "// igc JIT module: " << by_symbol.size() << " kernels\n";
  for (const auto& [sym, lk] : by_symbol) src << "\n" << emit_cpp(*lk);
  const std::string source = src.str();

  // ---- Compile / load through the artifact cache ------------------------
  auto& m = obs::MetricsRegistry::global();
  const int64_t invocations_before = m.counter("jit.toolchain_invocations").value();
  std::string err;
  std::shared_ptr<Module> module = cache.load_or_compile(source, &err);
  if (m.counter("jit.toolchain_invocations").value() > invocations_before) {
    m.counter("jit.kernels_compiled").add(static_cast<int64_t>(kernels.size()));
  }
  if (module == nullptr) {
    result.error = err;
    return result;
  }

  // ---- Resolve symbols and bind nodes -----------------------------------
  auto table = std::make_shared<DispatchTable>();
  table->module = module;
  for (NodePlan& plan : plans) {
    const std::string& sym = kernels.at(plan.signature).symbol;
    void* addr = module->symbol(sym);
    IGC_CHECK(addr != nullptr) << "missing JIT symbol " << sym;
    plan.kernel.fn = reinterpret_cast<KernelFn>(addr);
    table->nodes.emplace(plan.node_id, std::move(plan.kernel));
  }
  result.table = std::move(table);
  result.kernels = static_cast<int>(kernels.size());
  result.nodes_covered = static_cast<int>(plans.size());
  return result;
}

}  // namespace igc::codegen::jit
