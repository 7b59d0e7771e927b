// The paper's Sec. 1 motivation: "the theoretical peak FLOPs of GPUs are
// 5.16x, 6.77x, and 2.48x greater than the accompanying CPUs" on the three
// platforms — so the integrated GPU should carry the inference. This bench
// runs every classification model fully on the integrated GPU (tuned) and
// fully on the companion CPU, per platform.
#include <cstdio>

#include "core/compiler.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "models/models.h"
#include "sim/device_spec.h"

namespace {

using namespace igc;  // NOLINT

/// All compute op kinds — placing them all on the CPU yields a CPU-only run.
std::set<graph::OpKind> every_op_kind() {
  return {graph::OpKind::kConv2d,      graph::OpKind::kConv2dTranspose,
          graph::OpKind::kScaleShift,  graph::OpKind::kActivation,
          graph::OpKind::kAdd,         graph::OpKind::kConcat,
          graph::OpKind::kPool2d,      graph::OpKind::kGlobalAvgPool,
          graph::OpKind::kDense,       graph::OpKind::kFlatten,
          graph::OpKind::kSoftmax,     graph::OpKind::kUpsample2x,
          graph::OpKind::kSsdDetection, graph::OpKind::kYoloDecode,
          graph::OpKind::kDetectionConcat, graph::OpKind::kBoxNms};
}

}  // namespace

int main() {
  std::printf("\n=== Sec. 1 motivation: integrated GPU vs companion CPU ===\n");
  std::printf("%-14s %-16s | %10s %10s %8s | %s\n", "platform", "model",
              "GPU(ms)", "CPU(ms)", "GPU win", "peak-FLOPs ratio");
  for (const sim::Platform& plat : sim::all_platforms()) {
    Rng rng(0x5eed);
    std::vector<models::Model> zoo;
    zoo.push_back(models::build_resnet50(rng));
    zoo.push_back(models::build_mobilenet(rng));
    zoo.push_back(models::build_squeezenet(rng));
    for (auto& m : zoo) {
      const std::string name = m.name;
      CompileOptions gpu_opts;
      gpu_opts.tune_trials = 96;
      Rng r1(0x5eed);  // rebuild each time so weights match
      CompiledModel gpu_cm = compile(std::move(m), plat, gpu_opts);
      const double gpu_ms = gpu_cm.run(1, false).latency_ms;

      CompileOptions cpu_opts;
      cpu_opts.skip_tuning = true;  // no GPU schedules needed
      cpu_opts.cpu_fallback_ops = every_op_kind();
      models::Model rebuilt = [&] {
        Rng r(0x5eed);
        if (name == "ResNet50_v1") return models::build_resnet50(r);
        if (name == "MobileNet1.0") return models::build_mobilenet(r);
        return models::build_squeezenet(r);
      }();
      CompiledModel cpu_cm = compile(std::move(rebuilt), plat, cpu_opts);
      const double cpu_ms = cpu_cm.run(1, false).latency_ms;

      std::printf("%-14s %-16s | %10.2f %10.2f %7.2fx | %.2fx\n",
                  plat.name.c_str(), name.c_str(), gpu_ms, cpu_ms,
                  cpu_ms / gpu_ms, plat.gpu.peak_gflops / plat.cpu.peak_gflops);
    }
  }
  std::printf("\n(the GPU win tracks but does not equal the raw FLOPs ratio: "
              "the CPU\n runs mature vectorized kernels while the GPU win "
              "depends on schedules)\n");
  return 0;
}
