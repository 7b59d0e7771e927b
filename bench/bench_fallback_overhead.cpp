// Sec. 3.1.2 experiment: CPU-fallback overhead. The paper runs SSD
// (ResNet-50 backbone) on AWS DeepLens entirely on the integrated GPU
// (1010.23 ms) and with the NMS operators falling back to the CPU
// (1015.14 ms) — an overhead below 0.5%, because the integrated GPU shares
// DRAM with the CPU so the inserted device copies are nearly free.
#include <cstdio>

#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"

int main() {
  using namespace igc;  // NOLINT
  const sim::Platform& platform = sim::platform(sim::PlatformId::kDeepLens);

  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 96;

  auto run = [&](bool fallback) {
    Rng rng(0x5eed);
    models::Model m =
        models::build_ssd(rng, models::SsdBackbone::kResNet50, 512);
    std::set<graph::OpKind> cpu_ops;
    if (fallback) {
      cpu_ops = {graph::OpKind::kSsdDetection, graph::OpKind::kBoxNms};
    }
    const graph::PassStats stats = graph::optimize(m.graph, cpu_ops);
    graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);
    graph::ExecOptions opts;
    opts.compute_numerics = false;
    Rng in_rng(0xbe5c);
    const auto r = graph::execute(m.graph, platform, opts, in_rng);
    std::printf(
        "  %-26s total %8.2f ms (conv %8.2f, vision %8.2f, copies %6.3f; "
        "%d copy nodes)\n",
        fallback ? "NMS falls back to CPU:" : "entire model on GPU:",
        r.latency_ms, r.conv_ms, r.vision_ms, r.copy_ms,
        stats.copies_inserted);
    return r.latency_ms;
  };

  std::printf(
      "\n=== Sec. 3.1.2: CPU-fallback overhead, SSD_ResNet50 on AWS DeepLens "
      "===\n");
  const double gpu_only = run(false);
  const double with_fallback = run(true);
  const double overhead = (with_fallback - gpu_only) / gpu_only * 100.0;
  std::printf("  measured overhead: %.2f%%   (paper: 1010.23 ms vs 1015.14 ms "
              "= 0.49%%)\n",
              overhead);
  return 0;
}
