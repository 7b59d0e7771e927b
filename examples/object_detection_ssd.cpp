// Object detection end to end: SSD with a MobileNet backbone, exercising the
// vision-specific operator pipeline of Sec. 3.1 (segmented argsort, prefix
// sum, box_nms) on the simulated GPU, including the effect of turning those
// optimizations off and of falling the NMS back to the CPU (Sec. 3.1.2).
#include <cstdio>

#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"

int main() {
  using namespace igc;  // NOLINT
  const sim::Platform& platform = sim::platform(sim::PlatformId::kAiSage);
  std::printf("SSD_MobileNet1.0 at 300x300 on %s\n", platform.name.c_str());

  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 64;

  auto run = [&](bool vision_opt, bool fallback) {
    Rng rng(1);
    models::Model m =
        models::build_ssd(rng, models::SsdBackbone::kMobileNet, 300);
    std::set<graph::OpKind> cpu_ops;
    if (fallback) cpu_ops = {graph::OpKind::kSsdDetection};
    graph::optimize(m.graph, cpu_ops);
    graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);
    graph::ExecOptions opts;
    opts.compute_numerics = false;  // synthetic detection inputs
    opts.optimized_vision_ops = vision_opt;
    Rng in_rng(2);
    const auto r = graph::execute(m.graph, platform, opts, in_rng);

    // Count final detections.
    int detections = 0;
    for (int64_t i = 0; i < r.output.shape()[1]; ++i) {
      if (r.output.data_f32()[i * 6] >= 0.0f) ++detections;
    }
    std::printf(
        "  %-34s total %8.2f ms (conv %7.2f, vision %7.2f, copies %6.3f), "
        "%d boxes kept\n",
        fallback ? "optimized, NMS on CPU (fallback):"
                 : (vision_opt ? "optimized vision ops (Sec. 3.1):"
                               : "naive vision ops:"),
        r.latency_ms, r.conv_ms, r.vision_ms, r.copy_ms, detections);
    return r;
  };

  const auto naive = run(false, false);
  const auto opt = run(true, false);
  const auto fb = run(true, true);
  std::printf("vision-op speedup: %.2fx end-to-end; fallback overhead %.2f%%\n",
              naive.latency_ms / opt.latency_ms,
              (fb.latency_ms - opt.latency_ms) / opt.latency_ms * 100.0);

  // Show the first few detections.
  std::printf("top detections (class, score, box):\n");
  int shown = 0;
  for (int64_t i = 0; i < opt.output.shape()[1] && shown < 5; ++i) {
    const float* row = opt.output.data_f32() + i * 6;
    if (row[0] < 0.0f) continue;
    std::printf("  class %2.0f  score %.3f  [%.3f %.3f %.3f %.3f]\n", row[0],
                row[1], row[2], row[3], row[4], row[5]);
    ++shown;
  }
  return 0;
}
