// YOLOv3 end to end on the Jetson Nano model: three detection heads decoded
// on the GPU, concatenated, and filtered with the optimized box_nms.
#include <cstdio>

#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"

int main() {
  using namespace igc;  // NOLINT
  const sim::Platform& platform = sim::platform(sim::PlatformId::kJetsonNano);
  Rng rng(11);
  models::Model m = models::build_yolov3(rng, 416);
  std::printf("%s at 416x416 on %s: %zu convs, %.1f GFLOPs\n", m.name.c_str(),
              platform.name.c_str(), m.graph.conv_node_ids().size(),
              static_cast<double>(m.graph.total_conv_flops()) / 1e9);

  graph::optimize(m.graph);
  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 64;
  graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);

  graph::ExecOptions opts;
  opts.compute_numerics = false;
  Rng in_rng(13);
  const auto r = graph::execute(m.graph, platform, opts, in_rng);

  std::printf("latency %.2f ms (conv %.2f, vision %.2f)\n", r.latency_ms,
              r.conv_ms, r.vision_ms);
  int detections = 0;
  for (int64_t i = 0; i < r.output.shape()[1]; ++i) {
    if (r.output.data_f32()[i * 6] >= 0.0f) ++detections;
  }
  std::printf("%d detections after NMS; first few:\n", detections);
  int shown = 0;
  for (int64_t i = 0; i < r.output.shape()[1] && shown < 5; ++i) {
    const float* row = r.output.data_f32() + i * 6;
    if (row[0] < 0.0f) continue;
    std::printf("  class %2.0f  score %.3f  [%.3f %.3f %.3f %.3f]\n", row[0],
                row[1], row[2], row[3], row[4], row[5]);
    ++shown;
  }
  return 0;
}
