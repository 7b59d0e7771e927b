// Semantic segmentation end to end: FCN-8s (ResNet-50 backbone) with learned
// bilinear upsampling, compiled and executed on the Intel DeepLens model —
// demonstrating that the stack covers the third vision task of the paper's
// introduction beyond classification and detection.
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
  Rng rng(21);
  models::Model m = models::build_fcn_resnet50(rng, 224, 1, 21);
  std::printf("%s at 224x224 on %s: %zu convs + 3 transposed convs, %.1f "
              "GFLOPs (conv only)\n",
              m.name.c_str(), platform.name.c_str(),
              m.graph.conv_node_ids().size(),
              static_cast<double>(m.graph.total_conv_flops()) / 1e9);

  graph::optimize(m.graph);
  tune::TuneDb db;
  tune::TuneOptions topts;
  topts.n_trials = 64;
  graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);

  graph::ExecOptions opts;
  opts.compute_numerics = false;
  Rng in_rng(22);
  const auto r = graph::execute(m.graph, platform, opts, in_rng);
  std::printf("latency %.2f ms (conv %.2f, other %.2f)\n", r.latency_ms,
              r.conv_ms, r.other_ms);
  std::printf("output: per-pixel logits %s\n",
              r.output.shape().str().c_str());
  return 0;
}
