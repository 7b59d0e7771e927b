// Table 4: end-to-end effect of the vision-specific operator optimizations
// (Sec. 3.1) on the three object-detection models, per device. "Before"
// runs the naive GPU mappings (per-segment sort threads, serial
// suppression); "After" runs the segmented-sort / prefix-sum / aligned-NMS
// pipeline.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"

namespace {

struct PaperRow {
  const char* device;
  const char* model;
  double before_ms;
  double after_ms;
};

const std::vector<PaperRow> kPaper = {
    {"AWS DeepLens", "SSD_MobileNet1.0", 966.20, 398.48},
    {"AWS DeepLens", "SSD_ResNet50", 1491.30, 1006.01},
    {"AWS DeepLens", "Yolov3", 2610.13, 1004.13},
    {"Acer aiSage", "SSD_MobileNet1.0", 1098.11, 243.16},
    {"Acer aiSage", "SSD_ResNet50", 1631.30, 777.26},
    {"Acer aiSage", "Yolov3", 6429.69, 1097.47},
    {"Nvidia Jetson Nano", "SSD_MobileNet1.0", 264, 135.5},
    {"Nvidia Jetson Nano", "SSD_ResNet50", 490.4, 371.32},
    {"Nvidia Jetson Nano", "Yolov3", 1350, 553.79},
};

}  // namespace

int main() {
  using namespace igc;  // NOLINT
  std::printf(
      "\n=== Table 4: vision-specific operator optimizations (before/after) "
      "===\n");
  std::printf("%-20s %-18s | %10s %10s %8s || %10s %10s %8s\n", "Device",
              "Model", "Before", "After", "Speedup", "p:Before", "p:After",
              "p:Sp");
  std::printf("%s\n", std::string(110, '-').c_str());

  size_t row_idx = 0;
  for (auto id : {sim::PlatformId::kDeepLens, sim::PlatformId::kAiSage,
                  sim::PlatformId::kJetsonNano}) {
    const sim::Platform& platform = sim::platform(id);
    const bool small = id == sim::PlatformId::kAiSage;
    Rng rng(0x5eed);
    std::vector<models::Model> detection;
    detection.push_back(models::build_ssd(rng, models::SsdBackbone::kMobileNet,
                                          small ? 300 : 512));
    detection.push_back(models::build_ssd(rng, models::SsdBackbone::kResNet50,
                                          small ? 300 : 512));
    detection.push_back(models::build_yolov3(rng, small ? 320 : 416));

    tune::TuneDb db;
    for (auto& m : detection) {
      graph::optimize(m.graph);
      tune::TuneOptions topts;
      topts.n_trials = 96;
      graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);

      graph::ExecOptions opts;
      opts.compute_numerics = false;

      opts.optimized_vision_ops = false;
      Rng r1(0xbe5c);
      const double before =
          graph::execute(m.graph, platform, opts, r1).latency_ms;
      opts.optimized_vision_ops = true;
      Rng r2(0xbe5c);
      const double after =
          graph::execute(m.graph, platform, opts, r2).latency_ms;

      const PaperRow& p = kPaper[row_idx++];
      std::printf("%-20s %-18s | %10.2f %10.2f %8.2f || %10.2f %10.2f %8.2f\n",
                  platform.name.c_str(), m.name.c_str(), before, after,
                  before / after, p.before_ms, p.after_ms,
                  p.before_ms / p.after_ms);

      bench::JsonObject j =
          bench::bench_row("table4_vision_ops", platform.name, m.name);
      j.field("before_ms", before)
          .field("after_ms", after)
          .field("speedup", before / after)
          .field("paper_before_ms", p.before_ms)
          .field("paper_after_ms", p.after_ms);
      j.emit();
    }
  }
  return 0;
}
