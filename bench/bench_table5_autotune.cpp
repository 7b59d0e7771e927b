// Table 5: effect of the machine-learning-based schedule search (AutoTVM +
// graph tuner, Sec. 3.2.3) on the three classification models, per device.
// "Before" executes every convolution with the template's untuned default
// schedule in plain NCHW; "After" uses the searched schedules and the graph
// tuner's layout choices.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/conv_tuner.h"
#include "tune/journal.h"
#include "tune/tunedb.h"
#include "tune/tuner.h"

namespace {

struct PaperRow {
  const char* device;
  const char* model;
  double before_ms;
  double after_ms;
};

const std::vector<PaperRow> kPaper = {
    {"AWS DeepLens", "Resnet50_v1", 260, 186.15},
    {"AWS DeepLens", "MobileNet1.0", 558.15, 85.58},
    {"AWS DeepLens", "SqueezeNet1.0", 64, 52.1},
    {"Acer aiSage", "Resnet50_v1", 727.29, 345.6},
    {"Acer aiSage", "MobileNet1.0", 655.18, 78.83},
    {"Acer aiSage", "SqueezeNet1.0", 1362.2, 106.61},
    {"Nvidia Jetson Nano", "Resnet50_v1", 1088.55, 113.81},
    {"Nvidia Jetson Nano", "MobileNet1.0", 155.14, 20.63},
    {"Nvidia Jetson Nano", "SqueezeNet1.0", 1045, 26.58},
};

}  // namespace

int main() {
  using namespace igc;  // NOLINT
  std::printf(
      "\n=== Table 5: tuning-based convolution optimization (before/after) "
      "===\n");
  std::printf("%-20s %-16s | %10s %10s %8s || %10s %10s %8s\n", "Device",
              "Model", "Before", "After", "Speedup", "p:Before", "p:After",
              "p:Sp");
  std::printf("%s\n", std::string(108, '-').c_str());

  size_t row_idx = 0;
  for (auto id : {sim::PlatformId::kDeepLens, sim::PlatformId::kAiSage,
                  sim::PlatformId::kJetsonNano}) {
    const sim::Platform& platform = sim::platform(id);
    Rng rng(0x5eed);
    std::vector<models::Model> cls;
    cls.push_back(models::build_resnet50(rng));
    cls.push_back(models::build_mobilenet(rng));
    cls.push_back(models::build_squeezenet(rng));

    tune::TuneDb db;
    for (auto& m : cls) {
      graph::optimize(m.graph);
      // A copy taken before tuning carries no schedules: every conv runs
      // the untuned template defaults in NCHW.
      const graph::Graph untuned = m.graph;
      tune::TuneOptions topts;
      topts.n_trials = 96;
      graphtune::tune_graph_layouts(m.graph, platform.gpu, db, topts);

      graph::ExecOptions opts;
      opts.compute_numerics = false;
      Rng r1(0xbe5c);
      const double before =
          graph::execute(untuned, platform, opts, r1).latency_ms;
      Rng r2(0xbe5c);
      const double after = graph::execute(m.graph, platform, opts, r2).latency_ms;

      const PaperRow& p = kPaper[row_idx++];
      std::printf("%-20s %-16s | %10.2f %10.2f %8.2f || %10.2f %10.2f %8.2f\n",
                  platform.name.c_str(), m.name.c_str(), before, after,
                  before / after, p.before_ms, p.after_ms,
                  p.before_ms / p.after_ms);

      bench::JsonObject j =
          bench::bench_row("table5_autotune", platform.name, m.name);
      j.field("before_ms", before)
          .field("after_ms", after)
          .field("speedup", before / after)
          .field("paper_before_ms", p.before_ms)
          .field("paper_after_ms", p.after_ms);
      j.emit();
    }
  }

  // Convergence study (journal-derived): how fast each search strategy
  // approaches its final best on a representative convolution workload, per
  // platform. One JSON row per (platform, strategy) with the best-so-far
  // curve, so dashboards can plot model-guided vs random directly.
  std::printf("\n=== Table 5 addendum: search convergence (flight recorder) "
              "===\n");
  for (auto id : {sim::PlatformId::kDeepLens, sim::PlatformId::kAiSage,
                  sim::PlatformId::kJetsonNano}) {
    const sim::Platform& platform = sim::platform(id);
    Rng rng(0x5eed);
    models::Model resnet = models::build_resnet50(rng);
    graph::optimize(resnet.graph);
    // Representative workload: the first non-pointwise conv (spatial kernels
    // have the richer schedule space).
    const ops::Conv2dParams* workload = nullptr;
    for (const auto& n : resnet.graph.nodes()) {
      if (n.kind != graph::OpKind::kConv2d) continue;
      if (workload == nullptr) workload = &n.conv;
      if (n.conv.kernel_h > 1 && !n.conv.is_depthwise()) {
        workload = &n.conv;
        break;
      }
    }
    if (workload == nullptr) continue;

    for (auto strategy : {tune::SearchStrategy::kRandom,
                          tune::SearchStrategy::kSimulatedAnnealing,
                          tune::SearchStrategy::kModelGuided}) {
      tune::TuneDb db;  // fresh per strategy: no cache hit, full search
      tune::TuneJournal journal;
      tune::TuneOptions topts;
      topts.n_trials = 96;
      topts.strategy = strategy;
      topts.journal = &journal;
      tune::tune_conv2d(*workload, platform.gpu, /*layout_block=*/8, db,
                        topts);

      const std::vector<std::string> tasks = journal.tasks();
      if (tasks.empty()) continue;
      const std::string& task = tasks.front();
      const std::vector<double> curve = journal.best_curve(task);
      const std::vector<tune::TuneTrial> trials = journal.task_trials(task);
      const double default_ms = trials.front().measured_ms;
      const double best_ms = journal.best_ms(task);
      const int to5 = journal.trials_to_within(task, 0.05);
      std::printf("%-20s %-12s | trials %3zu | default %8.4f ms | best %8.4f "
                  "ms | within-5%% after %d\n",
                  platform.name.c_str(),
                  std::string(tune::strategy_name(strategy)).c_str(),
                  curve.size(), default_ms, best_ms, to5);

      std::string curve_str;
      for (size_t i = 0; i < curve.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",",
                      curve[i]);
        curve_str += buf;
      }
      bench::JsonObject cj = bench::bench_row(
          "table5_convergence", platform.name, resnet.name);
      cj.field("strategy", std::string(tune::strategy_name(strategy)))
          .field("workload", task)
          .field("trials", static_cast<int64_t>(curve.size()))
          .field("default_ms", default_ms)
          .field("best_ms", best_ms)
          .field("speedup", default_ms / best_ms)
          .field("trials_to_within_5pct", to5)
          .field("best_curve", curve_str);
      cj.emit();
    }
  }
  return 0;
}
