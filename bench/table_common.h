// Shared harness for the Table 1/2/3 end-to-end benchmarks: runs the full
// "ours" pipeline (graph optimization -> per-conv AutoTVM search -> graph
// tuner layout DP -> simulated execution) against the platform's emulated
// vendor stack, and prints the paper's numbers next to the measured ones.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "baselines/vendor.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "graphtune/graph_tuner.h"
#include "models/models.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"

namespace igc::bench {

struct PaperRow {
  const char* model;
  double ours_ms;    // paper "Ours"
  double vendor_ms;  // paper baseline; <= 0 means unsupported ("-")
};

struct MeasuredRow {
  std::string model;
  double ours_ms = 0.0;
  double vendor_ms = -1.0;
  bool vendor_supported = true;
  /// Aggregated simulated hardware counters of the "ours" run (schema-v3
  /// counter summary in the JSON rows).
  sim::KernelCounters counters;
};

/// Full "ours" pipeline on one model. Tuning records accumulate in `db`;
/// `counters` (optional) receives the run's aggregated hardware counters.
inline double run_ours(models::Model& model, const sim::Platform& platform,
                       tune::TuneDb& db, int tune_trials = 96,
                       sim::KernelCounters* counters = nullptr) {
  graph::optimize(model.graph);
  tune::TuneOptions topts;
  topts.n_trials = tune_trials;
  graphtune::tune_graph_layouts(model.graph, platform.gpu, db, topts);
  graph::ExecOptions opts;
  opts.compute_numerics = false;
  Rng input_rng(0xbe5c);
  const graph::ExecResult r =
      graph::execute(model.graph, platform, opts, input_rng);
  if (counters != nullptr) *counters = r.counters;
  return r.latency_ms;
}

inline MeasuredRow run_row(models::Model& model, const sim::Platform& platform,
                           tune::TuneDb& db) {
  MeasuredRow row;
  row.model = model.name;
  const baselines::BaselineResult base = baselines::run_baseline(
      baselines::vendor_for(platform), model, platform);
  row.vendor_supported = base.supported;
  if (base.supported) row.vendor_ms = base.latency_ms;
  row.ours_ms = run_ours(model, platform, db, /*tune_trials=*/96,
                         &row.counters);
  return row;
}

inline void print_table(const std::string& title, const std::string& vendor,
                        const std::vector<MeasuredRow>& rows,
                        const std::vector<PaperRow>& paper) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-18s | %10s | %12s | %8s || %10s | %12s | %8s\n", "Model",
              "Ours(ms)", (vendor + "(ms)").c_str(), "Speedup", "paper:Ours",
              ("paper:" + vendor).c_str(), "paperSp");
  std::printf("%s\n", std::string(100, '-').c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const MeasuredRow& r = rows[i];
    const PaperRow& p = paper[i];
    char vendor_buf[32], speedup_buf[32], pv_buf[32], ps_buf[32];
    if (r.vendor_supported) {
      std::snprintf(vendor_buf, sizeof(vendor_buf), "%.2f", r.vendor_ms);
      std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2f",
                    r.vendor_ms / r.ours_ms);
    } else {
      std::snprintf(vendor_buf, sizeof(vendor_buf), "-");
      std::snprintf(speedup_buf, sizeof(speedup_buf), "-");
    }
    if (p.vendor_ms > 0) {
      std::snprintf(pv_buf, sizeof(pv_buf), "%.2f", p.vendor_ms);
      std::snprintf(ps_buf, sizeof(ps_buf), "%.2f", p.vendor_ms / p.ours_ms);
    } else {
      std::snprintf(pv_buf, sizeof(pv_buf), "-");
      std::snprintf(ps_buf, sizeof(ps_buf), "-");
    }
    std::printf("%-18s | %10.2f | %12s | %8s || %10.2f | %12s | %8s\n",
                r.model.c_str(), r.ours_ms, vendor_buf, speedup_buf, p.ours_ms,
                pv_buf, ps_buf);
  }
}

/// Runs one full platform table (used by bench_table1/2/3). `bench` is the
/// slug stamped into each row's JSON line (e.g. "table1_deeplens").
inline void run_platform_table(sim::PlatformId id, const std::string& bench,
                               const std::string& title,
                               const std::string& vendor,
                               const std::vector<PaperRow>& paper) {
  const sim::Platform& platform = sim::platform(id);
  Rng rng(0x5eed);
  std::vector<models::Model> zoo =
      models::build_all(rng, /*small_detection_inputs=*/id == sim::PlatformId::kAiSage);
  tune::TuneDb db;
  std::vector<MeasuredRow> rows;
  for (auto& m : zoo) {
    rows.push_back(run_row(m, platform, db));
  }
  print_table(title, vendor, rows, paper);
  std::printf("(tuning database: %zu workload entries)\n", db.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const MeasuredRow& r = rows[i];
    JsonObject j = bench_row(bench, platform.name, r.model);
    j.field("vendor", vendor)
        .field("ours_ms", r.ours_ms)
        .field("vendor_supported", r.vendor_supported);
    if (r.vendor_supported) {
      j.field("vendor_ms", r.vendor_ms)
          .field("speedup", r.vendor_ms / r.ours_ms);
    }
    j.field("paper_ours_ms", paper[i].ours_ms);
    if (paper[i].vendor_ms > 0) j.field("paper_vendor_ms", paper[i].vendor_ms);
    counter_summary(j, r.counters);
    j.emit();
  }
}

}  // namespace igc::bench
