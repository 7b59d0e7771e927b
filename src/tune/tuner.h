// The tuning loop (Sec. 3.2.3, AutoTVM).
//
// Given a config space and a measurement function (here: the simulator's
// analytic latency), the tuner explores the space with one of three search
// strategies and returns the best schedule found. The model-guided strategy
// reproduces AutoTVM's loop: train a statistical cost model on the measured
// configs, rank a large candidate pool with it, measure the most promising
// batch, repeat. The loop's shape is fixed (16 configs measured per round,
// a pool of 256 candidates ranked per round, one search seed), so a search
// depends only on its space, its measure and TuneOptions.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "core/rng.h"
#include "tune/config.h"
#include "tune/cost_model.h"

namespace igc::tune {

/// Measures one config; returns latency in ms.
using MeasureFn = std::function<double(const ScheduleConfig&)>;

enum class SearchStrategy {
  kRandom,
  kSimulatedAnnealing,
  kModelGuided,  // AutoTVM-style (default)
};

/// Stable name used in journal records and bench rows.
std::string_view strategy_name(SearchStrategy s);

class TuneJournal;  // tune/journal.h

struct TuneOptions {
  SearchStrategy strategy = SearchStrategy::kModelGuided;
  /// Total measurement budget.
  int n_trials = 128;
  /// Flight recorder: when set, every measured trial is appended (observer
  /// hook — never changes the search). Must outlive the tune() call.
  TuneJournal* journal = nullptr;
  /// Task key stamped on journal records (conv_tuner uses the TuneDb key).
  std::string journal_task;
};

struct TuneResult {
  ScheduleConfig best_config;
  double best_ms = 0.0;
  /// Latency of the space's default (untuned) config — the Table 5 "Before".
  double default_ms = 0.0;
  int trials = 0;
};

/// Runs the search. The default config is always measured first, so the
/// result is never worse than the untuned template.
TuneResult tune(const ConfigSpace& space, const MeasureFn& measure,
                const TuneOptions& opts = {});

}  // namespace igc::tune
