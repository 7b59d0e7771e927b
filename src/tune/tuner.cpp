#include "tune/tuner.h"

#include <algorithm>
#include <set>
#include <vector>

#include "core/error.h"
#include "obs/metrics.h"
#include "tune/journal.h"

namespace igc::tune {
namespace {

/// Every search draws from this seed, so a (space, measure, options) triple
/// always tunes to the same schedule.
constexpr uint64_t kSeed = 0x5eedf00d;
/// Model-guided: configs measured per round, and the candidate pool the
/// cost model ranks per round.
constexpr int kBatchSize = 16;
constexpr int kPoolSize = 256;

obs::Counter& trials_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("tune.trials");
  return c;
}

class Recorder {
 public:
  Recorder(const MeasureFn& measure, const TuneOptions& opts)
      : measure_(measure), budget_(opts.n_trials), journal_(opts.journal),
        task_(opts.journal_task),
        strategy_(std::string(strategy_name(opts.strategy))) {}

  /// Measures one config. `predicted_ms` is the cost model's ranking score
  /// when the config was model-selected (< 0 otherwise); it flows to the
  /// journal only, never back into the search.
  double measure(const ScheduleConfig& cfg, double predicted_ms = -1.0) {
    const double ms = measure_(cfg);
    IGC_CHECK_GT(ms, 0.0);
    ++trials_;
    trials_counter().add(1);
    xs_.push_back(config_features(cfg));
    ys_.push_back(ms);
    if (ms < best_ms_) {
      best_ms_ = ms;
      best_ = cfg;
    }
    if (journal_ != nullptr) {
      TuneTrial t;
      t.task = task_;
      t.strategy = strategy_;
      t.trial = trials_ - 1;
      t.round = round_;
      t.config = cfg.str();
      t.measured_ms = ms;
      t.predicted_ms = predicted_ms;
      t.best_ms = best_ms_;
      journal_->record(std::move(t));
    }
    return ms;
  }

  /// Advances the journal's search-round stamp (model-guided iterations).
  void next_round() { ++round_; }

  bool exhausted() const { return trials_ >= budget_; }
  int trials() const { return trials_; }
  double best_ms() const { return best_ms_; }
  const ScheduleConfig& best() const { return best_; }
  const std::vector<std::vector<double>>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

 private:
  const MeasureFn& measure_;
  int budget_;
  TuneJournal* journal_;
  std::string task_;
  std::string strategy_;
  int round_ = 0;
  int trials_ = 0;
  double best_ms_ = std::numeric_limits<double>::infinity();
  ScheduleConfig best_;
  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
};

void random_search(const ConfigSpace& space, Recorder& rec, Rng& rng) {
  while (!rec.exhausted()) rec.measure(space.random(rng));
}

void simulated_annealing(const ConfigSpace& space, Recorder& rec, Rng& rng) {
  // Walk the mixed-radix index space one knob at a time.
  ScheduleConfig cur = space.random(rng);
  double cur_ms = rec.measure(cur);
  double temp = 1.0;
  const double cooling = 0.95;
  while (!rec.exhausted()) {
    // Mutate one knob to a random other choice.
    const auto& knobs = space.knobs();
    const size_t k = rng.next_below(knobs.size());
    ScheduleConfig next = cur;
    next.set(knobs[k].name,
             knobs[k].choices[rng.next_below(knobs[k].choices.size())]);
    const double next_ms = rec.measure(next);
    const double delta = (next_ms - cur_ms) / std::max(cur_ms, 1e-9);
    if (delta < 0.0 || rng.next_double() < std::exp(-delta / std::max(temp, 1e-3))) {
      cur = next;
      cur_ms = next_ms;
    }
    temp *= cooling;
  }
}

void model_guided(const ConfigSpace& space, Recorder& rec, Rng& rng) {
  CostModel model;
  std::set<std::string> seen;
  // Warm-up round: random batch.
  for (int i = 0; i < kBatchSize && !rec.exhausted(); ++i) {
    const auto cfg = space.random(rng);
    if (seen.insert(cfg.str()).second) rec.measure(cfg);
  }
  while (!rec.exhausted()) {
    rec.next_round();
    model.fit(rec.xs(), rec.ys());
    // Rank a pool of unseen random candidates by predicted latency.
    std::vector<std::pair<double, ScheduleConfig>> pool;
    for (int i = 0; i < kPoolSize; ++i) {
      auto cfg = space.random(rng);
      if (seen.count(cfg.str())) continue;
      pool.emplace_back(model.predict(config_features(cfg)), std::move(cfg));
    }
    std::sort(pool.begin(), pool.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Measure the top batch (epsilon-greedy: one slot stays random).
    int measured = 0;
    for (const auto& [pred, cfg] : pool) {
      if (rec.exhausted() || measured >= kBatchSize - 1) break;
      if (!seen.insert(cfg.str()).second) continue;
      rec.measure(cfg, pred);
      ++measured;
    }
    if (!rec.exhausted()) {
      const auto cfg = space.random(rng);
      if (seen.insert(cfg.str()).second) rec.measure(cfg);
    }
    if (pool.empty()) break;  // space exhausted
  }
}

}  // namespace

std::string_view strategy_name(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kRandom: return "random";
    case SearchStrategy::kSimulatedAnnealing: return "annealing";
    case SearchStrategy::kModelGuided: return "model_guided";
  }
  return "?";
}

TuneResult tune(const ConfigSpace& space, const MeasureFn& measure,
                const TuneOptions& opts) {
  IGC_CHECK_GT(opts.n_trials, 0);
  Rng rng(kSeed);
  Recorder rec(measure, opts);

  // Always measure the untuned default first: it anchors the "Before"
  // column and guarantees the tuner never regresses below the template.
  const ScheduleConfig default_cfg = space.default_config();
  const double default_ms = rec.measure(default_cfg);

  switch (opts.strategy) {
    case SearchStrategy::kRandom:
      random_search(space, rec, rng);
      break;
    case SearchStrategy::kSimulatedAnnealing:
      simulated_annealing(space, rec, rng);
      break;
    case SearchStrategy::kModelGuided:
      model_guided(space, rec, rng);
      break;
  }

  TuneResult result;
  result.best_config = rec.best();
  result.best_ms = rec.best_ms();
  result.default_ms = default_ms;
  result.trials = rec.trials();
  return result;
}

}  // namespace igc::tune
