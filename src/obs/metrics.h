// Process-wide metrics registry: named counters, gauges, and histograms
// shared by every subsystem (executor, arena, tuner, scheduler).
//
// Instruments are registered on first use and live for the process lifetime,
// so hot paths can cache a reference once and then touch a single relaxed
// atomic per update — no locks, no allocation, and no effect on outputs or
// simulated times. reset() zeroes values but never invalidates references.
//
// This header is deliberately dependency-free (std only) so that low layers
// (tensor, tune) can record metrics without depending on graph/sim types.
//
// Conventions (the full catalog lives in DESIGN.md):
//   * counters are monotone event counts ("arena.acquires", "exec.copies");
//   * gauges record last-set or high-water values ("arena.high_water_bytes");
//   * histograms are log-bucketed latency/value distributions with
//     percentile queries ("run.latency_ms" — see obs/latency_histogram.h);
//   * names are dot-separated families with a unit suffix where one applies
//     (_ms, _us, _bytes, _pct; suffix-free names are plain counts).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/latency_histogram.h"

namespace igc::obs {

class Counter {
 public:
  void add(int64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (high-water-mark semantics).
  void update_max(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Registry histograms are log-bucketed latency histograms (HDR-style,
/// ~1.09% worst-case quantile error, mergeable across threads): observe()
/// takes a double, percentile(p) answers tail-latency queries.
using Histogram = LatencyHistogram;

/// Point-in-time copy of every instrument's value, comparable with ==.
/// Deltas between snapshots taken around a run isolate that run's activity.
struct MetricsSnapshot {
  struct Hist {
    int64_t count = 0;
    double sum = 0.0;
    LatencyHistogram::BucketList buckets;  // non-empty buckets only
    /// Quantile of the captured distribution (works on deltas too, since
    /// bucket subtraction preserves the log grid).
    double percentile(double p) const {
      return LatencyHistogram::percentile_of(buckets, count, p);
    }
    bool operator==(const Hist&) const = default;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Hist> histograms;

  /// Counter and histogram deltas of `later` relative to this snapshot;
  /// gauges carry `later`'s value (deltas are meaningless for gauges).
  MetricsSnapshot delta_to(const MetricsSnapshot& later) const;
  bool operator==(const MetricsSnapshot&) const = default;

  /// Flat JSON object: {"counter.name": 1, ..., "hist.name": {...}}.
  std::string json() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& global();

  /// Returns the named instrument, creating it on first use. The reference
  /// stays valid for the registry's lifetime; hot paths should cache it.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  std::string snapshot_json() const { return snapshot().json(); }

  /// Zeroes every instrument (references stay valid). Test support.
  void reset();

 private:
  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace igc::obs
