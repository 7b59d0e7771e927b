// Execution tracing for the heterogeneous executor.
//
// A TraceRecorder collects one TraceSpan per executed graph node: its
// simulated start/end on its device lane (from the LaneSchedule every run
// computes, so both time models trace identically), the host wall-clock
// window in which the node ran, its cost category, shapes/layout, bytes
// moved, and — for convolutions — the chosen schedule config.
//
// The recorder is populated *after* dispatch, from the executor's
// deterministic per-node merge: nothing on the dispatch path touches shared
// recorder state, so tracing cannot perturb outputs or simulated times.
//
// Two exporters:
//   * chrome_trace_json() — the Chrome trace-event format (load the file in
//     chrome://tracing or https://ui.perfetto.dev): one track per simulated
//     lane (GPU queue / companion CPU / copy engine) plus one track per host
//     thread that ran nodes;
//   * report() — the paper's per-layer breakdown tables reproduced from the
//     trace: category rollup, per-lane utilization, top-k ops with their
//     host ms, and host ms per op kind (host_rollup()).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace igc::obs {

/// Run-level context stamped into the export header.
struct TraceMeta {
  std::string model;
  std::string platform;
  std::string mode;  // time model: "sequential" | "wavefront"
  /// v2: spans carry merged KernelCounters; the Chrome export adds counter
  /// tracks (occupancy / achieved GFLOPS / achieved GB/s).
  int schema_version = 2;
};

/// One executed graph node.
struct TraceSpan {
  std::string name;  // stable node name
  std::string op;    // op kind ("conv2d", "box_nms", ...)
  sim::OpCategory category = sim::OpCategory::kOther;
  sim::Lane lane = sim::Lane::kGpu;
  /// Simulated lane-schedule window (ms since run start).
  double sim_start_ms = 0.0;
  double sim_end_ms = 0.0;
  /// Host wall-clock dispatch window (us since run start; 0/0 when the run
  /// did not capture host times).
  double host_start_us = 0.0;
  double host_end_us = 0.0;
  /// Opaque host-thread key (hashed std::thread::id); tracks are numbered
  /// per distinct key at export time.
  uint64_t host_thread = 0;
  std::string shape;     // output shape, e.g. "(1, 64, 56, 56)"
  int layout_block = 1;  // conv layout block (1 = NCHW)
  int64_t bytes = 0;     // bytes moved (DRAM + copy traffic)
  std::string schedule;  // chosen ScheduleConfig (convs on traced runs)
  /// Hardware counters merged over every charge the node issued (so
  /// counters.ms equals the span duration, and per-launch records sum to
  /// this node aggregate).
  sim::KernelCounters counters;
};

/// Host wall-clock time of one op kind over a trace's spans.
struct OpHostTime {
  std::string op;
  int spans = 0;
  double host_ms = 0.0;
  double sim_ms = 0.0;  // serial simulated ms of the same spans
};

/// Host attribution of a trace: every span's host window, in span order, and
/// their totals per op kind, largest host total first. Spans of a run that
/// did not capture host times count 0 ms.
struct HostRollup {
  std::vector<double> span_ms;
  std::vector<OpHostTime> by_op;
  double total_ms = 0.0;  // sum of span_ms
};
HostRollup host_rollup(const std::vector<TraceSpan>& spans);

class TraceRecorder {
 public:
  /// Starts a new trace: stores the run metadata and drops prior spans.
  void begin(TraceMeta meta);

  /// Appends one span. Thread-safe, but the executor only calls it from the
  /// single-threaded post-run merge.
  void record(TraceSpan span);

  const TraceMeta& meta() const { return meta_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Serial time attributed to `c` (sum of span durations).
  double category_ms(sim::OpCategory c) const;
  /// Finish time of the last span on `lane` (0 when the lane is idle).
  double lane_end_ms(sim::Lane lane) const;
  /// Finish time of the last span across all lanes — the simulated
  /// wavefront critical path.
  double makespan_ms() const;

  /// Chrome trace-event JSON (the whole document, not one line per event).
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; returns false on I/O failure.
  bool save_chrome_trace(const std::string& path) const;

  /// Human-readable per-layer report: category rollup, lane end-times, the
  /// top `top_k` ops by serial time with their host ms, and host ms per op
  /// kind.
  std::string report(int top_k = 12) const;

 private:
  mutable std::mutex mu_;
  TraceMeta meta_;
  std::vector<TraceSpan> spans_;
};

}  // namespace igc::obs
