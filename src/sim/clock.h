// Simulated clock: accumulates the latency of every kernel launch and copy,
// and keeps a per-event trace for the benchmark reports.
//
// Also defines the device *lanes* of the heterogeneous platform (GPU queue,
// companion-CPU queue, copy engine) and a LaneSchedule that merges per-node
// charges along the critical path — the kWavefront time model, where
// independent CPU-fallback and GPU work overlap instead of summing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/device_spec.h"
#include "sim/timing_model.h"

namespace igc::sim {

/// Execution lanes of one heterogeneous platform. Work within a lane
/// serializes (one in-order queue per device engine, as with a single
/// OpenCL/CUDA stream); work across lanes overlaps freely.
enum class Lane { kGpu = 0, kCpu = 1, kCopy = 2 };
inline constexpr int kNumLanes = 3;

inline std::string_view lane_name(Lane l) {
  switch (l) {
    case Lane::kGpu: return "gpu";
    case Lane::kCpu: return "cpu";
    case Lane::kCopy: return "copy";
  }
  return "?";
}

/// Cost category of a charge, matching the paper's breakdown tables:
/// convolutions, vision-specific operators (Sec. 3.1), host<->device
/// copies, operators fallen back to the companion CPU (Sec. 3.1.2), and
/// everything else.
enum class OpCategory { kConv = 0, kVision, kCopy, kFallback, kOther };
inline constexpr int kNumCategories = 5;

inline std::string_view category_name(OpCategory c) {
  switch (c) {
    case OpCategory::kConv: return "conv";
    case OpCategory::kVision: return "vision";
    case OpCategory::kCopy: return "copy";
    case OpCategory::kFallback: return "fallback";
    case OpCategory::kOther: return "other";
  }
  return "?";
}

struct ClockEvent {
  std::string name;
  double ms = 0.0;
  /// Lane the charge serializes on, the owning node's cost category, and the
  /// bytes the charge moves (DRAM traffic for kernels, transfer size for
  /// copies). Default-initialized, so `{name, ms}` construction keeps
  /// working for callers that predate these fields — but audit such call
  /// sites: a default-tagged event lands on the GPU lane in the "other"
  /// category, which misattributes per-lane counter rollups.
  Lane lane = Lane::kGpu;
  OpCategory category = OpCategory::kOther;
  int64_t bytes = 0;
  /// Per-launch hardware counters (counters.ms == ms for charges produced
  /// by SimClock; zero-initialized for hand-built events).
  KernelCounters counters;
};

class SimClock {
 public:
  /// Tags stamped onto subsequent events: the lane/category of the node
  /// whose charges this clock is recording. The executor sets them before
  /// dispatching each node, so sub-charges (layout transforms, the GPU
  /// simulator's launches) inherit the node's attribution.
  void set_tags(Lane lane, OpCategory category) {
    lane_ = lane;
    category_ = category;
  }

  /// Charges the latency of `k` on `dev` and records a trace event carrying
  /// the launch's counter record.
  double charge(const DeviceSpec& dev, const KernelLaunch& k) {
    return charge_on(lane_, dev, k);
  }

  /// charge() with an explicit lane: for GPU kernels issued on behalf of a
  /// node whose own work runs elsewhere (layout transforms feeding a
  /// CPU-placed consumer stay GPU-lane charges).
  double charge_on(Lane lane, const DeviceSpec& dev, const KernelLaunch& k) {
    const KernelCounters c = estimate_launch(dev, k);
    total_ms_ += c.ms;
    events_.push_back({k.name, c.ms, lane, category_,
                       k.dram_read_bytes + k.dram_write_bytes, c});
    return c.ms;
  }

  /// Charges a section on the companion CPU (Amdahl model). Always lands on
  /// the CPU lane, whatever the current tags.
  double charge_cpu(const DeviceSpec& cpu, int64_t flops, int64_t bytes,
                    double parallel_fraction, const std::string& name) {
    const KernelCounters c = cpu_counters(cpu, flops, bytes, parallel_fraction);
    total_ms_ += c.ms;
    events_.push_back({name, c.ms, Lane::kCpu, category_, bytes, c});
    return c.ms;
  }

  /// Charges a host<->device copy. Copies always serialize on the copy
  /// engine and count toward the copy category, whatever the current tags.
  double charge_copy(const DeviceSpec& dev, int64_t bytes,
                     const std::string& name = "device_copy") {
    const KernelCounters c = copy_counters(dev, bytes);
    total_ms_ += c.ms;
    events_.push_back({name, c.ms, Lane::kCopy, OpCategory::kCopy, bytes, c});
    return c.ms;
  }

  /// Charges a fixed amount (single-lane sequential sections whose cost was
  /// computed outside the roofline model). The charge is opaque to the
  /// counter layer: it books as a fully-serialized, latency-bound section.
  void charge_fixed(double ms, const std::string& name) {
    total_ms_ += ms;
    KernelCounters c;
    c.launches = 1;
    c.ms = ms;
    c.overhead_ms = ms;
    c.occupancy = 1.0;
    c.bound = BoundKind::kLatency;
    events_.push_back({name, ms, lane_, category_, 0, c});
  }

  double total_ms() const { return total_ms_; }
  const std::vector<ClockEvent>& events() const { return events_; }
  /// Moves the recorded events out, leaving the clock reset.
  std::vector<ClockEvent> take_events() {
    total_ms_ = 0.0;
    std::vector<ClockEvent> out;
    out.swap(events_);
    return out;
  }
  void reset() {
    total_ms_ = 0.0;
    events_.clear();
  }

 private:
  double total_ms_ = 0.0;
  Lane lane_ = Lane::kGpu;
  OpCategory category_ = OpCategory::kOther;
  std::vector<ClockEvent> events_;
};

/// Deterministic list scheduler over the platform lanes: nodes are offered
/// in a fixed (topological) order, each starting when both its dependencies
/// have finished and its lane is free. The resulting makespan is the
/// kWavefront latency; the serial sum of durations is the kSequential
/// latency.
class LaneSchedule {
 public:
  /// Schedules a segment of `duration_ms` on `lane`, not starting before
  /// `ready_ms`. Returns the finish time.
  double schedule(Lane lane, double ready_ms, double duration_ms) {
    double& free_at = lane_free_[static_cast<int>(lane)];
    const double start = std::max(free_at, ready_ms);
    free_at = start + duration_ms;
    return free_at;
  }

  /// Time at which `lane` next becomes free.
  double lane_free_ms(Lane lane) const {
    return lane_free_[static_cast<int>(lane)];
  }

  /// Finish time of the last segment across all lanes.
  double makespan_ms() const {
    double m = 0.0;
    for (double t : lane_free_) m = std::max(m, t);
    return m;
  }

 private:
  double lane_free_[kNumLanes] = {0.0, 0.0, 0.0};
};

}  // namespace igc::sim
