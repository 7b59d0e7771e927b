// Functional executor for simulated GPU kernels.
//
// Vision-specific operators (Sec. 3.1) are implemented as genuine data-
// parallel algorithms: a kernel body is a function of (work-group id, local
// id) executed for every work item, with work-groups distributed across the
// host thread pool. Global synchronization is only available *between*
// launches, exactly like OpenCL/CUDA, which forces the same multi-pass
// structure the paper describes (e.g. the cooperative merge rounds of the
// segmented sort and the three stages of the prefix sum).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/clock.h"
#include "sim/device_spec.h"

namespace igc::sim {

/// Identifies one work item inside a launch.
struct WorkItem {
  int64_t group_id = 0;
  int local_id = 0;
  int group_size = 1;
  int64_t global_id() const { return group_id * group_size + local_id; }
};

class GpuSimulator {
 public:
  GpuSimulator(const DeviceSpec& dev, SimClock& clock)
      : dev_(dev), clock_(clock) {}

  const DeviceSpec& device() const { return dev_; }
  SimClock& clock() { return clock_; }

  /// Launches `num_groups * group_size` work items. The body may rely on
  /// sequential execution *within* a work-group (the simulator runs the
  /// items of one group on one host thread, in local-id order, like a
  /// barrier-free single-wavefront group), but groups run concurrently and
  /// must not race with each other.
  ///
  /// `cost` describes the launch for the timing model; its geometry fields
  /// (work_items / work_group_size) are filled in from the launch arguments.
  void launch(int64_t num_groups, int group_size,
              const std::function<void(const WorkItem&)>& body,
              KernelLaunch cost);

  /// Charges a 1-work-item-per-element kernel over `n` elements at the
  /// device's preferred group size, exactly as launch() would book that
  /// geometry, but dispatches nothing: the caller computes the kernel's
  /// result on the host.
  void launch_elementwise(const std::string& name, int64_t n,
                          int64_t flops_per_elem, int64_t bytes_per_elem);

 private:
  const DeviceSpec& dev_;
  SimClock& clock_;
};

}  // namespace igc::sim
