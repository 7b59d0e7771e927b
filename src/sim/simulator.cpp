#include "sim/simulator.h"

#include <algorithm>

#include "core/error.h"
#include "core/thread_pool.h"

namespace igc::sim {

void GpuSimulator::launch(int64_t num_groups, int group_size,
                          const std::function<void(const WorkItem&)>& body,
                          KernelLaunch cost) {
  IGC_CHECK_GT(num_groups, 0);
  IGC_CHECK_GT(group_size, 0);
  cost.work_items = num_groups * group_size;
  cost.work_group_size = group_size;
  clock_.charge(dev_, cost);

  ThreadPool::global().parallel_for(num_groups, [&](int64_t g) {
    WorkItem item;
    item.group_id = g;
    item.group_size = group_size;
    for (int l = 0; l < group_size; ++l) {
      item.local_id = l;
      body(item);
    }
  });
}

void GpuSimulator::launch_elementwise(const std::string& name, int64_t n,
                                      int64_t flops_per_elem,
                                      int64_t bytes_per_elem) {
  IGC_CHECK_GT(n, 0);
  const int group_size =
      static_cast<int>(std::min<int64_t>(n, dev_.simd_width * 8));
  KernelLaunch cost;
  cost.name = name;
  cost.flops = flops_per_elem * n;
  cost.dram_read_bytes = bytes_per_elem * n;
  cost.dram_write_bytes = 4 * n;
  cost.work_items = (n + group_size - 1) / group_size * group_size;
  cost.work_group_size = group_size;
  clock_.charge(dev_, cost);
}

}  // namespace igc::sim
