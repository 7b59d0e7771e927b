// Unit tests for src/sim: device registry, timing model, simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "sim/clock.h"
#include "sim/device_spec.h"
#include "sim/simulator.h"
#include "sim/timing_model.h"

namespace igc::sim {
namespace {

TEST(DeviceSpec, RegistryHasThreePlatforms) {
  EXPECT_EQ(all_platforms().size(), 3u);
  EXPECT_EQ(platform(PlatformId::kDeepLens).gpu.vendor, Vendor::kIntel);
  EXPECT_EQ(platform(PlatformId::kAiSage).gpu.vendor, Vendor::kArmMali);
  EXPECT_EQ(platform(PlatformId::kJetsonNano).gpu.vendor, Vendor::kNvidia);
  EXPECT_THROW(platform_by_name("no-such-device"), Error);
  EXPECT_EQ(platform_by_name("jetson-nano").gpu.api, DeviceApi::kCuda);
}

TEST(DeviceSpec, PaperGpuToCpuFlopRatios) {
  // Sec. 1: GPU peak FLOPs exceed the CPU by 5.16x / 6.77x / 2.48x.
  const double r1 = platform(PlatformId::kDeepLens).gpu.peak_gflops /
                    platform(PlatformId::kDeepLens).cpu.peak_gflops;
  const double r2 = platform(PlatformId::kAiSage).gpu.peak_gflops /
                    platform(PlatformId::kAiSage).cpu.peak_gflops;
  const double r3 = platform(PlatformId::kJetsonNano).gpu.peak_gflops /
                    platform(PlatformId::kJetsonNano).cpu.peak_gflops;
  EXPECT_NEAR(r1, 5.16, 0.1);
  EXPECT_NEAR(r2, 6.77, 0.1);
  EXPECT_NEAR(r3, 2.48, 0.1);
}

TEST(DeviceSpec, ArchitecturalTraits) {
  EXPECT_TRUE(platform(PlatformId::kDeepLens).gpu.has_subgroups);
  EXPECT_FALSE(platform(PlatformId::kAiSage).gpu.has_subgroups);
  EXPECT_FALSE(platform(PlatformId::kAiSage).gpu.has_shared_local_mem);
  EXPECT_TRUE(platform(PlatformId::kJetsonNano).gpu.has_shared_local_mem);
  EXPECT_EQ(platform(PlatformId::kJetsonNano).gpu.simd_width, 32);
}

TEST(Occupancy, FullWhenSaturated) {
  const DeviceSpec& d = platform(PlatformId::kJetsonNano).gpu;
  EXPECT_NEAR(occupancy(d, d.total_lanes() * 16, 128), 1.0, 1e-9);
}

TEST(Occupancy, SingleItemIsTiny) {
  const DeviceSpec& d = platform(PlatformId::kDeepLens).gpu;
  EXPECT_LT(occupancy(d, 1, 1), 0.1);
}

TEST(Occupancy, MonotonicInWorkItems) {
  const DeviceSpec& d = platform(PlatformId::kAiSage).gpu;
  double prev = 0.0;
  for (int64_t wi : {1, 8, 64, 512, 4096, 32768}) {
    const double o = occupancy(d, wi, 32);
    EXPECT_GE(o, prev);
    prev = o;
  }
  EXPECT_LE(prev, 1.0);
}

TEST(TimingModel, ComputeBoundScalesWithFlops) {
  const DeviceSpec& d = platform(PlatformId::kJetsonNano).gpu;
  KernelLaunch k;
  k.flops = 1e9;
  k.work_items = 1 << 20;
  k.work_group_size = 128;
  const double t1 = estimate_latency_ms(d, k);
  k.flops = 2e9;
  const double t2 = estimate_latency_ms(d, k);
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(TimingModel, MemoryBoundKernelIgnoresSmallFlops) {
  const DeviceSpec& d = platform(PlatformId::kDeepLens).gpu;
  KernelLaunch k;
  k.flops = 1000;
  k.dram_read_bytes = 256ll << 20;  // 256 MB at 12.8 GB/s = 20 ms
  k.work_items = 1 << 20;
  k.work_group_size = 128;
  const double t = estimate_latency_ms(d, k);
  EXPECT_NEAR(t, 20.0, 2.0);
}

TEST(TimingModel, DivergenceMultiplies) {
  const DeviceSpec& d = platform(PlatformId::kAiSage).gpu;
  KernelLaunch k;
  k.flops = 1e8;
  k.work_items = 1 << 16;
  k.work_group_size = 64;
  const double t1 = estimate_latency_ms(d, k);
  k.divergence_factor = 4.0;
  const double t4 = estimate_latency_ms(d, k);
  EXPECT_NEAR(t4 / t1, 4.0, 0.2);
}

TEST(TimingModel, GlobalSyncAddsOverhead) {
  const DeviceSpec& d = platform(PlatformId::kAiSage).gpu;
  KernelLaunch k;
  k.flops = 1000;
  const double t0 = estimate_latency_ms(d, k);
  k.num_global_syncs = 10;
  const double t10 = estimate_latency_ms(d, k);
  EXPECT_NEAR(t10 - t0, 10 * d.global_sync_us * 1e-3, 1e-6);
}

TEST(TimingModel, CopyIsBandwidthBound) {
  const DeviceSpec& d = platform(PlatformId::kDeepLens).gpu;
  const double ms = copy_latency_ms(d, 128ll << 20);  // 128 MB
  EXPECT_NEAR(ms, 10.0, 1.5);
  EXPECT_GT(copy_latency_ms(d, 0), 0.0);  // fixed overhead
}

TEST(SimClock, AccumulatesAndTraces) {
  const DeviceSpec& d = platform(PlatformId::kDeepLens).gpu;
  SimClock clock;
  KernelLaunch k;
  k.name = "k1";
  k.flops = 1e6;
  clock.charge(d, k);
  clock.charge_copy(d, 1024, "copy1");
  EXPECT_GT(clock.total_ms(), 0.0);
  ASSERT_EQ(clock.events().size(), 2u);
  EXPECT_EQ(clock.events()[0].name, "k1");
  EXPECT_EQ(clock.events()[1].name, "copy1");
  clock.reset();
  EXPECT_EQ(clock.total_ms(), 0.0);
  EXPECT_TRUE(clock.events().empty());
}

TEST(GpuSimulator, LaunchRunsEveryWorkItemOnce) {
  SimClock clock;
  GpuSimulator gpu(platform(PlatformId::kJetsonNano).gpu, clock);
  std::vector<std::atomic<int>> hits(256);
  gpu.launch(
      16, 16,
      [&](const WorkItem& item) { hits[static_cast<size_t>(item.global_id())]++; },
      KernelLaunch{});
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(clock.total_ms(), 0.0);
}

TEST(GpuSimulator, LocalIdsSequentialWithinGroup) {
  SimClock clock;
  GpuSimulator gpu(platform(PlatformId::kDeepLens).gpu, clock);
  std::vector<int> last(8, -1);
  gpu.launch(
      8, 4,
      [&](const WorkItem& item) {
        // Within a group items arrive in local-id order.
        EXPECT_EQ(item.local_id, last[static_cast<size_t>(item.group_id)] + 1);
        last[static_cast<size_t>(item.group_id)] = item.local_id;
      },
      KernelLaunch{});
}

// launch_elementwise() dispatches nothing, so the event it books must be the
// one a launch() of the same geometry (the device's preferred group size,
// rounded up to whole groups) books, for partial and whole last groups.
TEST(GpuSimulator, ElementwiseLaunchBooksLaunchGeometry) {
  const DeviceSpec& dev = platform(PlatformId::kAiSage).gpu;
  const int64_t group = dev.simd_width * 8;
  for (int64_t n : {int64_t{1}, int64_t{7}, group, group + 1, int64_t{1000},
                    int64_t{24564} * 6}) {
    SimClock charged;
    GpuSimulator(dev, charged).launch_elementwise("ew", n, 3, 12);
    SimClock launched;
    KernelLaunch k;
    k.name = "ew";
    k.flops = 3 * n;
    k.dram_read_bytes = 12 * n;
    k.dram_write_bytes = 4 * n;
    const int64_t g = std::min(n, group);
    GpuSimulator(dev, launched)
        .launch((n + g - 1) / g, static_cast<int>(g), [](const WorkItem&) {},
                k);
    ASSERT_EQ(charged.events().size(), 1u);
    ASSERT_EQ(launched.events().size(), 1u);
    const ClockEvent& a = charged.events()[0];
    const ClockEvent& b = launched.events()[0];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ms, b.ms) << "n " << n;
    EXPECT_EQ(a.lane, b.lane);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.counters.launches, b.counters.launches);
    EXPECT_EQ(a.counters.flops, b.counters.flops);
    EXPECT_EQ(a.counters.dram_bytes, b.counters.dram_bytes);
    EXPECT_EQ(a.counters.compute_ms, b.counters.compute_ms);
    EXPECT_EQ(a.counters.memory_ms, b.counters.memory_ms);
    EXPECT_EQ(a.counters.divergence_ms, b.counters.divergence_ms);
    EXPECT_EQ(a.counters.overhead_ms, b.counters.overhead_ms);
    EXPECT_EQ(a.counters.occupancy, b.counters.occupancy) << "n " << n;
    EXPECT_EQ(a.counters.bound, b.counters.bound);
    EXPECT_EQ(charged.total_ms(), launched.total_ms());
  }
}

}  // namespace
}  // namespace igc::sim
