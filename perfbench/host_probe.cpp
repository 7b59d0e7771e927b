#include "host_probe.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

volatile float probe_sink = 0.0f;

/// Sums a logistic over a 16 KiB table 64 times: exp-bound, cache-resident
/// floating-point work, like the program's vision and convolution kernels.
double kernel_ms() {
  std::vector<float> table(4096);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = 0.001f * static_cast<float>(i % 997) - 0.5f;
  }
  const auto t0 = std::chrono::steady_clock::now();
  float acc = 0.0f;
  for (int rep = 0; rep < 64; ++rep) {
    for (float x : table) acc += 1.0f / (1.0f + std::exp(-x));
  }
  probe_sink = acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double host_probe_ms(int threads) {
  std::vector<double> ms(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> workers;
  for (size_t i = 0; i < ms.size(); ++i) {
    workers.emplace_back([&ms, i] { ms[i] = kernel_ms(); });
  }
  for (std::thread& w : workers) w.join();
  double sum = 0.0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(ms.size());
}

}  // namespace perfbench
