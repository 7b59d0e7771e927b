// Tests for the host JIT backend: the artifact cache (hit/miss accounting,
// concurrent compiles, corruption recovery, version invalidation) and the
// end-to-end guarantee that JIT and reference numerics are bit-identical
// across the model zoo and both time models — with simulated latencies
// untouched.
//
// Every test that needs the host toolchain skips cleanly when none exists.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "codegen/jit_lower.h"
#include "core/compiler.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"

namespace igc {
namespace {

namespace fs = std::filesystem;
using codegen::jit::KernelCache;
using codegen::jit::KernelFn;
using codegen::jit::Module;
using codegen::jit::Toolchain;

#define SKIP_WITHOUT_TOOLCHAIN()                               \
  if (!Toolchain::host().available()) {                        \
    GTEST_SKIP() << "no host C++ toolchain ($CXX or c++)";     \
  }

/// A fresh private cache directory per test, removed on destruction.
struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("igc-jit-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::create_directories(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

int64_t counter_delta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  auto get = [&](const obs::MetricsSnapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? int64_t{0} : it->second;
  };
  return get(after) - get(before);
}

obs::MetricsSnapshot snap() { return obs::MetricsRegistry::global().snapshot(); }

/// A tiny valid kernel source; `tag` varies the content (and thus the cache
/// key) between tests sharing a directory.
std::string test_source(const std::string& tag) {
  return "// " + tag +
         "\nextern \"C\" void igc_test_fn(float* const* bufs, long long lo, "
         "long long hi) {\n  for (long long i = lo; i < hi; ++i) bufs[0][i] = "
         "static_cast<float>(i) * 2.0f;\n}\n";
}

void check_module_works(Module& m) {
  auto fn = reinterpret_cast<KernelFn>(m.symbol("igc_test_fn"));
  ASSERT_NE(fn, nullptr);
  float out[4] = {0, 0, 0, 0};
  float* bufs[1] = {out};
  fn(bufs, 1, 3);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 2.0f);
  EXPECT_EQ(out[2], 4.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(KernelCache, MissThenDiskHitAccounting) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const std::string src = test_source("miss-then-hit");

  auto s0 = snap();
  KernelCache cold(dir.path.string());
  std::string err;
  std::shared_ptr<Module> m1 = cold.load_or_compile(src, &err);
  ASSERT_NE(m1, nullptr) << err;
  check_module_works(*m1);
  auto s1 = snap();
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_misses"), 1);
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_hits"), 0);
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);

  // Same instance again: served from the in-process registry.
  std::shared_ptr<Module> m2 = cold.load_or_compile(src, &err);
  EXPECT_EQ(m2.get(), m1.get());
  auto s2 = snap();
  EXPECT_EQ(counter_delta(s1, s2, "jit.mem_hits"), 1);
  EXPECT_EQ(counter_delta(s1, s2, "jit.toolchain_invocations"), 0);

  // A fresh instance over the same directory (a new process, effectively):
  // disk hit, no toolchain.
  KernelCache warm(dir.path.string());
  std::shared_ptr<Module> m3 = warm.load_or_compile(src, &err);
  ASSERT_NE(m3, nullptr) << err;
  check_module_works(*m3);
  auto s3 = snap();
  EXPECT_EQ(counter_delta(s2, s3, "jit.cache_hits"), 1);
  EXPECT_EQ(counter_delta(s2, s3, "jit.cache_misses"), 0);
  EXPECT_EQ(counter_delta(s2, s3, "jit.toolchain_invocations"), 0);
}

TEST(KernelCache, ConcurrentCompilesOfSameKernelInvokeToolchainOnce) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const std::string src = test_source("concurrent");
  KernelCache cache(dir.path.string());

  auto s0 = snap();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<Module>> modules(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string err;
      modules[static_cast<size_t>(t)] = cache.load_or_compile(src, &err);
    });
  }
  for (auto& th : threads) th.join();
  auto s1 = snap();

  for (const auto& m : modules) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m.get(), modules[0].get());  // one shared module
  }
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_misses"), 1);
}

TEST(KernelCache, TruncatedEntryIsRecompiled) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const std::string src = test_source("truncated");
  std::string err;
  {
    KernelCache first(dir.path.string());
    ASSERT_NE(first.load_or_compile(src, &err), nullptr) << err;
  }
  // Truncate the shared object behind the manifest's back.
  bool truncated = false;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".so") {
      std::ofstream(e.path(), std::ios::binary | std::ios::trunc) << "junk";
      truncated = true;
    }
  }
  ASSERT_TRUE(truncated);

  auto s0 = snap();
  KernelCache second(dir.path.string());
  std::shared_ptr<Module> m = second.load_or_compile(src, &err);
  ASSERT_NE(m, nullptr) << err;
  check_module_works(*m);
  auto s1 = snap();
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_misses"), 1);
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);
}

TEST(KernelCache, GarbageManifestIsRecompiled) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const std::string src = test_source("garbage-manifest");
  std::string err;
  {
    KernelCache first(dir.path.string());
    ASSERT_NE(first.load_or_compile(src, &err), nullptr) << err;
  }
  bool corrupted = false;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".manifest") {
      std::ofstream(e.path(), std::ios::trunc) << "not a manifest\x01\x02";
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  auto s0 = snap();
  KernelCache second(dir.path.string());
  std::shared_ptr<Module> m = second.load_or_compile(src, &err);
  ASSERT_NE(m, nullptr) << err;
  auto s1 = snap();
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);
}

TEST(KernelCache, VersionBumpInvalidatesEntries) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const std::string src = test_source("version-bump");
  std::string err;
  {
    KernelCache v1(dir.path.string(), /*version=*/1);
    ASSERT_NE(v1.load_or_compile(src, &err), nullptr) << err;
  }
  auto s0 = snap();
  KernelCache v2(dir.path.string(), /*version=*/2);
  std::shared_ptr<Module> m = v2.load_or_compile(src, &err);
  ASSERT_NE(m, nullptr) << err;
  auto s1 = snap();
  // The v1 artifact must not be matched: bumping the version recompiles.
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_hits"), 0);
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_misses"), 1);
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);

  // And the same version still disk-hits its own artifact.
  auto s2 = snap();
  KernelCache v1_again(dir.path.string(), /*version=*/1);
  ASSERT_NE(v1_again.load_or_compile(src, &err), nullptr) << err;
  auto s3 = snap();
  EXPECT_EQ(counter_delta(s2, s3, "jit.cache_hits"), 1);
  EXPECT_EQ(counter_delta(s2, s3, "jit.toolchain_invocations"), 0);
}

TEST(KernelCache, BrokenSourceFailsOnceAndIsRemembered) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  KernelCache cache(dir.path.string());
  const std::string bad = "this is not C++ at all {{{";
  auto s0 = snap();
  std::string err;
  EXPECT_EQ(cache.load_or_compile(bad, &err), nullptr);
  EXPECT_FALSE(err.empty());
  std::string err2;
  EXPECT_EQ(cache.load_or_compile(bad, &err2), nullptr);
  EXPECT_FALSE(err2.empty());
  auto s1 = snap();
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 1);
  EXPECT_EQ(counter_delta(s0, s1, "jit.compile_errors"), 1);
}

// ---- end-to-end: JIT vs reference bit-identity --------------------------

CompileOptions jit_opts(const std::string& cache_dir) {
  CompileOptions o;
  o.tune_trials = 8;
  o.backend = Backend::kJit;
  o.kernel_cache_dir = cache_dir;
  return o;
}

void expect_bit_identical(const CompiledModel& cm) {
  ASSERT_TRUE(cm.jit_enabled()) << cm.jit_error();
  EXPECT_GT(cm.jit_nodes_covered(), 0);

  // Reference output and latency (sequential + wavefront).
  RunOptions interp;
  interp.backend = RunBackend::kInterp;
  const RunResult ref_seq = cm.run(interp);
  RunOptions interp_wave = interp;
  interp_wave.mode = graph::ExecMode::kWavefront;
  const RunResult ref_wave = cm.run(interp_wave);

  for (graph::ExecMode mode :
       {graph::ExecMode::kSequential, graph::ExecMode::kWavefront}) {
    RunOptions jit;
    jit.backend = RunBackend::kAuto;
    jit.mode = mode;
    const RunResult r = cm.run(jit);
    const RunResult& ref =
        mode == graph::ExecMode::kSequential ? ref_seq : ref_wave;
    EXPECT_EQ(r.output.max_abs_diff(ref_seq.output), 0.0f)
        << cm.model_name() << " mode=" << static_cast<int>(mode);
    // Simulated time is computed from charges, never from host numerics:
    // the JIT must not move it by a single bit.
    EXPECT_EQ(r.latency_ms, ref.latency_ms);
    EXPECT_EQ(r.serial_ms, ref.serial_ms);
    EXPECT_EQ(r.critical_path_ms, ref.critical_path_ms);
    EXPECT_EQ(r.counters.flops, ref.counters.flops);
    EXPECT_EQ(r.counters.dram_bytes, ref.counters.dram_bytes);
  }
}

// The bit-identity tests use the default cache resolution ($IGC_KERNEL_CACHE
// or ~/.cache/igc-kernels) rather than a throwaway directory: their results
// do not depend on cold/warm state, and a persisted cache (CI restores one
// keyed on the compiler version) turns their module compiles into disk hits.
TEST(JitBitIdentity, InceptionV1) {
  SKIP_WITHOUT_TOOLCHAIN();
  Rng rng(11);
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  expect_bit_identical(compile(models::build_inception_v1(rng, 64, 1, 10),
                               plat, jit_opts("")));
}

TEST(JitBitIdentity, MobileNetDepthwise) {
  SKIP_WITHOUT_TOOLCHAIN();
  Rng rng(12);
  const auto& plat = sim::platform(sim::PlatformId::kAiSage);
  expect_bit_identical(compile(models::build_mobilenet(rng, 64, 1, 10), plat,
                               jit_opts("")));
}

TEST(JitBitIdentity, ResNet50Residual) {
  SKIP_WITHOUT_TOOLCHAIN();
  Rng rng(13);
  const auto& plat = sim::platform(sim::PlatformId::kJetsonNano);
  expect_bit_identical(compile(models::build_resnet50(rng, 64, 1, 10), plat,
                               jit_opts("")));
}

TEST(Jit, WarmCacheCompilesWithZeroToolchainInvocations) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  {
    Rng rng(21);
    CompiledModel cold = compile(models::build_mobilenet(rng, 64, 1, 10), plat,
                                 jit_opts(dir.path.string()));
    ASSERT_TRUE(cold.jit_enabled()) << cold.jit_error();
  }
  auto s0 = snap();
  Rng rng(21);
  CompiledModel warm = compile(models::build_mobilenet(rng, 64, 1, 10), plat,
                               jit_opts(dir.path.string()));
  ASSERT_TRUE(warm.jit_enabled()) << warm.jit_error();
  auto s1 = snap();
  // The acceptance criterion: a warm-cache compile() never runs the
  // toolchain — the module comes back from the cache registry.
  EXPECT_EQ(counter_delta(s0, s1, "jit.toolchain_invocations"), 0);
  EXPECT_EQ(counter_delta(s0, s1, "jit.cache_misses"), 0);
  EXPECT_GE(counter_delta(s0, s1, "jit.mem_hits") +
                counter_delta(s0, s1, "jit.cache_hits"),
            1);
}

TEST(Jit, DispatchesOnlyOnJitRuns) {
  SKIP_WITHOUT_TOOLCHAIN();
  TempCacheDir dir;
  Rng rng(22);
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  CompiledModel cm = compile(models::build_squeezenet(rng, 64, 1, 10), plat,
                             jit_opts(dir.path.string()));
  ASSERT_TRUE(cm.jit_enabled()) << cm.jit_error();

  auto s0 = snap();
  RunOptions jit;
  jit.backend = RunBackend::kAuto;
  (void)cm.run(jit);
  auto s1 = snap();
  EXPECT_GT(counter_delta(s0, s1, "jit.dispatches"), 0);

  RunOptions interp;
  interp.backend = RunBackend::kInterp;
  (void)cm.run(interp);
  auto s2 = snap();
  EXPECT_EQ(counter_delta(s1, s2, "jit.dispatches"), 0);
}

TEST(Jit, InterpCompileCarriesNoModule) {
  Rng rng(23);
  const auto& plat = sim::platform(sim::PlatformId::kDeepLens);
  CompileOptions o;
  o.tune_trials = 8;  // backend defaults to kInterp
  CompiledModel cm = compile(models::build_squeezenet(rng, 64, 1, 10), plat, o);
  EXPECT_FALSE(cm.jit_enabled());
  EXPECT_EQ(cm.jit_kernels(), 0);
  // kAuto on an interp-compiled model silently runs the reference path.
  auto s0 = snap();
  RunOptions jit;
  jit.backend = RunBackend::kAuto;
  const RunResult r = cm.run(jit);
  auto s1 = snap();
  EXPECT_EQ(counter_delta(s0, s1, "jit.dispatches"), 0);
  EXPECT_GT(r.latency_ms, 0.0);
}

}  // namespace
}  // namespace igc
