// Tests for the host JIT backend: the artifact cache (hit/miss accounting,
// concurrent compiles, corruption recovery, version invalidation) and the
// end-to-end guarantee that JIT and reference numerics are bit-identical
// across the model zoo and both time models — with simulated latencies
// untouched.
//
// Every test that needs the host toolchain skips cleanly when none exists.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "codegen/jit_lower.h"
#include "core/compiler.h"
#include "ir/interp.h"
#include "obs/metrics.h"
#include "ops/nn/host_kernels.h"
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

// ---- the register-tiled conv lowering, kernel by kernel ------------------

/// Same shape, dtype and bytes: the JIT's contract. Unlike
/// max_abs_diff() == 0 this tells +0.0 from -0.0 (and NaN payloads apart).
::testing::AssertionResult same_bytes(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape().str() << " vs " << b.shape().str();
  }
  if (a.dtype() != b.dtype()) {
    return ::testing::AssertionFailure() << "dtype differs";
  }
  if (std::memcmp(a.raw_data(), b.raw_data(),
                  static_cast<size_t>(a.nbytes())) != 0) {
    return ::testing::AssertionFailure()
           << "bytes differ (max_abs_diff " << a.max_abs_diff(b) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// One conv of the matrix: geometry plus the fused activation.
struct ConvCase {
  int64_t ci, h, w, co, k, stride, pad, groups;
  bool bias;
  bool act;
  ops::Activation kind = ops::Activation::kRelu;

  ops::Conv2dParams params() const {
    ops::Conv2dParams p;
    p.batch = 2;
    p.in_channels = ci;
    p.in_h = h;
    p.in_w = w;
    p.out_channels = co;
    p.kernel_h = p.kernel_w = k;
    p.stride_h = p.stride_w = stride;
    p.pad_h = p.pad_w = pad;
    p.groups = groups;
    return p;
  }
  ops::HostEpilogue epilogue() const {
    ops::HostEpilogue e;
    e.activation = act;
    e.act = kind;
    e.act_alpha = 0.1f;
    return e;
  }
};

// Strides 1 and 2; kernels 1/3/5/7; pads 0-3; OW 7, 13, 14 and 56 (the x
// tails of strided tiles and the J mod TJ tails of flat ones); out-channels
// 6, 10 and 64 (TC = 4, 3 or 2 at the levels' tiles); groups 1, 2 and
// depthwise; bias on and off; fused relu and leaky relu. The
// inputs stay small so the interpreter replays every kernel in seconds.
const std::vector<ConvCase>& conv_matrix() {
  using ops::Activation;
  static const std::vector<ConvCase> cases = {
      // ci  h   w    co  k  s  p  g   bias   act
      {4, 7, 7, 6, 1, 1, 0, 1, true, false},
      {3, 13, 13, 10, 3, 1, 1, 1, true, true},
      {8, 5, 14, 64, 1, 1, 0, 1, false, true},
      {2, 7, 13, 6, 7, 1, 3, 1, true, true, Activation::kLeakyRelu},
      {2, 3, 56, 10, 3, 1, 1, 2, true, false},
      {6, 14, 14, 6, 3, 1, 1, 6, true, true},
      {2, 14, 14, 6, 5, 1, 2, 1, true, true},
      {4, 9, 9, 64, 3, 1, 0, 2, false, false},
      {10, 13, 13, 10, 3, 2, 1, 10, false, false},
      {3, 8, 28, 6, 7, 2, 3, 1, true, true, Activation::kLeakyRelu},
      {4, 14, 14, 64, 1, 2, 0, 1, true, true},
      {4, 5, 113, 10, 3, 2, 0, 2, true, false},
      {4, 13, 13, 10, 5, 2, 2, 1, false, true, Activation::kLeakyRelu},
      {6, 6, 14, 6, 3, 2, 1, 6, true, true},
  };
  return cases;
}

/// Every element within `tol`; a NaN anywhere (an interpreter local-array
/// read before its first write is NaN) fails, where max_abs_diff would skip it.
::testing::AssertionResult within(const Tensor& a, const Tensor& b,
                                  float tol) {
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float d = std::fabs(a.data_f32()[i] - b.data_f32()[i]);
    if (!(d <= tol)) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a.data_f32()[i] << " vs "
             << b.data_f32()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The distinct tiles of every ISA level, so a host at one level still
/// lowers (and checks) the others' tile shapes.
std::vector<ops::HostConvTile> level_tiles() {
  std::vector<ops::HostConvTile> tiles;
  for (int level : {0, 2, 3, 4}) {
    const ops::HostConvTile t = ops::host_conv_tile(level);
    bool seen = false;
    for (const auto& u : tiles) seen |= u.tc == t.tc && u.tj == t.tj;
    if (!seen) tiles.push_back(t);
  }
  return tiles;
}

/// Zero-pads NCHW `x` spatially, as the executor does for kPaddedInput0.
Tensor zero_padded(const Tensor& x, int64_t pad) {
  const Shape& s = x.shape();
  Tensor out = Tensor::zeros(Shape{s[0], s[1], s[2] + 2 * pad, s[3] + 2 * pad});
  for (int64_t nc = 0; nc < s[0] * s[1]; ++nc) {
    for (int64_t y = 0; y < s[2]; ++y) {
      for (int64_t x_ = 0; x_ < s[3]; ++x_) {
        out.at4(nc / s[1], nc % s[1], y + pad, x_ + pad) =
            x.at4(nc / s[1], nc % s[1], y, x_);
      }
    }
  }
  return out;
}

TEST(JitConvLowering, MatrixMatchesReferenceBytesAtEveryLevelTile) {
  SKIP_WITHOUT_TOOLCHAIN();
  struct Built {
    const ConvCase* c;
    ops::HostConvTile tile;
    ir::LoweredKernel kernel;
  };
  std::vector<Built> built;
  std::ostringstream src;
  for (const ops::HostConvTile& tile : level_tiles()) {
    for (const ConvCase& c : conv_matrix()) {
      const std::string sym = "conv_case" + std::to_string(built.size());
      built.push_back({&c, tile,
                       ops::conv2d_build_host_ir(c.params(), c.bias,
                                                 c.epilogue(), sym, tile)});
      src << codegen::emit_cpp(built.back().kernel) << "\n";
    }
  }
  // One module for the whole matrix, through the real toolchain and flags.
  TempCacheDir dir;
  KernelCache cache(dir.path.string());
  std::string err;
  std::shared_ptr<Module> module = cache.load_or_compile(src.str(), &err);
  ASSERT_NE(module, nullptr) << err;

  Rng rng(31);
  for (const Built& b : built) {
    const ConvCase& c = *b.c;
    const ops::Conv2dParams p = c.params();
    SCOPED_TRACE(p.workload_key() + " tile " + std::to_string(b.tile.tc) +
                 "x" + std::to_string(b.tile.tj) + (c.bias ? " bias" : "") +
                 (c.act ? " act" : ""));
    const Tensor input = Tensor::random_normal(
        Shape{p.batch, p.in_channels, p.in_h, p.in_w}, rng, 1.0f);
    const Tensor weight = Tensor::random_normal(
        Shape{p.out_channels, p.in_channels / p.groups, p.kernel_h,
              p.kernel_w},
        rng, 0.5f);
    const Tensor bias = Tensor::random_normal(Shape{p.out_channels}, rng);

    Tensor expected = ops::conv2d_reference(input, weight,
                                            c.bias ? &bias : nullptr, p);
    if (c.act) expected = ops::activation_reference(expected, c.kind, 0.1f);

    // Bind the buffers in the kernel's parameter order.
    const Tensor padded = zero_padded(input, p.pad_h);
    Tensor out = Tensor::full(expected.shape(), -7.0f);
    std::map<std::string, Tensor> named = {
        {"data", padded}, {"weight", weight}, {"bias", bias}, {"out", out}};
    std::vector<float*> args;
    std::map<std::string, Tensor> bound;
    for (const ir::BufferParam& param : b.kernel.params) {
      Tensor& t = named.at(param.name);
      ASSERT_EQ(t.numel(), param.size) << param.name;
      args.push_back(t.data_f32());
      bound.emplace(param.name, t);
    }
    auto fn = reinterpret_cast<KernelFn>(module->symbol(b.kernel.name));
    ASSERT_NE(fn, nullptr);
    // One block at a time, last to first: the dispatcher may run grid
    // chunks in any order, so a block that writes outside its own outputs
    // (a pad column it should drop, say) clobbers a finished block here.
    for (int64_t blk = b.kernel.grid_size(); blk-- > 0;) {
      fn(args.data(), blk, blk + 1);
    }
    EXPECT_TRUE(same_bytes(out, expected));

    // The interpreter bounds-checks every load, so a tap outside the padded
    // plane fails here instead of reading the neighbouring plane.
    Tensor interp_out = Tensor::full(expected.shape(), -7.0f);
    bound.at("out") = interp_out;
    ASSERT_NO_THROW(ir::interpret(b.kernel, bound));
    EXPECT_TRUE(within(interp_out, expected, 1e-4f));
  }
}

// Infinities and NaN have no decimal literal: the host printer must spell
// them so the module compiles and stores exactly those values.
TEST(JitCodegen, NonFiniteFloatImmediatesCompileAndStore) {
  SKIP_WITHOUT_TOOLCHAIN();
  const double inf = std::numeric_limits<double>::infinity();
  ir::LoweredKernel k;
  k.name = "igc_nonfinite";
  k.params = {{"out", DType::kFloat32, 3, true}};
  k.body = {ir::make_for(
      {"b", 1, ir::IterKind::kBlockX},
      {ir::make_store("out", ir::imm(0), ir::fimm(inf)),
       ir::make_store("out", ir::imm(1), ir::fimm(-inf)),
       ir::make_store("out", ir::imm(2),
                      ir::fimm(std::numeric_limits<double>::quiet_NaN()))})};
  TempCacheDir dir;
  KernelCache cache(dir.path.string());
  std::string err;
  std::shared_ptr<Module> m = cache.load_or_compile(codegen::emit_cpp(k), &err);
  ASSERT_NE(m, nullptr) << err;
  auto fn = reinterpret_cast<KernelFn>(m->symbol(k.name));
  ASSERT_NE(fn, nullptr);
  float out[3] = {0.0f, 0.0f, 0.0f};
  float* bufs[1] = {out};
  fn(bufs, 0, 1);
  EXPECT_EQ(out[0], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(out[2]));
}

TEST(Toolchain, FlagsNameTheIsaLevel) {
  SKIP_WITHOUT_TOOLCHAIN();
  const Toolchain& tc = Toolchain::host();
  EXPECT_NE(tc.flags().find("-ffp-contract=off"), std::string::npos);
  if (tc.isa_level() == 0) {
    EXPECT_EQ(tc.flags().find("-march="), std::string::npos);
  } else {
    EXPECT_GE(tc.isa_level(), 2);
    EXPECT_LE(tc.isa_level(), 4);
    const std::string march =
        "-march=x86-64-v" + std::to_string(tc.isa_level());
    EXPECT_EQ(tc.flags().substr(tc.flags().size() - march.size()), march);
  }
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
    EXPECT_TRUE(same_bytes(r.output, ref_seq.output))
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
