// The host JIT runtime behind the C++ codegen target (see emit_cpp in
// codegen.h): discover the host toolchain, compile emitted translation units
// into shared objects, cache the artifacts on disk, and hand the executor a
// per-node function-pointer table.
//
// Layering: one *module* is one translation unit holding every kernel of one
// compiled model, so a cold compile() costs exactly one toolchain invocation
// and a warm one costs zero. Artifacts live in a content-addressed on-disk
// cache keyed by (cache version, compiler id, flags, source): the
// TensorRT-style engine-serialize pattern, so repeat compiles skip the
// toolchain entirely and just dlopen.
//
// Cache entry layout (dir/igc_<key>.{cpp,so,manifest}):
//   * igc_<key>.cpp      — the emitted source (kept for debugging);
//   * igc_<key>.so       — the compiled shared object;
//   * igc_<key>.manifest — text manifest naming the cache version, compiler
//     id, flags, and source/so sizes the .so was built from.
// Inserts write temp files and publish via atomic rename, .so before
// manifest, so a manifest always describes a fully written object. Lookups
// validate the manifest and the object size and treat *any* mismatch,
// parse failure, or dlopen failure as a miss followed by a recompile —
// a truncated or corrupted entry costs one toolchain invocation, never an
// error.
//
// Everything records jit.* metrics (cache_hits / cache_misses / mem_hits /
// toolchain_invocations / toolchain_ms / kernels_compiled / modules_loaded /
// dispatches / compile_errors) in the process-wide registry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace igc::codegen::jit {

/// Signature of every emitted host kernel (see emit_cpp): buffer pointers
/// per kernel param, then a [blk_lo, blk_hi) range of flattened grid blocks.
using KernelFn = void (*)(float* const* bufs, long long blk_lo,
                          long long blk_hi);

/// The host C++ toolchain, discovered once per process: $CXX if set, else
/// `c++` from PATH. compiler_id() is the first line of `--version` output —
/// it keys the artifact cache, so objects built by one compiler are never
/// loaded after a toolchain switch.
class Toolchain {
 public:
  /// The process-wide host toolchain (probed on first use).
  static const Toolchain& host();

  bool available() const { return available_; }
  const std::string& compiler() const { return compiler_; }
  const std::string& compiler_id() const { return compiler_id_; }
  /// Compile flags (part of the cache key and the manifest, so an artifact
  /// built for one ISA level is never loaded at another). Contraction is
  /// disabled so the emitted float arithmetic stays bit-identical to the
  /// reference operators at every ISA level (GCC defaults to
  /// -ffp-contract=fast at -O2+, which would fuse a + b*c into FMAs). On
  /// x86-64 the flags end in -march=x86-64-v<isa_level()>.
  const std::string& flags() const { return flags_; }
  /// The x86-64 micro-architecture level the module is compiled for: the
  /// highest of 2, 3, 4 that both the CPU supports and the compiler accepts
  /// (probed once, beside `--version`). 0 on other hosts, which keep the
  /// compiler's baseline target.
  int isa_level() const { return isa_level_; }

  /// Compiles `source_path` into the shared object `out_path`. On failure
  /// returns false with the compiler's stderr in *err. Records
  /// jit.toolchain_invocations and jit.toolchain_ms.
  bool compile(const std::string& source_path, const std::string& out_path,
               std::string* err) const;

 private:
  Toolchain();

  bool available_ = false;
  std::string compiler_;
  std::string compiler_id_;
  std::string flags_;
  int isa_level_ = 0;
};

/// A dlopened shared object. Closing is tied to the last shared_ptr, so a
/// DispatchTable keeps its function pointers alive by holding the module.
class Module {
 public:
  ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Resolved symbol address, or null if absent.
  void* symbol(const std::string& name) const;

  /// dlopens `path` (RTLD_NOW | RTLD_LOCAL). Null + *err on failure.
  static std::shared_ptr<Module> open(const std::string& path,
                                      std::string* err);

 private:
  explicit Module(void* handle) : handle_(handle) {}
  void* handle_ = nullptr;
};

/// The on-disk compiled-artifact cache (file comment above). Each instance
/// owns an in-process registry deduplicating concurrent and repeated
/// compiles of the same source: per key, at most one thread invokes the
/// toolchain while the rest block and share the loaded module.
class KernelCache {
 public:
  /// Current entry-format version. Bumping it invalidates every existing
  /// entry (old artifacts are simply never matched again).
  static constexpr uint32_t kCacheVersion = 1;

  /// `dir` empty resolves default_dir(); `version` is overridable so tests
  /// can prove a bump invalidates.
  explicit KernelCache(std::string dir = "",
                       uint32_t version = kCacheVersion);

  /// $IGC_KERNEL_CACHE if set, else ~/.cache/igc-kernels, else (no $HOME)
  /// /tmp/igc-kernels.
  static std::string default_dir();

  const std::string& dir() const { return dir_; }

  /// Returns the loaded module for `source`, reusing (in order) the
  /// in-process registry, a valid on-disk artifact, or a fresh toolchain
  /// invocation. Null + *err when no toolchain is available or compilation
  /// fails; the failure is remembered per key, so a broken source does not
  /// re-invoke the toolchain on every call.
  std::shared_ptr<Module> load_or_compile(const std::string& source,
                                          std::string* err);

  /// The process-wide cache instance for `dir` (empty = default_dir()).
  /// CompiledModel compiles through this, so every compile() in a process
  /// shares one registry per directory.
  static KernelCache& shared(const std::string& dir = "");

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<Module> module;
    bool failed = false;
    std::string err;
  };

  std::shared_ptr<Module> disk_lookup(const std::string& key,
                                      const std::string& source);
  std::shared_ptr<Module> compile_and_insert(const std::string& key,
                                             const std::string& source,
                                             std::string* err);

  std::string dir_;
  uint32_t version_ = kCacheVersion;
  std::mutex mu_;  // guards entries_ (not the per-entry state)
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

/// How the executor binds one argument slot of a node's kernel.
enum class ArgKind {
  kInput0,        // first input tensor
  kInput1,        // second input tensor
  kPaddedInput0,  // first input, spatially zero-padded into worker scratch
  kWeight,
  kBias,
  kScale,  // node's scale tensor (kScaleShift)
  kShift,  // node's shift tensor
  kOutput,
};

/// One node's compiled kernel: the resolved function pointer, its flattened
/// grid, the argument binding recipe, and the padding geometry when the
/// kernel expects a pre-padded input.
struct NodeKernel {
  KernelFn fn = nullptr;
  int64_t grid = 1;
  std::vector<ArgKind> args;
  int64_t pad_h = 0, pad_w = 0;  // kPaddedInput0 spatial padding
};

/// Node id -> compiled kernel for one model. Holds the module so function
/// pointers outlive the cache registry.
struct DispatchTable {
  std::shared_ptr<Module> module;
  std::map<int, NodeKernel> nodes;

  const NodeKernel* find(int node_id) const {
    auto it = nodes.find(node_id);
    return it == nodes.end() ? nullptr : &it->second;
  }
};

}  // namespace igc::codegen::jit
