#include "codegen/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/error.h"
#include "core/hash.h"
#include "obs/metrics.h"

namespace igc::codegen::jit {
namespace {

namespace fs = std::filesystem;

obs::Counter& counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

/// Runs `cmd` via the shell, returns exit status (-1 on launch failure).
int run_command(const std::string& cmd) { return std::system(cmd.c_str()); }

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool write_file(const fs::path& p, const std::string& content) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

/// Process-unique temp suffix so concurrent inserts never collide.
std::string temp_suffix() {
  static std::atomic<uint64_t> seq{0};
  return ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(seq.fetch_add(1));
}

/// Shell-quotes a path (single quotes; embedded quotes escaped).
std::string quoted(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// The highest x86-64 micro-architecture level this CPU implements (2-4),
/// or 0 when the build cannot ask (non-x86 hosts, compilers older than
/// GCC 12, which introduced the level names in __builtin_cpu_supports).
int cpu_isa_level() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 12
  if (__builtin_cpu_supports("x86-64-v4")) return 4;
  if (__builtin_cpu_supports("x86-64-v3")) return 3;
  if (__builtin_cpu_supports("x86-64-v2")) return 2;
#endif
  return 0;
}

}  // namespace

// ---- Toolchain -------------------------------------------------------------

Toolchain::Toolchain() {
  const char* env = std::getenv("CXX");
  compiler_ = (env != nullptr && env[0] != '\0') ? env : "c++";
  // Bit-identity depends on -ffp-contract=off: GCC's default of
  // -ffp-contract=fast would fuse the emitted a + b*c chains into FMAs and
  // change results in the last ulp.
  flags_ = "-std=c++17 -O3 -fPIC -shared -ffp-contract=off";
  // Probe: first line of `--version` identifies the compiler (and keys the
  // artifact cache). Failure to run it means no usable host toolchain.
  std::FILE* p =
      ::popen((compiler_ + " --version 2>/dev/null").c_str(), "r");
  if (p == nullptr) return;
  char buf[256] = {0};
  if (std::fgets(buf, sizeof(buf), p) != nullptr) {
    compiler_id_ = buf;
    while (!compiler_id_.empty() &&
           (compiler_id_.back() == '\n' || compiler_id_.back() == '\r')) {
      compiler_id_.pop_back();
    }
  }
  ::pclose(p);
  available_ = !compiler_id_.empty();
  if (!available_) return;
  // The JIT targets the CPU it runs on: the highest level the CPU has and
  // the compiler accepts (preprocessing an empty unit rejects an unknown
  // -march value). Usually the first probe succeeds.
  for (int level = cpu_isa_level(); level >= 2; --level) {
    const std::string march = "-march=x86-64-v" + std::to_string(level);
    if (run_command(compiler_ + " " + march +
                    " -x c++ -E -o /dev/null /dev/null >/dev/null 2>&1") == 0) {
      isa_level_ = level;
      flags_ += " " + march;
      break;
    }
  }
}

const Toolchain& Toolchain::host() {
  static const Toolchain tc;
  return tc;
}

bool Toolchain::compile(const std::string& source_path,
                        const std::string& out_path, std::string* err) const {
  IGC_CHECK(available_) << "no host toolchain";
  const std::string err_path = out_path + ".stderr";
  const std::string cmd = compiler_ + " " + flags_ + " -o " +
                          quoted(out_path) + " " + quoted(source_path) +
                          " 2> " + quoted(err_path);
  const auto t0 = std::chrono::steady_clock::now();
  const int status = run_command(cmd);
  const auto t1 = std::chrono::steady_clock::now();
  auto& m = obs::MetricsRegistry::global();
  m.counter("jit.toolchain_invocations").add(1);
  m.histogram("jit.toolchain_ms")
      .observe(static_cast<int64_t>(
          std::chrono::duration<double, std::milli>(t1 - t0).count()));
  std::error_code ec;
  if (status != 0) {
    if (err != nullptr) {
      *err = "toolchain failed (status " + std::to_string(status) +
             "): " + cmd + "\n" + read_file(err_path);
    }
    fs::remove(err_path, ec);
    return false;
  }
  fs::remove(err_path, ec);
  return true;
}

// ---- Module ----------------------------------------------------------------

Module::~Module() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

void* Module::symbol(const std::string& name) const {
  return ::dlsym(handle_, name.c_str());
}

std::shared_ptr<Module> Module::open(const std::string& path,
                                     std::string* err) {
  void* h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    if (err != nullptr) {
      const char* d = ::dlerror();
      *err = d != nullptr ? d : ("dlopen failed: " + path);
    }
    return nullptr;
  }
  return std::shared_ptr<Module>(new Module(h));
}

// ---- KernelCache -----------------------------------------------------------

KernelCache::KernelCache(std::string dir, uint32_t version)
    : dir_(dir.empty() ? default_dir() : std::move(dir)), version_(version) {}

std::string KernelCache::default_dir() {
  const char* env = std::getenv("IGC_KERNEL_CACHE");
  if (env != nullptr && env[0] != '\0') return env;
  const char* home = std::getenv("HOME");
  if (home != nullptr && home[0] != '\0') {
    return std::string(home) + "/.cache/igc-kernels";
  }
  return "/tmp/igc-kernels";
}

KernelCache& KernelCache::shared(const std::string& dir) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<KernelCache>>* instances =
      new std::map<std::string, std::unique_ptr<KernelCache>>();
  const std::string resolved = dir.empty() ? default_dir() : dir;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*instances)[resolved];
  if (slot == nullptr) slot = std::make_unique<KernelCache>(resolved);
  return *slot;
}

std::shared_ptr<Module> KernelCache::load_or_compile(const std::string& source,
                                                     std::string* err) {
  const Toolchain& tc = Toolchain::host();
  if (!tc.available()) {
    if (err != nullptr) *err = "no host C++ toolchain ($CXX or c++) found";
    return nullptr;
  }
  const std::string key = hex64(fnv1a_fields(
      {std::to_string(version_), tc.compiler_id(), tc.flags(), source}));

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = entries_[key];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  // Per-key serialization: concurrent compiles of the same kernel source
  // block here while exactly one thread does the work.
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->module != nullptr) {
    counter("jit.mem_hits").add(1);
    return entry->module;
  }
  if (entry->failed) {
    if (err != nullptr) *err = entry->err;
    return nullptr;
  }
  if (std::shared_ptr<Module> m = disk_lookup(key, source)) {
    counter("jit.cache_hits").add(1);
    counter("jit.modules_loaded").add(1);
    entry->module = std::move(m);
    return entry->module;
  }
  counter("jit.cache_misses").add(1);
  std::string local_err;
  std::shared_ptr<Module> m = compile_and_insert(key, source, &local_err);
  if (m == nullptr) {
    counter("jit.compile_errors").add(1);
    entry->failed = true;
    entry->err = local_err;
    if (err != nullptr) *err = local_err;
    return nullptr;
  }
  counter("jit.modules_loaded").add(1);
  entry->module = std::move(m);
  return entry->module;
}

std::shared_ptr<Module> KernelCache::disk_lookup(const std::string& key,
                                                 const std::string& source) {
  const fs::path so_path = fs::path(dir_) / ("igc_" + key + ".so");
  const fs::path man_path = fs::path(dir_) / ("igc_" + key + ".manifest");
  std::error_code ec;

  // Parse + validate the manifest; any irregularity is a miss, never an
  // error — the recompile path overwrites whatever was there.
  std::ifstream man(man_path);
  if (!man) return nullptr;
  std::string line;
  auto next_value = [&](std::string_view field) -> std::string {
    if (!std::getline(man, line)) return {};
    if (line.rfind(field, 0) != 0 || line.size() <= field.size() + 1) {
      return {};
    }
    return line.substr(field.size() + 1);
  };
  if (!std::getline(man, line) || line != "igc-kernel-cache-manifest") {
    return nullptr;
  }
  if (next_value("version") != std::to_string(version_)) return nullptr;
  if (next_value("compiler") != Toolchain::host().compiler_id()) return nullptr;
  if (next_value("flags") != Toolchain::host().flags()) return nullptr;
  if (next_value("source_bytes") != std::to_string(source.size())) {
    return nullptr;
  }
  if (next_value("source_hash") != hex64(fnv1a_fields({source}))) {
    return nullptr;
  }
  const std::string so_bytes = next_value("so_bytes");
  if (so_bytes.empty()) return nullptr;
  const auto actual = fs::file_size(so_path, ec);
  if (ec || std::to_string(actual) != so_bytes) return nullptr;

  std::string err;
  return Module::open(so_path.string(), &err);  // dlopen failure -> miss
}

std::shared_ptr<Module> KernelCache::compile_and_insert(
    const std::string& key, const std::string& source, std::string* err) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const fs::path base = fs::path(dir_) / ("igc_" + key);
  const fs::path src_path = base.string() + ".cpp";
  const fs::path so_path = base.string() + ".so";
  const fs::path man_path = base.string() + ".manifest";

  // Publish the source (atomic rename; contents are deterministic per key,
  // so losing a rename race to another process is harmless).
  const fs::path src_tmp = src_path.string() + temp_suffix();
  if (!write_file(src_tmp, source)) {
    *err = "cannot write " + src_tmp.string();
    return nullptr;
  }
  fs::rename(src_tmp, src_path, ec);
  if (ec) {
    fs::remove(src_tmp, ec);
    *err = "cannot publish " + src_path.string();
    return nullptr;
  }

  // Compile into a temp object, then publish .so before manifest so a
  // manifest never describes a partially written object.
  const fs::path so_tmp = so_path.string() + temp_suffix();
  if (!Toolchain::host().compile(src_path.string(), so_tmp.string(), err)) {
    fs::remove(so_tmp, ec);
    return nullptr;
  }
  const auto so_bytes = fs::file_size(so_tmp, ec);
  if (ec) {
    *err = "compiled object vanished: " + so_tmp.string();
    return nullptr;
  }
  fs::rename(so_tmp, so_path, ec);
  if (ec) {
    fs::remove(so_tmp, ec);
    *err = "cannot publish " + so_path.string();
    return nullptr;
  }

  std::ostringstream man;
  man << "igc-kernel-cache-manifest\n"
      << "version " << version_ << "\n"
      << "compiler " << Toolchain::host().compiler_id() << "\n"
      << "flags " << Toolchain::host().flags() << "\n"
      << "source_bytes " << source.size() << "\n"
      << "source_hash " << hex64(fnv1a_fields({source})) << "\n"
      << "so_bytes " << so_bytes << "\n";
  const fs::path man_tmp = man_path.string() + temp_suffix();
  if (!write_file(man_tmp, man.str())) {
    *err = "cannot write " + man_tmp.string();
    return nullptr;
  }
  fs::rename(man_tmp, man_path, ec);
  if (ec) {
    fs::remove(man_tmp, ec);
    *err = "cannot publish " + man_path.string();
    return nullptr;
  }

  return Module::open(so_path.string(), err);
}

}  // namespace igc::codegen::jit
