#include "tensor/arena.h"

#include <algorithm>
#include <cstring>

#include "core/error.h"
#include "obs/metrics.h"

namespace igc {
namespace {

// Process-wide arena instruments, resolved once. All arenas share them: the
// metrics answer "how much arena traffic did this process/run generate".
obs::Counter& acquire_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("arena.acquires");
  return c;
}
obs::Counter& release_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("arena.releases");
  return c;
}
obs::Gauge& high_water_gauge() {
  static auto& g =
      obs::MetricsRegistry::global().gauge("arena.high_water_bytes");
  return g;
}

}  // namespace

PagedArena::PagedArena(std::vector<int64_t> buffer_bytes)
    : pool_(std::make_shared<PagePool>()), owns_pool_(true) {
  init(std::move(buffer_bytes));
}

PagedArena::PagedArena(std::vector<int64_t> buffer_bytes,
                       std::shared_ptr<PagePool> pool)
    : pool_(std::move(pool)) {
  IGC_CHECK(pool_ != nullptr) << "PagedArena: shared pool must not be null";
  init(std::move(buffer_bytes));
}

void PagedArena::init(std::vector<int64_t> buffer_bytes) {
  bufs_.reserve(buffer_bytes.size());
  for (int64_t bytes : buffer_bytes) {
    IGC_CHECK_GE(bytes, 0);
    Entry e;
    e.bytes = bytes;
    bufs_.push_back(std::move(e));
    capacity_bytes_ += bytes;
  }
}

PagedArena::~PagedArena() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : bufs_) {
    if (!e.run.empty()) pool_->release(e.run);
    e.run = {};
  }
}

PagedArena::Entry& PagedArena::entry_locked(int buffer_id) {
  IGC_CHECK_GE(buffer_id, 0);
  IGC_CHECK_LT(buffer_id, static_cast<int>(bufs_.size()));
  return bufs_[static_cast<size_t>(buffer_id)];
}

Tensor PagedArena::wrap_run(const PagePool::PageRun& run, const Shape& shape,
                            DType dtype) const {
  return Tensor::wrap(shape, dtype, pool_->run_data(run),
                      pool_->run_bytes(run));
}

Tensor PagedArena::acquire(int buffer_id, const Shape& shape, DType dtype,
                           bool zero_fill) {
  Tensor t;
  int64_t in_use_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entry_locked(buffer_id);
    IGC_CHECK(!e.in_use) << "arena buffer " << buffer_id
                         << " acquired while in use";
    const int64_t requested = shape.numel() * dtype_bytes(dtype);
    IGC_CHECK_LE(requested, e.bytes)
        << "arena buffer " << buffer_id << ": " << shape.str()
        << " does not fit the planned bytes";
    // A cached run serves every holder of the buffer, so it spans the
    // planned bytes; a run from a caller's pool holds only this value.
    if (e.run.empty()) e.run = pool_->alloc(owns_pool_ ? e.bytes : requested);
    e.in_use = true;
    in_use_ += e.bytes;
    peak_ = std::max(peak_, in_use_);
    in_use_now = in_use_;
    t = wrap_run(e.run, shape, dtype);
  }
  acquire_counter().add(1);
  high_water_gauge().update_max(in_use_now);
  if (zero_fill) std::memset(t.raw_data(), 0, static_cast<size_t>(t.nbytes()));
  return t;
}

void PagedArena::release(int buffer_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entry_locked(buffer_id);
    IGC_CHECK(e.in_use)
        << "arena buffer " << buffer_id
        << " released while not in use (double release, or release before "
           "acquire) — every acquire must pair with exactly one release";
    in_use_ -= e.bytes;
    e.in_use = false;
    if (!owns_pool_) {
      pool_->release(e.run);
      e.run = {};
    }
  }
  release_counter().add(1);
}

int64_t PagedArena::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_bytes_;
}

int64_t PagedArena::in_use_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

int64_t PagedArena::peak_in_use_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

void PagedArena::reset_peak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = in_use_;
}

int64_t PagedArena::page_bytes_held() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t held = 0;
  for (const Entry& e : bufs_) {
    if (!e.run.empty()) held += pool_->run_bytes(e.run);
  }
  return held;
}

}  // namespace igc
