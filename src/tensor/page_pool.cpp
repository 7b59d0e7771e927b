#include "tensor/page_pool.h"

#include <algorithm>

#include "core/error.h"
#include "obs/metrics.h"

namespace igc {
namespace {

// Process-wide page instruments shared by every pool: the arena.page_*
// family answers "how much physical paging traffic did this process see".
obs::Counter& page_alloc_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("arena.page_allocs");
  return c;
}
obs::Counter& page_free_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("arena.page_frees");
  return c;
}
obs::Gauge& pages_in_use_gauge() {
  static auto& g = obs::MetricsRegistry::global().gauge("arena.pages_in_use");
  return g;
}
obs::Gauge& page_bytes_gauge() {
  static auto& g = obs::MetricsRegistry::global().gauge("arena.page_bytes");
  return g;
}

}  // namespace

PagePool::PagePool() : PagePool(Options{}) {}

PagePool::PagePool(Options opts) : opts_(opts) {
  IGC_CHECK_GE(opts_.max_bytes, 0);
}

PagePool::~PagePool() = default;

PagePool::PageRun PagePool::try_alloc_locked(int32_t pages_needed) {
  // First-fit over the existing extents' free runs.
  for (size_t e = 0; e < extents_.size(); ++e) {
    Extent& ext = extents_[e];
    for (auto it = ext.free_runs.begin(); it != ext.free_runs.end(); ++it) {
      if (it->second < pages_needed) continue;
      PageRun run;
      run.extent = static_cast<int32_t>(e);
      run.first_page = it->first;
      run.num_pages = pages_needed;
      const int32_t leftover = it->second - pages_needed;
      const int32_t leftover_start = it->first + pages_needed;
      ext.free_runs.erase(it);
      if (leftover > 0) ext.free_runs.emplace(leftover_start, leftover);
      return run;
    }
  }
  // No hole fits: map a new extent.
  Extent ext;
  ext.num_pages = std::max<int64_t>(pages_needed, kMinExtentPages);
  ext.data = std::shared_ptr<char[]>(
      new char[static_cast<size_t>(ext.num_pages * kPageBytes)]);
  PageRun run;
  run.extent = static_cast<int32_t>(extents_.size());
  run.first_page = 0;
  run.num_pages = pages_needed;
  if (ext.num_pages > pages_needed) {
    ext.free_runs.emplace(pages_needed,
                          static_cast<int32_t>(ext.num_pages - pages_needed));
  }
  extents_.push_back(std::move(ext));
  return run;
}

void PagePool::note_usage_locked() {
  const int64_t bytes = pages_in_use_ * kPageBytes;
  peak_bytes_ = std::max(peak_bytes_, bytes);
  pages_in_use_gauge().set(pages_in_use_);
  page_bytes_gauge().set(bytes);
}

PagePool::PageRun PagePool::alloc(int64_t min_bytes) {
  IGC_CHECK_GE(min_bytes, 0);
  const int64_t pages64 =
      std::max<int64_t>(1, (min_bytes + kPageBytes - 1) / kPageBytes);
  IGC_CHECK_LE(pages64, INT32_MAX) << "PagePool: allocation too large";
  const int32_t pages_needed = static_cast<int32_t>(pages64);

  PageRun run;
  {
    // The budget check and the allocation share one critical section, so
    // two allocations can never both pass the check and overshoot together.
    std::lock_guard<std::mutex> lock(mu_);
    IGC_CHECK(opts_.max_bytes == 0 ||
              (pages_in_use_ + pages_needed) * kPageBytes <= opts_.max_bytes)
        << "PagePool: page budget exhausted — " << pages_needed
        << " pages requested with "
        << (opts_.max_bytes / kPageBytes - pages_in_use_)
        << " pages of budget left (max_bytes=" << opts_.max_bytes << ")";
    run = try_alloc_locked(pages_needed);
    live_[run_key(run)] = LiveRun{pages_needed, 1};
    pages_in_use_ += pages_needed;
    total_allocs_ += pages_needed;
    note_usage_locked();
  }
  page_alloc_counter().add(pages_needed);
  return run;
}

void PagePool::add_ref(const PageRun& run) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(run_key(run));
  IGC_CHECK(it != live_.end()) << "PagePool: add_ref on a non-live run";
  ++it->second.refs;
}

void PagePool::release(const PageRun& run) {
  int32_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(run_key(run));
    IGC_CHECK(it != live_.end()) << "PagePool: release of a non-live run";
    if (--it->second.refs > 0) return;
    freed = it->second.num_pages;
    live_.erase(it);
    pages_in_use_ -= freed;
    total_frees_ += freed;
    // Return the pages to the extent's free map, coalescing with neighbors.
    Extent& ext = extents_[static_cast<size_t>(run.extent)];
    int32_t start = run.first_page;
    int32_t count = freed;
    auto next = ext.free_runs.lower_bound(start);
    if (next != ext.free_runs.end() && next->first == start + count) {
      count += next->second;
      next = ext.free_runs.erase(next);
    }
    if (next != ext.free_runs.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == start) {
        start = prev->first;
        count += prev->second;
        ext.free_runs.erase(prev);
      }
    }
    ext.free_runs.emplace(start, count);
    note_usage_locked();
  }
  page_free_counter().add(freed);
}

int PagePool::refcount(const PageRun& run) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(run_key(run));
  return it == live_.end() ? 0 : it->second.refs;
}

std::shared_ptr<char[]> PagePool::run_data(const PageRun& run) const {
  std::lock_guard<std::mutex> lock(mu_);
  IGC_CHECK_GE(run.extent, 0);
  IGC_CHECK_LT(run.extent, static_cast<int32_t>(extents_.size()));
  const Extent& ext = extents_[static_cast<size_t>(run.extent)];
  IGC_CHECK_LE(static_cast<int64_t>(run.first_page) + run.num_pages,
               ext.num_pages);
  return std::shared_ptr<char[]>(
      ext.data, ext.data.get() + run.first_page * kPageBytes);
}

int64_t PagePool::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_in_use_ * kPageBytes;
}

int64_t PagePool::peak_bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_;
}

int64_t PagePool::pages_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_in_use_;
}

int64_t PagePool::extent_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Extent& e : extents_) total += e.num_pages * kPageBytes;
  return total;
}

int64_t PagePool::total_page_allocs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_allocs_;
}

int64_t PagePool::total_page_frees() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_frees_;
}

void PagePool::reset_peak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_bytes_ = pages_in_use_ * kPageBytes;
}

}  // namespace igc
