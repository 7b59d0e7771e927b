// Physical page pool behind the PagedArena (src/tensor/arena.h).
//
// The paged-KV-cache idea from LLM serving engines, applied to activation
// buffers: the pool owns large contiguous extents of host memory carved into
// fixed-size pages, and hands out *page runs* — contiguous spans of pages —
// each with one owner. Tensors need contiguous storage, so a run is the
// unit of allocation (never a scatter list); contiguity inside an extent is
// found first-fit with free-run coalescing, and a new extent is mapped only
// when no existing extent has a large-enough hole.
//
// Sharing: several PagedArenas (e.g. the serving contexts of every worker x
// tenant in a ServingEngine) can draw from one pool, so physical pages freed
// by one request back the next request's buffers — the cross-request sharing
// a per-context slab design cannot do. Two values never share a run: the
// memory plan stores an alias in its root's buffer, so one run serves both.
//
// Budget: Options::max_bytes bounds the bytes held by live runs. An
// allocation that would exceed it throws igc::Error; the check and the
// allocation share one critical section, so concurrent allocations never
// overshoot the budget together.
//
// Under AddressSanitizer, pages outside a live run are poisoned: a read
// through a stale view of a released run is reported where it happens.
//
// Thread safety: all methods are mutex-guarded. Metrics: arena.page_allocs /
// arena.page_frees / arena.pages_in_use / arena.page_bytes are recorded
// process-wide on every transition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace igc {

class PagePool {
 public:
  /// Page granularity. Runs are rounded up to whole pages.
  static constexpr int64_t kPageBytes = 64 * 1024;
  /// Minimum pages per mapped extent (small allocations share extents).
  static constexpr int64_t kMinExtentPages = 64;

  struct Options {
    /// Budget on bytes held by live runs (0 = unbounded). An alloc() that
    /// would exceed it throws igc::Error.
    int64_t max_bytes = 0;
  };

  /// A contiguous span of pages inside one extent. Value handle: copying it
  /// does not copy ownership; the run is released once, by its owner.
  struct PageRun {
    int32_t extent = -1;
    int32_t first_page = 0;
    int32_t num_pages = 0;
    bool empty() const { return num_pages == 0; }
  };

  PagePool();  // default Options
  explicit PagePool(Options opts);
  ~PagePool();

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// Allocates a run covering at least `min_bytes` (>= 1 page).
  /// Throws igc::Error when the run would take the pool past max_bytes.
  PageRun alloc(int64_t min_bytes);
  /// Returns the run's pages to the free pool. Releasing a run that is not
  /// live (released twice, or never allocated here) throws igc::Error.
  void release(const PageRun& run);

  /// Storage of `run`, as a shared_ptr aliasing the extent (the extent stays
  /// mapped while any tensor still views it, even across a free/re-alloc).
  std::shared_ptr<char[]> run_data(const PageRun& run) const;
  static int64_t run_bytes(const PageRun& run) {
    return static_cast<int64_t>(run.num_pages) * kPageBytes;
  }
  int64_t max_bytes() const { return opts_.max_bytes; }

  // ----- statistics ---------------------------------------------------------
  /// Bytes held by live runs right now.
  int64_t bytes_in_use() const;
  /// High-water mark of bytes_in_use() since construction or reset_peak().
  int64_t peak_bytes_in_use() const;
  int64_t pages_in_use() const;
  /// Total bytes of mapped extents (the pool's physical footprint).
  int64_t extent_bytes() const;
  /// Lifetime page-allocation / page-free counts.
  int64_t total_page_allocs() const;
  int64_t total_page_frees() const;
  void reset_peak();

 private:
  struct Extent {
    std::shared_ptr<char[]> data;
    int64_t num_pages = 0;
    /// Free runs: first_page -> num_pages, coalesced on free.
    std::map<int32_t, int32_t> free_runs;
  };
  /// Key for the live-run map: (extent, first_page) uniquely names a run.
  static int64_t run_key(const PageRun& r) {
    return (static_cast<int64_t>(r.extent) << 32) | r.first_page;
  }

  PageRun try_alloc_locked(int32_t pages_needed);
  char* run_ptr_locked(const PageRun& r) const {
    return extents_[static_cast<size_t>(r.extent)].data.get() +
           r.first_page * kPageBytes;
  }
  void note_usage_locked();

  Options opts_;
  mutable std::mutex mu_;
  std::vector<Extent> extents_;
  std::map<int64_t, int32_t> live_;  // run_key -> num_pages
  int64_t pages_in_use_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t total_allocs_ = 0;
  int64_t total_frees_ = 0;
};

}  // namespace igc
