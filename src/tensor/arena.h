// Paged, plan-backed buffer arena for graph execution.
//
// The memory planner (src/graph/memory_planner.h) proves how few distinct
// buffers a graph run needs; this arena maps each planned buffer id to a
// page run drawn from a PagePool (src/tensor/page_pool.h): the executor
// acquires a node's planned buffer, views it as a tensor, and releases it
// after the node's last consumer. Pages are allocated lazily on first
// acquire, so untouched buffers cost nothing.
//
// One rule decides whether a buffer keeps its pages across release: an
// arena caches page runs only on a pool it owns.
//   * PagedArena(buffer_bytes) owns an unbounded private pool and caches: a
//     buffer keeps its page run across release, so a repeated run takes
//     pages only where a cached run cannot serve (an alias still reads it,
//     or a data-dependent output outgrew it). This is the old slab arena's
//     behaviour, and the one a model's persistent context uses.
//   * PagedArena(buffer_bytes, pool) draws from a caller's pool, which may
//     back any number of arenas, and returns the pages on every release, so
//     concurrent requests — across workers and across tenants — recycle one
//     physical page set instead of each holding a private full-size slab.
//
// acquire_shared() aliases another in-use buffer's pages with a refcount
// (zero-copy Flatten/DeviceCopy); a later acquire of the source buffer sees
// the outstanding reference and takes fresh pages, so readers of the alias
// are never overwritten (copy-on-reacquire).
//
// Accounting invariant (the bit-identity contract with the old slab arena):
// in_use_bytes / peak_in_use_bytes / capacity_bytes are measured in *planned
// buffer bytes*, not page-rounded bytes, so every executor-visible number —
// peak_intermediate_bytes, arena_bytes, arena.high_water_bytes — matches the
// slab design exactly at any shape. Page-granular truth lives in the
// arena.page_* metrics and the PagePool stats.
//
// Thread safety: one run's nodes call acquire/release from the thread that
// runs them; the arena is mutex-guarded so its statistics may be read from
// any thread. Two *runs* sharing one arena must still be externally
// serialized (the buffers themselves would alias).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/page_pool.h"
#include "tensor/tensor.h"

namespace igc {

class PagedArena {
 public:
  /// Caching arena: one buffer per entry of `buffer_bytes`, pages drawn
  /// from an unbounded pool owned by this arena, kept across release.
  explicit PagedArena(std::vector<int64_t> buffer_bytes);

  /// Shared-pool arena: pages drawn from `pool` (never null), which may back
  /// any number of arenas, and returned to it on every release.
  PagedArena(std::vector<int64_t> buffer_bytes,
             std::shared_ptr<PagePool> pool);

  ~PagedArena();

  PagedArena(const PagedArena&) = delete;
  PagedArena& operator=(const PagedArena&) = delete;

  /// Acquires buffer `buffer_id` viewed as a float32/int32 tensor of `shape`.
  /// `zero_fill` clears the pages first (needed only when the contents may be
  /// read before being fully written). The buffer must currently be free.
  /// The page run grows on demand if `shape` needs more than the planned
  /// bytes (data-dependent outputs), subject to the pool's page budget.
  Tensor acquire(int buffer_id, const Shape& shape, DType dtype,
                 bool zero_fill);

  /// Acquires `buffer_id` as a zero-copy alias of `src_buffer_id`'s pages
  /// (refcounted; src must be in use and its run must fit `shape`). Releasing
  /// either buffer drops one reference; the pages live until both are done.
  Tensor acquire_shared(int buffer_id, int src_buffer_id, const Shape& shape,
                        DType dtype);

  /// Returns `buffer_id` to the free pool. Releasing a buffer that is not in
  /// use (double release, or release before acquire) is a hard error.
  /// Tensors still viewing the pages keep the extent alive, but the arena
  /// may hand the pages to the next acquirer — callers release only after
  /// the last reader is done.
  void release(int buffer_id);

  int num_buffers() const { return static_cast<int>(bufs_.size()); }
  /// Sum of all planned buffer sizes (== the bound MemoryPlan total).
  int64_t capacity_bytes() const;
  /// Planned bytes of buffers currently acquired.
  int64_t in_use_bytes() const;
  /// High-water mark of in_use_bytes() since construction or reset_peak().
  int64_t peak_in_use_bytes() const;
  void reset_peak();
  /// Bytes of pages this arena currently holds (in-use + cached).
  int64_t page_bytes_held() const;
  const std::shared_ptr<PagePool>& pool() const { return pool_; }

 private:
  struct Entry {
    int64_t bytes = 0;              // planned bytes (accounting unit)
    int64_t charged = 0;            // bytes charged while in use
    PagePool::PageRun run;          // empty until first acquire
    bool in_use = false;
    bool borrowed = false;          // run refcounts another entry's pages
  };

  void init(std::vector<int64_t> buffer_bytes);
  Entry& entry_locked(int buffer_id);
  Tensor wrap_run(const PagePool::PageRun& run, const Shape& shape,
                  DType dtype) const;

  mutable std::mutex mu_;
  std::shared_ptr<PagePool> pool_;
  bool owns_pool_ = false;  // caches page runs across release
  std::vector<Entry> bufs_;
  int64_t capacity_bytes_ = 0;
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
};

}  // namespace igc
