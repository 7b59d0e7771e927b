// ServingEngine: the multi-tenant serving layer above CompiledModel::run().
//
// Mirrors the engine / worker split of continuous-batching inference
// servers (vLLM-style), scaled to this repo's executor:
//
//   client -> submit() ----[admission control]----> RequestQueue (per-tenant
//   lanes, bounded, shed watermark) --[pop_batch(): dynamic batches,
//   max-batch-size / max-wait-ms triggers, round-robin fairness]--> worker
//   threads. Each worker forms its own next batch when it is free to run
//   it, so a request waits in the queue (where admission control counts it)
//   until a worker takes it. Each worker holds one private ServingContext
//   (memory plan + PagedArena page table) per tenant, so concurrent workers
//   serve the same CompiledModel without serializing on the model-wide
//   arena mutex — JIT dispatch tables and pre-resolved conv schedules are
//   shared read-only across the pool.
//
// Memory: every worker context draws its pages from ONE engine-wide
// PagePool (EngineOptions::page_pool, created at start() when absent).
// Contexts return their pages to the pool after each request, so physical
// pages time-share across workers and tenants: peak engine memory tracks
// the pages concurrently in flight, not (workers x tenants) private slabs.
//
// Telemetry: every request records enqueue/schedule/start/finish timestamps
// from the engine clock; completions feed the serve.* metric family
// (queue-wait / service / e2e latency histograms, admitted / rejected /
// shed counters, batch-size histogram, queue-depth gauges) in the target
// registry — the process-wide one by default, so a /metrics scrape of a
// live endpoint sees them.
//
// Determinism: the engine never reads wall clock directly; EngineOptions::
// clock_ms is injectable (default: steady_clock since construction). Worker
// interleaving is scheduling-dependent, but the per-request numerics are
// bit-identical regardless (node RNGs are seeded from the request's
// input_seed), and accounting invariants — every admitted request resolves
// exactly once, counts conserve, depth never exceeds max_depth — hold on
// any interleaving (tested, TSan-clean).
//
// Lifecycle: add_tenant() before start(); submit() any time (refused with
// kRejectedShutdown unless running); stop() closes admission, lets the
// workers drain every queued request, and joins them — in-flight requests
// complete, their futures resolve. The destructor stops.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/queue.h"
#include "serve/request.h"

namespace igc::serve {

/// One model a tenant serves, plus the run template its requests execute
/// with. The engine overrides input_seed per request and runs every request
/// on a per-worker ServingContext (so use_arena has no effect); the rest of
/// `run` (mode, numerics, backend, shape binding) is honored as given.
struct TenantSpec {
  std::string name;
  const CompiledModel* model = nullptr;
  RunOptions run;
};

struct EngineOptions {
  int num_workers = 2;
  /// Queue shape; num_tenants is filled in by the engine at start().
  RequestQueue::Options queue;
  /// Injectable monotonic millisecond clock. Defaults to steady_clock
  /// elapsed since engine construction.
  std::function<double()> clock_ms;
  /// Simulated-device pacing: when > 0, a worker holds its lane for
  /// (simulated latency x sim_pacing) wall-clock ms after each request's
  /// host-side bookkeeping — the worker is blocked on its device replica
  /// while the (scaled) simulated accelerator executes, exactly like a
  /// real device-bound serving tier. Blocked workers overlap, so the pool
  /// scales with worker count even when host cores are scarce. 0 = off
  /// (service time is pure host compute).
  double sim_pacing = 0.0;
  /// Metrics destination; null uses the process-wide registry.
  obs::MetricsRegistry* registry = nullptr;
  /// Request tracing (obs/request_trace.h). Off by default. When enabled,
  /// every request carries an event timeline through the pipeline (appended
  /// lock-free by whichever stage owns the request), finished timelines
  /// feed the engine's tail-sampled FlightRecorder, and completions record
  /// serve.e2e_ms / serve.queue_wait_ms exemplars. Tracing never changes
  /// scheduling, admission, or numerics — only what is remembered.
  struct TraceOptions {
    bool enabled = false;
    /// Deterministic head-sample rate for normal completions, [0, 1].
    double head_sample_rate = 0.0;
    /// Flight-recorder retention (per worker shard; see FlightRecorder).
    int keep_slowest = 8;
    int keep_errors = 256;
    int keep_head = 64;
  };
  TraceOptions trace;
  /// Shared physical page pool for every worker's serving contexts. Null
  /// (the default) lets start() create an unbounded pool; pass one
  /// explicitly to cap memory (PagePool::Options::max_bytes) or to share
  /// pages with contexts outside the engine.
  std::shared_ptr<PagePool> page_pool;
};

/// Monotonic accounting snapshot. Counts conserve:
///   submitted == admitted + shed + rejected_full + rejected_shutdown
///                + rejected_unknown_tenant
/// and, once stop() returns, admitted == completed + failed.
struct EngineStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t rejected_full = 0;
  int64_t rejected_shutdown = 0;
  int64_t rejected_unknown_tenant = 0;
  int64_t completed = 0;
  int64_t failed = 0;  // run() threw; the request's future holds the error
  int64_t batches = 0;
  int queue_depth_peak = 0;
  /// Completed-request counts per tenant (index = tenant id).
  std::vector<int64_t> completed_per_tenant;
};

/// Liveness snapshot for /healthz: distinguishes "process up" from "engine
/// serving". Healthy means serving && queue_open && workers > 0.
struct EngineHealth {
  bool serving = false;     ///< admission open (start()ed, not stopped)
  bool queue_open = false;  ///< request queue exists and is not closed
  int workers = 0;          ///< worker threads currently in their loop

  bool healthy() const { return serving && queue_open && workers > 0; }
  std::string json() const;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineOptions opts);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Registers a tenant (before start()). Returns its tenant id.
  int add_tenant(TenantSpec spec);
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& tenant_name(int tenant) const;

  /// Spawns the worker threads. Requires >= 1 tenant.
  void start();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The engine-wide physical page pool every worker context draws from.
  /// Null before start() unless one was passed in EngineOptions.
  const std::shared_ptr<PagePool>& page_pool() const {
    return opts_.page_pool;
  }

  /// Submits one request for `tenant`. Thread-safe; never blocks on the
  /// workers (open-loop: refusals are immediate).
  SubmitResult submit(int tenant, uint64_t input_seed);

  /// Closes admission, drains the queue through the workers, joins every
  /// thread. Every admitted request's future resolves before this returns.
  /// Idempotent.
  void stop();

  EngineStats stats() const;

  /// Liveness for external probes (see EngineHealth). Thread-safe.
  EngineHealth health() const;

  /// The tail-sampled flight recorder holding retained request timelines;
  /// null unless EngineOptions::trace.enabled. Valid (and stable) for the
  /// engine's lifetime, including after stop() — post-run analysis reads it.
  const obs::FlightRecorder* flight_recorder() const { return flight_.get(); }
  /// Histogram exemplars recorded by completions; null unless tracing.
  const obs::ExemplarStore* exemplars() const { return exemplars_.get(); }

 private:
  void worker_main(int worker_id);
  void execute_batch(Batch batch,
                     std::vector<std::unique_ptr<ServingContext>>& contexts,
                     int worker_id);
  void record_refusal(Admission a, int tenant);

  EngineOptions opts_;
  std::vector<TenantSpec> tenants_;
  std::unique_ptr<RequestQueue> queue_;

  std::atomic<bool> running_{false};
  bool started_ = false;
  bool stopped_ = false;
  mutable std::mutex lifecycle_mu_;  // serializes start()/stop(), health()
  std::vector<std::thread> workers_;
  // Liveness signal for health(): lowered by each worker as it exits, so an
  // exited worker shows up even while running_ is still true.
  std::atomic<int> workers_alive_{0};

  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> submitted_{0}, admitted_{0}, shed_{0};
  std::atomic<int64_t> rejected_full_{0}, rejected_shutdown_{0};
  std::atomic<int64_t> rejected_unknown_{0};
  std::atomic<int64_t> completed_{0}, failed_{0}, batches_formed_{0};
  std::atomic<int> depth_peak_{0};
  std::vector<std::unique_ptr<std::atomic<int64_t>>> completed_per_tenant_;

  // Request tracing (null when off). The recorder and exemplar store are
  // engine-owned so their lifetime covers post-run /debug reads.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::ExemplarStore> exemplars_;

  // serve.tenant.<name>.* instruments, resolved at start() once tenant
  // names are final (index = tenant id).
  struct TenantInstruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Histogram* e2e = nullptr;
  };
  std::vector<TenantInstruments> tenant_metrics_;

  // serve.* instruments, resolved once against opts_.registry.
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_queue_depth_peak_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_service_ = nullptr;
  obs::Histogram* m_e2e_ = nullptr;
};

}  // namespace igc::serve
