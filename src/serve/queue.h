// Bounded, thread-safe multi-tenant request queue with admission control
// and deterministic dynamic-batch formation — what the engine's workers
// take their batches from.
//
// Structure: one FIFO lane per tenant behind a single mutex, plus a global
// depth counter that admission control gates on:
//
//   depth >= max_depth       -> kRejectedQueueFull  (hard cap)
//   depth >= shed_watermark  -> kShedWatermark      (early load shedding)
//   closed                   -> kRejectedShutdown
//
// Batch formation is a pure function of (lane contents, now_ms), exposed as
// try_form_batch(now_ms) so tests drive it with a scripted clock and get
// byte-deterministic behavior — no background thread required. A batch for
// tenant T dispatches when either trigger fires:
//
//   * size:    T's lane holds max_batch_size requests, or
//   * timeout: T's oldest request has waited >= max_wait_ms
//              (a closed queue counts as expired, so draining flushes
//              partial batches immediately).
//
// Tenant selection is round-robin from a cursor that advances past each
// chosen tenant, scanning size-triggered lanes before timeout-triggered
// ones; under saturation every lane is always full, so each of T tenants
// gets exactly every T-th batch — no tenant starves (tested).
//
// The blocking pop_batch() wrapper adds a free worker's waiting logic: it
// sleeps until the earliest timeout deadline or a notification from
// offer()/close(), and returns nullopt only when the queue is closed and
// fully drained. Any number of workers may wait in it at once; one that
// takes a batch and leaves requests behind wakes another, so the remaining
// deadlines always have a waiter watching them.
#pragma once

#include <condition_variable>
#include <functional>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace igc::serve {

/// One dispatchable unit: up to max_batch_size requests of a single tenant,
/// popped from the queue in FIFO order.
struct Batch {
  int tenant = -1;
  /// Engine-wide batch sequence number, stamped by the worker that formed
  /// the batch (-1 until then). Request timelines reference it.
  int64_t id = -1;
  /// Engine-clock time the batch was formed (each member's schedule_ms).
  double formed_ms = 0.0;
  std::vector<RequestPtr> requests;

  int size() const { return static_cast<int>(requests.size()); }
};

class RequestQueue {
 public:
  struct Options {
    int num_tenants = 1;
    /// Hard queue capacity across all tenants (inclusive bound on depth).
    int max_depth = 64;
    /// Depth at which new arrivals are shed; < 0 means 3/4 of max_depth
    /// (rounded up, at least 1). Set equal to max_depth to disable
    /// watermark shedding and keep only the hard cap.
    int shed_watermark = -1;
    /// Size trigger: a lane with this many requests dispatches immediately.
    int max_batch_size = 4;
    /// Timeout trigger: a lane whose head has waited this long dispatches
    /// whatever it holds. 0 dispatches any non-empty lane immediately.
    double max_wait_ms = 1.0;
  };

  explicit RequestQueue(Options opts);

  /// Thread-safe admission at time `now_ms`. On kAdmitted the request is
  /// moved into its tenant lane (req becomes null) and its enqueue_ms is
  /// stamped; on any refusal req is left untouched for the caller to
  /// dispose of. Unknown tenants answer kRejectedUnknownTenant.
  Admission offer(RequestPtr& req, double now_ms);

  /// Stops admission (subsequent offers answer kRejectedShutdown) and makes
  /// every queued request immediately dispatchable so drains flush partial
  /// batches. Idempotent; wakes any pop_batch() waiter.
  void close();
  bool closed() const;

  /// Requests currently queued across all lanes.
  int depth() const;

  /// Deterministic batch formation at time `now_ms` (see file comment).
  /// Returns nullopt when no trigger has fired.
  std::optional<Batch> try_form_batch(double now_ms);

  /// Earliest engine-clock time at which a timeout trigger will fire, or
  /// +infinity when the queue is empty (nothing to wait for). A size-
  /// triggered lane answers `now` from try_form_batch, never a deadline.
  double next_deadline_ms() const;

  /// Blocking companion of try_form_batch for a free worker: waits (on
  /// `now_ms()`'s timeline, converted to real waits) until a batch is
  /// dispatchable, then forms and returns it. Returns nullopt only when
  /// closed and drained. Safe to call from several threads at once.
  std::optional<Batch> pop_batch(const std::function<double()>& now_ms);

 private:
  std::optional<Batch> try_form_batch_locked(double now_ms);
  double next_deadline_ms_locked() const;

  const Options opts_;
  const int shed_watermark_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<RequestPtr>> lanes_;  // one FIFO per tenant
  int depth_ = 0;
  int rr_cursor_ = 0;  // next tenant considered first by batch formation
  bool closed_ = false;
};

}  // namespace igc::serve
