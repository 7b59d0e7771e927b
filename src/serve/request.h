// Request-level types of the serving engine: what a client submits, what
// admission control answers, and what the worker pool eventually delivers.
//
// Every request carries four engine-clock timestamps — enqueue (admission),
// schedule (a free worker formed its batch), start (that worker began
// executing it), finish (its inference returned) — so queue-wait, service,
// and end-to-end latency are all derivable per request and feed the serve.*
// latency histograms.
//
// Timestamps come from the engine's injectable monotonic clock
// (EngineOptions::clock_ms), never from wall-clock reads inside this layer,
// so tests drive a scripted clock and get deterministic latency accounting.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "obs/request_trace.h"

namespace igc::serve {

/// Admission control's verdict for one submitted request. Only kAdmitted
/// requests enter the queue; every other value is a refusal with a reason
/// (the "reject-with-reason" half of backpressure).
enum class Admission {
  kAdmitted,
  /// Queue depth at or over the shed watermark: load deliberately dropped
  /// early to protect the latency of what is already queued.
  kShedWatermark,
  /// Queue at its hard capacity; nothing more can be buffered.
  kRejectedQueueFull,
  /// The engine is stopping (or never started); no new work accepted.
  kRejectedShutdown,
  /// Unknown tenant id.
  kRejectedUnknownTenant,
};

/// Stable short reason string for logs, bench rows, and error messages.
inline const char* admission_reason(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kShedWatermark: return "shed_watermark";
    case Admission::kRejectedQueueFull: return "queue_full";
    case Admission::kRejectedShutdown: return "shutdown";
    case Admission::kRejectedUnknownTenant: return "unknown_tenant";
  }
  return "unknown";
}

/// What an admitted request resolves to once a worker has executed it.
struct RequestOutcome {
  uint64_t id = 0;
  int tenant = -1;
  /// Engine-clock milliseconds (see file comment). Always ordered
  /// enqueue_ms <= schedule_ms <= start_ms <= finish_ms.
  double enqueue_ms = 0.0;
  double schedule_ms = 0.0;
  double start_ms = 0.0;
  double finish_ms = 0.0;
  /// Size of the dynamic batch this request was dispatched in.
  int batch_size = 0;
  /// Simulated end-to-end latency of the inference (RunResult::latency_ms).
  double sim_latency_ms = 0.0;

  double queue_wait_ms() const { return schedule_ms - enqueue_ms; }
  double service_ms() const { return finish_ms - start_ms; }
  double e2e_ms() const { return finish_ms - enqueue_ms; }
};

/// One in-flight request while it moves submitter -> queue -> worker. Owned
/// by exactly one stage at a time (the submitter, the queue, then the worker
/// that took its batch), so no lock guards the fields; the promise is
/// fulfilled exactly once.
struct Request {
  uint64_t id = 0;
  int tenant = -1;
  uint64_t input_seed = 0;
  double enqueue_ms = 0.0;
  std::promise<RequestOutcome> done;
  /// Request-scoped trace (null when tracing is off). Rides with the
  /// request under the same single-owner rule as every other field, so
  /// event appends take no lock; the owning stage hands the finished
  /// timeline to the engine's FlightRecorder at the terminal event.
  std::unique_ptr<obs::RequestTimeline> timeline;
};

using RequestPtr = std::unique_ptr<Request>;

/// What submit() hands back: the admission verdict, plus a future that
/// resolves when the request finishes. The future is valid only when
/// admitted — the engine guarantees every admitted request's future
/// resolves, including requests still queued when stop() is called.
struct SubmitResult {
  Admission admission = Admission::kRejectedShutdown;
  std::future<RequestOutcome> outcome;

  bool admitted() const { return admission == Admission::kAdmitted; }
};

}  // namespace igc::serve
