// Request-scoped tracing for the serving engine: per-request event
// timelines, a tail-sampled flight recorder, and histogram exemplars.
//
// Event model: every traced request carries ONE RequestTimeline through the
// pipeline. The timeline rides on the request object itself, which is owned
// by exactly one stage at a time (submit path -> queue -> worker),
// so appending events takes no lock and perturbs nothing the hot path
// shares — the same "record privately, merge deterministically post-run"
// pattern as the executor's TraceRecorder (obs/trace.h). Only the terminal
// hand-off to the FlightRecorder synchronizes, on a per-worker shard mutex
// that workers never contend on with each other.
//
// Tail-sampling policy (FlightRecorder): every finished timeline is offered;
// the recorder always retains
//   * every failed / shed / rejected request (most-recent keep_errors of
//     them — the ring is bounded, but sized so "all" holds at any load a
//     debugging session cares about),
//   * the keep_slowest highest-e2e completed requests per shard (the merged
//     view therefore contains the global N slowest), and
//   * a deterministic head-sample of normal traffic: the decision is a pure
//     hash of the trace id against head_sample_rate, so two runs over the
//     same id sequence retain the same requests — no RNG, no racing state.
//
// Exemplars (ExemplarStore): histogram metrics like serve.e2e_ms keep, per
// log bucket, the trace id of the most recent request that landed there.
// A p99 spike in the exposition then links directly to a concrete timeline
// via /debug/request/<id>. Exemplars are rendered OpenMetrics-style after
// the 0.0.4 bucket lines (`... # {trace_id="42"} 1.25`) — scrapers that
// ignore exposition comments are unaffected.
//
// This header is std-only (like obs/metrics.h) so the serve layer can embed
// timelines without new dependency edges.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace igc::obs {

/// Lifecycle stages a request moves through. A completed request records
/// kSubmit -> kAdmit -> kBatchFormed -> kWorkerStart -> kRun -> kFinish;
/// refused requests stop at kShed / kReject.
enum class RequestEventKind {
  kSubmit,
  kAdmit,
  kShed,
  kReject,
  kBatchFormed,
  kWorkerStart,
  kRun,
  kFinish,
};

const char* request_event_name(RequestEventKind k);

/// One timeline entry. t_ms is the engine's injectable clock, so scripted
/// clocks yield byte-deterministic timelines. Context fields are stamped
/// where they become known and stay at their sentinel (-1 / 0 / empty)
/// elsewhere; the JSON export omits unset fields.
struct RequestEvent {
  RequestEventKind kind = RequestEventKind::kSubmit;
  double t_ms = 0.0;
  int queue_depth = -1;       ///< depth observed at admit / batch formation
  int64_t batch_id = -1;      ///< engine-wide batch sequence number
  int worker_id = -1;         ///< worker that executed the request
  int batch_size = 0;         ///< size of the dispatched batch
  double sim_latency_ms = 0.0;  ///< kRun: simulated inference latency
  /// Free-form context: admission reason on kShed/kReject, the chosen
  /// ShapeVariant binding ("b2 112x112") on kRun, the error on a failed
  /// kFinish.
  std::string detail;
};

enum class RequestStatus { kInFlight, kCompleted, kFailed, kShed, kRejected };

const char* request_status_name(RequestStatus s);

/// Full per-request record: identity, terminal status, and the ordered
/// event list. trace_id is the engine's request id — the same value clients
/// see in RequestOutcome::id, so an exemplar links to a future a caller
/// still holds.
struct RequestTimeline {
  uint64_t trace_id = 0;
  int tenant = -1;
  std::string tenant_name;
  RequestStatus status = RequestStatus::kInFlight;
  std::vector<RequestEvent> events;

  void add(RequestEvent e) { events.push_back(std::move(e)); }
  double submit_ms() const { return events.empty() ? 0.0 : events.front().t_ms; }
  double last_ms() const { return events.empty() ? 0.0 : events.back().t_ms; }
  double e2e_ms() const { return last_ms() - submit_ms(); }

  /// One JSON object with the full event list.
  std::string json() const;
  /// One-line JSON summary (no event list) for /debug/requests.
  std::string summary_json() const;
};

/// Bounded, sharded retention of finished timelines (see file comment for
/// the policy). Shards are picked by the caller's worker id so concurrent
/// workers synchronize only with snapshot readers, never each other.
class FlightRecorder {
 public:
  struct Options {
    int num_shards = 4;
    /// Per shard: completed requests with the highest e2e always retained.
    int keep_slowest = 8;
    /// Per shard: most-recent failed/shed/rejected timelines retained.
    int keep_errors = 256;
    /// Per shard: most-recent head-sampled normal timelines retained.
    int keep_head = 64;
    /// Fraction [0,1] of normal completions retained by the deterministic
    /// head-sample (0 = tail-only: errors and slowest).
    double head_sample_rate = 0.0;
  };

  FlightRecorder();  // default Options
  explicit FlightRecorder(Options opts);

  /// Terminal sink for one finished timeline. shard_hint is the calling
  /// worker's id (-1 for the submit path's ingress shard).
  void offer(RequestTimeline tl, int shard_hint = -1);

  /// Deterministic merged view: every retained timeline, sorted by trace
  /// id ascending regardless of worker interleaving.
  std::vector<RequestTimeline> snapshot() const;

  /// The retained timeline for `trace_id`, if any.
  std::optional<RequestTimeline> find(uint64_t trace_id) const;

  /// Timelines offered so far (retained or not).
  int64_t offered() const;

  /// Pure head-sampling decision: a splitmix64 hash of the trace id mapped
  /// to [0,1) and compared against `rate`. Same id, same verdict, always.
  static bool head_sampled(uint64_t trace_id, double rate);

  const Options& options() const { return opts_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<RequestTimeline> errors;   // ring, most recent keep_errors
    std::vector<RequestTimeline> sampled;  // ring, most recent keep_head
    std::vector<RequestTimeline> slowest;  // capped at keep_slowest, by e2e
    size_t errors_next = 0;
    size_t sampled_next = 0;
  };

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;  // [0..num_shards) + ingress
  mutable std::mutex offered_mu_;
  int64_t offered_ = 0;
};

/// Per-bucket exemplars for registry histograms: the trace id of the most
/// recent request whose observation landed in each LatencyHistogram bucket.
/// Mutex-guarded — it is touched per request completion, not per node, so
/// the lock is far off any hot path.
class ExemplarStore {
 public:
  struct Exemplar {
    uint64_t trace_id = 0;
    double value = 0.0;
  };

  /// Records `value` (already observed into the histogram `metric`) as the
  /// exemplar for its bucket.
  void record(const std::string& metric, double value, uint64_t trace_id);

  /// metric -> (bucket index -> exemplar), copyable point-in-time view.
  std::map<std::string, std::map<int, Exemplar>> snapshot() const;

  /// The exemplar for `metric`'s bucket containing `value`, if any.
  std::optional<Exemplar> find(const std::string& metric, double value) const;

  /// JSON object {"metric": [{"le": ..., "trace_id": ..., "value": ...}]}
  /// — what /snapshot.json splices in under "exemplars".
  std::string json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<int, Exemplar>> by_metric_;
};

/// /debug/requests body: a JSON array of one-line summaries, slowest first.
std::string request_summaries_json(const std::vector<RequestTimeline>& tls);

/// Chrome-trace (chrome://tracing / Perfetto) document rendering the
/// timelines as duration spans on queue / batcher / worker tracks, tied
/// together per request with flow events ("ph":"s"/"t"/"f", id = trace id)
/// so the UI draws an arrow following each request across the pipeline.
std::string chrome_request_trace_json(const std::vector<RequestTimeline>& tls);

/// Writes chrome_request_trace_json to `path`; false on I/O failure.
bool save_chrome_request_trace(const std::string& path,
                               const std::vector<RequestTimeline>& tls);

}  // namespace igc::obs
