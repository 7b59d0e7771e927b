#include "obs/request_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "obs/latency_histogram.h"

namespace igc::obs {
namespace {

void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_u64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// splitmix64 finalizer: a well-mixed pure function of the trace id.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool is_error(RequestStatus s) {
  return s == RequestStatus::kFailed || s == RequestStatus::kShed ||
         s == RequestStatus::kRejected;
}

/// Fixed-capacity ring insert, overwriting the oldest entry.
void ring_push(std::vector<RequestTimeline>& ring, size_t& next, int cap,
               RequestTimeline tl) {
  if (cap <= 0) return;
  if (static_cast<int>(ring.size()) < cap) {
    ring.push_back(std::move(tl));
    return;
  }
  ring[next] = std::move(tl);
  next = (next + 1) % ring.size();
}

std::string event_json(const RequestEvent& e) {
  std::string out = "{\"event\": \"";
  out += request_event_name(e.kind);
  out += "\", \"t_ms\": ";
  append_num(out, e.t_ms);
  if (e.queue_depth >= 0) {
    out += ", \"queue_depth\": " + std::to_string(e.queue_depth);
  }
  if (e.batch_id >= 0) {
    out += ", \"batch_id\": " + std::to_string(e.batch_id);
  }
  if (e.worker_id >= 0) {
    out += ", \"worker_id\": " + std::to_string(e.worker_id);
  }
  if (e.batch_size > 0) {
    out += ", \"batch_size\": " + std::to_string(e.batch_size);
  }
  if (e.sim_latency_ms > 0.0) {
    out += ", \"sim_latency_ms\": ";
    append_num(out, e.sim_latency_ms);
  }
  if (!e.detail.empty()) {
    out += ", \"detail\": \"" + json::escape(e.detail) + "\"";
  }
  out += "}";
  return out;
}

std::string header_json(const RequestTimeline& tl) {
  std::string out = "{\"trace_id\": ";
  append_u64(out, tl.trace_id);
  out += ", \"tenant\": " + std::to_string(tl.tenant);
  out += ", \"tenant_name\": \"" + json::escape(tl.tenant_name) + "\"";
  out += ", \"status\": \"";
  out += request_status_name(tl.status);
  out += "\", \"e2e_ms\": ";
  append_num(out, tl.e2e_ms());
  return out;
}

}  // namespace

const char* request_event_name(RequestEventKind k) {
  switch (k) {
    case RequestEventKind::kSubmit: return "submit";
    case RequestEventKind::kAdmit: return "admit";
    case RequestEventKind::kShed: return "shed";
    case RequestEventKind::kReject: return "reject";
    case RequestEventKind::kBatchFormed: return "batch_formed";
    case RequestEventKind::kWorkerStart: return "worker_start";
    case RequestEventKind::kRun: return "run";
    case RequestEventKind::kFinish: return "finish";
  }
  return "unknown";
}

const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kInFlight: return "in_flight";
    case RequestStatus::kCompleted: return "completed";
    case RequestStatus::kFailed: return "failed";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kRejected: return "rejected";
  }
  return "unknown";
}

std::string RequestTimeline::json() const {
  std::string out = header_json(*this);
  out += ", \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += event_json(events[i]);
  }
  out += "]}";
  return out;
}

std::string RequestTimeline::summary_json() const {
  std::string out = header_json(*this);
  out += ", \"num_events\": " + std::to_string(events.size()) + "}";
  return out;
}

FlightRecorder::FlightRecorder() : FlightRecorder(Options{}) {}

FlightRecorder::FlightRecorder(Options opts) : opts_(opts) {
  if (opts_.num_shards < 1) opts_.num_shards = 1;
  // +1: the ingress shard the submit path uses for refusals (shard_hint -1).
  for (int i = 0; i < opts_.num_shards + 1; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool FlightRecorder::head_sampled(uint64_t trace_id, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Top 53 bits of the mixed id -> uniform double in [0,1).
  const double u =
      static_cast<double>(mix64(trace_id) >> 11) * 0x1.0p-53;
  return u < rate;
}

void FlightRecorder::offer(RequestTimeline tl, int shard_hint) {
  {
    std::lock_guard<std::mutex> lk(offered_mu_);
    ++offered_;
  }
  const size_t idx =
      shard_hint < 0
          ? shards_.size() - 1
          : static_cast<size_t>(shard_hint % opts_.num_shards);
  Shard& s = *shards_[idx];
  std::lock_guard<std::mutex> lk(s.mu);
  if (is_error(tl.status)) {
    ring_push(s.errors, s.errors_next, opts_.keep_errors, std::move(tl));
    return;
  }
  // Completed traffic: the slowest set first (evicting the fastest member
  // when full), else the deterministic head-sample ring.
  if (opts_.keep_slowest > 0) {
    if (static_cast<int>(s.slowest.size()) < opts_.keep_slowest) {
      s.slowest.push_back(std::move(tl));
      return;
    }
    auto fastest = std::min_element(
        s.slowest.begin(), s.slowest.end(),
        [](const RequestTimeline& a, const RequestTimeline& b) {
          return a.e2e_ms() < b.e2e_ms();
        });
    if (tl.e2e_ms() > fastest->e2e_ms()) {
      RequestTimeline evicted = std::move(*fastest);
      *fastest = std::move(tl);
      // The evicted (no longer slowest) timeline still gets its head-sample
      // chance, so sampling stays a pure function of the trace id.
      if (head_sampled(evicted.trace_id, opts_.head_sample_rate)) {
        ring_push(s.sampled, s.sampled_next, opts_.keep_head,
                  std::move(evicted));
      }
      return;
    }
  }
  if (head_sampled(tl.trace_id, opts_.head_sample_rate)) {
    ring_push(s.sampled, s.sampled_next, opts_.keep_head, std::move(tl));
  }
}

std::vector<RequestTimeline> FlightRecorder::snapshot() const {
  std::vector<RequestTimeline> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    for (const auto* set : {&shard->errors, &shard->sampled, &shard->slowest}) {
      out.insert(out.end(), set->begin(), set->end());
    }
  }
  // Deterministic merged order regardless of which worker retained what.
  std::sort(out.begin(), out.end(),
            [](const RequestTimeline& a, const RequestTimeline& b) {
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::optional<RequestTimeline> FlightRecorder::find(uint64_t trace_id) const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    for (const auto* set : {&shard->errors, &shard->sampled, &shard->slowest}) {
      for (const RequestTimeline& tl : *set) {
        if (tl.trace_id == trace_id) return tl;
      }
    }
  }
  return std::nullopt;
}

int64_t FlightRecorder::offered() const {
  std::lock_guard<std::mutex> lk(offered_mu_);
  return offered_;
}

void ExemplarStore::record(const std::string& metric, double value,
                           uint64_t trace_id) {
  const int bucket = LatencyHistogram::bucket_index(value);
  std::lock_guard<std::mutex> lk(mu_);
  by_metric_[metric][bucket] = Exemplar{trace_id, value};
}

std::map<std::string, std::map<int, ExemplarStore::Exemplar>>
ExemplarStore::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return by_metric_;
}

std::optional<ExemplarStore::Exemplar> ExemplarStore::find(
    const std::string& metric, double value) const {
  const int bucket = LatencyHistogram::bucket_index(value);
  std::lock_guard<std::mutex> lk(mu_);
  auto m = by_metric_.find(metric);
  if (m == by_metric_.end()) return std::nullopt;
  auto b = m->second.find(bucket);
  if (b == m->second.end()) return std::nullopt;
  return b->second;
}

std::string ExemplarStore::json() const {
  const auto snap = snapshot();
  std::string out = "{";
  bool first_metric = true;
  for (const auto& [metric, buckets] : snap) {
    out += first_metric ? "" : ", ";
    first_metric = false;
    out += "\"" + json::escape(metric) + "\": [";
    bool first = true;
    for (const auto& [bucket, ex] : buckets) {
      out += first ? "" : ", ";
      first = false;
      out += "{\"le\": ";
      append_num(out, LatencyHistogram::bucket_upper_bound(bucket));
      out += ", \"trace_id\": ";
      append_u64(out, ex.trace_id);
      out += ", \"value\": ";
      append_num(out, ex.value);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string request_summaries_json(const std::vector<RequestTimeline>& tls) {
  // Slowest first: the question /debug/requests answers is "what was slow?".
  std::vector<const RequestTimeline*> order;
  order.reserve(tls.size());
  for (const RequestTimeline& tl : tls) order.push_back(&tl);
  std::sort(order.begin(), order.end(),
            [](const RequestTimeline* a, const RequestTimeline* b) {
              if (a->e2e_ms() != b->e2e_ms()) return a->e2e_ms() > b->e2e_ms();
              return a->trace_id < b->trace_id;
            });
  std::string out = "[";
  for (size_t i = 0; i < order.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += order[i]->summary_json();
  }
  out += "]";
  return out;
}

std::string chrome_request_trace_json(
    const std::vector<RequestTimeline>& tls) {
  // Track layout: one process for the serving pipeline; tid 0 = queue,
  // tid 1 = batcher, tid 2+w = worker w. Each request renders as duration
  // spans on the tracks it crossed, connected by a flow (id = trace id) so
  // the UI draws the request's arrow from admission to completion. A batch
  // forms when a worker is free to run it, so a "batched" span is the wait
  // behind the earlier members of the request's own batch.
  constexpr int kPid = 3;  // pids 1/2 belong to the executor trace
  constexpr int kQueueTid = 0;
  constexpr int kBatcherTid = 1;
  constexpr int kWorkerTidBase = 2;

  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  auto emit = [&](const std::string& body) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += body;
  };
  auto meta = [&](int tid, const std::string& name) {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  R"({"ph": "M", "pid": %d, "tid": %d, "name": )", kPid, tid);
    emit(std::string(buf) + R"("thread_name", "args": {"name": ")" +
         json::escape(name) + R"("}})");
  };
  emit(R"({"ph": "M", "pid": 3, "name": "process_name", )"
       R"("args": {"name": "serving engine"}})");
  meta(kQueueTid, "queue");
  meta(kBatcherTid, "batcher");
  std::vector<int> workers_seen;
  for (const RequestTimeline& tl : tls) {
    for (const RequestEvent& e : tl.events) {
      if (e.worker_id >= 0 &&
          std::find(workers_seen.begin(), workers_seen.end(), e.worker_id) ==
              workers_seen.end()) {
        workers_seen.push_back(e.worker_id);
      }
    }
  }
  std::sort(workers_seen.begin(), workers_seen.end());
  for (int w : workers_seen) {
    meta(kWorkerTidBase + w, "worker " + std::to_string(w));
  }

  char buf[256];
  auto span = [&](int tid, const char* name, const RequestTimeline& tl,
                  double t0, double t1) {
    std::snprintf(
        buf, sizeof(buf),
        R"("ph": "X", "pid": %d, "tid": %d, "ts": %.6f, "dur": %.6f)", kPid,
        tid, t0 * 1000.0, (t1 - t0) * 1000.0);
    std::string ev = "{\"name\": \"" + std::string(name) + " #";
    append_u64(ev, tl.trace_id);
    ev += "\", \"cat\": \"request\", ";
    ev += buf;
    ev += ", \"args\": {\"trace_id\": ";
    append_u64(ev, tl.trace_id);
    ev += ", \"tenant\": \"" + json::escape(tl.tenant_name) + "\"";
    ev += ", \"status\": \"";
    ev += request_status_name(tl.status);
    ev += "\"}}";
    emit(ev);
  };
  auto flow = [&](const char* ph, int tid, const RequestTimeline& tl,
                  double t) {
    std::snprintf(buf, sizeof(buf),
                  R"({"ph": "%s", "pid": %d, "tid": %d, "ts": %.6f, )"
                  R"("id": %)" PRIu64 R"(, "name": "request", "cat": )"
                  R"("request"%s})",
                  ph, kPid, tid, t * 1000.0, tl.trace_id,
                  ph[0] == 'f' ? R"(, "bp": "e")" : "");
    emit(buf);
  };

  for (const RequestTimeline& tl : tls) {
    double submit = 0.0, batch = -1.0, start = -1.0, finish = -1.0;
    int worker = -1;
    for (const RequestEvent& e : tl.events) {
      switch (e.kind) {
        case RequestEventKind::kSubmit: submit = e.t_ms; break;
        case RequestEventKind::kBatchFormed: batch = e.t_ms; break;
        case RequestEventKind::kWorkerStart:
          start = e.t_ms;
          worker = e.worker_id;
          break;
        case RequestEventKind::kFinish: finish = e.t_ms; break;
        case RequestEventKind::kShed:
        case RequestEventKind::kReject:
          // Refusals render as a zero-length marker on the queue track.
          batch = -1.0;
          span(kQueueTid, "refused", tl, e.t_ms, e.t_ms);
          break;
        default: break;
      }
    }
    if (batch >= 0.0) {
      span(kQueueTid, "queued", tl, submit, batch);
      flow("s", kQueueTid, tl, submit);
      const double handoff = start >= 0.0 ? start : batch;
      span(kBatcherTid, "batched", tl, batch, handoff);
      flow("t", kBatcherTid, tl, batch);
      if (start >= 0.0 && finish >= start && worker >= 0) {
        span(kWorkerTidBase + worker, "run", tl, start, finish);
        flow("f", kWorkerTidBase + worker, tl, start);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

bool save_chrome_request_trace(const std::string& path,
                               const std::vector<RequestTimeline>& tls) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_request_trace_json(tls);
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  return std::fclose(f) == 0 && written == doc.size();
}

}  // namespace igc::obs
