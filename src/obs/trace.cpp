#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "obs/json.h"

namespace igc::obs {
namespace {

void append_event(std::string& out, const std::string& body, bool& first) {
  out += first ? "\n  " : ",\n  ";
  first = false;
  out += body;
}

std::string meta_event(int pid, int tid, const char* kind,
                       const std::string& name) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), R"({"ph": "M", "pid": %d, "tid": %d, )",
                pid, tid);
  return std::string(buf) + R"("name": ")" + kind + R"(", "args": {"name": ")" +
         json::escape(name) + R"("}})";
}

}  // namespace

HostRollup host_rollup(const std::vector<TraceSpan>& spans) {
  HostRollup r;
  r.span_ms.reserve(spans.size());
  std::map<std::string, size_t> row_of;
  for (const TraceSpan& s : spans) {
    const double ms = std::max(0.0, s.host_end_us - s.host_start_us) / 1000.0;
    r.span_ms.push_back(ms);
    r.total_ms += ms;
    auto [it, added] = row_of.emplace(s.op, r.by_op.size());
    if (added) r.by_op.push_back(OpHostTime{s.op});
    OpHostTime& row = r.by_op[it->second];
    row.spans += 1;
    row.host_ms += ms;
    row.sim_ms += s.sim_end_ms - s.sim_start_ms;
  }
  std::stable_sort(r.by_op.begin(), r.by_op.end(),
                   [](const OpHostTime& a, const OpHostTime& b) {
                     return a.host_ms > b.host_ms;
                   });
  return r;
}

void TraceRecorder::begin(TraceMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_ = std::move(meta);
  spans_.clear();
}

void TraceRecorder::record(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

double TraceRecorder::category_ms(sim::OpCategory c) const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0.0;
  for (const TraceSpan& s : spans_) {
    if (s.category == c) ms += s.sim_end_ms - s.sim_start_ms;
  }
  return ms;
}

double TraceRecorder::lane_end_ms(sim::Lane lane) const {
  std::lock_guard<std::mutex> lock(mu_);
  double end = 0.0;
  for (const TraceSpan& s : spans_) {
    if (s.lane == lane) end = std::max(end, s.sim_end_ms);
  }
  return end;
}

double TraceRecorder::makespan_ms() const {
  double m = 0.0;
  for (int l = 0; l < sim::kNumLanes; ++l) {
    m = std::max(m, lane_end_ms(static_cast<sim::Lane>(l)));
  }
  return m;
}

std::string TraceRecorder::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  constexpr int kSimPid = 1;
  constexpr int kHostPid = 2;

  std::string out = "{\n";
  out += R"("displayTimeUnit": "ms",)";
  out += "\n\"otherData\": {";
  out += R"("model": ")" + json::escape(meta_.model) + R"(", )";
  out += R"("platform": ")" + json::escape(meta_.platform) + R"(", )";
  out += R"("mode": ")" + json::escape(meta_.mode) + R"(", )";
  out += R"("schema_version": )" + std::to_string(meta_.schema_version);
  out += "},\n\"traceEvents\": [";

  bool first = true;
  // Track names: one track per simulated lane, always emitted so the lane
  // structure is visible even for graphs that never touch a lane.
  append_event(out, meta_event(kSimPid, 0, "process_name",
                               "simulated platform: " + meta_.platform),
               first);
  for (int l = 0; l < sim::kNumLanes; ++l) {
    append_event(
        out,
        meta_event(kSimPid, l, "thread_name",
                   "lane " + std::to_string(l) + ": " +
                       std::string(sim::lane_name(static_cast<sim::Lane>(l)))),
        first);
  }

  // Number the host-thread tracks in order of first appearance.
  std::map<uint64_t, int> host_tid;
  bool have_host = false;
  for (const TraceSpan& s : spans_) {
    if (s.host_end_us <= s.host_start_us) continue;
    have_host = true;
    if (host_tid.emplace(s.host_thread, static_cast<int>(host_tid.size()))
            .second) {
      append_event(out,
                   meta_event(kHostPid, host_tid[s.host_thread], "thread_name",
                              "host thread " +
                                  std::to_string(host_tid[s.host_thread])),
                   first);
    }
  }
  if (have_host) {
    append_event(
        out, meta_event(kHostPid, 0, "process_name", "host threads"), first);
  }

  char buf[256];
  double counters_end_ms = 0.0;
  bool have_counters = false;
  for (const TraceSpan& s : spans_) {
    // Simulated lane span.
    std::snprintf(buf, sizeof(buf),
                  R"("ph": "X", "pid": %d, "tid": %d, "ts": %.6f, "dur": %.6f)",
                  kSimPid, static_cast<int>(s.lane), s.sim_start_ms * 1000.0,
                  (s.sim_end_ms - s.sim_start_ms) * 1000.0);
    std::string ev = "{";
    ev += R"("name": ")" + json::escape(s.name) + R"(", )";
    ev += R"("cat": ")" + std::string(sim::category_name(s.category)) +
          R"(", )";
    ev += buf;
    ev += R"(, "args": {)";
    ev += R"("op": ")" + json::escape(s.op) + R"(", )";
    ev += R"("shape": ")" + json::escape(s.shape) + R"(", )";
    ev += R"("layout_block": )" + std::to_string(s.layout_block) + ", ";
    char bbuf[32];
    std::snprintf(bbuf, sizeof(bbuf), "%" PRId64, s.bytes);
    ev += R"("bytes": )" + std::string(bbuf);
    if (s.counters.launches > 0) {
      std::snprintf(buf, sizeof(buf),
                    R"(, "bound": "%s", "occupancy": %.4f, )"
                    R"("achieved_gflops": %.3f, "achieved_gbps": %.3f)",
                    std::string(sim::bound_name(s.counters.bound)).c_str(),
                    s.counters.occupancy, s.counters.achieved_gflops(),
                    s.counters.achieved_gbps());
      ev += buf;
    }
    if (!s.schedule.empty()) {
      ev += R"(, "schedule": ")" + json::escape(s.schedule) + R"(")";
    }
    ev += "}}";
    append_event(out, ev, first);

    // Counter tracks: one sample per span at its start, so Perfetto draws
    // the step function of what the simulated hardware was sustaining.
    if (s.counters.launches > 0) {
      have_counters = true;
      counters_end_ms = std::max(counters_end_ms, s.sim_end_ms);
      const struct {
        const char* track;
        double value;
      } samples[] = {
          {"occupancy", s.counters.occupancy},
          {"achieved GFLOPS", s.counters.achieved_gflops()},
          {"DRAM GB/s", s.counters.achieved_gbps()},
      };
      for (const auto& c : samples) {
        std::snprintf(buf, sizeof(buf),
                      R"({"ph": "C", "pid": %d, "name": "%s", "ts": %.6f, )"
                      R"("args": {"value": %.4f}})",
                      kSimPid, c.track, s.sim_start_ms * 1000.0, c.value);
        append_event(out, buf, first);
      }
    }

    // Host dispatch span (wall clock on the thread that ran it).
    if (s.host_end_us > s.host_start_us) {
      std::snprintf(
          buf, sizeof(buf),
          R"("ph": "X", "pid": %d, "tid": %d, "ts": %.3f, "dur": %.3f)",
          kHostPid, host_tid[s.host_thread], s.host_start_us,
          s.host_end_us - s.host_start_us);
      std::string hev = "{";
      hev += R"("name": ")" + json::escape(s.name) + R"(", )";
      hev += R"("cat": "host_dispatch", )";
      hev += buf;
      hev += "}";
      append_event(out, hev, first);
    }
  }
  // Close the counter tracks: a zero sample after the last counted span.
  if (have_counters) {
    for (const char* track : {"occupancy", "achieved GFLOPS", "DRAM GB/s"}) {
      std::snprintf(buf, sizeof(buf),
                    R"({"ph": "C", "pid": %d, "name": "%s", "ts": %.6f, )"
                    R"("args": {"value": 0}})",
                    kSimPid, track, counters_end_ms * 1000.0);
      append_event(out, buf, first);
    }
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::save_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json();
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  return std::fclose(f) == 0 && written == doc.size();
}

std::string TraceRecorder::report(int top_k) const {
  std::vector<TraceSpan> spans;
  TraceMeta meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
    meta = meta_;
  }

  double serial = 0.0;
  double cat_ms[sim::kNumCategories] = {};
  int cat_n[sim::kNumCategories] = {};
  double lane_end[sim::kNumLanes] = {};
  for (const TraceSpan& s : spans) {
    const double d = s.sim_end_ms - s.sim_start_ms;
    serial += d;
    cat_ms[static_cast<int>(s.category)] += d;
    cat_n[static_cast<int>(s.category)] += 1;
    lane_end[static_cast<int>(s.lane)] =
        std::max(lane_end[static_cast<int>(s.lane)], s.sim_end_ms);
  }
  const double makespan = *std::max_element(lane_end, lane_end + sim::kNumLanes);

  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "=== trace report: %s on %s (%s) ===\n",
                meta.model.c_str(), meta.platform.c_str(), meta.mode.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "spans %zu | serial %.3f ms | critical path %.3f ms\n",
                spans.size(), serial, makespan);
  out += buf;

  out += "category rollup (serial ms):\n";
  for (int c = 0; c < sim::kNumCategories; ++c) {
    std::snprintf(
        buf, sizeof(buf), "  %-8s %12.3f ms %6.1f%% %5d spans\n",
        std::string(sim::category_name(static_cast<sim::OpCategory>(c)))
            .c_str(),
        cat_ms[c], serial > 0.0 ? 100.0 * cat_ms[c] / serial : 0.0, cat_n[c]);
    out += buf;
  }

  out += "lane end times:";
  for (int l = 0; l < sim::kNumLanes; ++l) {
    std::snprintf(buf, sizeof(buf), " %s %.3f ms%s",
                  std::string(sim::lane_name(static_cast<sim::Lane>(l)))
                      .c_str(),
                  lane_end[l], l + 1 < sim::kNumLanes ? " |" : "\n");
    out += buf;
  }

  const HostRollup host = host_rollup(spans);
  auto sim_ms = [&](size_t i) {
    return spans[i].sim_end_ms - spans[i].sim_start_ms;
  };
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sim_ms(a) > sim_ms(b);
  });
  const int k = std::min<int>(top_k, static_cast<int>(spans.size()));
  std::snprintf(buf, sizeof(buf), "top %d ops by serial ms (sim, host):\n", k);
  out += buf;
  for (int j = 0; j < k; ++j) {
    const size_t i = order[static_cast<size_t>(j)];
    const TraceSpan& s = spans[i];
    const double d = sim_ms(i);
    std::snprintf(buf, sizeof(buf),
                  "  %10.3f ms %5.1f%% %9.3f ms  %-4s %-8s %-14s %-24s %s\n",
                  d, serial > 0.0 ? 100.0 * d / serial : 0.0, host.span_ms[i],
                  std::string(sim::lane_name(s.lane)).c_str(),
                  std::string(sim::category_name(s.category)).c_str(),
                  s.op.c_str(), s.name.c_str(),
                  (s.shape + (s.schedule.empty() ? "" : "  " + s.schedule))
                      .c_str());
    out += buf;
  }

  std::snprintf(buf, sizeof(buf),
                "host rollup by op kind (span host ms %.3f):\n",
                host.total_ms);
  out += buf;
  for (const OpHostTime& row : host.by_op) {
    std::snprintf(buf, sizeof(buf),
                  "  %-16s %9.3f ms %5.1f%% %5d spans %12.3f sim ms\n",
                  row.op.c_str(), row.host_ms,
                  host.total_ms > 0.0 ? 100.0 * row.host_ms / host.total_ms
                                      : 0.0,
                  row.spans, row.sim_ms);
    out += buf;
  }
  return out;
}

}  // namespace igc::obs
