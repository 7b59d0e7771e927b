// Schema guard for the machine-readable bench output (bench/bench_json.h).
//
// Two jobs:
//   * the row builders (bench_row / counter_summary) emit valid JSON whose
//     header fields match the current schema version;
//   * every BENCH_*.json committed at the repo root still parses line by
//     line with the in-repo obs/json parser and respects the schema rules —
//     rows written before the schema_version field existed are accepted as
//     legacy, but a row that *declares* a version must be internally
//     consistent, so dashboards can trust what they scrape.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/json.h"
#include "sim/timing_model.h"

namespace igc {
namespace {

namespace fs = std::filesystem;

/// Finds the repo root by walking up from the CWD looking for ROADMAP.md
/// (tests run from the build tree).
fs::path find_repo_root() {
  fs::path dir = fs::current_path();
  for (int depth = 0; depth < 6; ++depth) {
    if (fs::exists(dir / "ROADMAP.md")) return dir;
    if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    dir = dir.parent_path();
  }
  return {};
}

/// Validates one bench row against the schema contract. `source` labels
/// failures with file:line.
void validate_row(const obs::json::Value& row, const std::string& source) {
  // The invariant header every row has carried since v1.
  EXPECT_FALSE(row.at("bench").as_string().empty()) << source;
  EXPECT_FALSE(row.at("platform").as_string().empty()) << source;
  EXPECT_FALSE(row.at("model").as_string().empty()) << source;

  if (!row.has("schema_version")) return;  // legacy (pre-v2) row: header only
  EXPECT_FALSE(row.at("mode").as_string().empty()) << source;
  const int64_t v = row.at("schema_version").as_int();
  EXPECT_GE(v, 1) << source;
  EXPECT_LE(v, bench::kBenchSchemaVersion)
      << source << ": row declares a newer schema than this tree knows";
  if (v >= 2) {
    EXPECT_TRUE(row.has("passes")) << source;
  }
  if (row.has("backend")) {
    // v4: the numerics-engine label travels with a "numerics" bool saying
    // whether the row actually computed tensors.
    EXPECT_GE(v, 4) << source;
    const std::string backend = row.at("backend").as_string();
    EXPECT_TRUE(backend == "interp" || backend == "jit")
        << source << ": backend=" << backend;
    EXPECT_TRUE(row.has("numerics")) << source << " missing numerics";
  }
  if (v >= 4 && row.at("bench").as_string() == "serving") {
    EXPECT_TRUE(row.has("backend")) << source;
  }
  if (v >= 5 && row.at("bench").as_string() == "serving") {
    // v5: serving rows carry host-latency percentiles in order.
    for (const char* field : {"host_p50_ms", "host_p95_ms", "host_p99_ms"}) {
      ASSERT_TRUE(row.has(field)) << source << " missing " << field;
    }
    const double p50 = row.at("host_p50_ms").as_number();
    const double p95 = row.at("host_p95_ms").as_number();
    const double p99 = row.at("host_p99_ms").as_number();
    EXPECT_GT(p50, 0.0) << source;
    EXPECT_LE(p50, p95) << source;
    EXPECT_LE(p95, p99) << source;
  }
  if (v >= 7 && (row.at("bench").as_string() == "serving" ||
                 row.at("bench").as_string() == "serving_engine")) {
    // v7: the paged-arena memory block travels on every serving and engine
    // row. Peak is planned/physical bytes (>= 0); the page footprint is
    // page-granular so it never undershoots the peak it backs.
    for (const char* field : {"arena_peak_bytes", "arena_page_bytes"}) {
      ASSERT_TRUE(row.has(field)) << source << " missing " << field;
      EXPECT_GE(row.at(field).as_int(), 0) << source << " " << field;
    }
    if (row.has("slab_bytes")) {
      // Mixed-resolution sharing cells ship only when paged sharing beats
      // per-worker private slabs on peak physical memory.
      EXPECT_LT(row.at("arena_peak_bytes").as_int(),
                row.at("slab_bytes").as_int())
          << source << ": paged sharing must beat per-worker slabs";
    }
  }
  if (row.at("bench").as_string() == "serving_engine") {
    // v6: open-loop engine rows carry the offered/served traffic block with
    // conserving admission accounting and ordered latency percentiles.
    EXPECT_GE(v, 6) << source;
    for (const char* field :
         {"tenants", "workers", "offered_per_s", "goodput_per_s", "submitted",
          "admitted", "shed", "rejected", "completed", "batches",
          "batch_size_mean", "queue_depth_peak"}) {
      ASSERT_TRUE(row.has(field)) << source << " missing " << field;
    }
    EXPECT_GE(row.at("tenants").as_int(), 1) << source;
    EXPECT_GE(row.at("workers").as_int(), 1) << source;
    EXPECT_GT(row.at("offered_per_s").as_number(), 0.0) << source;
    EXPECT_GT(row.at("goodput_per_s").as_number(), 0.0) << source;
    EXPECT_EQ(row.at("submitted").as_int(),
              row.at("admitted").as_int() + row.at("shed").as_int() +
                  row.at("rejected").as_int())
        << source << ": admission accounting must conserve";
    EXPECT_EQ(row.at("admitted").as_int(), row.at("completed").as_int())
        << source << ": engine rows are emitted after a full drain";
    for (const char* prefix : {"e2e", "queue_wait"}) {
      const std::string p50_key = std::string(prefix) + "_p50_ms";
      const std::string p95_key = std::string(prefix) + "_p95_ms";
      const std::string p99_key = std::string(prefix) + "_p99_ms";
      ASSERT_TRUE(row.has(p50_key)) << source << " missing " << p50_key;
      ASSERT_TRUE(row.has(p95_key)) << source << " missing " << p95_key;
      ASSERT_TRUE(row.has(p99_key)) << source << " missing " << p99_key;
      const double p50 = row.at(p50_key).as_number();
      const double p95 = row.at(p95_key).as_number();
      const double p99 = row.at(p99_key).as_number();
      EXPECT_GE(p50, 0.0) << source;
      EXPECT_LE(p50, p95) << source;
      EXPECT_LE(p95, p99) << source;
    }
  }
  if (row.has("trace_overhead_pct")) {
    // v8: the goodput cost of request tracing, measured on the cells that
    // replay with tracing on. Engine rows only; wall-clock noisy, so the
    // tolerance band is wide on the low side — but a committed baseline
    // must stay under the 2% acceptance bound.
    EXPECT_GE(v, 8) << source;
    EXPECT_EQ(row.at("bench").as_string(), "serving_engine") << source;
    const double pct = row.at("trace_overhead_pct").as_number();
    EXPECT_GT(pct, -10.0) << source << ": traced replay implausibly faster";
    EXPECT_LT(pct, 2.0) << source << ": tracing must cost < 2% goodput";
  }
  if (row.at("bench").as_string() == "serving_engine_summary") {
    // Shipped only when the worker pool actually scales goodput.
    EXPECT_GT(row.at("worker_scaling").as_number(), 1.0) << source;
  }
  if (row.at("bench").as_string() == "serving_jit_summary") {
    // The JIT serving comparison only ships when it reproduces the
    // interpreter exactly: same bits, same simulated latency, faster host.
    EXPECT_TRUE(row.at("outputs_identical").as_bool()) << source;
    EXPECT_TRUE(row.at("sim_latency_identical").as_bool()) << source;
    EXPECT_GT(row.at("host_speedup").as_number(), 1.0) << source;
    // Rows that name the JIT's compile flags (and so its ISA level) must
    // name flags that keep the bit-identity contract.
    if (row.has("jit_flags")) {
      EXPECT_NE(row.at("jit_flags").as_string().find("-ffp-contract=off"),
                std::string::npos)
          << source;
    }
  }
  if (row.has("sim_launches")) {
    // v3 counter summary: all-or-nothing.
    EXPECT_GE(v, 3) << source;
    for (const char* field :
         {"sim_flops", "sim_dram_bytes", "achieved_gflops", "achieved_gbps",
          "arithmetic_intensity", "avg_occupancy", "bound"}) {
      EXPECT_TRUE(row.has(field)) << source << " missing " << field;
    }
    EXPECT_GT(row.at("sim_launches").as_int(), 0) << source;
    EXPECT_GT(row.at("avg_occupancy").as_number(), 0.0) << source;
    EXPECT_LE(row.at("avg_occupancy").as_number(), 1.0) << source;
    const std::string bound = row.at("bound").as_string();
    EXPECT_TRUE(bound == "compute" || bound == "bandwidth" ||
                bound == "latency")
        << source << ": bound=" << bound;
  }
}

TEST(BenchSchema, RowBuilderEmitsTheCurrentSchema) {
  bench::JsonObject j = bench::bench_row("guard", "test-platform", "m");
  sim::KernelCounters c;
  c.launches = 3;
  c.flops = 1000;
  c.dram_bytes = 400;
  c.ms = 2.0;
  c.compute_ms = 1.5;
  c.memory_ms = 0.4;
  c.occupancy = 0.75;
  c.bound = sim::BoundKind::kCompute;
  bench::counter_summary(j, c);
  const obs::json::Value row = obs::json::parse(j.str());
  EXPECT_EQ(row.at("schema_version").as_int(), bench::kBenchSchemaVersion);
  validate_row(row, "bench_row(counter_summary)");
  EXPECT_EQ(row.at("sim_launches").as_int(), 3);
  EXPECT_EQ(row.at("bound").as_string(), "compute");

  // Rows without counted launches stay counter-free (and valid).
  bench::JsonObject plain = bench::bench_row("guard", "test-platform", "m");
  bench::counter_summary(plain, sim::KernelCounters{});
  const obs::json::Value plain_row = obs::json::parse(plain.str());
  EXPECT_FALSE(plain_row.has("sim_launches"));
  validate_row(plain_row, "bench_row(no counters)");
}

TEST(BenchSchema, CommittedBenchFilesValidateLineByLine) {
  const fs::path root = find_repo_root();
  if (root.empty()) GTEST_SKIP() << "repo root not found from " <<
      fs::current_path();
  int files = 0, rows = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      const std::string source = fname + ":" + std::to_string(lineno);
      obs::json::Value row;
      ASSERT_NO_THROW(row = obs::json::parse(line)) << source;
      validate_row(row, source);
      ++rows;
    }
  }
  if (files == 0) GTEST_SKIP() << "no BENCH_*.json at " << root;
  EXPECT_GT(rows, 0);
}

}  // namespace
}  // namespace igc
