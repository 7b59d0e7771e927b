// bench_diff: perf-regression gate over two BENCH_*.json files.
//
//   bench_diff <baseline.json> <candidate.json>
//              [--fail-on-regress metric:pct% ...]
//
// Rows are matched on identity (bench/schema/platform/model/mode/config/
// backend/numerics); each watched metric that moves past its threshold in
// the bad direction is a regression. Exit codes: 0 clean, 1 regression
// found, 2 usage or I/O error — so CI can gate on it directly.
#include <cstdio>
#include <string>
#include <vector>

#include "core/error.h"
#include "obs/bench_diff.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <baseline.json> <candidate.json> "
      "[--fail-on-regress metric:pct%% ...]\n"
      "\n"
      "Compares two BENCH_*.json files row by row and reports per-metric\n"
      "deltas. Each --fail-on-regress watch (repeatable; a bare spec after\n"
      "the flag also counts) makes the exit status 1 when that metric moves\n"
      "past the threshold in its bad direction. Direction is inferred from\n"
      "the name (throughput/speedup metrics are higher-is-better, times and\n"
      "bytes lower); prefix the spec with '+' or '-' to pin it.\n"
      "\n"
      "example: %s BENCH_serving.json /tmp/BENCH_candidate.json \\\n"
      "             --fail-on-regress host_ms_per_run:10%%\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path;
  std::vector<igc::obs::benchdiff::Watch> watches;

  bool in_watches = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg == "--fail-on-regress") {
      in_watches = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    }
    if (in_watches) {
      igc::obs::benchdiff::Watch w;
      if (!igc::obs::benchdiff::parse_watch(arg, &w)) {
        std::fprintf(stderr, "bad watch spec (want metric:pct%%): %s\n",
                     arg.c_str());
        return usage(argv[0]);
      }
      watches.push_back(std::move(w));
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) return usage(argv[0]);
  if (in_watches && watches.empty()) {
    std::fprintf(stderr, "--fail-on-regress needs at least one metric:pct%%\n");
    return usage(argv[0]);
  }

  try {
    const auto result =
        igc::obs::benchdiff::diff_files(baseline_path, candidate_path, watches);
    std::fputs(result.report(watches).c_str(), stdout);
    return result.ok() ? 0 : 1;
  } catch (const igc::Error& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
