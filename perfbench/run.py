#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs workloads.

    python3 perfbench/run.py --workload classify_jit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

Each workload runs in its own process. The report goes to standard output,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The command exits non-zero
when the build fails, a run fails, or an output check fails.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and
the runs' working files (kernel caches, compiler temporaries) to
$CARGO_TARGET_DIR/work; both are relative to the repository root.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify_jit", "detect_wavefront", "serve_overload")
BUILD_TIMEOUT_S = 850
# A run is set-up (up to about 25 s traced), then one timed window, or with
# --trace 1 an untraced and a traced window plus a third of one more.
SETUP_TIMEOUT_S = 90
# Largest share of exec.run_ms that exec.overhead_ms (what no span covers)
# may take on the sequential workloads; above it, spans are missing.
SEQUENTIAL_OVERHEAD_SHARE = {"classify_jit": 0.02, "serve_overload": 0.25}

# Per-request rows of the traced run that partition exec.run_ms.
REQUEST_ROWS = (
    "exec.input_ms", "exec.overhead_ms", "ops.nn.conv2d_ms",
    "ops.nn.pool2d_ms", "ops.nn.concat_ms", "ops.nn.dense_ms",
    "ops.vision.ssd_detection_ms", "ops.vision.yolo_decode_ms",
    "ops.vision.box_nms_ms", "ops.other_ms",
)
# Set-up layers of the traced run that should account for the set-up.
SETUP_ROWS = (
    "models.build_ms", "graph.passes_ms", "tune.layout_tune_ms",
    "graph.plan_ms", "codegen.load_ms", "exec.warmup_ms",
)


class BenchError(Exception):
    pass


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def child_env():
    tmp = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, env=child_env(),
                            text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("timed out after %ds: %s" % (timeout, cmd[0]))
    return proc.returncode, out


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    bdir = os.path.join(target_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        rc, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed report."""
    work = os.path.join(target_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    timeout = SETUP_TIMEOUT_S + (3 if trace else 1) * seconds
    rc, out = run_child(cmd, timeout, stdout=subprocess.PIPE)
    report = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if report is None:
        raise BenchError("%s exited %d without a report" % (workload, rc))
    expected = spec["per_layer" if trace else "end_to_end"]
    got = report["metrics"]
    missing = [m["name"] for m in expected
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in expected})
    if missing or extra:
        raise BenchError("%s metrics disagree with BENCHMARK.json: missing "
                         "or wrong unit %s, unexpected %s"
                         % (workload, missing, extra))
    report["metrics"] = {m["name"]: got[m["name"]] for m in expected}
    report["exit_code"] = rc
    return report


def result_line(report):
    correct = bool(report["correct"]) and report["failed"] == 0
    return json.dumps({"correct": correct, "attempted": report["attempted"],
                       "failed": report["failed"],
                       "metrics": report["metrics"]})


def self_test(binary, spec, seconds):
    """Short runs of every workload, traced and untraced, plus the checks
    that the metric set, the per-layer rows and the counts hold."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(binary, spec, workload, 1, seconds, trace)
            name = "%s trace=%d" % (workload, trace)
            if report["exit_code"] != 0 or not report["correct"]:
                problems.append("%s: run failed %s"
                                % (name, report["errors"]))
            if not trace:
                continue
            m = {k: v["value"] for k, v in report["metrics"].items()}
            diag = {k: v["value"] for k, v in report["diag"].items()}
            run_ms = m["exec.run_ms"]
            rows = sum(m[r] for r in REQUEST_ROWS)
            if abs(rows - run_ms) > 1e-6 * max(1.0, run_ms):
                problems.append("%s: request rows sum to %.6f ms, traced "
                                "run() is %.6f ms" % (name, rows, run_ms))
            # The rows sum by construction (exec.overhead_ms is the rest);
            # in sequential mode the rest must be small and non-negative.
            share = SEQUENTIAL_OVERHEAD_SHARE.get(workload)
            overhead = m["exec.overhead_ms"]
            if share is not None and not 0 <= overhead < share * run_ms:
                problems.append("%s: exec.overhead_ms is %.4f ms, outside "
                                "[0, %.0f%% of %.4f ms): spans are missing"
                                % (name, overhead, 100 * share, run_ms))
            layers = sum(m[r] for r in SETUP_ROWS)
            traced = diag["setup.traced_ms"]
            if abs(layers - traced) > 0.1 * traced:
                problems.append("%s: set-up layers sum to %.1f ms, traced "
                                "set-up is %.1f ms" % (name, layers, traced))
            if workload == "classify_jit":
                counts = {
                    "codegen.kernels": (m["codegen.kernels"], 50),
                    "codegen.nodes_covered": (m["codegen.nodes_covered"], 58),
                    "codegen.toolchain_invocations cold":
                        (m["codegen.toolchain_invocations"], 1),
                    "codegen.toolchain_invocations warm":
                        (diag["codegen.toolchain_invocations_warm"], 0),
                }
                for what, (got, want) in counts.items():
                    if got != want:
                        problems.append("%s: %s is %s, expected %s"
                                        % (name, what, got, want))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: %s" % ("ok" if not problems else
                              "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="short runs of every workload with the checks on "
                         "the metric set, the per-layer rows and the counts")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        spec = load_spec()
        seconds = args.seconds or (3 if args.self_test
                                   else spec["run_seconds"])
        if seconds < 1:
            ap.error("--seconds must be >= 1")
        binary = build()
        if args.self_test:
            return self_test(binary, spec, seconds)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for workload in workloads:
            report = run_workload(binary, spec, workload, args.seed, seconds,
                                  args.trace)
            ok = ok and report["exit_code"] == 0 and report["correct"]
            print(result_line(report))
        return 0 if ok else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
