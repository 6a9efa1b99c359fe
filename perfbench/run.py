#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

  python3 perfbench/run.py --workload fed_steady --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. The first run configures and
builds the driver (perfbench/CMakeLists.txt, Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when unset; later
runs only re-check the build. The driver's mmap store files go to a
private directory under the build directory, removed after the run.

With --trace 0 the result holds every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric (README.md).
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
# A run during which the hypervisor stole more than this share of the
# guest's CPU time is measured once more, and the less disturbed of the
# two attempts is reported (README.md, "Host interference").
MAX_STEAL_SHARE = 0.03
MAX_ATTEMPTS = 2


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_step(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources beside perfbench/ in " + ROOT, code=2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", bdir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", bdir, "--target", "perfbench_driver",
              "-j", BUILD_JOBS], max(1.0, deadline - time.monotonic()))
    return os.path.join(bdir, "perfbench_driver")


def run_driver(driver, bdir, workload, seed, seconds, trace,
               timeout=RUN_TIMEOUT_S):
    """Runs the driver once; returns (raw output, span records)."""
    runs = os.path.join(bdir, "runs")
    tmp = os.path.join(bdir, "tmp", str(os.getpid()))
    os.makedirs(runs, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (workload, seed, trace))
    out, spans_path = stem + ".json", stem + ".spans.jsonl"
    for path in (out, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           "--spans", spans_path]
    try:
        # The driver's own output goes to stderr: stdout's last line is
        # reserved for the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=dict(os.environ, TMPDIR=tmp),
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    with open(out) as f:
        raw = json.load(f)
    spans = []
    if os.path.exists(spans_path):
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return raw, spans


def main(argv=None):
    bench = report.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]", code=2)

    bdir = build_dir()
    driver = build(bdir)
    start = time.monotonic()
    attempts = []
    while True:
        t0 = time.monotonic()
        raw, spans = run_driver(driver, bdir, args.workload, args.seed,
                                args.seconds, args.trace,
                                RUN_TIMEOUT_S - (t0 - start))
        attempts.append((raw["values"]["host_steal_share"], raw, spans))
        took = time.monotonic() - t0
        if (attempts[-1][0] <= MAX_STEAL_SHARE
                or len(attempts) == MAX_ATTEMPTS
                or time.monotonic() - start + 1.5 * took > RUN_TIMEOUT_S):
            break
    best = min(range(len(attempts)), key=lambda i: attempts[i][0])
    steal, raw, spans = attempts[best]
    try:
        result, checks, note = report.build_result(raw, spans, args.trace, bench)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        fail("malformed driver output: %r" % (e,))
    for name, ok, detail in checks:
        print("check %-32s %s  %s" % (name, "ok" if ok else "FAILED", detail))
    print("host steal share %.2f%% (attempt %d of %d)"
          % (100 * steal, best + 1, len(attempts)))
    if note:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
