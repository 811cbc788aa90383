#!/usr/bin/env python3
"""Repository benchmark: builds the TASD libraries and the perfbench
harness from source, runs one workload, prints the result object as the
last line of stdout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the harness's statistics tests

Run it from the repository root. Build outputs, per-run result files
(host record, samples, per-rate serving detail) and traces go under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
workloads and metrics are listed in BENCHMARK.json; harness.cpp documents
what each measures.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; tool output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench_harness", "perfbench_stats_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def revision():
    """The git revision, or a digest of the sources when not in a checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(HERE.rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    build()
    if args.self_test:
        test = subprocess.run([str(BUILD / "perfbench_stats_test")])
        sys.exit(test.returncode)

    cmd = [str(BUILD / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(BUILD / "runs"),
           "--rev", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"harness exited {proc.returncode} without a result")
        sys.exit(proc.returncode or 2)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
