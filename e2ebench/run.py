#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark (see e2ebench/README.md).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload read_fixed --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The first run configures and builds the benchmark (CMake, Release) into
.bench_build/e2ebench; later runs rebuild only what changed. The last
line of standard output is the result object; build output goes to
standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "mel_e2e")
WORKLOADS = ("read_fixed", "stream_feedback", "follow_churn")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mel_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout lines)."""
    scratch = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    fail(f"no '{tag}:' line in the benchmark output")


def self_test(seconds):
    """Same seed -> identical work counts; another seed -> another stream."""
    ok = True
    for workload in ("read_fixed", "follow_churn"):
        counts = []
        for seed in (7, 7, 8):
            code, lines = run_once(workload, seed, seconds, 1)
            if code != 0:
                print(f"FAIL {workload} seed {seed}: exit {code}")
                ok = False
            counts.append(tagged(lines, "counts"))
        same = counts[0] == counts[1]
        differs = counts[0]["stream_digest"] != counts[2]["stream_digest"]
        print(f"{workload}: same seed identical counts: {same}; "
              f"other seed other stream: {differs}")
        print(f"  seed 7: {json.dumps(counts[0])}")
        if not same:
            print(f"  rerun : {json.dumps(counts[1])}")
        ok = ok and same and differs
    print("self-test", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that work counts repeat exactly per seed")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")

    build()
    if args.self_test:
        return self_test(max(args.seconds, 3))

    code, lines = run_once(args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the benchmark printed no result object")
    return code


if __name__ == "__main__":
    sys.exit(main())
