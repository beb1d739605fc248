#!/usr/bin/env python3
"""Builds and runs the BANKS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload search|serve|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere: paths are taken relative to this file. The library is
built through the repository's root CMakeLists.txt into .bench_build/.
The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 1 the traced run is preceded by an untraced one, so that
trace.overhead (traced ttk_ms_p50 over untraced ttk_ms_p50) can be given.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "banks_perf")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no library sources next to the benchmark "
            "(expected CMakeLists.txt and src/ in %s)" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "banks_perf",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def run_binary(args):
    """Runs banks_perf; returns (exit code, last stdout line or None)."""
    os.makedirs(OUT, exist_ok=True)
    proc = subprocess.run([BINARY] + args + ["--out", OUT], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    return proc.returncode, (lines[-1] if lines else None)


def parse_result(line):
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    # A SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the benchmark binary instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"], cwd=ROOT).returncode
    if args.workload not in ("search", "serve", "ingest"):
        log("perfbench: --workload must be search, serve or ingest")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    code, line = run_binary(common + ["--trace", "0"])
    result = parse_result(line)
    if result is None:
        log("perfbench: the benchmark printed no result (exit %d)" % code)
        return 1
    if args.trace == 1:
        untraced_ttk = result["metrics"]["ttk_ms_p50"]["value"]
        code, line = run_binary(common + ["--trace", "1"])
        traced = parse_result(line)
        if traced is None:
            log("perfbench: the traced run printed no result (exit %d)" % code)
            return 1
        metrics = traced["metrics"]
        traced_ttk = metrics.pop("trace.ttk_ms_p50")["value"]
        metrics["trace.overhead"] = {
            "value": traced_ttk / untraced_ttk if untraced_ttk > 0 else 0.0,
            "unit": "ratio"}
        result = {"correct": result["correct"] and traced["correct"],
                  "attempted": result["attempted"] + traced["attempted"],
                  "failed": result["failed"] + traced["failed"],
                  "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
