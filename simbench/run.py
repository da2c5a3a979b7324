#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run one workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --workload all            # every workload, both modes

The build goes to .bench_build/ at the checkout root (CMake, Release).  Each
workload runs in its own single-threaded process; the last line of standard
output is the JSON result.  Traced runs write Chrome trace-event JSON to
.bench_build/traces/<workload>.trace.json.  Exits non-zero, without a result,
when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["a2a_fattree_128", "pt2pt_epc_ladder", "nas_ft_a_2x4"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            sys.exit("simbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("simbench: build failed")
    return os.path.join(BUILD, "simbench")


def run(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its output and returns the parsed result."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--trace-out", os.path.join(traces, workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("simbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("simbench: %s exited with %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("simbench: %s printed no result line" % workload)
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in 1..120")

    binary = build()
    if args.workload != "all":
        lines, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return

    # Every workload, untraced then traced, each in its own process.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            lines, result = run(binary, w, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
