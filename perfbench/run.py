#!/usr/bin/env python3
"""TinyADC benchmark entry point.

Builds the driver (and the TinyADC libraries it links) from the checkout,
runs one workload from a seed and prints the result. Run from the root of
a checkout:

    python3 perfbench/run.py --workload serve_fleet --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The lines before it are a readable summary and the driver's full report
(details under the workload's own metric names, gates, host fingerprint).
The exit code is 0 when every correctness gate passed, 1 when one failed,
and 2 when the benchmark could not run (no result line is printed then).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_fleet", "prune_admm", "sim_sweep")
FIRST_RUN_BUDGET_S = 890.0  # a run that has to build the libraries first
RUN_BUDGET_S = 175.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build(deadline):
    """Configures (once) and builds the driver; returns its path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"no TinyADC sources here ({need} is missing)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_driver")


def summary(report, trace):
    lines = [f"perfbench {report['notes'].get('workload')} "
             f"seed={report['notes'].get('seed')} trace={int(trace)} "
             f"correct={report['correct']} attempted={report['attempted']} "
             f"failed={report['failed']}"]
    notes = report["notes"]
    lines.append("  host: " + ", ".join(
        f"{k[5:]}={v}" for k, v in notes.items() if k.startswith("host.")))
    for name, m in report["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for name, m in report["details"].items():
        lines.append(f"  [{name}] {m['value']:.6g} {m['unit']}")
    for g in report["gates"]:
        lines.append(f"  gate {g['name']}: {'ok' if g['ok'] else 'FAILED'}"
                     f" ({g['detail']})")
    return "\n".join(lines)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the smoke-test size, not for measurement")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)
    wanted = declared_metrics(trace)

    built_before = os.path.isfile(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench", "perfbench_driver"))
    deadline = start + (RUN_BUDGET_S if built_before else FIRST_RUN_BUDGET_S)
    driver = build(deadline)

    # Relative to the checkout root, the driver's working directory.
    out_dir = os.path.join(".bench_out",
                           f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--size", args.size]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    for name in os.listdir(os.path.join(ROOT, out_dir)):
        if name.endswith(".tadc"):
            os.remove(os.path.join(ROOT, out_dir, name))
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"driver exited with code {res.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no JSON report")

    got = report["metrics"]
    if set(got) != set(wanted):
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        v = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(v, (int, float)) \
                or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} is malformed: {got[name]}")

    print(summary(report, trace))
    print(json.dumps(report))
    result = {"correct": bool(report["correct"]),
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": {k: got[k] for k in wanted}}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
