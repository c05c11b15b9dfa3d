#!/usr/bin/env python3
"""Smoke test of the benchmark on held-out seeds.

Runs every workload at the tiny size on two seeds that are not used for
measurement, untraced and traced, and checks that each run exits 0, prints
every metric of BENCHMARK.json with its unit, passes every correctness
gate, and (traced) writes a Chrome trace-event file. Also checks that the
benchmark refuses to run without the TinyADC sources. Run from the root
of a checkout:

    python3 perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (424242, 909091)
WORKLOADS = ("serve_fleet", "prune_admm", "sim_sweep")


def run(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_run(spec, workload, seed, trace):
    res = run(workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    assert res.returncode == 0, f"{label}: exit {res.returncode}\n{res.stderr}"
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{label}: {m['name']} missing"
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    assert report["gates"], f"{label}: no correctness gates ran"
    assert all(g["ok"] for g in report["gates"]), f"{label}: {report['gates']}"
    if trace:
        with open(os.path.join(ROOT, report["notes"]["trace.file"])) as f:
            events = json.load(f)["traceEvents"]
        assert events, f"{label}: empty trace"
        for e in events[:50]:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e), label
            assert {"id", "parent", "flow"} <= set(e["args"]), label
    print(f"ok  {label}")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_smoke_") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run("prune_admm", SEEDS[0], 0, root=d)
        assert res.returncode != 0, "ran without the TinyADC sources"
        assert not res.stdout.strip(), "printed a result without sources"
    print("ok  refuses to run without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for seed in SEEDS:
            check_run(spec, workload, seed, 0)
        check_run(spec, workload, SEEDS[0], 1)
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
