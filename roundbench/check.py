#!/usr/bin/env python3
"""Smoke check of the round-profile benchmark.

    python3 roundbench/check.py

Runs every workload BENCHMARK.json names through run.py --smoke, once
untraced and once traced, and fails unless each run passes its output
checks and emits exactly the metrics BENCHMARK.json lists for it
(end_to_end untraced, per_layer traced), each as a number with the
listed unit. Takes about half a minute.
"""

import json
import numbers
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(bench, workload, trace):
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        return [f"run.py exited with {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        bad.append("output checks failed")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in bench[key]}
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            bad.append(f"{name} missing")
        elif m.get("unit") != unit:
            bad.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
        elif not isinstance(m.get("value"), numbers.Real):
            bad.append(f"{name} value {m.get('value')!r} is not a number")
    for name in sorted(set(got) - set(want)):
        bad.append(f"{name} emitted but not in BENCHMARK.json {key}")
    return bad


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for wl in bench["workloads"]:
        for trace in (0, 1):
            bad = check_run(bench, wl["name"], trace)
            failures += len(bad)
            status = "ok" if not bad else "FAIL"
            print(f"{wl['name']:20} trace={trace} {status}")
            for b in bad:
                print("   ", b)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
