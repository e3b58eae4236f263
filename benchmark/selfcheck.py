#!/usr/bin/env python3
"""Check the benchmark's output against BENCHMARK.json. Tooling only: runs
every workload for 3 seconds, untraced and traced, and never reports a number.

    selfcheck.py <binary> <BENCHMARK.json> <out-dir>
"""
import json
import math
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_run(binary, out_dir, workload, trace, declared):
    """Run once; return the list of problems found in its result line."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "3", "--seconds", "3",
         "--trace", str(trace), "--out", out_dir],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name in declared:
        if name not in metrics:
            problems.append(f"{name} is declared but missing")
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append(f"{name!r} is not a valid metric name")
        if name not in declared:
            problems.append(f"{name} is printed but not declared")
            continue
        if m.get("unit") != declared[name]:
            problems.append(f"{name} has unit {m.get('unit')!r}, declared {declared[name]!r}")
        v = m.get("value")
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"{name} value {v!r} is not a finite number")
    return problems


def main():
    binary, spec_path, out_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_run(binary, out_dir, w["name"], trace, declared)
            print(f"{w['name']} --trace {trace}: " + ("ok" if not problems else "FAILED"))
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
