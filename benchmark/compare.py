#!/usr/bin/env python3
"""Compare two result sets (directories written by repeat.sh).

    compare.py <BENCHMARK.json> <A> <B>

One row per workload x end-to-end metric: the median and the inter-quartile
range (as a share of the median) of each set, how much worse B's median is
than A's in the metric's own direction, and a verdict against the metric's
bound:

    regression   B is worse than A by more than the bound
    unresolved   either set's own spread exceeds the bound, so the
                 comparison cannot tell; never reported as unchanged
    unchanged    within the bound either way
    better       B is better than A by more than the bound (not a gain
                 claim: that needs paired runs, see README.md)

Exit code 1 when any row is a regression or unresolved.
"""
import json
import statistics
import sys


def load(directory, workload):
    with open(f"{directory}/{workload}.jsonl") as f:
        runs = [json.loads(line) for line in f if line.strip()]
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        sys.exit(f"{directory}/{workload}.jsonl holds {len(bad)} invalid runs")
    stolen = [r for r in runs if r["host"]["steal_share"] > 0.05]
    if stolen:
        print(f"# {directory}/{workload}.jsonl: the host took more than 5 % of the CPU "
              f"away during {len(stolen)} of {len(runs)} runs")
    return [r["result"] for r in runs]


def summary(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    spec_path, a_dir, b_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    print(f"{'workload':<13}{'metric':<13}{'A median':>12}{'A iqr':>8}"
          f"{'B median':>12}{'B iqr':>8}{'worse by':>10}{'bound':>7}  verdict")
    failed = False
    for w in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = load(a_dir, w), load(b_dir, w)
        for m in spec["end_to_end"]:
            a_med, a_iqr = summary(a_runs, m["name"])
            b_med, b_iqr = summary(b_runs, m["name"])
            worse = (b_med - a_med) / a_med
            if m["better"] == "higher":
                worse = -worse
            if max(a_iqr, b_iqr) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            failed |= verdict in ("regression", "unresolved")
            print(f"{w:<13}{m['name']:<13}{a_med:>12.4f}{a_iqr:>8.1%}"
                  f"{b_med:>12.4f}{b_iqr:>8.1%}{worse:>+10.1%}{m['bound']:>7.0%}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
