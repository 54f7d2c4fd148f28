"""Compare benchmark results from before and after a change.

    for s in 1 2 3 4 5 6 7 8 9 10; do python3 bench/run.py --workload all --seed $s >> before.out; done
    # ... apply the change, then the same loop into after.out
    python3 bench/compare.py before.out after.out

Each file holds the standard output of one or more runs; the report lines
are read and the rest is ignored. For every workload and end-to-end metric
the script prints both medians with their quartiles and the change as a
share of the before median, against the metric's bound in BENCHMARK.json.
A change beyond the bound is a regression; when the before runs spread
wider than the bound the metric is unresolved. Results whose environments
differ (Python, numpy, BLAS, thread settings, CPUs) are not compared: the
script names the fields that differ and exits with code 2.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads", "thread_env",
            "cpu_count", "cpus_usable", "machine")


def read_reports(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["report"] for line in fh if line.startswith('{"report"')]


def env_differences(reports: list) -> dict:
    """Fields of the environment that are not the same in every report."""
    diffs = {}
    for key in ENV_KEYS:
        values = {json.dumps(r["env"].get(key), sort_keys=True) for r in reports}
        if len(values) > 1:
            diffs[key] = sorted(values)
    return diffs


def summary(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    before, after = (read_reports(p) for p in argv)
    if not before or not after:
        print("error: no report lines in one of the files", file=sys.stderr)
        return 1
    diffs = env_differences(before + after)
    if diffs:
        print("refusing to compare: the runs were made in different environments", file=sys.stderr)
        for key, values in diffs.items():
            print(f"  {key}: {' vs '.join(values)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    regressions = 0
    print(f"{'workload':12s} {'metric':12s} {'before median [q1, q3]':>34s} {'after median [q1, q3]':>34s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in before if r["workload"] == workload and not r["trace"]]
        a_runs = [r for r in after if r["workload"] == workload and not r["trace"]]
        if not b_runs or not a_runs:
            continue
        for side, runs in (("before", b_runs), ("after", a_runs)):
            bad = sum(not r["correct"] for r in runs)
            if bad:
                print(f"{workload:12s} {bad} of the {side} runs had wrong outputs")
                regressions += side == "after"
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = summary([r["metrics"][name]["value"] for r in b_runs])
            a = summary([r["metrics"][name]["value"] for r in a_runs])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (a[1] - b[1]) / b[1]
            if (b[2] - b[0]) / b[1] > bound:
                verdict = "unresolved: before runs spread wider than the bound"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < 0:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:12s} {name:12s} {b[1]:14.6g} [{b[0]:8.4g}, {b[2]:8.4g}] "
                  f"{a[1]:14.6g} [{a[0]:8.4g}, {a[2]:8.4g}] {(a[1] - b[1]) / b[1]:+8.1%} {bound:6.2f}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
