"""Run the bohrlab benchmark and print its metrics.

    python3 bench/run.py --workload campaign --seed 0 --seconds 50 --trace 0
    python3 bench/run.py                       # every workload, untraced

Each workload runs in fresh single-process interpreters with BLAS pinned to
one thread (bench/worker.py). The inputs are set up SETUP_RUNS times in all,
each in its own interpreter, and ``setup_s`` is the median. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it
is the full report, with the run environment. The exit code is 0 when every
output check passed, 3 when a check found a wrong output, and 2 when the
checks could not run, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 5
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150          # a workload process beyond this is killed and the run fails


class BenchError(Exception):
    """The benchmark could not produce a checked result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(run_dir: str, args, *, setup_only: bool, spans: str | None = None) -> dict:
    """Start one workload process, wait for it, and return its result with the spawn time."""
    os.makedirs(run_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=run_dir, env={**os.environ, **THREAD_ENV},
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
        try:
            code = proc.wait(timeout=SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        what = "timed out" if code is None else f"exited with code {code}"
        raise BenchError(f"{args.workload} worker {what}:\n{tail}")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def run_workload(args) -> dict:
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    spans = None
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        spans = os.path.join(WORK, "traces", f"{args.workload}.spans.jsonl.gz")
    try:
        setups = [spawn(os.path.join(work, f"setup{k}"), args, setup_only=True)["setup_s"]
                  for k in range(SETUP_RUNS - 1)]
        result = spawn(os.path.join(work, "run"), args, setup_only=False, spans=spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["spans_file"] = os.path.relpath(spans, ROOT) if spans else None
    return result


def report(args, result: dict) -> dict:
    """All metrics of one run, with units and sample counts."""
    attempted, failed = result["attempted"], result["failed"]
    known = {d["key"] for d in result["known_defects"]}
    unexpected_wrong = [w for w in result["wrong"] if w["key"] not in known]
    correct = failed == 0 and not result["check_failures"] and not unexpected_wrong
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": {"value": result["setup_s"], "unit": "s", "samples": len(result["setup_samples"])},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s", "samples": result["ops"]},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms", "samples": result["ops"]},
            "op_p95_ms": {"value": result["op_p95_ms"], "unit": "ms", "samples": result["ops"],
                          "beyond": result["beyond_p95"]},
            "failed_frac": {"value": failed / attempted, "unit": "ratio", "base": attempted},
            "wrong_verdicts": {"value": len(result["wrong"]), "unit": "count"},
            "inconclusive_frac": {"value": result["inconclusive"] / result["verdicts"] if result["verdicts"] else 0.0,
                                  "unit": "ratio", "base": result["verdicts"]},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        },
        "wrong": result["wrong"][:5],
        "known_defects": result["known_defects"],
        "failures": result["failures"] + result["check_failures"][:5],
        "digests_checked": result["digests_checked"],
        "repeats_checked": result["repeats_checked"],
        "cycle": result["cycle"],
        "env": result["env"],
    }
    if args.trace:
        out["layers"] = result["layers"]
        out["layer_bases"] = result["layer_bases"]
        out["absent"] = result["absent"]
        out["traced_ops_per_s"] = result["traced_ops_per_s"]
        out["spans"] = result["spans"]
        out["spans_file"] = result["spans_file"]
    return out


def result_line(spec: dict, rep: dict) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares for this mode."""
    if rep["trace"]:
        metrics = {m["name"]: {"value": rep["layers"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rep["metrics"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": rep["correct"], "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}


def print_table(rep: dict) -> None:
    print(f"# workload={rep['workload']} seed={rep['seed']} seconds={rep['seconds']} trace={rep['trace']} "
          f"correct={rep['correct']} attempted={rep['attempted']} failed={rep['failed']}")
    rows = dict(rep["metrics"])
    if rep["trace"]:
        rows.update({name: {"value": value, "unit": ""} for name, value in rep["layers"].items()})
    for name, m in rows.items():
        extra = "  ".join(f"{k}={m[k]}" for k in ("samples", "beyond", "base") if k in m)
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} {extra}")
    for line in rep["failures"]:
        print(f"  FAILED {line}")
    for defect in rep["known_defects"]:
        print(f"  KNOWN DEFECT {defect['key']}: expected {defect['expected']}, got {defect['got']}")


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so that spawn() still kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bohrlab", "__init__.py")):
        print(f"error: no bohrlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in selected:
            wl_args = argparse.Namespace(**{**vars(args), "workload": name})
            rep = report(wl_args, run_workload(wl_args))
            print_table(rep)
            print(json.dumps({"report": rep}), flush=True)
            reports.append(rep)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [result_line(spec, rep) for rep in reports]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{rep['workload']}.{k}": v for rep, line in zip(reports, lines)
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
