"""One workload process of the bohrlab benchmark.

run.py starts this script in a fresh interpreter, inside an empty run
directory, with BLAS pinned to one thread. It imports bohrlab from the
checkout's ``src/``, builds the workload's inputs, runs the closed loop for
``--seconds``, checks every output and writes ``result.json``. With
``--setup-only`` it stops once the inputs are ready; with ``--trace 1`` it
also runs one traced cycle of the op stream after the untraced loop.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FAILURE_SAMPLES = 5  # failure messages kept per run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="gzipped JSON-lines file for the traced spans")
    return ap.parse_args(argv)


def import_bohrlab():
    sys.path.insert(0, SRC)
    import bohrlab
    import bohrlab.checks
    import bohrlab.cli
    import bohrlab.fileio
    import bohrlab.functions
    import bohrlab.linalg

    if not os.path.abspath(bohrlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bohrlab was imported from {bohrlab.__file__}, not from {SRC}")
    return bohrlab


def blas_runtime() -> dict:
    """Thread count and build string reported by the OpenBLAS that numpy loaded."""
    out = {"blas_threads": None, "blas_config": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                out["blas_threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    out["blas_config"] = config().decode(errors="replace")
                return out
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }
    env.update(blas_runtime())
    return env


def p95(latencies: list) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = -(-95 * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    """Runs ops of one workload and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, i: int, tracer=None) -> float:
        op = self.workload.op(i)
        start = time.perf_counter()
        try:
            result = op.fn() if tracer is None else tracer.run_op(i, op.fn)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            result, error = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        failure = self.workload.observe(op, result, error)
        if failure is not None:
            self.failed += 1
            if len(self.failures) < FAILURE_SAMPLES:
                self.failures.append(failure)
        return elapsed


def throughput(latencies: list, failed: int) -> float:
    return (len(latencies) - failed) / sum(latencies)


def main(argv=None) -> int:
    args = parse_args(argv)
    bohrlab = import_bohrlab()
    import workloads

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    workload = workloads.WORKLOADS[args.workload](bohrlab, args.seed, expected)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        _write(result)
        return 0

    runner = Runner(workload)
    latencies = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        latencies.append(runner.run(len(latencies)))
    loop_failed = runner.failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail, beyond = p95(latencies)
    result.update({
        "ops": len(latencies),
        "ops_per_s": throughput(latencies, loop_failed),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": tail * 1e3,
        "beyond_p95": beyond,
        "peak_rss_mb": peak_rss_mb,
        "cycle": workload.cycle,
    })

    if args.trace:
        import layers

        tracer = layers.Tracer(bohrlab)
        tracer.install()
        try:
            traced = [runner.run(i, tracer) for i in range(workload.cycle)]
        finally:
            tracer.uninstall()
        traced_ops_per_s = throughput(traced, runner.failed - loop_failed)
        metrics = tracer.metrics()
        metrics["trace_overhead_frac"] = result["ops_per_s"] / traced_ops_per_s - 1.0
        metrics["trace.ops"] = len(traced)
        result.update({
            "layers": metrics,
            "layer_bases": tracer.bases(),
            "absent": tracer.absent(),
            "traced_ops_per_s": traced_ops_per_s,
            "spans": tracer.write_spans(args.spans) if args.spans else 0,
        })

    checks = workload.finish()
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "verdicts": sum(workload.verdicts.values()),
        "inconclusive": workload.verdicts["inconclusive"],
        "wrong": checks["wrong"],
        "known_defects": checks["known_defects"],
        "check_failures": checks["check_failures"],
        "digests_checked": workload.digests_checked,
        "repeats_checked": workload.repeats_checked,
        "env": environment(),
    })
    _write(result)
    return 0


def _write(result: dict) -> None:
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
