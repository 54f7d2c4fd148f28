"""Record expected.json: the digest and exit code of every pool output.

    python3 bench/make_expected.py

Runs one cycle of each workload's op stream, which covers the whole input
pool, and writes the sha256 of every CLI artifact, campaign input file and
transfer-function verdict. Run it only for a deliberate change of outputs,
on its own; the benchmark treats any other difference as a failed op.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import worker  # noqa: E402  (BLAS threads must be pinned before numpy loads)


def main() -> int:
    bohrlab = worker.import_bohrlab()
    import workloads

    root = os.path.dirname(worker.HERE)
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        run_dir = os.path.join(root, ".bench_work", f"expected-{name}-{os.getpid()}")
        os.makedirs(run_dir)
        cwd = os.getcwd()
        os.chdir(run_dir)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                workload = cls(bohrlab, 0, None)
                runner = worker.Runner(workload)
                for i in range(workload.cycle):
                    runner.run(i)
                checks = workload.finish()
        finally:
            os.chdir(cwd)
            shutil.rmtree(run_dir, ignore_errors=True)
        if runner.failed:
            print(f"{name}: {runner.failed} ops failed: {runner.failures}", file=sys.stderr)
            return 1
        table[name] = dict(sorted(workload.recorded.items()))
        print(f"{name}: {len(workload.recorded)} digests, wrong verdicts {len(checks['wrong'])}, "
              f"known defects {len(checks['known_defects'])}")
    lines = []
    for name in sorted(table):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table[name].items())
        lines.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(os.path.join(worker.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
