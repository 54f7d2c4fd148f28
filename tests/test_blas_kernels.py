"""The byte and closed-form tests under another OpenBLAS kernel.

A batched product whose rounding depends on the kernel passes these tests on
one CPU and fails them on another. OPENBLAS_CORETYPE picks the kernel of a
DYNAMIC_ARCH OpenBLAS for the process that sets it, so a subprocess forced to
Haswell (the kernel an AVX2-only CPU gets) shows such a product on any x86-64
host. The three SERIES_SHA256 pins were recorded on the SkylakeX kernel and
still fail under Sandybridge, so that kernel is not run here.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    return "DYNAMIC_ARCH" in config and platform.machine() in ("x86_64", "AMD64")


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_byte_tests_pass_under_the_haswell_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    tests = [str(ROOT / "tests" / name) for name in ("test_functions.py", "test_checks.py")]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests, "-k", "bytes or closed_form"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
