"""Hypothesis gating of the CLI, pinned per file class.

Each table row names an instance file and the theorems (for ``verify``) or
proof steps (for ``proofcheck``) under which the command must refuse it
with exit code 1. Every other pairing must run and exit with something
other than 1. Search witnesses carry file class ``polynomial`` and verify
ungated under thm1.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from bohrlab.cli import main
from bohrlab.fileio import FunctionFile, canonical_dumps, save_function_file
from bohrlab.functions import Polynomial

EXIT_ERROR = 1
THEOREMS = ("thm1", "cor1", "cor2", "thm2", "bb2remark")
STEPS = ("eq5", "eq9", "eq10", "eq11", "eq12", "eq14", "eq1", "eq2", "bb2remark", "thm2final")
THM1_STEPS = {"eq5", "eq9", "eq10", "eq11", "eq12", "eq14"}
THM2_STEPS = {"eq1", "eq2", "thm2final"}

# file -> theorems under which `verify --r 0.4` exits 1
VERIFY_REFUSED = {
    "thm1": {"cor2", "thm2"},          # random A_0 is not scalar, not PSD
    "thm1_zero": set(),                # mobius_witness(0) meets every hypothesis
    "thm2": {"thm1", "cor1", "cor2", "bb2remark"},
    "transfer": {"cor2", "thm2"},
    "witness": {"cor2", "thm2"},       # search witness: thm1 runs ungated
    "poly_ok": set(),
}

# file -> proof steps under which `proofcheck --r 0.3` exits 1
PROOFCHECK_REFUSED = {
    "thm1": THM2_STEPS,                # class thm1 admits thm1 and norm steps
    "thm1_zero": THM2_STEPS,           # refused by class, not by hypotheses
    "thm2": THM1_STEPS | {"bb2remark"},
    "transfer": THM1_STEPS | THM2_STEPS,
    "witness": THM1_STEPS | THM2_STEPS,  # admitted, but the hypotheses fail
    "poly_ok": set(),
}

DEFAULT_STEPS = {
    "thm1": ["eq5", "eq9", "eq10", "eq11", "eq12", "eq14"],
    "thm2": ["eq1", "eq2", "thm2final"],
    "transfer": ["bb2remark"],
    "witness": ["bb2remark"],
}

R_STEPS = {"eq11", "eq12", "eq2", "thm2final", "bb2remark"}


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("gating")
    zero_cfg = root / "zero.json"
    zero_cfg.write_text(canonical_dumps({"class": "thm1", "count": 1, "pin_lambda": 0.0}))
    runs = (
        ["gen", "--class", "thm1", "--dim", "2", "--count", "1", "--seed", "0", "--out", str(root / "thm1")],
        ["gen", "--config", str(zero_cfg), "--out", str(root / "zero")],
        ["gen", "--class", "thm2", "--dim", "2", "--count", "1", "--seed", "3", "--out", str(root / "thm2")],
        ["gen", "--class", "transfer", "--dim", "2", "--count", "1", "--seed", "4", "--out", str(root / "tr")],
    )
    for argv in runs:
        assert _quiet(argv) == 0
    assert _quiet(["search", "--relax", "drop-commutation", "--dim", "2", "--seed", "1",
                   "--budget", "10", "--out", str(root / "search")]) == 4
    poly_ok = root / "poly_ok.json"
    save_function_file(poly_ok, FunctionFile(Polynomial([0.2 * np.eye(2), 0.5 * np.eye(2)]), "polynomial"))
    return {
        "thm1": str(root / "thm1" / "thm1_0000.json"),
        "thm1_zero": str(root / "zero" / "thm1_0000.json"),
        "thm2": str(root / "thm2" / "thm2_0000.json"),
        "transfer": str(root / "tr" / "transfer_0000.json"),
        "witness": str(root / "search" / "witness_drop-commutation_d2_s1.json"),
        "poly_ok": str(poly_ok),
        "root": root,
    }


def test_witness_files_carry_class_polynomial(files):
    assert json.loads(Path(files["witness"]).read_text())["class"] == "polynomial"


@pytest.mark.parametrize("name", sorted(VERIFY_REFUSED))
def test_verify_gates_each_class_theorem_pair(files, name):
    refused = {t for t in THEOREMS if _quiet(["verify", files[name], "--theorem", t, "--r", "0.4"]) == EXIT_ERROR}
    assert refused == VERIFY_REFUSED[name]


@pytest.mark.parametrize("name", sorted(PROOFCHECK_REFUSED))
def test_proofcheck_gates_each_class_step_pair(files, name):
    refused = {s for s in STEPS if _quiet(["proofcheck", files[name], "--steps", s, "--r", "0.3"]) == EXIT_ERROR}
    assert refused == PROOFCHECK_REFUSED[name]


@pytest.mark.parametrize("name", sorted(DEFAULT_STEPS))
def test_proofcheck_default_steps_per_class(files, name, tmp_path):
    out = tmp_path / "p.json"
    assert _quiet(["proofcheck", files[name], "--r", "0.3", "--out", str(out)]) != EXIT_ERROR
    rec = json.loads(out.read_text())
    assert rec["skipped"] == 0
    assert [e["step"] for e in rec["verdicts"]] == DEFAULT_STEPS[name]


@pytest.mark.parametrize("step", STEPS)
def test_steps_that_take_r(files, step, tmp_path):
    name = "thm2" if step in THM2_STEPS else "poly_ok"
    out = tmp_path / "p.json"
    argv = ["proofcheck", files[name], "--steps", step, "--r", "0.1", "--r", "0.15", "--out", str(out)]
    assert _quiet(argv) != EXIT_ERROR
    rec = json.loads(out.read_text())
    assert rec["skipped"] == 0
    assert len(rec["verdicts"]) == (2 if step in R_STEPS else 1)
