"""End-to-end command behavior: exit codes, file bytes, record shapes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bohrlab import Status, check_bohr, load_function_file
from bohrlab.checks import MAX_N, require_hypotheses, thm1_admissible_radius
from bohrlab.cli import _config_hash, build_parser, effective_config, main
from bohrlab.errors import HypothesisViolated
from bohrlab.fileio import FunctionFile, canonical_dumps, save_function_file
from bohrlab.functions import HalfPlaneLift, Polynomial, hypothesis_check

EXIT_OK, EXIT_ERROR, EXIT_VIOLATED, EXIT_INCONCLUSIVE, EXIT_WITNESS = 0, 1, 2, 3, 4
REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_config(path, payload):
    path.write_text(canonical_dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """One directory of instance files reused by every test in the module."""
    root = tmp_path_factory.mktemp("clifiles")

    cfg75 = _write_config(root / "pin75.json", {"class": "thm1", "count": 1, "pin_lambda": 0.75})
    d75 = root / "pin75"
    assert main(["gen", "--config", cfg75, "--out", str(d75)]) == EXIT_OK

    cfg0 = _write_config(root / "pin0.json", {"class": "thm1", "count": 1, "pin_lambda": 0.0})
    d0 = root / "pin0"
    assert main(["gen", "--config", cfg0, "--out", str(d0)]) == EXIT_OK

    drand = root / "rand"
    assert main(["gen", "--class", "thm1", "--dim", "2", "--dim", "3",
                 "--count", "2", "--seed", "0", "--out", str(drand)]) == EXIT_OK

    dthm2 = root / "thm2"
    assert main(["gen", "--class", "thm2", "--dim", "2", "--count", "1",
                 "--seed", "3", "--out", str(dthm2)]) == EXIT_OK

    dtr = root / "transfer"
    assert main(["gen", "--class", "transfer", "--dim", "2", "--count", "1",
                 "--seed", "4", "--out", str(dtr)]) == EXIT_OK

    zi = root / "z_times_identity.json"
    save_function_file(zi, FunctionFile(Polynomial([np.zeros((2, 2)), np.eye(2)]), "polynomial"))

    return {
        "pin75": str(d75 / "thm1_0000.json"),
        "pin0": str(d0 / "thm1_0000.json"),
        "rand1": str(drand / "thm1_0000.json"),
        "rand2": str(drand / "thm1_0001.json"),
        "thm2": str(dthm2 / "thm2_0000.json"),
        "transfer": str(dtr / "transfer_0000.json"),
        "zi": str(zi),
        "root": root,
    }


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["gen", "--class", "thm1", "--dim", "3", "--count", "2",
                     "--seed", "11", "--out", str(d)]) == EXIT_OK
    out = capsys.readouterr().out
    assert str(a / "thm1_0000.json") in out
    for name in ("thm1_0000.json", "thm1_0001.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_embeds_hypothesis_reports(cli_files):
    ff = json.loads(Path(cli_files["rand1"]).read_text())
    assert ff["hypothesis"]["passed"] is True
    tr = json.loads(Path(cli_files["transfer"]).read_text())
    assert tr["hypothesis"] is None


def test_gen_rejects_unknown_class():
    assert main(["gen", "--class", "polynomial"]) == EXIT_ERROR


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exit_code_matrix(cli_files):
    pin = cli_files["pin75"]
    assert main(["verify", pin, "--r", "0.4"]) == EXIT_OK
    assert main(["verify", pin, "--r", "0.45"]) == EXIT_VIOLATED
    assert main(["verify", pin, "--r", "0.45", "--r", "0.4"]) == EXIT_VIOLATED
    assert main(["verify", pin]) == EXIT_OK
    assert main(["verify", pin, "--theorem", "cor1"]) == EXIT_OK
    assert main(["verify", pin, "--theorem", "cor2", "--r", "0.5"]) == EXIT_OK
    assert main(["verify", pin, "--theorem", "bb2remark"]) == EXIT_OK
    assert main(["verify", cli_files["pin0"], "--r", "0.999"]) == EXIT_INCONCLUSIVE
    assert main(["verify", cli_files["thm2"], "--theorem", "thm2"]) == EXIT_OK


def test_verify_violation_record_matches_the_closed_form(cli_files, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", cli_files["pin75"], "--r", "0.45",
                 "--out", str(out)]) == EXIT_VIOLATED
    rec = json.loads(out.read_text())
    assert rec["summary"] == {"holds": 0, "violated": 1, "inconclusive": 0}
    entry = rec["verdicts"][0]
    target = 0.75 + (1 - 0.75**2) * 0.45 / (1 - 0.75 * 0.45) - 1.0
    assert abs(entry["lhs_extreme"] - target) <= 1e-9
    assert entry["witness"] is not None
    assert rec["theorem"] == "thm1"
    assert rec["config_hash"] and rec["tool_version"]


def test_verify_counts_sum_to_instances_times_radii(cli_files, tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", cli_files["rand1"], cli_files["rand2"],
                 "--theorem", "cor1", "--r", "0.1", "--r", "0.2", "--r", "0.3",
                 "--out", str(out)])
    assert code == EXIT_OK
    rec = json.loads(out.read_text())
    assert len(rec["verdicts"]) == 6
    assert sum(rec["summary"].values()) == 6


def test_verify_thm2_entries_carry_all_three_parts(cli_files, tmp_path):
    out = tmp_path / "t.json"
    assert main(["verify", cli_files["thm2"], "--theorem", "thm2",
                 "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    parts = rec["verdicts"][0]["parts"]
    assert [p["step"] for p in parts] == [None, "eq2", "thm2final"]
    assert all(p["status"] == "holds" for p in parts)


def test_verify_rejects_halfplane_under_norm_theorems(cli_files, capsys):
    assert main(["verify", cli_files["thm2"], "--theorem", "thm1"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_verify_thm1_asks_for_a_radius_where_a0_gives_no_guarantee(cli_files, capsys):
    # the transfer file passes the norm gate, but its A_0 = D is not normal
    assert main(["verify", cli_files["transfer"]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "A_0 must be normal" in err and "pass --r" in err
    assert main(["verify", cli_files["transfer"], "--r", "0.3"]) == EXIT_OK


def test_verify_reruns_are_byte_identical(cli_files, tmp_path):
    out = tmp_path / "same.json"
    argv = ["verify", cli_files["pin75"], "--r", "0.4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# proofcheck
# ---------------------------------------------------------------------------

def test_proofcheck_runs_the_default_chain(cli_files, tmp_path):
    out = tmp_path / "p.json"
    assert main(["proofcheck", cli_files["rand1"], "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["summary"]["violated"] == 0
    assert len(rec["verdicts"]) + rec["skipped"] == 6


def test_proofcheck_rejects_cross_class_steps(cli_files, capsys):
    assert main(["proofcheck", cli_files["rand1"], "--steps", "eq1"]) == EXIT_ERROR
    assert "eq1" in capsys.readouterr().err
    assert main(["proofcheck", cli_files["thm2"], "--steps", "eq1"]) == EXIT_OK


def test_halfplane_outside_the_real_part_bound_is_refused(tmp_path, capsys):
    # 2t(1 - Re beta) = 0.2 > 1 - |beta|^2 = 0.19, so Re f exceeds I; at
    # beta = 1 - 1e-6 it exceeds I by 2.5e-7, 25 times the hypothesis tolerance
    for i, beta in enumerate((0.9, 1.0 - 1e-6)):
        path = tmp_path / f"bad_thm2_{i}.json"
        save_function_file(path, FunctionFile(HalfPlaneLift(np.eye(1), [0.5], 1.0, beta), "thm2"))
        assert main(["proofcheck", str(path)]) == EXIT_ERROR
        assert main(["proofcheck", str(path), "--steps", "eq2"]) == EXIT_ERROR
        assert main(["verify", str(path), "--theorem", "thm2"]) == EXIT_ERROR
        assert "thm2 hypotheses fail: grid_re_excess" in capsys.readouterr().err


def test_proofcheck_skips_inapplicable_eq11_radii(cli_files, tmp_path):
    out = tmp_path / "s.json"
    assert main(["proofcheck", cli_files["pin75"], "--steps", "eq11",
                 "--r", "0.9", "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["skipped"] == 1 and rec["verdicts"] == []
    assert main(["proofcheck", cli_files["pin75"], "--steps", "eq11",
                 "--r", "0.4", "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["skipped"] == 0 and len(rec["verdicts"]) == 1


def test_eq11_gates_the_function_before_its_radius_test(tmp_path, capsys):
    # the witness is outside thm1; at r = 0.99 eq11 is inapplicable too, and
    # that used to be tested first and counted as a skip (exit 0)
    argv = ["search", "--relax", "drop-commutation", "--dim", "2", "--seed", "1", "--budget", "10"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_WITNESS
    witness = str(tmp_path / "witness_drop-commutation_d2_s1.json")
    for r in ("0.3", "0.99"):
        assert main(["proofcheck", witness, "--steps", "eq11", "--r", r]) == EXIT_ERROR
        assert "thm1 hypotheses fail: max_commutator" in capsys.readouterr().err


def test_thm1_commands_gate_a_polynomial_on_every_coefficient(tmp_path, capsys):
    # A_40 does not commute with A_0; the gate used to check only A_1 .. A_32
    coeffs = [np.diag([0.1, 0.2]), *[np.zeros((2, 2))] * 39, [[0, 0.1], [0.1, 0]]]
    path = tmp_path / "a40.json"
    save_function_file(path, FunctionFile(Polynomial(coeffs), "polynomial"))
    for argv in (["radius", str(path)], ["proofcheck", str(path), "--steps", "eq14"]):
        assert main(argv) == EXIT_ERROR
        assert "thm1 hypotheses fail: max_commutator" in capsys.readouterr().err


def test_thm1_commands_gate_a_polynomial_on_its_sup_norm(tmp_path, capsys):
    # f = 0.6 (1 - z^32) I has norm 1.2 at z = -1, but z^32 is one constant on
    # 32 points of a ring, so a fixed 32-point grid read 0.019 and admitted it
    f = Polynomial([0.6 * np.eye(2), *[np.zeros((2, 2))] * 31, -0.6 * np.eye(2)])
    with pytest.raises(HypothesisViolated, match="thm1 hypotheses fail: grid_norm_max"):
        require_hypotheses(f, "thm1")
    path = tmp_path / "alias32.json"
    save_function_file(path, FunctionFile(f, "polynomial"))
    for argv in (["radius", str(path)], ["proofcheck", str(path), "--steps", "eq12"]):
        assert main(argv) == EXIT_ERROR
        assert "thm1 hypotheses fail: grid_norm_max" in capsys.readouterr().err
    # verify runs a polynomial file ungated by design
    assert main(["verify", str(path), "--r", "0.4"]) != EXIT_ERROR


def test_thm2_commands_gate_a_polynomial_on_its_real_part(tmp_path, capsys):
    # Re f = 0.6 (1 - Re z^32) I reaches 1.2 I on the unit circle, but the
    # fixed 32-point grid read lambda_max(Re f) - 1 = -0.98 and admitted it
    f = Polynomial([0.6 * np.eye(2), *[np.zeros((2, 2))] * 31, -0.6 * np.eye(2)])
    assert abs(hypothesis_check(f, "thm2").grid_re_excess - 0.2) <= 1e-12
    with pytest.raises(HypothesisViolated, match="thm2 hypotheses fail: grid_re_excess$"):
        require_hypotheses(f, "thm2")
    path = tmp_path / "alias32.json"
    save_function_file(path, FunctionFile(f, "polynomial"))
    assert main(["proofcheck", str(path), "--steps", "eq2"]) == EXIT_ERROR
    assert "thm2 hypotheses fail: grid_re_excess" in capsys.readouterr().err
    # f = z I has Re f <= I on the closed disk, with equality at z = 1
    zi = Polynomial([np.zeros((2, 2)), np.eye(2)])
    assert abs(hypothesis_check(zi, "thm2").grid_re_excess) <= 1e-15
    require_hypotheses(zi, "thm2")


def test_thm2_gate_reads_a_polynomial_s_normality_inside_the_disk():
    # f f* - f* f = 0.25 (|z|^2 - |z|^4) diag(1, -1): f is normal on |z| = 1
    # only, though A_0 is scalar and ||f|| <= 0.8
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = Polynomial([0.3 * np.eye(2), 0.5 * E12, 0.5 * E12.T])
    assert hypothesis_check(f, "thm2").grid_normality_defect > 1e-4
    with pytest.raises(HypothesisViolated, match="thm2 hypotheses fail: grid_normality_defect$"):
        require_hypotheses(f, "thm2")


def test_proofcheck_transfer_uses_the_norm_step(cli_files, tmp_path):
    out = tmp_path / "n.json"
    assert main(["proofcheck", cli_files["transfer"], "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert [e["step"] for e in rec["verdicts"]] == ["bb2remark"]


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def test_radius_reports_branch_and_margin(cli_files, tmp_path):
    out = tmp_path / "r.json"
    assert main(["radius", cli_files["pin75"], "--out", str(out)]) == EXIT_OK
    entry = json.loads(out.read_text())["verdicts"][0]
    assert abs(entry["guaranteed_radius"] - 0.4) <= 1e-12
    assert abs(entry["empirical_radius"] - 0.4) <= 1e-5
    assert entry["branch"] == "invertible"
    assert entry["capped"] is False
    assert entry["status"] == "holds"


def test_radius_caps_on_exact_polynomials(cli_files, tmp_path):
    out = tmp_path / "rz.json"
    assert main(["radius", cli_files["zi"], "--out", str(out)]) == EXIT_OK
    entry = json.loads(out.read_text())["verdicts"][0]
    assert abs(entry["guaranteed_radius"] - np.sqrt(0.5)) <= 1e-12
    assert entry["capped"] is True
    assert entry["branch"] == "sqrt"


def test_radius_guards(cli_files):
    assert main(["radius", cli_files["thm2"]]) == EXIT_ERROR
    assert main(["radius", cli_files["pin75"], "--tol", "1e-7"]) == EXIT_ERROR
    assert main(["radius", cli_files["pin75"], "--tol", "nan"]) == EXIT_ERROR


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------

def test_sharpness_grid_all_confirmed(capsys):
    assert main(["sharpness", "0.5:0.95:10"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lam,guaranteed,empirical,excess_at_delta,confirmed"
    assert len(lines) == 11
    assert all(line.endswith(",true") for line in lines[1:])


def test_sharpness_requires_a_grid():
    assert main(["sharpness"]) == EXIT_ERROR


def test_the_guarantee_reads_normality_at_the_thm1_gate_tolerance(tmp_path):
    # normal_defect(A_0) = 8.4e-10: within the gate's HYPOTHESIS_TOL = 1e-8, so every thm1
    # command takes it, the guaranteed radius too (is_normal's 1e-10 once refused it there alone)
    f = Polynomial([np.array([[0.5, 4e-9], [0.0, 0.3]]), 0.2 * np.eye(2)])
    require_hypotheses(f, "thm1")
    assert thm1_admissible_radius(f).value > 0.5
    path = str(tmp_path / "near_normal.json")
    save_function_file(path, FunctionFile(f, "polynomial"))
    for argv in (["proofcheck", path, "--steps", "eq11,eq12"], ["radius", path],
                 ["verify", path, "--theorem", "thm1"]):
        assert main([*argv, "--out", str(tmp_path / f"{argv[0]}.json")]) == EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_writes_a_reverifiable_witness(cli_files, tmp_path, capsys):
    out = tmp_path / "s1"
    code = main(["search", "--relax", "drop-commutation", "--dim", "2",
                 "--seed", "1", "--budget", "10", "--out", str(out)])
    assert code == EXIT_WITNESS
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("witness_drop-commutation_d2_s1.json")
    ff = load_function_file(printed)
    assert ff.klass == "polynomial"
    summary = json.loads((out / "search_drop-commutation_d2_s1.json").read_text())
    radius = summary["search"]["witness"]["radius"]
    assert check_bohr(ff.function, radius).status is Status.VIOLATED

    # a second run elsewhere reproduces the witness byte for byte
    out2 = tmp_path / "s2"
    assert main(["search", "--relax", "drop-commutation", "--dim", "2",
                 "--seed", "1", "--budget", "10", "--out", str(out2)]) == EXIT_WITNESS
    a = (out / "witness_drop-commutation_d2_s1.json").read_bytes()
    b = (out2 / "witness_drop-commutation_d2_s1.json").read_bytes()
    assert a == b


def test_search_none_is_exit_zero(tmp_path, capsys):
    out = tmp_path / "none"
    code = main(["search", "--relax", "weak-norm-bound", "--dim", "2",
                 "--seed", "0", "--budget", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip().splitlines()[-1] == "none"
    summary = json.loads((out / "search_weak-norm-bound_d2_s0.json").read_text())
    assert summary["witness_path"] is None
    assert summary["search"]["trials"] == 5


def test_search_takes_one_dim(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["search", "--relax", "weak-norm-bound", "--dim", "1", "--dim", "3", "--budget", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert "error: search takes one dim" in capsys.readouterr().err
    assert not out.exists()


def test_search_requires_a_relaxation(capsys):
    assert main(["search", "--dim", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: search needs --relax (drop-commutation | drop-normality | weak-norm-bound)\n" in err


@pytest.mark.parametrize("relax", ["drop-commutation", "drop-normality"])
def test_search_refuses_dimension_one_for_structure_relaxations(relax, tmp_path, capsys):
    out = tmp_path / "d1"
    code = main(["search", "--relax", relax, "--dim", "1", "--budget", "3", "--out", str(out)])
    assert code == EXIT_ERROR
    assert f"error: {relax} needs dim >= 2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@pytest.fixture()
def campaign(cli_files, tmp_path):
    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    assert main(["verify", cli_files["rand1"], cli_files["rand2"],
                 "--theorem", "cor1", "--out", str(v1)]) == EXIT_OK
    assert main(["verify", cli_files["pin75"], "--r", "0.45",
                 "--out", str(v2)]) == EXIT_VIOLATED
    return v1, v2


def test_report_md_counts_add_and_are_stable(campaign, tmp_path):
    v1, v2 = campaign
    out = tmp_path / "report.md"
    argv = ["report", str(v1), str(v2), "--out", str(out)]
    assert main(argv) == EXIT_OK
    text = out.read_text()
    assert "| 2 | 1 | 0 |" in text
    assert "## reproduce" in text
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first


def test_report_csv_and_json(campaign, tmp_path, capsys):
    v1, v2 = campaign
    assert main(["report", str(v1), str(v2), "--format", "csv"]) == EXIT_OK
    csv_text = capsys.readouterr().out
    lines = csv_text.strip().splitlines()
    assert lines[0] == "instance_id,class,dim,r,status,margin"
    assert len(lines) == 4

    out = tmp_path / "r.json"
    assert main(["report", str(v1), str(v2), "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["summary"] == {"holds": 2, "violated": 1, "inconclusive": 0}
    assert len(rec["reproduce"]) == 2
    assert len(rec["histogram"]["counts"]) == 10


def test_report_rejects_non_records(cli_files, capsys):
    assert main(["report", cli_files["pin75"]]) == EXIT_ERROR
    assert "not a run record" in capsys.readouterr().err


_ROW = {"instance_id": "a.json", "class": "thm1", "dim": 1, "r": 0.4, "status": "holds",
        "lhs_extreme": -0.1}

# run records report cannot read: each is (format, record)
MALFORMED_RECORDS = {
    "verdicts is a number": ("md", {"verdicts": 5, "summary": {}}),
    "summary is a list": ("md", {"verdicts": [], "summary": []}),
    "top level is a list": ("md", ["verdicts", "summary"]),
    "row is not an object": ("md", {"verdicts": [5], "summary": {}}),
    "summary count is null": ("md", {"verdicts": [], "summary": {"holds": None}}),
    "lhs_extreme is null": ("md", {"verdicts": [{**_ROW, "lhs_extreme": None}], "summary": {}}),
    "r is null": ("csv", {"verdicts": [{**_ROW, "r": None}], "summary": {}}),
    "dim is null": ("csv", {"verdicts": [{**_ROW, "dim": None}], "summary": {}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_records_exit_one(case, tmp_path, capsys):
    fmt, record = MALFORMED_RECORDS[case]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["report", str(path), "--format", fmt]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_the_malformed_record_template_is_valid(fmt, tmp_path):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"verdicts": [_ROW], "summary": {"holds": 1}}), encoding="utf-8")
    assert main(["report", str(path), "--format", fmt]) == EXIT_OK


def test_report_requires_input_files():
    assert main(["report"]) == EXIT_ERROR


def test_report_refuses_an_unknown_format_from_the_config(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"verdicts": [_ROW], "summary": {"holds": 1}}), encoding="utf-8")
    cfg = _write_config(tmp_path / "c.json", {"format": "xml"})
    assert main(["report", str(path), "--config", cfg]) == EXIT_ERROR
    assert "format must be" in capsys.readouterr().err


def test_report_of_a_record_with_no_verdicts_has_an_empty_histogram(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"verdicts": [], "summary": {}}), encoding="utf-8")
    assert main(["report", str(path), "--format", "json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body["histogram"] == {"edges": [], "counts": []}
    assert body["summary"] == {"holds": 0, "violated": 0, "inconclusive": 0}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_aliases_match_flags(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        {"class": "thm1", "count": 1, "seeds": 5, "dims": [2]})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--class", "thm1", "--dim", "2", "--count", "1",
                 "--seed", "5", "--out", str(b)]) == EXIT_OK
    assert (a / "thm1_0000.json").read_bytes() == (b / "thm1_0000.json").read_bytes()


def test_flags_override_the_config_file(cli_files, tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"radii": [0.45]})
    assert main(["verify", cli_files["pin75"], "--config", cfg]) == EXIT_VIOLATED
    assert main(["verify", cli_files["pin75"], "--config", cfg,
                 "--r", "0.4"]) == EXIT_OK


def test_unknown_config_keys_fail_fast(cli_files, tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", {"radius": 0.4})
    assert main(["verify", cli_files["pin75"], "--config", cfg]) == EXIT_ERROR
    assert "unknown config key" in capsys.readouterr().err


def test_env_seed_is_the_last_resort(tmp_path, monkeypatch):
    monkeypatch.setenv("BOHRLAB_SEED", "9")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--class", "thm1", "--dim", "2", "--count", "1",
                 "--out", str(a)]) == EXIT_OK
    monkeypatch.delenv("BOHRLAB_SEED")
    assert main(["gen", "--class", "thm1", "--dim", "2", "--count", "1",
                 "--seed", "9", "--out", str(b)]) == EXIT_OK
    assert (a / "thm1_0000.json").read_bytes() == (b / "thm1_0000.json").read_bytes()


@pytest.mark.parametrize("env", ["abc", "1.5", "0x10"])
def test_a_non_integer_env_seed_exits_one(env, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BOHRLAB_SEED", env)
    assert main(["gen", "--count", "1", "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: BOHRLAB_SEED must be an integer, not {env!r}\n")
    assert not (tmp_path / "out").exists()


def test_bad_invocations_exit_one(cli_files):
    assert main([]) == EXIT_ERROR
    assert main(["bogus"]) == EXIT_ERROR
    assert main(["verify", cli_files["pin75"], "--r", "1.5"]) == EXIT_ERROR
    assert main(["verify", "/no/such/file.json", "--r", "0.4"]) == EXIT_ERROR
    assert main(["gen", "--count", "0"]) == EXIT_ERROR


# config values a command cannot take: each is (command, config); the value
# is rejected where the config file is read
MALFORMED_CONFIGS = {
    "dims is a number": ("gen", {"dims": 4}),
    "dims is empty": ("gen", {"dims": []}),
    "count is null": ("gen", {"count": None}),
    "count is Infinity": ("gen", {"count": float("inf")}),
    "seed is a list": ("gen", {"seed": [1]}),
    "output_dir is a number": ("gen", {"output_dir": 5}),
    "radii is a number": ("verify", {"radii": 0.4}),
    "tol is a list": ("verify", {"tol": [1e-9]}),
    "k is a list": ("proofcheck", {"k": [1]}),
    "steps is a number": ("proofcheck", {"steps": 5}),
    "grid is a number": ("sharpness", {"grid": 5}),
    "delta is null": ("sharpness", {"grid": "0.75", "delta": None}),
    "search dims is empty": ("search", {"relax": "drop-commutation", "dims": []}),
    "coeffs k above MAX_N": ("coeffs", {"k": MAX_N + 1}),
    "proofcheck k above MAX_N": ("proofcheck", {"k": MAX_N + 1}),
    "samples above MAX_N": ("proofcheck", {"samples": MAX_N + 1}),
    "steps is empty": ("proofcheck", {"steps": ","}),
    "radii is empty": ("verify", {"radii": []}),
    "grid is empty": ("sharpness", {"grid": ","}),
    # 10**15 points need 7.1 PiB, beyond the address space of a process, so
    # the request fails before anything is allocated
    "grid beyond memory": ("sharpness", {"grid": "0.5:0.9:1000000000000000"}),
    "gen class cor2": ("gen", {"class": "cor2"}),
    "config is a list": ("gen", ["class", "thm1"]),
    "count is zero": ("gen", {"count": 0}),
    "grid spec has two fields": ("sharpness", {"grid": "0.5:0.9"}),
    "grid count is zero": ("sharpness", {"grid": "0.5:0.9:0"}),
    # a value of the wrong JSON type is refused, never truncated or coerced
    "count is a fraction": ("gen", {"count": 2.7}),
    "k is a fraction": ("coeffs", {"k": 6.9}),
    "dims entry is a fraction": ("gen", {"dims": [2.5]}),
    "count is true": ("gen", {"count": True}),
    "seed is a string": ("gen", {"seed": "5"}),
    "tol is a string": ("verify", {"tol": "1e-9"}),
    "radii entry is a string": ("verify", {"radii": ["0.3"]}),
    "samples is true": ("proofcheck", {"samples": True}),
    "budget is a fraction": ("verify", {"budget": 2.5}),
    "pin_degree is a fraction": ("verify", {"pin_degree": 1.5}),
    "state_dim is true": ("verify", {"state_dim": True}),
    "delta is a string": ("verify", {"delta": "0.002"}),
    "pin_lambda is true": ("verify", {"pin_lambda": True}),
    "grid entry is a string": ("verify", {"grid": ["0.5"]}),
    # every key is checked, whichever subcommand runs
    "verify format xml": ("verify", {"format": "xml"}),
    "verify class nope": ("verify", {"class": "nope"}),
    "verify relax nope": ("verify", {"relax": "nope"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_configs_exit_one(case, cli_files, tmp_path, capsys):
    command, payload = MALFORMED_CONFIGS[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    files = [cli_files["pin75"]] if command in ("verify", "proofcheck", "coeffs") else []
    argv = [command, *files, "--config", str(cfg)]
    if command in ("gen", "search") and "output_dir" not in payload:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_a_grid_beyond_memory_names_grid(tmp_path, capsys):
    # numpy refuses the 7.1 PiB grid without allocating it; the error names the key, not numpy's request
    command, payload = MALFORMED_CONFIGS["grid beyond memory"]
    cfg = _write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: grid must be start:stop:count (count >= 1), a comma list or a list of numbers, "
                          f"not {payload['grid']!r}\n")


_GOOD = {
    "class": "thm1", "kind": "polynomial", "dim": 1, "seed": None, "hypothesis": None,
    "data": {"coeffs": [{"dim": 1, "entries": [[0.5, 0.0]]}]},
}


def _coeff(**matrix):
    return {**_GOOD, "data": {"coeffs": [{"dim": 1, "entries": [[0.5, 0.0]], **matrix}]}}


def _mobius(lam, degree=1):
    data = {"basis": {"dim": 1, "entries": [[1.0, 0.0]]}, "lambdas": [[lam, 0.0]],
            "phases": [[1.0, 0.0]], "degrees": [degree]}
    return {**_GOOD, "kind": "mobius", "data": data}


def _halfplane(d):
    data = {"basis": {"dim": 1, "entries": [[1.0, 0.0]]}, "diag": [d], "t": 0.25,
            "beta": [0.0, 0.0]}
    return {**_GOOD, "class": "thm2", "kind": "halfplane", "data": data}


# the unitary colligation [[A, B], [C, D]] = [[0.6, 0.8], [-0.8, 0.6]]: f(z) = (0.6 - z) / (1 - 0.6 z)
_TRANSFER = {
    **_GOOD, "class": "transfer", "kind": "transfer",
    "data": {"colligation": {"dim": 2, "entries": [[0.6, 0.0], [0.8, 0.0], [-0.8, 0.0], [0.6, 0.0]]},
             "state_dim": 1},
}


MALFORMED_FILES = {
    "top level is a list": [],
    "data is a list": {**_GOOD, "data": []},
    "coeffs is a number": {**_GOOD, "data": {"coeffs": 5}},
    "matrix is a list": {**_GOOD, "data": {"coeffs": [[0.5]]}},
    "entries not numeric": _coeff(entries=[["x", 0.0]]),
    "entry is null": _coeff(entries=[[None, 0.0]]),
    "entry not a pair": _coeff(entries=[0.5]),
    "dim not an integer": {**_GOOD, "dim": "one"},
    "dim is null": {**_GOOD, "dim": None},
    "kind is a list": {**_GOOD, "kind": ["polynomial"]},
    "missing top-level key": {k: v for k, v in _GOOD.items() if k != "kind"},
    # json.dumps writes these as NaN / Infinity and json.loads reads them back
    "polynomial entry NaN": _coeff(entries=[[float("nan"), 0.0]]),
    "polynomial entry Infinity": _coeff(entries=[[float("inf"), 0.0]]),
    "mobius lambda NaN": _mobius(float("nan")),
    "mobius lambda Infinity": _mobius(float("inf")),
    "mobius degree above int64": _mobius(0.5, 10**30),
    "halfplane diag NaN": _halfplane(float("nan")),
    "halfplane diag Infinity": _halfplane(float("inf")),
    # a value of the wrong JSON type is refused: a boolean is no number
    "allow_boundary is a string": {**_mobius(0.5), "data": {**_mobius(0.5)["data"],
                                                            "allow_boundary": "false"}},
    "allow_boundary is zero": {**_mobius(0.5), "data": {**_mobius(0.5)["data"],
                                                        "allow_boundary": 0}},
    "halfplane t is true": {**_halfplane(0.5), "data": {**_halfplane(0.5)["data"], "t": True}},
    "mobius degree is true": _mobius(0.5, True),
    "transfer state_dim is true": {**_TRANSFER, "data": {**_TRANSFER["data"], "state_dim": True}},
    "matrix dim is true": _coeff(dim=True),
    "file dim is true": {**_GOOD, "dim": True},
    "entry is true": _coeff(entries=[[True, 0.0]]),
}


def _verify(payload, tmp_path) -> int:
    """verify one instance file under the theorem its kind admits."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    halfplane = isinstance(payload, dict) and payload.get("kind") == "halfplane"
    return main(["verify", str(path), "--theorem", "thm2" if halfplane else "thm1", "--r", "0.4"])


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_instance_files_exit_one(case, tmp_path, capsys):
    assert _verify(MALFORMED_FILES[case], tmp_path) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", [case for case in sorted(MALFORMED_FILES)
                                  if case.endswith(("is true", "is a string", "is zero"))])
def test_a_value_of_the_wrong_json_type_does_not_load(case, tmp_path):
    """Refused as the file is read, not by a later gate: a boolean is no number."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(MALFORMED_FILES[case]), encoding="utf-8")
    with pytest.raises(ValueError):
        load_function_file(path)


def test_the_malformed_file_template_is_valid(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_GOOD), encoding="utf-8")
    assert main(["verify", str(path), "--r", "0.4"]) == EXIT_OK


@pytest.mark.parametrize("good", [_mobius(0.5), _halfplane(0.5)], ids=["mobius", "halfplane"])
def test_the_structured_file_templates_are_valid(good, tmp_path):
    assert _verify(good, tmp_path) == EXIT_OK


def test_the_transfer_file_template_is_valid(tmp_path):
    # passes before the exact-type checks too: it shows the state_dim row fails on its type alone
    assert _verify(_TRANSFER, tmp_path) == EXIT_OK


@pytest.mark.parametrize("allow_boundary", [None, False, True], ids=["absent", "false", "true"])
def test_allow_boundary_is_a_boolean_or_absent(allow_boundary, tmp_path):
    # passes before the exact-type checks too: only a true flag admits the boundary lambda = 1
    payload = _mobius(1.0)
    if allow_boundary is not None:
        payload["data"]["allow_boundary"] = allow_boundary
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    if allow_boundary:
        assert load_function_file(path).function.allow_boundary is True
    else:
        with pytest.raises(HypothesisViolated):
            load_function_file(path)


# ---------------------------------------------------------------------------
# pinned bytes: help text and config hashes
# ---------------------------------------------------------------------------

# sha256 of `bohrlab [sub] --help` at 80 columns; "" is the top-level help
HELP_SHA256 = {
    "": "e2afa12a93901779a1a62f4bd439bbf78b2dc9df748196616da61388b4619a82",
    "gen": "6d629a4aa669f1d41905c42e7a44ae1c34fa6ef5a51699f828a796bd37953f03",
    "coeffs": "37dcd5c436f592c3b7f2f2710d5ad084e6d8d1f3b811bb0f8527c42f443357f5",
    "verify": "377ab0bb15d9be9a3d7bd58efb4824f937666b12de9f414b0024c7a3a8ab92aa",
    "proofcheck": "6158723e1af154343d6b5dcb1a7a5a1c70053e4eb893e4a81cac1a46688b4b4d",
    "radius": "c6b7ef6a0d29352e0cb7894e6bfb4f92f2772bb6e124339280f4b185ce782f02",
    "sharpness": "168ad6f6a11823acea2f437d51b8352eb608e2cf748200ab077c072ae4352802",
    "search": "0d455a6680e5caf1c4765655b541f9a35f2ec66060832e631163707fe0269062",
    "report": "e1083a53eb5641a7606d2630353b3df084accc3cb5cb72b96e0d1830663ff212",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help text differently in other Python versions")
@pytest.mark.parametrize("sub", sorted(HELP_SHA256))
def test_help_text_is_pinned(sub, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([sub, "--help"] if sub else ["--help"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[sub]


# sets every config key, the aliases seeds and tolerances included
FULL_CONFIG = {
    "class": "thm1", "dims": [2, 3], "count": 2, "seeds": 5, "radii": [0.3, 0.4],
    "steps": "eq10,eq12", "tolerances": 1e-08, "k": 8, "samples": 16, "budget": 7,
    "relax": "drop-commutation", "output_dir": "out", "format": "json", "delta": 0.002,
    "grid": "0.5:0.9:3", "pin_lambda": 0.5, "pin_degree": 2, "state_dim": 3,
}
HASH_ARGVS = {
    "coeffs": ["coeffs", "f.json", "--k", "4"],
    "verify": ["verify", "f.json", "--theorem", "cor1", "--r", "0.3", "--r", "0.4", "--tol", "1e-10"],
    "proofcheck": ["proofcheck", "f.json", "--steps", "eq10,eq11", "--k", "6", "--r", "0.5"],
    "radius": ["radius", "f.json", "--tol", "1e-5"],
    "search": ["search", "--relax", "drop-normality", "--dim", "2", "--budget", "3",
               "--seed", "4", "--out", "o"],
    "report": ["report", "v.json", "--format", "json"],
}
# config_hash of each HASH_ARGVS entry; "+config" adds --config with FULL_CONFIG
CONFIG_HASHES = {
    "coeffs": "d8820d908ff85cbde4314219d48b25f2d69952fad3433488e060365d2d31ae0d",
    "coeffs+config": "38f2db9dc81b436a276ce0ece4e46afeb0b6dc3b5f83abd8c479b3034dc406dc",
    "verify": "fe741ee195b08d314c7897378cf793f37e1def66d11eed45de58863edf0abb4c",
    "verify+config": "06f06b46da4ea9319d695371924f9ad3a82b0ed795c4f4311f9b427559d39e9b",
    "proofcheck": "e48966f29c64faf7a4902bf102f779439ec9a8cca3c2ec9cf69523f8abceef64",
    "proofcheck+config": "69b02da3473b6e46683a21a430217ef42053bf621e04679df606d8f6a2e9dec6",
    "radius": "19b7ca93322544566fc3239ff3d240d29e53f418f17ed1d76606a9ce34b6dffc",
    "radius+config": "b47848b5b787c046f897d154d30fe04652f0005476646a14139a12bf9253d82b",
    "search": "fb7462bf738621230063bfa9f321f922954f5d6836a2f6ae02f8a17eda07b0c0",
    "search+config": "38bfc7cd880a8702faaf4af8d80e2357f2bff2ab107cec363ba30ce3f4580d66",
    "report": "f65893ca6d82834437bd202642b25afcf8525f2bf337391ce73daf2c8a5e91c8",
    "report+config": "5efa5bc6ec0efaf2f58a095bc4b17f8af984942c01249f0e6c034f2c14d6e064",
}


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_config_hashes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv("BOHRLAB_SEED", raising=False)
    command, _, with_config = name.partition("+")
    argv = list(HASH_ARGVS[command])
    if with_config:
        argv += ["--config", _write_config(tmp_path / "c.json", FULL_CONFIG)]
    cfg = effective_config(build_parser().parse_args(argv))
    assert _config_hash(command, cfg) == CONFIG_HASHES[name]


@pytest.mark.parametrize("argv, config, flags", [
    (["verify", "--r", "0.4"], {"tol": 0}, ["--tol", "0.0"]),
    # passes before the one typed config too: k was an integer both ways
    (["coeffs"], {"k": 6}, ["--k", "6"]),
], ids=["tol", "k"])
def test_the_config_hash_reads_the_typed_values(argv, config, flags, cli_files, tmp_path, capsys):
    """A value from a file and the same value from its flag run one audit under one hash."""
    command, *rest = argv
    base = [command, cli_files["pin75"], *rest]
    hashes = []
    for extra in (["--config", _write_config(tmp_path / "c.json", config)], flags):
        assert main(base + extra) == EXIT_OK
        hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] == hashes[1]


def _record_argv(command, cli_files, tmp_path):
    """argv of a quick run of each command that writes one file."""
    if command == "report":
        rec = tmp_path / "rec.json"
        rec.write_text(json.dumps({"verdicts": [_ROW], "summary": {"holds": 1}}), encoding="utf-8")
        return ["report", str(rec)]
    return {
        "coeffs": ["coeffs", cli_files["pin75"], "--k", "4"],
        "verify": ["verify", cli_files["pin75"], "--r", "0.4"],
        "proofcheck": ["proofcheck", cli_files["pin75"], "--steps", "eq10", "--k", "4"],
        "radius": ["radius", cli_files["pin75"]],
        "sharpness": ["sharpness", "0.75"],
    }[command]


@pytest.mark.parametrize("command", ["coeffs", "verify", "proofcheck", "radius", "sharpness", "report"])
def test_a_config_output_dir_reaches_every_command(command, cli_files, tmp_path, capsys):
    argv = _record_argv(command, cli_files, tmp_path)
    from_file, from_flag = tmp_path / "from_file.out", tmp_path / "from_flag.out"
    argv += ["--config", _write_config(tmp_path / "c.json", {"output_dir": str(from_file)})]
    assert main(argv) == EXIT_OK
    assert f"wrote {from_file}" in capsys.readouterr().out
    from_file.unlink()
    # --out wins over the file
    assert main(argv + ["--out", str(from_flag)]) == EXIT_OK
    assert f"wrote {from_flag}" in capsys.readouterr().out
    assert from_flag.exists() and not from_file.exists()


def test_main_builds_the_one_config_of_a_run():
    import bohrlab.cli as cli

    commands = [name for name in vars(cli) if name.startswith("cmd_")]
    assert len(commands) == 8
    assert "effective_config" in cli.main.__code__.co_names
    for name in commands:
        assert "effective_config" not in getattr(cli, name).__code__.co_names, name


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_coeffs_emits_the_series(cli_files, capsys):
    assert main(["coeffs", cli_files["pin75"], "--k", "4"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    series = rec["items"][0]["series"]
    assert series["order"] == 4
    a1 = series["coeffs"][1]["entries"][0]
    assert abs(a1[0] + 0.4375) <= 1e-12 and a1[1] == 0.0
    assert rec["config_hash"]


# ---------------------------------------------------------------------------
# installed entry points
# ---------------------------------------------------------------------------

def test_module_entry_point_runs(cli_files):
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab.cli", "verify", cli_files["pin75"], "--r", "0.4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "wall_time_s" in proc.stderr


def test_console_script_is_installed(tmp_path):
    """Install this checkout offline into tmp_path and run its `bohrlab` script."""
    pytest.importorskip("pip")
    site = tmp_path / "site"
    install = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--disable-pip-version-check", "--target", str(site), str(REPO_ROOT)],
        capture_output=True, text=True,
    )
    assert install.returncode == 0, install.stderr
    exe = shutil.which("bohrlab", path=str(site / "bin"))
    assert exe is not None
    env = {**os.environ, "PYTHONPATH": str(site)}
    proc = subprocess.run([exe, "sharpness", "0.75"], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("lam,")
