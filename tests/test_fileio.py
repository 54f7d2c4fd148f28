"""Canonical JSON, round-trips, and the CSV table shapes."""

import hashlib
import json

import numpy as np
import pytest

from bohrlab.checks import (
    ProofStep,
    ProofStepReport,
    RadiusReport,
    Branch,
    check_bohr,
    counterexample_search,
    sharpness_scan,
)
from bohrlab.errors import DimensionMismatch
from bohrlab.fileio import (
    FunctionFile,
    canonical_dumps,
    function_file_to_json,
    json_to_matrix,
    load_function_file,
    matrix_to_json,
    parse_function_file,
    proof_report_to_json,
    radius_report_to_json,
    save_function_file,
    search_result_to_json,
    serialize_function_file,
    series_to_json,
    sharpness_rows_to_csv,
    verdict_rows_to_csv,
    verdict_to_json,
)
from bohrlab.functions import (
    HalfPlaneLift,
    MobiusLift,
    Polynomial,
    TransferRealization,
    coefficients_dft,
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
    mobius_witness,
)
from bohrlab.linalg import LoewnerVerdict, Order

VERDICT_KEYS = {
    "status", "r", "lhs_extreme", "truncation_gap", "N_used", "witness", "step",
}


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": [1.5, None]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        back = json_to_matrix(matrix_to_json(M))
        assert np.array_equal(back, M)


def test_matrix_json_validation():
    d = matrix_to_json(np.eye(2))
    d["entries"] = d["entries"][:-1]
    with pytest.raises(DimensionMismatch):
        json_to_matrix(d)


def test_matrix_json_refuses_what_is_no_square_matrix():
    with pytest.raises(DimensionMismatch):
        matrix_to_json(np.zeros((2, 3)))
    for payload in ([[0.5, 0.0]], {"dim": "1", "entries": [[0.5, 0.0]]}, {"dim": 1}):
        with pytest.raises(ValueError):
            json_to_matrix(payload)


def test_function_files_refuse_an_unknown_class_or_kind():
    with pytest.raises(ValueError, match="class"):
        function_file_to_json(FunctionFile(mobius_witness(0.5), "thm9"))

    class Custom(Polynomial):
        kind = "custom"

    with pytest.raises(ValueError, match="kind"):
        function_file_to_json(FunctionFile(Custom([np.eye(1)]), "polynomial"))


def _all_kind_files():
    return [
        FunctionFile(mobius_witness(0.75), "thm1", 7, None),
        FunctionFile(generate_thm1_instance(3, seed=2), "thm1", 2, None),
        FunctionFile(generate_thm2_instance(2, seed=5), "thm2", 5, None),
        FunctionFile(generate_transfer_instance(2, 3, seed=6), "transfer", 6, None),
        FunctionFile(Polynomial([np.zeros((2, 2)), np.eye(2) * 0.5]), "polynomial", None, None),
    ]


def test_function_file_round_trip_is_byte_exact():
    for ff in _all_kind_files():
        text = serialize_function_file(ff)
        again = serialize_function_file(parse_function_file(text))
        assert again == text, ff.function.kind


def test_function_file_schema_fields():
    d = function_file_to_json(_all_kind_files()[0])
    assert set(d) == {"kind", "dim", "data", "seed", "class", "hypothesis"}
    assert d["kind"] == "mobius" and d["class"] == "thm1" and d["dim"] == 1


def test_function_file_save_load(tmp_path):
    path = tmp_path / "f.json"
    ff = _all_kind_files()[2]
    save_function_file(path, ff)
    loaded = load_function_file(path)
    assert loaded.klass == "thm2" and loaded.seed == 5
    assert serialize_function_file(loaded) == serialize_function_file(ff)


def test_parse_function_file_rejects_bad_payloads():
    good = json.loads(serialize_function_file(_all_kind_files()[0]))
    for key in ("kind", "dim", "data", "seed", "class"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError):
            parse_function_file(json.dumps(broken))
    wrong_class = dict(good)
    wrong_class["class"] = "thm9"
    with pytest.raises(ValueError):
        parse_function_file(json.dumps(wrong_class))
    wrong_dim = dict(good)
    wrong_dim["dim"] = 4
    with pytest.raises(DimensionMismatch):
        parse_function_file(json.dumps(wrong_dim))


def test_series_json_shape():
    s = mobius_witness(0.5).coefficients(4)
    d = series_to_json(s)
    assert d["dim"] == 1 and d["order"] == 4
    assert len(d["coeffs"]) == 5
    assert d["aliasing_bounds"] is None and d["exact"] is False


def test_series_json_carries_the_aliasing_bounds_of_a_dft_series():
    s = coefficients_dft(mobius_witness(0.5), 0.5, 3, 16)
    d = series_to_json(s)
    assert d["aliasing_bounds"] == [float(b) for b in s.aliasing_bounds] and len(d["aliasing_bounds"]) == 4


def test_verdict_json_has_exactly_the_report_keys():
    v = check_bohr(mobius_witness(0.75), 0.45)
    d = verdict_to_json(v, step=None)
    assert set(d) == VERDICT_KEYS
    assert d["status"] == "violated"
    assert d["witness"] is not None
    assert d["step"] is None


def test_proof_report_json_maps_loewner_outcomes():
    ok = ProofStepReport(
        ProofStep.EQ14, 1.0, LoewnerVerdict(Order.BOUNDARY, 0.0, 1e-9), "n=1"
    )
    d = proof_report_to_json(ok)
    assert set(d) == VERDICT_KEYS
    assert d["status"] == "holds" and d["step"] == "eq14"
    bad = ProofStepReport(
        ProofStep.EQ9, 2.0, LoewnerVerdict(Order.NOT_LESS_OR_EQUAL, -0.25, 1e-9), "k=2"
    )
    b = proof_report_to_json(bad)
    assert b["status"] == "violated"
    assert b["lhs_extreme"] == 0.25


def test_radius_report_json():
    rep = RadiusReport(0.4, 0.41, 0.01, Branch.INVERTIBLE, False)
    d = radius_report_to_json(rep)
    assert d == {
        "guaranteed_radius": 0.4,
        "empirical_radius": 0.41,
        "margin": 0.01,
        "branch": "invertible",
        "capped": False,
    }


def test_search_result_json_embeds_the_witness_verdict():
    res = counterexample_search("drop-commutation", 2, budget=10, seed=1)
    d = search_result_to_json(res)
    assert d["relaxation"] == "drop-commutation"
    assert d["witness"]["verdict"]["status"] == "violated"
    assert d["trials"] == res.trials


def test_verdict_csv_rows_round_trip_through_repr():
    rows = [("a.json", "thm1", 2, 0.4, "holds", 0.1234567890123456)]
    text = verdict_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "instance_id,class,dim,r,status,margin"
    cells = lines[1].split(",")
    assert float(cells[3]) == 0.4
    assert float(cells[5]) == 0.1234567890123456


def test_sharpness_csv_booleans_are_lowercase():
    rows = sharpness_scan([0.75])
    text = sharpness_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "lam,guaranteed,empirical,excess_at_delta,confirmed"
    assert lines[1].endswith(",true")


_R = [[0.6, 0.8], [-0.8, 0.6]]
PINNED_FILES = {
    "polynomial": FunctionFile(
        Polynomial([np.diag([0.5, 0.25]), [[0, 0.125j], [0.25, 0]]]), "polynomial"),
    "mobius": FunctionFile(MobiusLift(_R, [0.5, -0.25 + 0.125j], [1, 1j], [1, 3]), "thm1", 7),
    "mobius allow_boundary": FunctionFile(
        MobiusLift(_R, [1.0, 0.5], [1, -1], [2, 1], allow_boundary=True), "thm1", 3),
    "transfer": FunctionFile(
        TransferRealization([[0, 0, 1], [0.6, 0.8, 0], [-0.8, 0.6, 0]], 1), "transfer", 6),
    "halfplane": FunctionFile(
        HalfPlaneLift(_R, [0.2, 0.6], 0.25, 0.3 + 0.1j), "thm2", 5, {"passed": True}),
}
# sha256 of serialize_function_file for each PINNED_FILES entry
FILE_SHA256 = {
    "polynomial": "d765704f3cd7d2da4e454bfb0f9e840089b893e195ce8a116cd2e55cf4866d77",
    "mobius": "586becb2ed2bfb27618c8eb54c18926ea5ae9464660de44f187afac075e1a02c",
    "mobius allow_boundary": "60bc43b75554686442ca353e64c8d2cfee912e4428d7195c2134e29a02033307",
    "transfer": "b0806d1880133aab1055bf5c433a925d985847ccdf43273273396c17f70b3706",
    "halfplane": "4cf3847a197a4af62482f23d208890029a29cb697305c880aa1793a314894e38",
}


@pytest.mark.parametrize("name", sorted(FILE_SHA256))
def test_serialized_function_files_are_pinned(name):
    text = serialize_function_file(PINNED_FILES[name])
    assert hashlib.sha256(text.encode()).hexdigest() == FILE_SHA256[name]
    assert serialize_function_file(parse_function_file(text)) == text
