"""JSON and CSV encodings for matrices, functions, and verdicts.

All JSON goes through ``canonical_dumps`` (sorted keys, two-space indent,
trailing newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checks import (
    BohrVerdict,
    ProofStepReport,
    RadiusReport,
    SearchResult,
    SharpnessRow,
    Status,
)
from .errors import DimensionMismatch
from .functions import (
    CoefficientSeries,
    HalfPlaneLift,
    MobiusLift,
    OperatorFunction,
    Polynomial,
    TransferRealization,
)
from .linalg import Order

VALID_CLASSES = ("thm1", "thm2", "transfer", "polynomial")

_NUMBER = (int, float)

# default hypothesis-class tag per representation kind
KIND_TO_CLASS = {
    "polynomial": "polynomial",
    "mobius": "thm1",
    "transfer": "transfer",
    "halfplane": "thm2",
}


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------

def _pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _unpair(p) -> complex:
    if not (type(p) is list and len(p) == 2 and all(type(x) in _NUMBER for x in p)):
        raise ValueError("an entry, lambda, phase or beta must be an [re, im] pair of numbers")
    return complex(p[0], p[1])


def matrix_to_json(M) -> dict:
    """Square matrix as {"dim": n, "entries": [[re, im], ...]} row-major."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    return {"dim": int(M.shape[0]), "entries": [_pair(z) for z in M.reshape(-1)]}


def json_to_matrix(d) -> np.ndarray:
    if not (type(d) is dict and type(d.get("dim")) is int and type(d.get("entries")) is list):
        raise ValueError("a matrix must be an object with an integer dim and an entries list")
    dim = d["dim"]
    entries = d["entries"]
    if dim < 1 or len(entries) != dim * dim:
        raise DimensionMismatch(f"matrix payload needs {dim}*{dim} entries")
    flat = np.array([_unpair(p) for p in entries], dtype=np.complex128)
    return flat.reshape(dim, dim)


def vector_to_json(v) -> list:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return [_pair(z) for z in v]


# ---------------------------------------------------------------------------
# function files
# ---------------------------------------------------------------------------

@dataclass
class FunctionFile:
    """A stored function plus its bookkeeping fields.

    ``klass`` records which hypothesis family the instance was generated
    for; ``hypothesis`` is the embedded check report dict, if any.
    """

    function: OperatorFunction
    klass: str
    seed: int | None = None
    hypothesis: dict | None = None


def _list_of(codec):
    shape, encode, decode = codec
    return [shape], lambda xs: [encode(x) for x in xs], lambda xs: [decode(x) for x in xs]


# payload field codecs (JSON shape, encoder, decoder); a shape is a tuple of
# exact JSON types, a boolean being no number, or [shape] for a list of them
_MATRIX = ((dict,), matrix_to_json, json_to_matrix)
_COMPLEX = ((list,), _pair, _unpair)
_REAL = (_NUMBER, float, float)
_INT = ((int,), int, int)

# kind: (class, {constructor field in order: codec}); each field is read from
# and written to the attribute of the same name
_PAYLOADS = {
    "polynomial": (Polynomial, {"coeffs": _list_of(_MATRIX)}),
    "mobius": (MobiusLift, {
        "basis": _MATRIX,
        "lambdas": _list_of(_COMPLEX),
        "phases": _list_of(_COMPLEX),
        "degrees": _list_of(_INT),
        "allow_boundary": ((bool, type(None)), bool, bool),  # older files lack it
    }),
    "transfer": (TransferRealization, {"colligation": _MATRIX, "state_dim": _INT}),
    "halfplane": (HalfPlaneLift, {
        "basis": _MATRIX, "diag": _list_of(_REAL), "t": _REAL, "beta": _COMPLEX,
    }),
}


def _function_data(f: OperatorFunction) -> dict:
    if f.kind not in _PAYLOADS:
        raise ValueError(f"cannot serialize function kind {f.kind!r}")
    fields = _PAYLOADS[f.kind][1]
    return {name: encode(getattr(f, name)) for name, (_, encode, _) in fields.items()}


def _build_function(kind: str, data: dict) -> OperatorFunction:
    cls, fields = _PAYLOADS[kind]
    return cls(*(decode(data.get(name)) for name, (_, _, decode) in fields.items()))


def function_file_to_json(ff: FunctionFile) -> dict:
    if ff.klass not in VALID_CLASSES:
        raise ValueError(f"class must be one of {VALID_CLASSES}")
    return {
        "kind": ff.function.kind,
        "dim": int(ff.function.dim),
        "data": _function_data(ff.function),
        "seed": None if ff.seed is None else int(ff.seed),
        "class": ff.klass,
        "hypothesis": ff.hypothesis,
    }


def serialize_function_file(ff: FunctionFile) -> str:
    return canonical_dumps(function_file_to_json(ff))


def _check_payload(kind, data) -> None:
    if not isinstance(kind, str) or kind not in _PAYLOADS:
        raise ValueError(f"unknown function kind {kind!r}")
    if not isinstance(data, dict):
        raise ValueError("function file data must be a JSON object")
    for field, (shape, _, _) in _PAYLOADS[kind][1].items():
        value = data.get(field)
        if isinstance(shape, list):
            ok = type(value) is list and all(type(x) in shape[0] for x in value)
        else:
            ok = type(value) in shape
        if not ok:
            raise ValueError(f"{kind} data field {field!r} is missing or malformed")


def parse_function_file(text: str) -> FunctionFile:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("function file must hold a JSON object")
    for key in ("kind", "dim", "data", "seed", "class"):
        if key not in d:
            raise ValueError(f"function file missing key {key!r}")
    klass = d["class"]
    if klass not in VALID_CLASSES:
        raise ValueError(f"class must be one of {VALID_CLASSES}")
    if type(d["dim"]) is not int:
        raise ValueError("function file dim must be an integer")
    _check_payload(d["kind"], d["data"])
    f = _build_function(d["kind"], d["data"])
    if f.dim != d["dim"]:
        raise DimensionMismatch("declared dim disagrees with the payload")
    return FunctionFile(f, klass, d["seed"], d.get("hypothesis"))


def save_function_file(path, ff: FunctionFile) -> None:
    write_text(path, serialize_function_file(ff))


def load_function_file(path) -> FunctionFile:
    return parse_function_file(read_text(path))


# ---------------------------------------------------------------------------
# coefficient series
# ---------------------------------------------------------------------------

def series_to_json(series: CoefficientSeries) -> dict:
    out = {
        "dim": int(series.dim),
        "order": int(series.order),
        "coeffs": [matrix_to_json(c) for c in series.coeffs],
        "tail_norm_bound": float(series.tail_norm_bound),
        "exact": bool(series.exact),
        "aliasing_bounds": None,
    }
    if series.aliasing_bounds is not None:
        out["aliasing_bounds"] = [float(b) for b in series.aliasing_bounds]
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verdict_to_json(v: BohrVerdict, step: str | None = None) -> dict:
    return {
        "status": v.status.value,
        "r": float(v.r),
        "lhs_extreme": float(v.lhs_extreme),
        "truncation_gap": float(v.truncation_gap),
        "N_used": int(v.N_used),
        "witness": None if v.witness is None else vector_to_json(v.witness),
        "step": step,
    }


def proof_report_to_json(rep: ProofStepReport) -> dict:
    """Loewner step outcome in the same shape as a Bohr verdict.

    Boundary counts as holds; ``lhs_extreme`` is the signed excess of the
    left side over the right (negative when the inequality has slack).
    """
    lw = rep.verdict
    status = Status.VIOLATED if lw.relation is Order.NOT_LESS_OR_EQUAL else Status.HOLDS
    verdict = BohrVerdict(status, rep.k_or_r, -lw.min_gap, 0.0, 0, lw.witness)
    return verdict_to_json(verdict, rep.step.value)


def radius_report_to_json(rep: RadiusReport) -> dict:
    return {
        "guaranteed_radius": float(rep.guaranteed_radius),
        "empirical_radius": float(rep.empirical_radius),
        "margin": float(rep.margin),
        "branch": rep.branch.value,
        "capped": bool(rep.capped),
    }


def search_result_to_json(res: SearchResult) -> dict:
    out = {
        "relaxation": res.relaxation.value,
        "dim": int(res.dim),
        "budget": int(res.budget),
        "seed": int(res.seed),
        "trials": int(res.trials),
        "witness": None,
    }
    if res.witness is not None:
        w = res.witness
        out["witness"] = {
            "trial": int(w.trial),
            "radius": float(w.radius),
            "branch": w.branch.value,
            "verdict": verdict_to_json(w.verdict),
        }
    return out


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

VERDICT_CSV_HEADER = "instance_id,class,dim,r,status,margin"


def verdict_rows_to_csv(rows) -> str:
    """Rows of (instance_id, class, dim, r, status, margin) as CSV text."""
    lines = [VERDICT_CSV_HEADER]
    for instance_id, klass, dim, r, status, margin in rows:
        lines.append(
            f"{instance_id},{klass},{int(dim)},{float(r)!r},{status},{float(margin)!r}"
        )
    return "\n".join(lines) + "\n"


SHARPNESS_CSV_HEADER = "lam,guaranteed,empirical,excess_at_delta,confirmed"


def sharpness_rows_to_csv(rows: list[SharpnessRow]) -> str:
    lines = [SHARPNESS_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.lam!r},{row.guaranteed!r},{row.empirical!r},"
            f"{row.excess_at_delta!r},{str(row.confirmed).lower()}"
        )
    return "\n".join(lines) + "\n"
