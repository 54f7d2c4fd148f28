"""Command-line harness: instance generation, verdict campaigns, proof-step
audits, radius studies, sharpness tables, relaxation searches, and report
aggregation.

Every run is deterministic in its effective config: identical flags, config
file, and seed produce byte-identical output files. Wall time goes to
stderr so it never perturbs the artifacts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .checks import (
    DEFAULT_BOHR_TOL,
    MAX_N,
    STEPS,
    BohrVerdict,
    ProofStep,
    Relaxation,
    Status,
    Thm2Bounds,
    build_radius_report,
    check_bb2_norm_bound,
    check_bohr,
    check_cor2,
    check_thm2_bounds,
    counterexample_search,
    default_z_samples,
    proof_step_validate,
    require_hypotheses,
    sharpness_scan,
    thm1_admissible_radius,
)
from .errors import BohrlabError, HypothesisViolated, StepClassMismatch, StepNotApplicable
from .fileio import (
    KIND_TO_CLASS,
    FunctionFile,
    canonical_dumps,
    load_function_file,
    proof_report_to_json,
    radius_report_to_json,
    read_text,
    save_function_file,
    search_result_to_json,
    series_to_json,
    sharpness_rows_to_csv,
    verdict_rows_to_csv,
    verdict_to_json,
    write_text,
)
from .functions import (
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
    hypothesis_check,
    mobius_witness,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_WITNESS = 4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

CONFIG_DEFAULTS = {
    "class": "thm1",
    "dims": [4],
    "count": 10,
    "seed": None,
    "radii": None,
    "steps": None,
    "tol": None,
    "k": None,
    "samples": 64,
    "budget": 100,
    "relax": None,
    "output_dir": ".",
    "format": None,
    "delta": 1e-3,
    "grid": None,
    "pin_lambda": None,
    "pin_degree": 1,
    "state_dim": 4,
}
CONFIG_ALIASES = {"seeds": "seed", "tolerances": "tol"}


def _typed(value, kind):
    """value as kind: a JSON type, or [kind] for a list of them. An integer
    is a number too; a boolean is neither, though Python counts it an int."""
    if isinstance(kind, list):
        return [_typed(x, kind[0]) for x in _typed(value, list)]
    if type(value) is not kind and (kind, type(value)) != (float, int):
        raise TypeError
    return kind(value)


def _grid(spec) -> list[float]:
    """The lam values of a grid: start:stop:count, a comma list, or a list of numbers."""
    if type(spec) is not str:
        return _typed(spec, [float])
    if ":" not in spec:
        return [float(x) for x in spec.split(",") if x]
    start, stop, count = spec.split(":")
    return [float(x) for x in np.linspace(float(start), float(stop), int(count))]


def _one_of(*names):
    return str, names.__contains__, f"one of {', '.join(names)}"


# key: (the JSON type its value is converted to, None to keep it as given;
# the test the converted value must pass, or None; what the value must be).
# A key whose default is None also takes None. grid keeps its spec, which the
# config hash has always recorded, and sharpness parses it.
_CONFIG_TYPES = {
    "class": _one_of("thm1", "thm2", "transfer"),
    "dims": ([int], lambda ds: ds and min(ds) >= 1, "a non-empty list of integers >= 1"),
    "count": (int, lambda n: n >= 1, "an integer >= 1"),
    "seed": (int, None, "an integer"),
    "radii": ([float], lambda rs: rs and all(0.0 <= r < 1.0 for r in rs),
              "a non-empty list of numbers in [0, 1)"),
    "steps": ([str], lambda names: names and {s.value for s in ProofStep}.issuperset(names),
              "a non-empty list of proof step names"),
    "tol": (float, None, "a number"),
    "k": (int, lambda n: n <= MAX_N, f"an integer <= {MAX_N}"),
    "samples": (int, lambda n: 1 <= n <= MAX_N, f"an integer in [1, {MAX_N}]"),
    "budget": (int, lambda n: n >= 1, "an integer >= 1"),
    "relax": _one_of(*(r.value for r in Relaxation)),
    "output_dir": (str, None, "a path"),
    "format": _one_of("csv", "md", "json"),
    "delta": (float, None, "a number"),
    "grid": (None, _grid, "start:stop:count (count >= 1), a comma list or a list of numbers"),
    "pin_lambda": (float, None, "a number"),
    "pin_degree": (int, None, "an integer"),
    "state_dim": (int, None, "an integer"),
}


def effective_config(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by CLI flags, each
    value converted to the type the commands and the config hash read."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        raw = json.loads(read_text(args.config))
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in raw.items():
            key = CONFIG_ALIASES.get(key, key)
            if key not in CONFIG_DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in CONFIG_DEFAULTS:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if cfg["seed"] is None:
        env = os.environ.get("BOHRLAB_SEED") or "0"
        try:
            cfg["seed"] = int(env)
        except ValueError:
            raise ValueError(f"BOHRLAB_SEED must be an integer, not {env!r}") from None
    if isinstance(cfg["steps"], str):
        cfg["steps"] = [s for s in cfg["steps"].split(",") if s]
    for key, (kind, test, what) in _CONFIG_TYPES.items():
        value = cfg[key]
        if value is None and CONFIG_DEFAULTS[key] is None:
            continue
        try:
            cfg[key] = value if kind is None else _typed(value, kind)
            if test is None or test(cfg[key]):
                continue
        except (TypeError, ValueError, OverflowError, MemoryError):
            pass
        raise ValueError(f"{key} must be {what}, not {value!r}")
    return cfg


def _config_hash(command: str, cfg: dict) -> str:
    return hashlib.sha256(
        canonical_dumps({"command": command, **cfg}).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

# verdict statuses, mildest first
_SEVERITY = ("holds", "inconclusive", "violated")


def _exit_for(summary: dict) -> int:
    if summary["violated"]:
        return EXIT_VIOLATED
    if summary["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _record(command: str, argv, cfg: dict, entries, extra=None) -> dict:
    """The run record of a campaign: how it ran, its verdict rows and their counts."""
    return {
        "command": command,
        "command_line": " ".join(["bohrlab"] + list(argv)),
        "config_hash": _config_hash(command, cfg),
        "tool_version": __version__,
        "verdicts": entries,
        "summary": {status: sum(e["status"] == status for e in entries) for status in _SEVERITY},
        **(extra or {}),
    }


def _finish(args, argv, cfg, entries, extra, suffix="") -> int:
    """Write the run record of a verdict campaign and return its exit code.
    Written to a file, also print the summary counts, then suffix."""
    record = _record(args.command, argv, cfg, entries, extra)
    summary = record["summary"]
    if _emit(canonical_dumps(record), cfg):
        print(
            f"holds={summary['holds']} violated={summary['violated']} "
            f"inconclusive={summary['inconclusive']}{suffix}"
        )
    return _exit_for(summary)


def _emit(text: str, cfg: dict) -> bool:
    """Write text to the output_dir file, or to stdout if it is the default "."."""
    out = cfg["output_dir"]
    if out == CONFIG_DEFAULTS["output_dir"]:
        sys.stdout.write(text)
        return False
    write_text(out, text)
    print(f"wrote {out}")
    return True


def _row(name: str, ff: FunctionFile, fields: dict) -> dict:
    """A verdict row: the instance it is about, then its verdict fields."""
    return {"instance_id": name, "class": ff.klass, "dim": ff.function.dim, **fields}


def _load_files(paths):
    return [(os.path.basename(p), load_function_file(p)) for p in paths]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args, argv, cfg) -> int:
    klass = cfg["class"]
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    dims = cfg["dims"]
    for i in range(cfg["count"]):
        dim = dims[i % len(dims)]
        seed_i = cfg["seed"] + i
        if klass == "thm1" and cfg["pin_lambda"] is not None:
            f = mobius_witness(cfg["pin_lambda"], cfg["pin_degree"])
        elif klass == "thm1":
            f = generate_thm1_instance(dim, seed=seed_i)
        elif klass == "thm2":
            f = generate_thm2_instance(dim, seed_i)
        else:
            f = generate_transfer_instance(dim, cfg["state_dim"], seed_i)
        report = None if klass == "transfer" else hypothesis_check(f, klass).to_dict()
        path = os.path.join(out_dir, f"{klass}_{i:04d}.json")
        save_function_file(path, FunctionFile(f, klass, seed_i, report))
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args, argv, cfg) -> int:
    order = cfg["k"] if cfg["k"] is not None else 32
    items = []
    for name, ff in _load_files(args.files):
        series = ff.function.coefficients(order)
        items.append({"file": name, "class": ff.klass, "series": series_to_json(series)})
    record = {
        "command": "coeffs",
        "config_hash": _config_hash("coeffs", cfg),
        "tool_version": __version__,
        "items": items,
    }
    _emit(canonical_dumps(record), cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# theorem -> (its check, by name, looked up at call time as main looks up
# cmd_*; the family verify gates a file of class thm1 on, None where the check
# gates itself; the default radius, None for just below the guaranteed one)
THEOREMS = {
    "thm1": ("check_bohr", "thm1", None),
    "cor1": ("check_bohr", "thm1", 1.0 / 3.0),
    "cor2": ("check_cor2", None, 0.5),
    "thm2": ("check_thm2_bounds", None, 1.0 / 3.0),
    "bb2remark": ("check_bb2_norm_bound", "norm", 0.5),
}


def _guaranteed_radius(f) -> float:
    try:
        guaranteed = thm1_admissible_radius(f)
    except BohrlabError as exc:
        raise HypothesisViolated(f"no default radius for this instance ({exc}); pass --r") from exc
    return max(0.0, guaranteed.value - 1e-6)


def _verdict_fields(result) -> dict:
    """A row's verdict fields; a thm2 row lists its three parts under their worst status."""
    if not isinstance(result, Thm2Bounds):
        return verdict_to_json(result)
    parts = [verdict_to_json(result.bohr), proof_report_to_json(result.eq2),
             proof_report_to_json(result.final)]
    worst = max((p["status"] for p in parts), key=_SEVERITY.index)
    return {**parts[0], "status": worst, "parts": parts}


def cmd_verify(args, argv, cfg) -> int:
    check_name, family, radius = THEOREMS[args.theorem]
    check = globals()[check_name]
    tol = cfg["tol"] if cfg["tol"] is not None else DEFAULT_BOHR_TOL
    entries = []
    for name, ff in _load_files(args.files):
        f = ff.function
        if family is not None:
            require_hypotheses(f, family if ff.klass == "thm1" else "norm")
        radii = cfg["radii"]
        if radii is None:
            radii = [_guaranteed_radius(f) if radius is None else radius]
        entries += [_row(name, ff, _verdict_fields(check(f, r, tol))) for r in radii]
    return _finish(args, argv, cfg, entries, {"theorem": args.theorem})


# ---------------------------------------------------------------------------
# proofcheck
# ---------------------------------------------------------------------------

def cmd_proofcheck(args, argv, cfg) -> int:
    k = cfg["k"] if cfg["k"] is not None else 20
    radii = cfg["radii"] if cfg["radii"] is not None else [0.5]
    samples = default_z_samples(cfg["samples"])
    entries = []
    skipped = 0
    for name, ff in _load_files(args.files):
        if cfg["steps"] is not None:
            steps = [ProofStep(t) for t in cfg["steps"]]
        else:
            steps = [step for step in ProofStep if ff.klass in STEPS[step].defaults]
        for step in steps:
            if ff.klass not in STEPS[step].classes:
                raise StepClassMismatch(
                    f"{name}: step {step.value} does not apply to class {ff.klass}"
                )
        f = ff.function
        for step in steps:
            for r in (radii if STEPS[step].param == "r" else [0.5]):
                try:
                    rep = proof_step_validate(f, step, k=k, r=r, z_samples=samples)
                except StepNotApplicable:
                    skipped += 1
                    continue
                fields = {**proof_report_to_json(rep), "location": str(rep.location)}
                entries.append(_row(name, ff, fields))
    return _finish(args, argv, cfg, entries, {"skipped": skipped}, f" skipped={skipped}")


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def cmd_radius(args, argv, cfg) -> int:
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    entries = []
    for name, ff in _load_files(args.files):
        f = ff.function
        require_hypotheses(f, "thm1")
        rep = build_radius_report(f, tol)
        status = Status.HOLDS if rep.margin >= -tol else Status.VIOLATED
        verdict = BohrVerdict(status, rep.empirical_radius, -rep.margin, 0.0, 0)
        entries.append(_row(name, ff, {**verdict_to_json(verdict), **radius_report_to_json(rep)}))
    record = _record("radius", argv, cfg, entries)
    _emit(canonical_dumps(record), cfg)
    # a violated row means guaranteed > empirical + tol: an implementation bug
    return _exit_for(record["summary"])


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------

def cmd_sharpness(args, argv, cfg) -> int:
    spec = cfg["grid"]
    if not spec:
        raise ValueError("sharpness needs a grid spec (start:stop:count or comma list)")
    rows = sharpness_scan(_grid(spec), cfg["delta"])
    _emit(sharpness_rows_to_csv(rows), cfg)
    return EXIT_OK if all(row.confirmed for row in rows) else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args, argv, cfg) -> int:
    relax = cfg["relax"]
    if not relax:
        raise ValueError(f"search needs --relax ({' | '.join(r.value for r in Relaxation)})")
    if len(cfg["dims"]) > 1:
        raise ValueError(f"search takes one dim, not dims {cfg['dims']}")
    dim = cfg["dims"][0]
    result = counterexample_search(relax, dim, cfg["budget"], cfg["seed"])
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    stem = f"search_{relax}_d{dim}_s{cfg['seed']}"
    entries = []
    extra = {"search": search_result_to_json(result), "witness_path": None}
    witness_path = None
    if result.witness is not None:
        w = result.witness
        witness = FunctionFile(w.function, KIND_TO_CLASS[w.function.kind], cfg["seed"], None)
        witness_name = f"witness_{relax}_d{dim}_s{cfg['seed']}.json"
        witness_path = os.path.join(out_dir, witness_name)
        save_function_file(witness_path, witness)
        entries.append(_row(witness_name, witness, verdict_to_json(w.verdict)))
        extra["witness_path"] = witness_name
    record = _record("search", argv, cfg, entries, extra)
    write_text(os.path.join(out_dir, f"{stem}.json"), canonical_dumps(record))
    if witness_path is None:
        print("none")
        return EXIT_OK
    print(witness_path)
    return EXIT_WITNESS


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# the verdict-row fields report converts, with the JSON types they must have
_ROW_NUMBERS = {"dim": int, "r": (int, float), "lhs_extreme": (int, float)}


def _check_record(path, rec) -> None:
    """Raise ValueError unless rec has the shape of a run record."""
    if not (isinstance(rec, dict) and isinstance(rec.get("verdicts"), list)
            and isinstance(rec.get("summary"), dict)):
        raise ValueError(f"{path}: not a run record (needs a verdicts list and a summary object)")
    if not all(isinstance(count, int) for count in rec["summary"].values()):
        raise ValueError(f"{path}: summary counts must be integers")
    for row in rec["verdicts"]:
        if not (isinstance(row, dict)
                and all(isinstance(row.get(k), kind) for k, kind in _ROW_NUMBERS.items())):
            raise ValueError(f"{path}: each verdict row needs an integer dim and numbers r, lhs_extreme")


def _aggregate(paths) -> dict:
    records = []
    for path in paths:
        rec = json.loads(read_text(path))
        _check_record(path, rec)
        records.append((os.path.basename(path), rec))
    totals = dict.fromkeys(_SEVERITY, 0)
    rows = []
    reproduce = []
    for name, rec in records:
        for key in totals:
            totals[key] += rec["summary"].get(key, 0)
        line = rec.get("command_line")
        if line:
            reproduce.append(line)
        for e in rec["verdicts"]:
            margin = -float(e["lhs_extreme"])
            rows.append((e["instance_id"], e["class"], e["dim"], e["r"], e["status"], margin))
    if rows:
        counts, edges = np.histogram(np.array([row[-1] for row in rows]), bins=10)
        histogram = {
            "edges": [float(x) for x in edges],
            "counts": [int(c) for c in counts],
        }
    else:
        histogram = {"edges": [], "counts": []}
    return {
        "files": [name for name, _ in records],
        "summary": totals,
        "histogram": histogram,
        "reproduce": reproduce,
        "rows": rows,
    }


def _report_md(agg: dict) -> str:
    lines = ["# verdict report", ""]
    lines.append("| holds | violated | inconclusive |")
    lines.append("| --- | --- | --- |")
    s = agg["summary"]
    lines.append(f"| {s['holds']} | {s['violated']} | {s['inconclusive']} |")
    lines.append("")
    lines.append("## margin histogram")
    lines.append("")
    lines.append("| bin_lo | bin_hi | count |")
    lines.append("| --- | --- | --- |")
    edges, counts = agg["histogram"]["edges"], agg["histogram"]["counts"]
    for i, c in enumerate(counts):
        lines.append(f"| {edges[i]!r} | {edges[i + 1]!r} | {c} |")
    lines.append("")
    lines.append("## reproduce")
    lines.append("")
    for line in agg["reproduce"]:
        lines.append(f"    {line}")
    lines.append("")
    return "\n".join(lines)


def cmd_report(args, argv, cfg) -> int:
    fmt = cfg["format"] or "md"
    agg = _aggregate(args.files)
    if fmt == "csv":
        text = verdict_rows_to_csv(agg["rows"])
    elif fmt == "json":
        body = {key: agg[key] for key in ("files", "summary", "histogram", "reproduce")}
        body["tool_version"] = __version__
        body["config_hash"] = _config_hash("report", cfg)
        text = canonical_dumps(body)
    else:
        text = _report_md(agg)
    _emit(text, cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # config errors must exit 1; argparse defaults to 2, which means Violated here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", dest="output_dir", metavar="OUT",
                     help="output path (directory for gen/search)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="bohrlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="write function instance files")
    p.add_argument("--class", choices=("thm1", "thm2", "transfer"))
    p.add_argument("--dim", dest="dims", metavar="DIM", type=int, action="append")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = subs.add_parser("coeffs", help="dump coefficient series JSON")
    p.add_argument("files", nargs="+")
    p.add_argument("--k", type=int, help="series order (default 32)")
    _add_common(p)

    p = subs.add_parser("verify", help="run a verdict campaign")
    p.add_argument("files", nargs="+")
    p.add_argument("--theorem", choices=THEOREMS, default="thm1")
    p.add_argument("--r", dest="radii", metavar="R", type=float, action="append")
    p.add_argument("--tol", type=float)
    _add_common(p)

    p = subs.add_parser("proofcheck", help="audit derivation steps")
    p.add_argument("files", nargs="+")
    p.add_argument("--steps", help="comma list of step names")
    p.add_argument("--k", type=int)
    p.add_argument("--r", dest="radii", metavar="R", type=float, action="append")
    _add_common(p)

    p = subs.add_parser("radius", help="guaranteed vs empirical radius")
    p.add_argument("files", nargs="+")
    p.add_argument("--tol", type=float)
    _add_common(p)

    p = subs.add_parser("sharpness", help="scalar witness sharpness table")
    p.add_argument("grid", nargs="?", help="start:stop:count or comma list")
    _add_common(p)

    p = subs.add_parser("search", help="hunt for violations under a relaxed hypothesis")
    p.add_argument("--relax", choices=[r.value for r in Relaxation])
    p.add_argument("--dim", dest="dims", metavar="DIM", type=int, action="append")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = subs.add_parser("report", help="aggregate run records")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("csv", "md", "json"))
    _add_common(p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or EXIT_OK)
    start = time.perf_counter()
    try:
        # looked up by name at call time, so a cmd_* replaced after the
        # parser was built (as a tracer or a test may do) is the one that runs
        return globals()[f"cmd_{args.command}"](args, argv, effective_config(args))
    except (BohrlabError, OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        print(f"wall_time_s {time.perf_counter() - start:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
