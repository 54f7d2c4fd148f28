"""Per-layer tracing of bohrlab from outside the program.

``Tracer.install`` replaces every public function of the five bohrlab layer
modules (and the public methods of the ``OperatorFunction`` classes) with a
counting wrapper. A wrapper replaces the name where it is defined and in
every bohrlab module that imported it, so calls from ``checks`` into
``linalg`` go through it. ``uninstall`` puts the originals back.

A call that crosses from one layer into another is a span: name, start, end,
parent span and op id, kept in memory and written out by ``write_spans``.
A call inside the same layer is only counted. A layer's busy time is the
self time of its spans: duration minus the spans of other layers nested in
it. A wrapped name that a later version of bohrlab no longer has is
reported in ``absent`` and its counters read 0.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import os
import time
from collections import Counter

LAYERS = ("linalg", "functions", "checks", "fileio", "cli")

# per-layer metric -> wrapped name whose calls it counts
CALL_METRICS = {
    "linalg.abs_calls": "linalg.abs_operator",
    "linalg.eigh_calls": "linalg.hermitian_eigen",
    "linalg.validate_calls": "linalg.as_matrix",
    "functions.hypothesis_calls": "functions.hypothesis_check",
}
FUNCTION_KINDS = ("polynomial", "mobius", "transfer", "halfplane")
IO_PREFIXES = ("save_", "load_", "write_", "read_")
BISECT_NAME = "empirical_bohr_radius"
RUNG_BASE_N = 64


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.calls = Counter()
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list = []
        self.op_id = -1
        self.coeff_calls = Counter()
        self.coeff_terms = 0
        self.verdicts = Counter()
        self.rungs = 0.0
        self.bisect_depth = 0
        self.bisect_calls = 0
        self.bisect_probes = 0
        self.io_depth = 0
        self.io = Counter()
        self.cli_commands = 0
        self.cli_nonzero = 0
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        namespaces = [self.package] + self.modules
        for layer, module in zip(LAYERS, self.modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._restore.append((ns, name, fn))
                        setattr(ns, name, wrapper)
        base = getattr(self.modules[LAYERS.index("functions")], "OperatorFunction", None)
        if base is None:
            return
        for cls in [base] + _subclasses(base):
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                self._restore.append((cls, name, fn))
                setattr(cls, name, self._wrap("functions", f"{cls.__name__}.{name}", fn, method=name))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, fn, method: str | None = None):
        key = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(key)
        before, after = self._hooks(layer, name, method)
        tracer = self
        calls = self.calls
        busy = self.busy
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            token = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            result = None
            try:
                if not boundary:
                    result = fn(*args, **kwargs)
                    return result
                frame = [layer, 0.0, len(spans)]
                spans.append(None)
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    busy[layer] += duration - frame[1]
                    if parent is not None:
                        parent[1] += duration
                    spans[frame[2]] = (
                        name_id, start, end, -1 if parent is None else parent[2], tracer.op_id
                    )
                return result
            finally:
                if after is not None:
                    after(token, args, kwargs, result)

        return wrapper

    def _hooks(self, layer: str, name: str, method: str | None):
        if method == "coefficients":
            def after(token, args, kwargs, result):
                if result is None:
                    return
                kind = getattr(type(args[0]), "kind", type(args[0]).__name__)
                n = args[1] if len(args) > 1 else kwargs.get("N", 0)
                self.coeff_calls[kind] += 1
                self.coeff_terms += int(n) + 1
            return None, after
        if layer == "checks" and name.startswith("check_"):
            def before(args):
                if name == "check_bohr" and self.bisect_depth:
                    self.bisect_probes += 1
            def after(token, args, kwargs, result):
                verdict = getattr(result, "bohr", result)
                status = getattr(getattr(verdict, "status", None), "value", None)
                if status is None:
                    return
                self.verdicts[status] += 1
                n_used = int(getattr(verdict, "N_used", RUNG_BASE_N) or RUNG_BASE_N)
                self.rungs += 1.0 + max(0.0, math.log2(n_used / RUNG_BASE_N))
            return before, after
        if layer == "checks" and name == BISECT_NAME:
            def before(args):
                self.bisect_calls += 1
                self.bisect_depth += 1
            def after(token, args, kwargs, result):
                self.bisect_depth -= 1
            return before, after
        if layer == "fileio" and name.startswith(IO_PREFIXES):
            writes = name.startswith(("save_", "write_"))
            def before(args):
                self.io_depth += 1
                return self.io_depth == 1
            def after(outermost, args, kwargs, result):
                self.io_depth -= 1
                if not outermost or not args or not isinstance(args[0], (str, os.PathLike)):
                    return
                try:
                    size = os.path.getsize(args[0])
                except OSError:
                    return
                self.io["files"] += 1
                self.io["bytes_written" if writes else "bytes_read"] += size
            return before, after
        if layer == "cli" and name.startswith("cmd_"):
            def before(args):
                self.cli_commands += 1
            return before, None
        if layer == "cli" and name == "main":
            def after(token, args, kwargs, result):
                if result not in (None, 0):
                    self.cli_nonzero += 1
            return None, after
        return None, None

    # -- ops and results --------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run one op as the root span of its op id."""
        self.op_id = op_id
        frame = ["op", 0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[frame[2]] = (-1, start, end, -1, op_id)

    def absent(self) -> list[str]:
        wrapped = set(self.names)
        wanted = set(CALL_METRICS.values()) | {
            "checks.check_bohr", f"checks.{BISECT_NAME}", "cli.main", "fileio.write_text",
        }
        return sorted(wanted - wrapped)

    def metrics(self) -> dict:
        verdicts = sum(self.verdicts.values())
        decisive = self.verdicts["holds"] + self.verdicts["violated"]
        out = {metric: self.calls[name] for metric, name in CALL_METRICS.items()}
        out["linalg.busy_s"] = self.busy["linalg"]
        out["functions.coeff_calls"] = sum(self.coeff_calls.values())
        for kind in FUNCTION_KINDS:
            out[f"functions.coeff_calls.{kind}"] = self.coeff_calls[kind]
        out["functions.coeff_terms"] = self.coeff_terms
        out["functions.busy_s"] = self.busy["functions"]
        out["checks.verdicts"] = verdicts
        out["checks.rungs"] = self.rungs
        out["checks.bisect_probes"] = self.bisect_probes / self.bisect_calls if self.bisect_calls else 0.0
        out["checks.abs_per_verdict"] = out["linalg.abs_calls"] / verdicts if verdicts else 0.0
        out["checks.decisive_ratio"] = decisive / verdicts if verdicts else 0.0
        out["checks.busy_s"] = self.busy["checks"]
        out["fileio.bytes_written"] = self.io["bytes_written"]
        out["fileio.bytes_read"] = self.io["bytes_read"]
        out["fileio.files"] = self.io["files"]
        out["fileio.busy_s"] = self.busy["fileio"]
        out["cli.commands"] = self.cli_commands
        out["cli.nonzero_exits"] = self.cli_nonzero
        out["cli.busy_s"] = self.busy["cli"]
        return out

    def bases(self) -> dict:
        """Denominators of the ratio metrics, reported next to them."""
        return {
            "checks.bisect_probes": {"empirical_bohr_radius_calls": self.bisect_calls},
            "checks.abs_per_verdict": {"verdicts": sum(self.verdicts.values())},
            "checks.decisive_ratio": {"verdicts": sum(self.verdicts.values())},
        }

    def write_spans(self, path: str) -> int:
        """Write spans as gzipped JSON lines, times in microseconds from the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_us", "end_us", "parent", "op"]}) + "\n")
            for name_id, start, end, parent, op in spans:
                label = "op" if name_id < 0 else name_id
                fh.write(json.dumps([label, round((start - t0) * 1e6), round((end - t0) * 1e6), parent, op]) + "\n")
        return len(spans)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
