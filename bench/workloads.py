"""The benchmark workloads, each a closed loop with one client.

An op is one unit of user-visible work; op ``i`` of a workload is a pure
function of the workload seed and ``i``, so the op stream is an infinite
deterministic sequence that repeats with period ``cycle``. Instance files
are drawn from a fixed pool, generated from POOL_SEED, so every CLI artifact
has an expected digest in expected.json; the workload seed sets the order of
the stream and, for ``verdict-mix``, the functions and radii themselves.

* ``campaign``: the CLI research loop ``verify``, ``radius``, ``proofcheck``
  on thm1 instance files, half of them with inner degrees up to 10. Radius
  bisection recomputes the r-independent |A_n| stack about 21 times.
* ``verdict-mix``: library verdicts on freshly built functions of all four
  representations at radii drawn over [1/3, 0.95], so a per-function cache
  has little to reuse and per-call validation dominates.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import oracles

POOL_SEED = 200305810
BOHR_TOL = 1e-9        # the library's default verdict tolerance, used by every op
RADIUS_TOL = 1e-6      # the CLI's default bisection tolerance for ``radius``


class Op(NamedTuple):
    key: str                     # identity of the input; equal keys must give equal outputs
    fn: Callable[[], object]
    artifact: str | None = None  # file the op writes, checked after it returns


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""

    def __init__(self, bohrlab, seed: int, expected: dict | None):
        self.lib = bohrlab
        self.seed = int(seed)
        # None while make_expected.py records the table
        self.expected = expected
        self.recorded: dict = {}
        self.first_digest: dict = {}
        self.repeats_checked = 0
        self.digests_checked = 0
        self.verdicts = {"holds": 0, "violated": 0, "inconclusive": 0}
        self.cycle = 0

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def _check_digest(self, key: str, digest: str, rc=None) -> str | None:
        """Compare an output digest with the first pass of this run and the expected table."""
        first = self.first_digest.setdefault(key, digest)
        if first != digest:
            return f"{key}: output differs between two passes of one run"
        if self.expected is None:
            self.recorded[key] = [digest, rc]
            return None
        want = self.expected.get(key)
        if want is None:
            return f"{key}: no expected digest"
        self.digests_checked += 1
        if want[1] != rc:
            return f"{key}: exit code {rc}, expected {want[1]}"
        if want[0] != digest:
            return f"{key}: digest {digest[:12]} differs from expected {want[0][:12]}"
        return None

    def observe(self, op: Op, result, error: BaseException | None) -> str | None:
        """Check one op's output; return a failure message or None."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Output checks that need the whole run: oracles and input digests."""
        return {"wrong": [], "known_defects": [], "check_failures": []}


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

class Campaign(Workload):
    """Ops are in-process ``bohrlab.cli.main`` calls inside the run directory."""

    name = "campaign"
    commands = ("verify", "radius", "proofcheck")
    DIMS = range(1, 9)
    DEGREES = ((1, 4), (1, 10))
    VARIANTS = 2

    def __init__(self, bohrlab, seed, expected):
        super().__init__(bohrlab, seed, expected)
        functions, fileio = bohrlab.functions, bohrlab.fileio
        self.items: list = []
        self.artifact_bytes: dict = {}
        self.summaries: dict = {}
        for sub in ("in", "out"):
            os.makedirs(sub, exist_ok=True)
        index = 0
        for _ in range(self.VARIANTS):
            for degrees in self.DEGREES:
                for dim in self.DIMS:
                    gen_seed = POOL_SEED + index
                    f = functions.generate_thm1_instance(dim, degrees=degrees, seed=gen_seed)
                    report = functions.hypothesis_check(f, "thm1").to_dict()
                    name = f"c{index:02d}"
                    path = f"in/{name}.json"
                    fileio.save_function_file(path, fileio.FunctionFile(f, "thm1", gen_seed, report))
                    self.items.append({
                        "name": name, "path": path,
                        "lambdas": np.array(f.lambdas), "degrees": np.array(f.degrees),
                    })
                    index += 1
        self.order = np.random.default_rng([POOL_SEED, self.seed]).permutation(len(self.items))
        self.cycle = len(self.items) * len(self.commands)

    def op(self, i: int) -> Op:
        item = self.items[self.order[(i // len(self.commands)) % len(self.items)]]
        command = self.commands[i % len(self.commands)]
        artifact = f"out/{command}.json"
        if os.path.exists(artifact):
            os.remove(artifact)  # so a stale file from an earlier pass cannot pass the check
        argv = [command, item["path"], "--out", artifact]
        cli = self.lib.cli
        return Op(f"{item['name']}/{command}", lambda: cli.main(argv), artifact)

    def observe(self, op, result, error):
        if error is not None:
            return f"{op.key}: raised {type(error).__name__}: {error}"
        try:
            with open(op.artifact, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"{op.key}: exit code {result}, no artifact ({exc})"
        digest = sha256(data)
        self.repeats_checked += op.key in self.first_digest
        failure = self._check_digest(op.key, digest, result)
        if op.key not in self.artifact_bytes or failure:
            self.artifact_bytes[op.key] = data
        self._count_verdicts(digest, data)
        return failure

    def _count_verdicts(self, digest: str, data: bytes) -> None:
        summary = self.summaries.get(digest)
        if summary is None:
            try:
                record = json.loads(data)
                summary = record.get("summary", {}) if isinstance(record, dict) else {}
            except ValueError:
                summary = {}
            self.summaries[digest] = summary
        for status in self.verdicts:
            self.verdicts[status] += int(summary.get(status, 0))

    def finish(self):
        wrong, failures = [], []
        for item in self.items:
            with open(item["path"], "rb") as fh:
                failure = self._check_digest(f"{item['name']}/input", sha256(fh.read()))
            if failure:
                failures.append(failure)
            verify = self.artifact_bytes.get(f"{item['name']}/verify")
            if verify is not None:
                wrong += self._check_verify(item, json.loads(verify))
            radius = self.artifact_bytes.get(f"{item['name']}/radius")
            if radius is not None:
                wrong += self._check_radius(item, json.loads(radius))
        return {"wrong": wrong, "known_defects": [], "check_failures": failures}

    def _check_verify(self, item, record) -> list:
        wrong = []
        for row in record["verdicts"]:
            extreme = oracles.mobius_extreme(item["lambdas"], item["degrees"], row["r"])
            if oracles.contradicts(row["status"], extreme, BOHR_TOL):
                wrong.append({"key": f"{item['name']}/verify", "status": row["status"],
                              "r": row["r"], "oracle_extreme": extreme})
        return wrong

    def _check_radius(self, item, record) -> list:
        """A radius row is wrong if it claims a radius beyond the exact one, if its
        guarantee differs from the closed form, or if its status disagrees with
        guarantee <= exact radius + tol."""
        wrong = []
        exact = oracles.mobius_radius(item["lambdas"], item["degrees"])
        guarantee = oracles.guaranteed_radius(np.abs(item["lambdas"]))
        oracle_status = "holds" if guarantee <= exact + RADIUS_TOL else "violated"
        for row in record["verdicts"]:
            reasons = []
            if row["empirical_radius"] > exact + RADIUS_TOL + oracles.RADIUS_SLACK:
                reasons.append("radius beyond the exact one")
            if abs(row["guaranteed_radius"] - guarantee) > oracles.RADIUS_SLACK:
                reasons.append("guarantee differs from the closed form")
            if row["status"] != oracle_status:
                reasons.append(f"status {row['status']}, oracle {oracle_status}")
            if reasons:
                wrong.append({"key": f"{item['name']}/radius", "reasons": reasons,
                              "empirical": row["empirical_radius"], "exact": exact,
                              "guaranteed": row["guaranteed_radius"], "oracle_guarantee": guarantee})
        return wrong


# ---------------------------------------------------------------------------
# library workload
# ---------------------------------------------------------------------------

# A known answer the library gets wrong: |A| from psd_sqrt(A*A) drops singular
# values below about 1e-6 ||A||, so it reads HOLDS. The exact majorant at r = 0.5 is diag(0.45, 1 + 5e-8), so the answer is VIOLATED.
KNOWN_ANSWER_COEFFS = (np.diag([0.0, 1.0 - 2e-7]), np.diag([0.9, 5e-7]))
KNOWN_ANSWER_R = 0.5
KNOWN_ANSWER_STATUS = "violated"


class VerdictMix(Workload):
    name = "verdict-mix"
    KINDS = ("mobius", "halfplane", "transfer", "polynomial")
    PER_KIND = 32            # functions per kind, rebuilt fresh for every op
    RADII = 1 << 14          # radius draws per kind; the stream repeats a radius after this
    R_LO, R_HI = 1.0 / 3.0, 0.95

    def __init__(self, bohrlab, seed, expected):
        super().__init__(bohrlab, seed, expected)
        functions = bohrlab.functions
        n = self.PER_KIND
        seeds = [int(s) for s in np.random.SeedSequence([POOL_SEED, self.seed]).generate_state(2 * n)]
        self.params = {"mobius": [], "halfplane": [], "transfer": [], "polynomial": []}
        for j in range(n):
            dim = 1 + j % 8
            degrees = (1, 4) if (j // 8) % 2 == 0 else (1, 10)
            f = functions.generate_thm1_instance(dim, degrees=degrees, seed=seeds[j])
            self.params["mobius"].append((f.basis, f.lambdas, f.phases, f.degrees))
            g = functions.generate_thm2_instance(dim, seed=seeds[n + j])
            self.params["halfplane"].append((g.basis, g.diag, g.t, g.beta))
        rng = np.random.default_rng([POOL_SEED, self.seed, 1])
        for j in range(n):
            self.params["polynomial"].append(self._schur_polynomial(rng, 1 + j % 4, 1 + j % 3))
        # transfer functions have no closed form: a fixed pool with expected digests
        self.transfer_r = []
        for j in range(n):
            pool_seed = POOL_SEED + 300 + j
            t = functions.generate_transfer_instance(1 + j % 4, 1 + (j // 4) % 4, seed=pool_seed)
            self.params["transfer"].append((t.colligation, t.state_dim))
            self.transfer_r.append(float(np.random.default_rng(pool_seed).uniform(self.R_LO, self.R_HI)))
        self.radii = rng.uniform(self.R_LO, self.R_HI, size=(2, self.RADII))
        self.transfer_order = rng.permutation(n)
        self.cycle = 1 + len(self.KINDS) * n
        self.outcomes: dict = {}

    def _schur_polynomial(self, rng, dim: int, degree: int) -> tuple:
        """Normal A_0 plus Ginibre A_1..A_d, scaled to sup norm 1 - 1e-3 on the disk."""
        q, rr = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        q = q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))
        lam = rng.uniform(0.3, 0.95, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
        coeffs = [(q * lam) @ q.conj().T]
        for _ in range(degree):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            coeffs.append(0.5 * g / np.sqrt(2.0 * dim))
        bound, _ = self.lib.functions.certified_sup(self.lib.functions.Polynomial(coeffs))
        scale = (1.0 - 1e-3) / bound
        return tuple(scale * c for c in coeffs)

    def op(self, i):
        checks, functions = self.lib.checks, self.lib.functions
        if i % self.cycle == 0:
            return Op("known-answer", lambda: checks.check_bohr(
                functions.Polynomial(KNOWN_ANSWER_COEFFS), KNOWN_ANSWER_R))
        k = (i // self.cycle) * (self.cycle - 1) + (i % self.cycle) - 1
        kind = self.KINDS[k % 4]
        j = k // 4
        n = self.PER_KIND
        if kind == "mobius":
            p, r = self.params[kind][j % n], float(self.radii[0, j % self.RADII])
            return Op(f"m{j % n}@{j % self.RADII}", lambda: checks.check_bohr(functions.MobiusLift(*p), r))
        if kind == "halfplane":
            p, r = self.params[kind][j % n], float(self.radii[1, j % self.RADII])
            return Op(f"h{j % n}@{j % self.RADII}",
                      lambda: checks.check_thm2_bounds(functions.HalfPlaneLift(*p), r))
        if kind == "transfer":
            t = int(self.transfer_order[j % n])
            p, r = self.params[kind][t], self.transfer_r[t]
            return Op(f"t{t:02d}", lambda: checks.check_bb2_norm_bound(functions.TransferRealization(*p), r))
        coeffs = self.params[kind][j % n]

        def polynomial_op():
            f = functions.Polynomial(coeffs)
            return checks.check_bohr(f, checks.thm1_admissible_radius(f.coefficient0()).value)
        return Op(f"p{j % n}", polynomial_op)

    def observe(self, op, result, error):
        if error is not None:
            return f"{op.key}: raised {type(error).__name__}: {error}"
        verdict = getattr(result, "bohr", result)
        status = verdict.status.value
        self.verdicts[status] += 1
        self.outcomes.setdefault(op.key, (status, float(verdict.r)))
        if op.key[0] == "t":
            self.repeats_checked += op.key in self.first_digest
            witness = None if verdict.witness is None else [[float(z.real), float(z.imag)] for z in verdict.witness]
            encoded = json.dumps([status, float(verdict.r), float(verdict.lhs_extreme),
                                  float(verdict.truncation_gap), int(verdict.N_used), witness])
            return self._check_digest(op.key, sha256(encoded.encode()))
        return None

    def finish(self):
        wrong, known = [], []
        for key, (status, r) in self.outcomes.items():
            kind, index = key[0], key[1:].split("@")[0]
            if key == "known-answer":
                extreme = oracles.polynomial_extreme(KNOWN_ANSWER_COEFFS, r)
                if status != KNOWN_ANSWER_STATUS:
                    known.append({"key": key, "expected": KNOWN_ANSWER_STATUS, "got": status,
                                  "oracle_extreme": extreme,
                                  "cause": "|A| from psd_sqrt(A*A) drops small singular values"})
            elif kind == "m":
                p = self.params["mobius"][int(index)]
                extreme = oracles.mobius_extreme(p[1], p[3], r)
            elif kind == "h":
                p = self.params["halfplane"][int(index)]
                extreme = oracles.halfplane_extreme(p[1], p[2], p[3], r)
            elif kind == "p":
                extreme = oracles.polynomial_extreme(self.params["polynomial"][int(index)], r)
            else:
                continue  # transfer: checked by digest in observe
            if oracles.contradicts(status, extreme, BOHR_TOL):
                wrong.append({"key": key, "status": status, "r": r, "oracle_extreme": extreme})
        return {"wrong": wrong, "known_defects": known, "check_failures": []}


WORKLOADS = {w.name: w for w in (Campaign, VerdictMix)}
