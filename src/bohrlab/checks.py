"""Bohr-type inequality verdicts in the Loewner order.

Every check compares a truncated majorant series against a closed-form
right-hand side, carrying a certified scalar tail bound so that "Holds"
and "Violated" are both sound statements about the full series.
Equality witnesses land on the Boundary verdict, which counts as a pass
(the underlying inequalities are non-strict).

Proof-step identifiers (eq5, eq9, ..., thm2final) are stable interface
tokens; each one's meaning is spelled out in `proof_step_validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    HypothesisViolated,
    OutsideDomain,
    StepClassMismatch,
    StepNotApplicable,
)
from .linalg import (
    LoewnerVerdict,
    Order,
    hermitian_eigen,
    hermitian_part,
    identity,
    loewner_compare,
    normal_defect,
    operator_norm,
    psd_sqrt,
    random_unitary,
)
from .functions import (
    HYPOTHESIS_TOL,
    LIFT_ROWS,
    CoefficientSeries,
    HalfPlaneLift,
    MobiusLift,
    OperatorFunction,
    Polynomial,
    _index,
    _row_blocks,
    certified_sup,
    generate_thm1_instance,
    hypothesis_check,
    mobius_witness,
)

# the truncation orders N a majorant is summed to; partial sums are
# Loewner-monotone in N, so a caller may stop at the first that decides
RUNGS = (64, 128, 256, 512, 1024, 2048, 4096)
INITIAL_N, MAX_N = RUNGS[0], RUNGS[-1]
DEFAULT_BOHR_TOL = 1e-9
GRAM_TOL = 1e-8
SERIES_TAIL_TARGET = 1e-12
RADIUS_CAP = 1.0 - 1e-6
SQRT_HALF = 1.0 / np.sqrt(2.0)


class Status(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BohrVerdict:
    """Three-valued outcome of a majorant comparison.

    ``lhs_extreme`` is the largest eigenvalue of (partial sum - RHS);
    ``truncation_gap`` is the certified bound on what the dropped tail
    could add. Holds means lhs_extreme + truncation_gap <= tol; Violated
    means the partial sum alone already sticks out by more than tol, with
    a unit witness vector.
    """

    status: Status
    r: float
    lhs_extreme: float
    truncation_gap: float
    N_used: int
    witness: np.ndarray | None = None

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def margin(self) -> float:
        return -self.lhs_extreme


def majorant(series: CoefficientSeries, r: float):
    """Partial sum of |A_n| r^n over the whole stored series, plus the
    certified scalar tail tail_norm_bound * r^(order+1) / (1 - r).

    The series enters as Polynomial(series.coeffs), whose constructor
    validates it; |A_n| is that class's abs_terms, not the rung-sized store,
    so a series of any order is summed.
    """
    if not 0.0 <= r < 1.0:
        raise OutsideDomain("majorant needs 0 <= r < 1")
    T = Polynomial(series.coeffs).abs_terms(0, series.order)
    return _sum(T, r, 0, series.order), _tail(series.tail_norm_bound, r, series.order)


def _sum(T: np.ndarray, r: float, first: int, last: int) -> np.ndarray:
    """Hermitian part of sum_{first <= n <= last} T_n r^n, summed in n order LIFT_ROWS rows at a time:
    np.add.accumulate gives the bytes of partial += T_n * r**n; reduce, BLAS or np.power would not."""
    partial = np.zeros(T.shape[1:], dtype=np.complex128)
    for lo in range(first, last + 1, LIFT_ROWS):
        hi = min(lo + LIFT_ROWS, last + 1)
        # Python r**n keeps the bench digests of the campaign verify artifacts and of every transfer verdict
        x = T[lo:hi] * np.array([r**n for n in range(lo, hi)])[:, None, None]
        x[0] += partial
        partial = np.add.accumulate(x, axis=0, out=x)[-1]
    return hermitian_part(partial)


def _tail(c: float, r: float, N: int) -> float:
    """Norm bound on sum_{n > N} T_n r^n when every ||T_n|| <= c."""
    return c * r ** (N + 1) / (1.0 - r)


def _abs_store(f: OperatorFunction, n: int) -> np.ndarray:
    """The (N + 1, d, d) array |A_0|, ..., |A_N| of f, for a rung N >= n.

    It is kept on f and grown to the rung covering n by f.abs_terms, over
    only the indices it lacks. It is replaced by np.concatenate, not grown
    in place, so that a reader in another thread keeps a whole array, and it
    holds no reference back to f, so that f is freed without the cyclic
    collector. Caching is sound because functions and arrays are immutable.
    """
    T = f.__dict__.get("_abs_store", ())
    if len(T) <= n:
        new = f.abs_terms(len(T), next(N for N in RUNGS if N >= n))
        T = f._abs_store = np.concatenate((T, new)) if len(T) else new
    return T


def _adaptive_bohr(f: OperatorFunction, r: float, rhs: np.ndarray, tol: float) -> BohrVerdict:
    """Climb RUNGS until the verdict is conclusive.

    A Violated verdict at any finite N is already sound for the full
    series, because the partial sums only grow with N.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 0")
    for N in RUNGS:
        eig = hermitian_eigen(_sum(_abs_store(f, N), r, 0, N) - rhs)
        extreme = float(eig.eigenvalues[-1])
        tail = _tail(f.tail_bound(N), r, N)
        if extreme > tol:
            witness = eig.basis[:, -1].copy()
            return BohrVerdict(Status.VIOLATED, r, extreme, tail, N, witness)
        if extreme + tail <= tol:
            return BohrVerdict(Status.HOLDS, r, extreme, tail, N)
    return BohrVerdict(Status.INCONCLUSIVE, r, extreme, tail, N)


def require_hypotheses(f: OperatorFunction, family: str) -> None:
    """The hypothesis gate: raise unless f meets the hypotheses of family.

    Families are the hypothesis classes of hypothesis_check ("thm1",
    "cor2", "thm2") plus "norm", which asks only for a norm bound. Only
    "thm2" admits a HalfPlaneLift, which certifies no norm bound, and
    decides it from its parameters. A MobiusLift meets "thm1" by
    construction, and "cor2" when all lambda_i are equal (its A_0 is then
    scalar). Every other pairing except "norm" runs hypothesis_check.
    """
    if isinstance(f, HalfPlaneLift):
        if family != "thm2":
            raise StepClassMismatch(
                f"{family} needs a norm-bounded instance; the real-part class certifies no norm bound"
            )
        # every other thm2 hypothesis holds by construction; the largest
        # eigenvalue of Re f - I over the disk is max_i (1 - d_i)(sup Re s - 1)
        sup_re_s = 2.0 * f.t * (1.0 - f.beta.real) / (1.0 - abs(f.beta) ** 2)
        if np.max((1.0 - f.diag) * (sup_re_s - 1.0)) > HYPOTHESIS_TOL:
            raise HypothesisViolated("thm2 hypotheses fail: grid_re_excess")
        return
    if isinstance(f, MobiusLift) and family in ("thm1", "cor2"):
        if family == "cor2" and np.max(np.abs(f.lambdas - f.lambdas.mean())) > HYPOTHESIS_TOL:
            raise HypothesisViolated("cor2 hypotheses fail: a0_scalar_defect")
        return
    if family == "norm":
        return
    report = hypothesis_check(f, family)
    if not report.passed:
        raise HypothesisViolated(f"{family} hypotheses fail: " + ", ".join(report.failures()))


def check_bohr(f: OperatorFunction, r: float, tol: float = DEFAULT_BOHR_TOL) -> BohrVerdict:
    """Is the full majorant series at radius r below the identity?"""
    if not 0.0 <= r < 1.0:
        raise OutsideDomain("check_bohr needs 0 <= r < 1")
    return _adaptive_bohr(f, r, identity(f.dim), tol)


def check_bb2_norm_bound(
    f: OperatorFunction, r: float, tol: float = DEFAULT_BOHR_TOL
) -> BohrVerdict:
    """Majorant series against the norm-class bound (1/sqrt(1-r^2)) I."""
    if not 0.0 <= r < 1.0:
        raise OutsideDomain("check_bb2_norm_bound needs 0 <= r < 1")
    rhs = identity(f.dim) / np.sqrt(1.0 - r * r)
    return _adaptive_bohr(f, r, rhs, tol)


def check_cor2(f: OperatorFunction, r: float, tol: float = DEFAULT_BOHR_TOL) -> BohrVerdict:
    """Majorant series of a scalar-A0 instance against cor2_rhs(r) I."""
    rhs = cor2_rhs(r) * identity(f.dim)
    require_hypotheses(f, "cor2")
    return _adaptive_bohr(f, r, rhs, tol)


# ---------------------------------------------------------------------------
# radius formulas
# ---------------------------------------------------------------------------

class Branch(Enum):
    INVERTIBLE = "invertible"
    SQRT = "sqrt"
    MAX = "max"


@dataclass(frozen=True)
class AdmissibleRadius:
    value: float
    branch: Branch


@dataclass(frozen=True)
class RadiusReport:
    guaranteed_radius: float
    empirical_radius: float
    margin: float
    branch: Branch
    capped: bool


def _radius_from_abs(abs_a0: np.ndarray) -> AdmissibleRadius:
    """Guaranteed radius from |A_0| alone (no hypothesis gating).

    The sqrt formula lambda_min(((I-|A0|)/2)^(1/2)) is always admissible;
    the inverse formula lambda_min((I+2|A0|)^(-1)) is added when
    |A0| >= I/2 holds (Boundary counts). Both read the top eigenvalue x of
    |A0|, and (1-x)(1+2x)^2 <= 2 on [0, 1), with equality only at x = 1/2, so
    the inverse formula loses by at most rounding: ties within 1e-12 are MAX.
    """
    dim = abs_a0.shape[0]
    eye = identity(dim)
    S = psd_sqrt((eye - abs_a0) / 2.0)
    r_sqrt = float(hermitian_eigen(S).eigenvalues[0])
    if not loewner_compare(eye / 2.0, abs_a0).holds:
        return AdmissibleRadius(r_sqrt, Branch.SQRT)
    r_inv = float(hermitian_eigen(hermitian_part(np.linalg.inv(eye + 2.0 * abs_a0))).eigenvalues[0])
    if abs(r_inv - r_sqrt) <= 1e-12:
        return AdmissibleRadius(max(r_inv, r_sqrt), Branch.MAX)
    return AdmissibleRadius(r_inv, Branch.INVERTIBLE)


def thm1_admissible_radius(f) -> AdmissibleRadius:
    """Guaranteed Bohr radius of f, whose A_0 must be a contraction normal within the thm1 gate's
    HYPOTHESIS_TOL, from its stored |A_0|; a matrix A_0 is taken as Polynomial([A_0]), which validates it."""
    if not isinstance(f, OperatorFunction):
        f = Polynomial([f])
    A0 = f.coefficient0()
    if normal_defect(A0) > HYPOTHESIS_TOL:
        raise HypothesisViolated("A_0 must be normal")
    if operator_norm(A0) >= 1.0:
        raise HypothesisViolated("||A_0|| < 1 is required")
    return _radius_from_abs(_abs_store(f, 0)[0])


def bombieri_radius(lam: float) -> float:
    """Scalar guaranteed radius for initial coefficient magnitude lam."""
    if not 0.0 <= lam < 1.0:
        raise DomainError("lam must lie in [0, 1)")
    if lam >= 0.5:
        return 1.0 / (1.0 + 2.0 * lam)
    return float(np.sqrt((1.0 - lam) / 2.0))


# ---------------------------------------------------------------------------
# scalar helpers for the intermediate-range bound
# ---------------------------------------------------------------------------

def cor2_rhs(r: float) -> float:
    """(3 - sqrt(8(1-r^2))) / r on [1/3, 1/sqrt(2)]."""
    if not (1.0 / 3.0 - 1e-12 <= r <= SQRT_HALF + 1e-12):
        raise DomainError("cor2_rhs needs r in [1/3, 1/sqrt(2)]")
    return (3.0 - np.sqrt(8.0 * (1.0 - r * r))) / r


def chi(x: float, r: float) -> float:
    """x + r sqrt(1-x^2)/sqrt(1-r^2); on [0, r] its max is 2r."""
    if not 0.0 <= x < 1.0:
        raise DomainError("chi needs x in [0, 1)")
    if not 0.0 <= r < 1.0:
        raise DomainError("chi needs r in [0, 1)")
    return x + r * np.sqrt(1.0 - x * x) / np.sqrt(1.0 - r * r)


def xi(x: float, r: float) -> float:
    """x + r(1-x^2)/(1-rx): the scalar majorant envelope at radius r."""
    if not 0.0 <= x < 1.0:
        raise DomainError("xi needs x in [0, 1)")
    if not 0.0 <= r < 1.0:
        raise DomainError("xi needs r in [0, 1)")
    return x + r * (1.0 - x * x) / (1.0 - r * x)


def xi_argmax(r: float) -> float:
    """Interior maximizer of xi(., r); xi there equals cor2_rhs(r)."""
    if not (1.0 / 3.0 - 1e-12 <= r <= SQRT_HALF + 1e-12):
        raise DomainError("xi_argmax needs r in [1/3, 1/sqrt(2)]")
    return (1.0 - np.sqrt((1.0 - r * r) / 2.0)) / r


# ---------------------------------------------------------------------------
# proof steps
# ---------------------------------------------------------------------------

class ProofStep(Enum):
    EQ5 = "eq5"
    EQ9 = "eq9"
    EQ10 = "eq10"
    EQ11 = "eq11"
    EQ12 = "eq12"
    EQ14 = "eq14"
    EQ1 = "eq1"
    EQ2 = "eq2"
    BB2_REMARK = "bb2remark"
    THM2_FINAL = "thm2final"


@dataclass(frozen=True)
class StepSpec:
    """One row of the proof-step table.

    ``family`` is the hypothesis family the step is gated on (see
    require_hypotheses). ``param`` is the argument of proof_step_validate
    the step reads: "z" (z_samples), "k", "r", or None. ``classes`` are
    the file classes whose instances the step may audit, ``defaults`` those
    whose default audit runs it.
    """

    family: str
    param: str | None
    classes: tuple[str, ...]
    defaults: tuple[str, ...] = ()


_THM1_FILES = ("thm1", "polynomial")
_THM2_FILES = ("thm2", "polynomial")
_NORM_FILES = ("thm1", "transfer", "polynomial")

STEPS = {
    ProofStep.EQ5: StepSpec("thm1", "z", _THM1_FILES, ("thm1",)),
    ProofStep.EQ9: StepSpec("thm1", "k", _THM1_FILES, ("thm1",)),
    ProofStep.EQ10: StepSpec("thm1", "k", _THM1_FILES, ("thm1",)),
    ProofStep.EQ11: StepSpec("thm1", "r", _THM1_FILES, ("thm1",)),
    ProofStep.EQ12: StepSpec("thm1", "r", _THM1_FILES, ("thm1",)),
    ProofStep.EQ14: StepSpec("thm1", None, _THM1_FILES, ("thm1",)),
    ProofStep.EQ1: StepSpec("thm2", "z", _THM2_FILES, ("thm2",)),
    ProofStep.EQ2: StepSpec("thm2", "r", _THM2_FILES, ("thm2",)),
    ProofStep.BB2_REMARK: StepSpec("norm", "r", _NORM_FILES, ("transfer", "polynomial")),
    ProofStep.THM2_FINAL: StepSpec("thm2", "r", _THM2_FILES, ("thm2",)),
}


@dataclass(frozen=True)
class ProofStepReport:
    step: ProofStep
    k_or_r: float
    verdict: LoewnerVerdict
    location: complex | float | str


def default_z_samples(count: int = 64) -> np.ndarray:
    """count disk samples on four rings, innermost to outermost: count // 4
    on each, plus one on each of the first count % 4, so that with count >= 4
    the outermost ring, where a Gram defect is smallest, is sampled too."""
    rings = (0.3, 0.6, 0.9, 0.975)
    per, extra = divmod(count, len(rings))
    sizes = [per + (i < extra) for i in range(len(rings))]
    pts = [rho * np.exp(2j * np.pi * k / n) for rho, n in zip(rings, sizes) for k in range(n)]
    return np.asarray(pts, dtype=np.complex128)


def _worst(a: LoewnerVerdict, b: LoewnerVerdict) -> LoewnerVerdict:
    rank = {Order.NOT_LESS_OR_EQUAL: 2, Order.BOUNDARY: 1, Order.LESS_OR_EQUAL: 0}
    lead = a if rank[a.relation] >= rank[b.relation] else b
    return LoewnerVerdict(
        relation=lead.relation,
        min_gap=min(a.min_gap, b.min_gap),
        tolerance=max(a.tolerance, b.tolerance),
        witness=lead.witness,
    )


def _gram_verdict(f, left_of, samples) -> tuple[LoewnerVerdict, complex]:
    """Aggregate PSD check of left*left - right*right over z samples,
    where right = f(z) - A_0 and left = left_of(f(z), A_0), taken on stacks of
    LIFT_ROWS samples. The first sample of smallest gap is the worst."""
    A0 = f.coefficient0()
    gaps, vecs = [], []
    for block in _row_blocks(samples):
        fz = f.sample(block).values
        L = left_of(fz, A0)
        R = fz - A0
        eig = hermitian_eigen(hermitian_part(L.conj().swapaxes(-1, -2) @ L - R.conj().swapaxes(-1, -2) @ R))
        gaps.append(eig.eigenvalues[:, 0])
        vecs.append(eig.basis[:, :, 0])
    gaps = np.concatenate(gaps)
    i = int(np.argmin(gaps))
    witness = np.concatenate(vecs)[i].copy()
    return LoewnerVerdict.of_gap(float(gaps[i]), GRAM_TOL, witness), complex(samples[i])


def _series_loewner(
    f: OperatorFunction, r: float, rhs: np.ndarray, first: int, squared: bool = False
) -> LoewnerVerdict:
    """Loewner comparison of sum_{n >= first} T_n r^n against rhs, where
    T_n is |A_n| of f, or |A_n|^2 when squared.

    The rung N is chosen before any coefficient is generated: the first of
    RUNGS whose tail c r^(N+1)/(1-r) is negligible (<= 1e-12), or else the
    last, with c = f.tail_bound(N) (c^2 when squared, since ||A_n|| <= c
    bounds ||A_n|^2|| by c^2). That rung is summed and its tail folded into
    the left side. If that still leaves a meaningful tail, a would-be
    LessOrEqual degrades to Boundary rather than overclaiming.
    """
    for N in RUNGS:
        c = f.tail_bound(N)
        tail = _tail(c * c if squared else c, r, N)
        if tail <= SERIES_TAIL_TARGET:
            break
    T = _abs_store(f, N)[: N + 1]
    partial = _sum(T @ T if squared else T, r, first, N)
    padded = loewner_compare(partial + tail * identity(len(rhs)), rhs)
    if padded.relation is Order.LESS_OR_EQUAL:
        return padded
    raw = loewner_compare(partial, rhs)
    if raw.relation is Order.NOT_LESS_OR_EQUAL:
        return raw
    return LoewnerVerdict(Order.BOUNDARY, raw.min_gap, raw.tolerance, None)


def _powers_sum(P: np.ndarray, k: int) -> np.ndarray:
    """I + P + ... + P^(k-1)."""
    dim = P.shape[0]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    term = identity(dim)
    for _ in range(k):
        acc += term
        term = term @ P
    return acc


def proof_step_validate(
    f: OperatorFunction,
    step: ProofStep | str,
    *,
    k: int = 20,
    r: float = 0.5,
    z_samples=None,
) -> ProofStepReport:
    """Numerically validate one inequality from the derivation chain.

    Steps and their meanings:
      eq5       Gram defect making the zero-centering transform contractive.
      eq9       Squared coefficients dominated by the A_0 defect chain (k-sum).
      eq10      Mixed |A_n||A_0|^n sum against the same chain (k-sum).
      eq11      Full majorant tail against r(I-|A0|^2)(I-r|A0|)^(-1),
                valid only when rI <= |A0| (else StepNotApplicable).
      eq12      Full majorant tail against (I-|A0|^2)^(1/2) r/sqrt(1-r^2).
      eq14      |A_1| <= I-|A0|^2 <= 2(I-|A0|) chain.
      eq1       Gram defect for the real-part-bounded class.
      eq2       Squared-coefficient sum against 4(I-A0)^2 r/(1-r).
      thm2final Majorant tail against 2(I-A0) r/(1-r).
      bb2remark Full majorant against (1/sqrt(1-r^2)) I.

    The function must meet the hypotheses of the step's family (see STEPS
    and require_hypotheses); that gate runs before any applicability test.
    """
    step = ProofStep(step)
    require_hypotheses(f, STEPS[step].family)
    return _validate_step(f, step, k=k, r=r, z_samples=z_samples)


def _validate_step(
    f: OperatorFunction, step: ProofStep, *, k: int = 20, r: float = 0.5, z_samples=None
) -> ProofStepReport:
    """proof_step_validate without the hypothesis gate."""
    spec = STEPS[step]
    dim = f.dim
    eye = identity(dim)

    if spec.param == "z":
        samples = default_z_samples() if z_samples is None else np.asarray(z_samples)
        if samples.ndim != 1 or not len(samples):
            raise ValueError("z_samples must be a non-empty 1-D sequence of points")
        if step is ProofStep.EQ5:
            left = lambda fz, A0: eye - A0.conj().T @ fz
        else:
            left = lambda fz, A0: 2.0 * (eye - A0) - (fz - A0)
        verdict, worst_z = _gram_verdict(f, left, samples)
        return ProofStepReport(step, float(len(samples)), verdict, worst_z)

    if spec.param == "k":
        k = _index(k, "k", 1, MAX_N)
        A0 = f.coefficient0()
        P = hermitian_part(A0.conj().T @ A0)
        S = _powers_sum(P, k)
        gap2 = eye - P
        if step is ProofStep.EQ9:
            lhs = hermitian_part(sum(A.conj().T @ A for A in f.terms(1, k)))
            rhs = hermitian_part(gap2 @ gap2 @ S)
        else:
            absA0, *absA = _abs_store(f, k)[: k + 1]
            lhs = np.zeros((dim, dim), dtype=np.complex128)
            power = absA0.copy()
            for T in absA:
                lhs += T @ power
                power = power @ absA0
            lhs = hermitian_part(lhs)
            rhs = hermitian_part(absA0 @ gap2 @ S)
        return ProofStepReport(step, float(k), loewner_compare(lhs, rhs), f"k={k}")

    if spec.param == "r":
        if not 0.0 <= r < 1.0:
            raise DomainError("r must lie in [0, 1)")
        first, squared = 1, False
        if step is ProofStep.EQ11:
            absA0 = _abs_store(f, 0)[0]
            if not loewner_compare(r * eye, absA0).holds:
                raise StepNotApplicable("rI <= |A_0| fails; step not applicable")
            gap2 = hermitian_part(eye - absA0 @ absA0)
            rhs = hermitian_part(r * gap2 @ np.linalg.inv(eye - r * absA0))
        elif step is ProofStep.EQ12:
            absA0 = _abs_store(f, 0)[0]
            rhs = psd_sqrt(hermitian_part(eye - absA0 @ absA0)) * (r / np.sqrt(1.0 - r * r))
        elif step is ProofStep.EQ2:
            gap = hermitian_part(eye - f.coefficient0())
            rhs = 4.0 * hermitian_part(gap @ gap) * (r / (1.0 - r))
            squared = True  # |A_n|^2 = A_n* A_n
        elif step is ProofStep.THM2_FINAL:
            rhs = 2.0 * hermitian_part(eye - f.coefficient0()) * (r / (1.0 - r))
        else:
            rhs = eye / np.sqrt(1.0 - r * r)
            first = 0
        return ProofStepReport(step, float(r), _series_loewner(f, r, rhs, first, squared), float(r))

    return _eq14_chain(f, 1)[0]


def _eq14_chain(f: OperatorFunction, max_n: int) -> list[ProofStepReport]:
    """|A_n| <= I - |A_0|^2 <= 2(I - |A_0|) as one chained verdict for each
    n = 1..max_n; the second link does not depend on n."""
    absA0, *absA = _abs_store(f, max_n)[: max_n + 1]
    eye = identity(f.dim)
    mid = hermitian_part(eye - absA0 @ absA0)
    upper = 2.0 * (eye - absA0)
    second = loewner_compare(mid, upper)
    return [
        ProofStepReport(ProofStep.EQ14, float(n), _worst(loewner_compare(T, mid), second), f"n={n}")
        for n, T in enumerate(absA, 1)
    ]


def coefficient_bound_eq14(f: OperatorFunction, max_n: int = 32) -> list[ProofStepReport]:
    """The eq14 chain |A_n| <= I - |A_0|^2 <= 2(I - |A_0|) for every
    coefficient index 1 <= n <= max_n, one report per n.

    The report for n = 1 is the one proof_step_validate gives for eq14.
    """
    max_n = _index(max_n, "max_n", 1, MAX_N)
    require_hypotheses(f, STEPS[ProofStep.EQ14].family)
    return _eq14_chain(f, max_n)


# ---------------------------------------------------------------------------
# composite checks for the real-part-bounded class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm2Bounds:
    bohr: BohrVerdict
    eq2: ProofStepReport
    final: ProofStepReport


def check_thm2_bounds(f: OperatorFunction, r: float, tol: float = DEFAULT_BOHR_TOL) -> Thm2Bounds:
    """All three bounds for the real-part-bounded commuting class."""
    if not 0.0 <= r < 1.0:
        raise OutsideDomain("check_thm2_bounds needs 0 <= r < 1")
    require_hypotheses(f, "thm2")
    bohr = _adaptive_bohr(f, r, identity(f.dim), tol)
    eq2 = _validate_step(f, ProofStep.EQ2, r=r)
    final = _validate_step(f, ProofStep.THM2_FINAL, r=r)
    return Thm2Bounds(bohr, eq2, final)


# ---------------------------------------------------------------------------
# empirical radius and sharpness
# ---------------------------------------------------------------------------

def empirical_bohr_radius(f: OperatorFunction, tol: float = 1e-6) -> float:
    """The Holds/Violated boundary of check_bohr as bisecting (0, RADIUS_CAP)
    down to width tol finds it: 0.5 * (lo + hi) of the final bracket.

    Returns RADIUS_CAP when the majorant stays admissible all the way to
    the cap (compare against RADIUS_CAP to detect this). Inconclusive
    probes count as violated, which can only under-report the radius.

    Whether a probe holds is monotone in r: the partial sums and the tail
    only grow with r, tail_bound(N) does not depend on r, and partial sums
    only grow with N. So a probe that holds at r decides every bisection
    midpoint <= r, and one that fails decides every midpoint >= r. The
    bisection is replayed from the largest held r (L) and the smallest
    failed r (H), a midpoint strictly between them going the way of a root
    guess, and only the end of the replayed final bracket nearest the
    guess is probed, until both ends are decided. The replayed path is then
    the bisection's, so the result is the bisection's bit for bit, unless
    a probe within rounding of the boundary breaks the monotonicity.

    The guess is the secant of (lhs_extreme + truncation_gap -
    DEFAULT_BOHR_TOL) * (1 - r) through the last two probes, the factor
    1 - r taking out the tail's pole at the cap. It falls back to
    0.5 * (L + H), which halves the brackets left in (L, H), when the
    secant leaves (L, H), when it moves at least half the step before last
    (Brent's rule), or when bisecting (L, H) after one more probe could
    take the probes past twice the bisection's.
    """
    if not 1e-6 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 1e-6")
    verdict = check_bohr(f, RADIUS_CAP)
    if verdict.holds:
        return RADIUS_CAP
    L, H = 0.0, RADIUS_CAP
    probes = []
    while True:
        excess = verdict.lhs_extreme + verdict.truncation_gap - DEFAULT_BOHR_TOL
        probes.append((verdict.r, excess * (1.0 - verdict.r)))
        guess = 0.5 * (L + H)
        if len(probes) > 1:
            (r0, g0), (r1, g1) = probes[-2:]
            secant = r1 - g1 * (r1 - r0) / (g1 - g0) if g1 != g0 else guess
            # probes that bisecting (L, H) would still take: the brackets in it halve with each
            bisections = (round((H - L) / spacing) - 1).bit_length()
            if (L < secant < H and len(probes) + bisections < budget
                    and (len(probes) < 3 or abs(secant - r1) < 0.5 * abs(r0 - probes[-3][0]))):
                guess = secant
        lo, hi, depth = 0.0, RADIUS_CAP, 0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid <= L or (mid < H and mid <= guess):
                lo = mid
            else:
                hi = mid
            depth += 1
        if len(probes) == 1:
            spacing, budget = hi - lo, 2 * (depth + 1)
        open_ends = [x for x in (lo, hi) if L < x < H]
        if not open_ends:
            return 0.5 * (lo + hi)
        r = min(open_ends, key=lambda x: abs(x - guess))
        verdict = check_bohr(f, r)
        if verdict.holds:
            L = r
        else:
            H = r


def build_radius_report(f: OperatorFunction, tol: float = 1e-6) -> RadiusReport:
    guaranteed = thm1_admissible_radius(f)
    empirical = empirical_bohr_radius(f, tol)
    return RadiusReport(
        guaranteed_radius=guaranteed.value,
        empirical_radius=empirical,
        margin=empirical - guaranteed.value,
        branch=guaranteed.branch,
        capped=empirical >= RADIUS_CAP,
    )


@dataclass(frozen=True)
class SharpnessRow:
    lam: float
    guaranteed: float
    empirical: float
    excess_at_delta: float
    confirmed: bool


def sharpness_scan(lam_grid, delta: float = 1e-3) -> list[SharpnessRow]:
    """Confirm the scalar witness family saturates its guaranteed radius.

    For each anchor the witness (lam - z)/(1 - lam z) is bisected to its
    empirical radius and probed just past the guarantee, where its
    majorant must exceed 1.
    """
    rows = []
    for lam in lam_grid:
        lam = float(lam)
        if not 0.5 <= lam <= 1.0 - 1e-3:
            raise DomainError("sharpness grid must lie in [0.5, 1 - 1e-3]")
        witness = mobius_witness(lam)
        guaranteed = bombieri_radius(lam)
        empirical = empirical_bohr_radius(witness, 1e-6)
        probe = check_bohr(witness, guaranteed + delta)
        confirmed = (
            abs(empirical - guaranteed) <= 1e-5 and probe.status is Status.VIOLATED
        )
        rows.append(
            SharpnessRow(lam, guaranteed, empirical, probe.lhs_extreme, confirmed)
        )
    return rows


# ---------------------------------------------------------------------------
# hypothesis-relaxation search
# ---------------------------------------------------------------------------

class Relaxation(Enum):
    DROP_COMMUTATION = "drop-commutation"
    DROP_NORMALITY = "drop-normality"
    WEAK_NORM_BOUND = "weak-norm-bound"


@dataclass(frozen=True)
class SearchWitness:
    trial: int
    function: OperatorFunction
    radius: float
    branch: Branch
    verdict: BohrVerdict


@dataclass(frozen=True)
class SearchResult:
    relaxation: Relaxation
    dim: int
    budget: int
    seed: int
    trials: int
    witness: SearchWitness | None


SEARCH_NORM_MARGIN = 1e-3


def _scale_to_schur_edge(coeffs) -> Polynomial:
    raw = Polynomial(coeffs)
    bound, _ = certified_sup(raw)
    scale = (1.0 - SEARCH_NORM_MARGIN) / bound
    return Polynomial([scale * A for A in coeffs])


def _ginibre(rng, dim: int, scale: float) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * G / np.sqrt(2.0 * dim)


def _drop_commutation_instance(dim: int, rng) -> Polynomial:
    """A_0 normal (PSD diagonal in a random basis) plus a rank-one A_1
    mapping the top channel of A_0 into a low one, for dim >= 2.

    |A_1| then loads entirely on the top channel while the sup norm only
    pays a sub-additive cost, the shape that breaks the commuting-class
    radius; parameter windows keep every channel above 1/2 after the
    Schur-edge rescale so the inverse branch stays selected. A_0 and A_1
    never commute: before the rescale ||[A_0, A_1]||_F = c |d_0 - d_low| >= 0.05.
    """
    Q = random_unitary(dim, rng)
    d = np.concatenate(([rng.uniform(0.88, 0.93)], rng.uniform(0.55, 0.68, dim - 1)))
    A0 = (Q * d) @ Q.conj().T
    c = rng.uniform(0.25, 0.35)
    low = 1 + int(rng.integers(dim - 1))
    A1 = c * np.outer(Q[:, low], Q[:, 0].conj())
    return _scale_to_schur_edge([A0, A1])


def _drop_normality_instance(dim: int, rng) -> Polynomial:
    """A_0 a Ginibre matrix plus a strictly upper Ginibre part, for dim >= 2, so non-normal with
    probability 1, and A_n = c1 A_0 + c2 A_0^2, which commute with A_0."""
    A0 = _ginibre(rng, dim, rng.uniform(0.5, 0.9))
    A0 += np.triu(_ginibre(rng, dim, 0.8), k=1)
    degree = int(rng.integers(1, 3))
    coeffs = [A0]
    for _ in range(degree):
        c1, c2 = rng.uniform(-0.8, 0.8, 2)
        coeffs.append(c1 * A0 + c2 * A0 @ A0)
    return _scale_to_schur_edge(coeffs)


def counterexample_search(
    relaxation: Relaxation | str, dim: int, budget: int, seed: int
) -> SearchResult:
    """Random hunt for a majorant violation under one relaxed hypothesis.

    Each trial builds an instance violating exactly the named hypothesis,
    by construction, then tests check_bohr at the radius the A_0 formula
    would have guaranteed. At dim 1 every coefficient commutes and is
    normal, so drop-commutation and drop-normality need dim >= 2 (ValueError).
    Deterministic in seed; a None witness is only "none found in budget",
    never a general claim.
    """
    relaxation = Relaxation(relaxation)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if dim < 2 and relaxation is not Relaxation.WEAK_NORM_BOUND:
        raise ValueError(f"{relaxation.value} needs dim >= 2, got {dim}")
    for trial in range(budget):
        # child `trial` of SeedSequence(seed).spawn(budget), built alone
        child = np.random.SeedSequence(seed, spawn_key=(trial,))
        if relaxation is Relaxation.WEAK_NORM_BOUND:
            f = generate_thm1_instance(dim, degrees=(1, 3), seed=child, allow_boundary=True)
        else:
            rng = np.random.default_rng(child)
            if relaxation is Relaxation.DROP_COMMUTATION:
                f = _drop_commutation_instance(dim, rng)
            else:
                f = _drop_normality_instance(dim, rng)
        radius = _radius_from_abs(_abs_store(f, 0)[0])
        verdict = check_bohr(f, radius.value)
        if verdict.status is Status.VIOLATED:
            witness = SearchWitness(trial, f, radius.value, radius.branch, verdict)
            return SearchResult(relaxation, dim, budget, seed, trial + 1, witness)
    return SearchResult(relaxation, dim, budget, seed, budget, None)
