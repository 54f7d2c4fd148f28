"""Coefficients and values of every class by the scalar formulas, one n and
one point at a time, and the empirical radius by plain bisection. Batched
terms keep the bytes of these references; batched values stay within
16 eps (1 + max|f|) of them, entry by entry; the radius search keeps the
bisection's bytes."""

import numpy as np

from bohrlab import checks
from bohrlab.functions import HalfPlaneLift, MobiusLift, TransferRealization
from bohrlab.linalg import identity


def _lift(f, vals: np.ndarray) -> np.ndarray:
    return (f.basis * vals) @ f.basis.conj().T


def loop_terms(f: MobiusLift, first: int, last: int) -> list:
    """A_first, ..., A_last, one channel value at a time with numpy scalars."""
    out = []
    for n in range(first, last + 1):
        vals = np.zeros(f.dim, dtype=np.complex128) if n else f.lambdas
        for i, (lam, eps, m) in enumerate(zip(f.lambdas, f.phases, f.degrees.tolist())):
            if n and not n % m:
                vals[i] = (1.0 - abs(lam) ** 2) * eps ** (n // m) * (-np.conj(lam)) ** (n // m - 1)
        out.append(_lift(f, vals))
    return out


def loop_transfer_terms(f: TransferRealization, first: int, last: int) -> list:
    """A_first, ..., A_last of a transfer function: A_0 = D, then C P and P <- A P one n at a time, from P = B."""
    A, B, C, D = f.blocks
    out = [D.copy()] if first == 0 else []
    P = B
    for n in range(1, last + 1):
        if n >= first:
            out.append(C @ P)
        P = A @ P
    return out


def loop_evaluate(f, z: complex) -> np.ndarray:
    """f(z) by its class's formula at one point, with no disk guard."""
    z = complex(z)
    if isinstance(f, MobiusLift):
        b = f.phases * z ** f.degrees
        return _lift(f, (f.lambdas + b) / (1.0 + np.conj(f.lambdas) * b))
    if isinstance(f, HalfPlaneLift):
        return _lift(f, f.diag + (1.0 - f.diag) * f.symbol(z))
    if isinstance(f, TransferRealization):
        A, B, C, D = f.blocks
        if f.state_dim == 0:
            return D.copy()
        return D + z * (C @ np.linalg.solve(identity(f.state_dim) - z * A, B))
    acc = np.zeros((f.dim, f.dim), dtype=np.complex128)  # a Polynomial, by Horner's rule
    for A in reversed(f.coeffs):
        acc = acc * z + A
    return acc


def loop_certified_sup(f) -> tuple:
    """certified_sup of a Polynomial, by one value and one norm per boundary angle."""
    d = f.degree
    M = 64 * (d + 1)
    angles = 2.0 * np.pi * np.arange(M) / M
    norms = np.array([np.linalg.norm(loop_evaluate(f, np.exp(1j * a)), 2) for a in angles])
    k = int(np.argmax(norms))
    return float(norms[k] / (1.0 - np.pi * d / M)), complex(np.exp(1j * angles[k]))


def loop_bisection_radius(f, tol: float = 1e-6) -> float:
    """empirical_bohr_radius by plain bisection of (0, RADIUS_CAP): one
    checks.check_bohr probe per midpoint until the bracket is at most tol wide."""
    if checks.check_bohr(f, checks.RADIUS_CAP).holds:
        return checks.RADIUS_CAP
    lo, hi = 0.0, checks.RADIUS_CAP
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if checks.check_bohr(f, mid).holds:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
