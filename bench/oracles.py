"""Closed-form answers that the benchmark checks bohrlab's verdicts against.

Everything here is plain numpy and shares no code with bohrlab, so a bug in
the program cannot hide itself by also breaking its reference.

For a function f(z) = sum A_n z^n with square matrix coefficients, the
majorant at radius r is M(r) = sum |A_n| r^n with |A| = (A*A)^(1/2), and the
Bohr statement is lambda_max(M(r)) <= 1 (Paulsen, Popescu and Singh, "On
Bohr's inequality", Proc. LMS 2002, for the operator-valued setting). Each
oracle returns the exact "extreme" lambda_max(M(r)) - 1 of the full series.
"""

from __future__ import annotations

import numpy as np

# Absolute rounding slack on an extreme of O(1) matrices with dim <= 8: the
# closed forms below are accurate to a few ulps, far below this.
EXTREME_SLACK = 1e-12
# Slack on a bisected radius, on top of the bisection tolerance itself.
RADIUS_SLACK = 1e-9
# Radius cap of the documented bisection: radii are reported as at most this.
RADIUS_CAP = 1.0 - 1e-6


def mobius_channel_majorant(lambdas, degrees, r: float) -> np.ndarray:
    """Per-channel majorant of the lift of (l + e z^m) / (1 + conj(l) e z^m).

    The Taylor coefficients of one channel are l and, at n = j m,
    (1 - |l|^2) e^j (-conj l)^(j-1), so the majorant sums to
    |l| + (1 - |l|^2) r^m / (1 - |l| r^m). The lift shares one unitary basis,
    so these are the eigenvalues of M(r).
    """
    a = np.abs(np.asarray(lambdas, dtype=np.complex128))
    rm = float(r) ** np.asarray(degrees, dtype=np.float64)
    return a + (1.0 - a * a) * rm / (1.0 - a * rm)


def mobius_extreme(lambdas, degrees, r: float) -> float:
    return float(np.max(mobius_channel_majorant(lambdas, degrees, r))) - 1.0


def halfplane_extreme(diag, t: float, beta: complex, r: float) -> float:
    """f = A_0 + (I - A_0) s(z), s(z) = -2 t z / (1 - beta z), A_0 = Q diag(d) Q*.

    |A_n| = Q diag((1 - d) 2 t |beta|^(n-1)) Q* for n >= 1, so each channel
    of M(r) is d + (1 - d) 2 t r / (1 - |beta| r).
    """
    d = np.asarray(diag, dtype=np.float64)
    m = d + (1.0 - d) * 2.0 * float(t) * r / (1.0 - abs(complex(beta)) * r)
    return float(np.max(m)) - 1.0


def polar_abs(A: np.ndarray) -> np.ndarray:
    """|A| = V diag(s) V* from the SVD A = U diag(s) V*, exact for any rank."""
    _, s, vh = np.linalg.svd(A)
    return (vh.conj().T * s) @ vh


def polynomial_extreme(coeffs, r: float) -> float:
    """Finite majorant of a polynomial, with |A_n| taken by SVD."""
    total = sum(polar_abs(np.asarray(A, dtype=np.complex128)) * r**n for n, A in enumerate(coeffs))
    total = (total + total.conj().T) / 2.0
    return float(np.linalg.eigvalsh(total)[-1]) - 1.0


def contradicts(status: str, extreme: float, tol: float) -> bool:
    """True when a decisive verdict disagrees with the exact extreme.

    "holds" claims extreme <= tol and "violated" claims extreme > tol; a
    verdict is wrong only if the exact value misses that claim by more than
    EXTREME_SLACK. "inconclusive" claims nothing.
    """
    if status == "holds":
        return extreme > tol + EXTREME_SLACK
    if status == "violated":
        return extreme < tol - EXTREME_SLACK
    return False


def mobius_radius(lambdas, degrees) -> float:
    """Largest r <= RADIUS_CAP with max-channel majorant <= 1, by scalar bisection.

    Every channel majorant increases in r, so the admissible set is an
    interval [0, r*].
    """
    if mobius_extreme(lambdas, degrees, RADIUS_CAP) <= 0.0:
        return RADIUS_CAP
    lo, hi = 0.0, RADIUS_CAP
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mobius_extreme(lambdas, degrees, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    return lo


def guaranteed_radius(abs_eigs) -> float:
    """Radius guaranteed by |A_0| = Q diag(a) Q* alone (Bombieri 1962 per channel).

    sqrt((1 - a)/2) always applies; 1/(1 + 2a) applies when every a >= 1/2.
    The guarantee is the smallest channel value of the better formula.
    """
    a = np.asarray(abs_eigs, dtype=np.float64)
    r_sqrt = float(np.min(np.sqrt((1.0 - a) / 2.0)))
    if np.min(a) < 0.5:
        return r_sqrt
    return max(r_sqrt, float(np.min(1.0 / (1.0 + 2.0 * a))))
