"""MobiusLift coefficients and values by the scalar formulas, one n and one
point at a time: the reference whose bytes the batched forms must keep."""

import numpy as np

from bohrlab.functions import MobiusLift


def _lift(f: MobiusLift, vals: np.ndarray) -> np.ndarray:
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


def loop_evaluate(f, z: complex) -> np.ndarray:
    """f(z) of a MobiusLift by its channel formula at one point; f.evaluate(z) otherwise."""
    if not isinstance(f, MobiusLift):
        return f.evaluate(z)
    b = f.phases * complex(z) ** f.degrees
    return _lift(f, (f.lambdas + b) / (1.0 + np.conj(f.lambdas) * b))
