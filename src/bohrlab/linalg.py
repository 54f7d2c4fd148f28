"""Dense complex matrix calculus: eigendecompositions, absolute values,
PSD square roots, and the Loewner (positive semidefinite) order.

All matrices are square ``numpy`` arrays of complex128. Every function is
pure; nothing mutates its inputs. ``hermitian_part``, ``hermitian_eigen``,
``psd_sqrt``, ``abs_operator`` and ``abs_svd`` also take a ``(k, d, d)`` stack
and treat each matrix on its own, with the same arithmetic as a call per matrix.

Validation happens once, where matrices enter bohrlab: ``as_matrix`` in the
``OperatorFunction`` constructors (a ``Polynomial`` takes a ``thm1_admissible_radius``
matrix and a ``majorant`` series), ``reconstruct_from_transform`` and ``loewner_leq``. The kernels
(``hermitian_eigen``, ``psd_sqrt``, ``abs_operator``, ``abs_svd``, ``operator_norm``,
``commutator_norm``, ``normal_defect``, ``is_normal``, ``loewner_compare``) take
finite complex square arrays as given and check nothing. The code that builds a matrix a kernel
needs Hermitian makes it so, once, with ``hermitian_part``: ``hermitian_eigen`` and ``psd_sqrt``
read only its lower triangle.
``checks`` compares the Hermitian matrices it builds itself with
``loewner_compare``; ``loewner_leq`` is its validated boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

HERMITIAN_RTOL = 1e-12


def as_matrix(A) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix entries must be finite")
    return M


def frobenius(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(A, "fro"))


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A*) / 2."""
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def require_hermitian(H: np.ndarray) -> np.ndarray:
    """Raise NotHermitian unless ||H - H*||_F <= HERMITIAN_RTOL * (1 + ||H||_F)."""
    drift = frobenius(H - H.conj().T)
    if drift > HERMITIAN_RTOL * (1.0 + frobenius(H)):
        raise NotHermitian(f"Hermitian drift {drift:.3e} exceeds tolerance")
    return hermitian_part(H)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization H = basis @ diag(eigenvalues) @ basis*.

    Eigenvalues are real and ascending; basis columns are orthonormal.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def hermitian_eigen(H: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian H, taken as given, eigenvalues ascending."""
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(eigenvalues=w, basis=V)


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value of A."""
    return float(np.linalg.norm(A, 2))


def abs_operator(A: np.ndarray) -> np.ndarray:
    """|A| = (A*A)^{1/2}, the PSD factor in the polar decomposition."""
    return psd_sqrt(hermitian_part(A.conj().swapaxes(-1, -2) @ A))


def abs_svd(A: np.ndarray) -> np.ndarray:
    """|A| = V* diag(s) V from the SVD A = U diag(s) V: within a small multiple of eps ||A|| of |A|
    however small s_min (Higham, SIAM J. Sci. Stat. Comput. 7, 1986), where abs_operator's clamp
    drops singular values below about 1e-6 ||A||."""
    _, s, Vh = np.linalg.svd(A)
    return hermitian_part((Vh.conj().swapaxes(-1, -2) * s[..., None, :]) @ Vh)


PSD_NEG_RTOL = 1e-10
PSD_CLAMP_RTOL = 1e-12


def psd_sqrt(P: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian P, taken as given, via the spectral calculus; the root is made
    Hermitian, since V diag(sqrt(w)) V* is not to the byte.

    Eigenvalues below ``PSD_CLAMP_RTOL * lambda_max`` of their own matrix
    are treated as exact zeros so that |A| of a rank-deficient A stays
    rank-deficient.
    """
    eig = hermitian_eigen(P)
    w = eig.eigenvalues.copy()
    top = np.maximum(w[..., -1:], 0.0)
    low = w[..., :1]
    negative = low < -PSD_NEG_RTOL * (1.0 + top)
    if np.any(negative):
        raise NotPSD(f"lambda_min = {low[negative][0]:.3e} is too negative for a PSD sqrt")
    w[w < PSD_CLAMP_RTOL * top] = 0.0
    S = (eig.basis * np.sqrt(w)[..., None, :]) @ eig.basis.conj().swapaxes(-1, -2)
    return hermitian_part(S)


class Order(Enum):
    """Three-valued outcome of a Loewner comparison."""

    LESS_OR_EQUAL = "leq"
    NOT_LESS_OR_EQUAL = "nleq"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of ``A <= B`` in the Loewner order.

    ``min_gap`` is the smallest eigenvalue of B - A. A unit ``witness``
    vector with <(B-A)x, x> = min_gap is attached when the relation
    fails decisively.
    """

    relation: Order
    min_gap: float
    tolerance: float
    witness: np.ndarray | None = None

    @classmethod
    def of_gap(cls, gap: float, tol: float, witness: np.ndarray | None) -> LoewnerVerdict:
        """LessOrEqual if gap >= tol, NotLessOrEqual (keeping witness) if gap <= -tol, else Boundary."""
        if gap >= tol:
            return cls(Order.LESS_OR_EQUAL, gap, tol)
        if gap <= -tol:
            return cls(Order.NOT_LESS_OR_EQUAL, gap, tol, witness)
        return cls(Order.BOUNDARY, gap, tol)

    @property
    def holds(self) -> bool:
        """Non-strict verdict: boundary cases count as <=."""
        return self.relation is not Order.NOT_LESS_OR_EQUAL


def default_loewner_tol(A: np.ndarray, B: np.ndarray) -> float:
    """1e-9 (1 + ||A|| + ||B||), both norms from one batched SVD of the pair."""
    norm_A, norm_B = np.linalg.svd(np.stack((A, B)), compute_uv=False).max(axis=-1).tolist()
    return 1e-9 * (1.0 + norm_A + norm_B)


def _verdict(gap: np.ndarray, tol: float) -> LoewnerVerdict:
    """The verdict on lambda_min of the Hermitian gap = B - A against tol."""
    eig = hermitian_eigen(gap)
    return LoewnerVerdict.of_gap(float(eig.eigenvalues[0]), tol, eig.basis[:, 0].copy())


def loewner_compare(A: np.ndarray, B: np.ndarray) -> LoewnerVerdict:
    """loewner_leq for Hermitian A, B of one shape, taken as given: the kernel, which checks nothing."""
    return _verdict(B - A, default_loewner_tol(A, B))


def loewner_leq(A, B) -> LoewnerVerdict:
    """Decide A <= B for Hermitian A, B via lambda_min(B - A).

    A gap within ``default_loewner_tol(A, B)`` of zero is reported as
    Boundary, so exact equality cases are never misclassified.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    tol = default_loewner_tol(A, B)
    return _verdict(require_hermitian(B) - require_hermitian(A), tol)


def commutator_norm(A: np.ndarray, B: np.ndarray) -> float:
    """||AB - BA||_F for A and B of one shape."""
    return frobenius(A @ B - B @ A)


def normal_defect(A: np.ndarray) -> float:
    """||A*A - AA*||_F / (1 + ||A||_F^2)."""
    Ah = A.conj().T
    return frobenius(Ah @ A - A @ Ah) / (1.0 + frobenius(A) ** 2)


def is_normal(A: np.ndarray) -> bool:
    """True iff normal_defect(A) <= 1e-10."""
    return normal_defect(A) <= 1e-10


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in ``seed``.

    QR of a complex Ginibre matrix with the diagonal phases of R absorbed
    into Q, which makes the factor unique.
    """
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def random_hermitian(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Hermitian matrix with Gaussian entries, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(Z) * scale
