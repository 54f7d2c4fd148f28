"""Kernel properties: spectral calculus, Loewner order, random factories."""

import numpy as np
import pytest

from bohrlab.errors import DimensionMismatch, NotHermitian, NotPSD
from bohrlab.linalg import (
    LoewnerVerdict,
    Order,
    abs_operator,
    as_matrix,
    commutator_norm,
    default_loewner_tol,
    frobenius,
    hermitian_eigen,
    hermitian_part,
    identity,
    is_normal,
    loewner_compare,
    loewner_leq,
    normal_defect,
    operator_norm,
    psd_sqrt,
    random_hermitian,
    random_unitary,
    require_hermitian,
)


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.array([1.0, 2.0]))
    bad = np.eye(2)
    bad[0, 1] = np.inf
    with pytest.raises(ValueError):
        as_matrix(bad)


def test_as_matrix_accepts_noncontiguous_views():
    big = np.arange(36.0).reshape(6, 6)
    view = big[::2, ::2]
    out = as_matrix(view)
    assert np.array_equal(out, view)


def test_require_hermitian_rejects_skew_part():
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_reconstruction_and_order():
    for seed in range(50):
        dim = 1 + seed % 8
        H = random_hermitian(dim, seed)
        eig = hermitian_eigen(H)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-14)
        err = frobenius((eig.basis * eig.eigenvalues) @ eig.basis.conj().T - hermitian_part(H))
        assert err <= 1e-12 * (1.0 + frobenius(H))
        gram = eig.basis.conj().T @ eig.basis
        assert frobenius(gram - identity(dim)) <= 1e-12 * dim


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dim = int(rng.integers(1, 7))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        P = G @ G.conj().T
        S = psd_sqrt(P)
        assert frobenius(S @ S - P) <= 1e-10 * (1.0 + frobenius(P))
        assert float(hermitian_eigen(S).eigenvalues[0]) >= -1e-12


def test_psd_sqrt_keeps_rank_deficiency():
    # without clamping, roundoff in a rank-1 input would leak
    # sqrt(1e-16) ~ 1e-8 eigenvalues; clamped they stay at epsilon scale
    v = np.array([1.0, 2.0, -1.0])
    P = np.outer(v, v)
    S = psd_sqrt(P)
    w = hermitian_eigen(S).eigenvalues
    assert np.sum(w > 1e-12) == 1
    assert np.all(np.abs(w[:-1]) <= 1e-13)


def test_psd_sqrt_rejects_negative_input():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))
    # in a stack, each matrix is judged against its own lambda_max
    with pytest.raises(NotPSD):
        psd_sqrt(np.stack([np.diag([1e6, 0.0]), np.diag([1.0, -1e-9])]))


@pytest.mark.parametrize("dim", range(1, 9))
def test_stacked_kernels_equal_the_per_matrix_loop_byte_for_byte(dim):
    rng = np.random.default_rng(100 + dim)
    A = rng.standard_normal((10, dim, dim)) + 1j * rng.standard_normal((10, dim, dim))
    A[::3, 0, :] = 0.0
    A[1] *= 1e-9
    A[2] = 0.0
    P = A @ A.conj().swapaxes(-1, -2)
    for kernel, stack in ((abs_operator, A), (psd_sqrt, P)):
        looped = np.stack([kernel(M) for M in stack])
        assert kernel(stack).tobytes() == looped.tobytes()


def test_abs_operator_is_an_isometry_on_ranges():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(1, 9))
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        absA = abs_operator(A)
        for _ in range(3):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            lhs = np.linalg.norm(absA @ v)
            rhs = np.linalg.norm(A @ v)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + rhs)


def test_loewner_three_outcomes():
    eye = identity(2)
    lo = loewner_leq(np.zeros((2, 2)), eye)
    assert lo.relation is Order.LESS_OR_EQUAL and lo.holds
    assert abs(lo.min_gap - 1.0) <= 1e-12
    assert lo.witness is None

    hi = loewner_leq(2.0 * eye, eye)
    assert hi.relation is Order.NOT_LESS_OR_EQUAL and not hi.holds
    assert hi.witness is not None

    edge = loewner_leq(eye, eye)
    assert edge.relation is Order.BOUNDARY and edge.holds
    assert edge.witness is None


def test_verdict_of_gap_is_decisive_at_the_tolerance_itself():
    x = np.array([1.0, 0.0], dtype=np.complex128)
    rules = [(1e-9, Order.LESS_OR_EQUAL, None), (-1e-9, Order.NOT_LESS_OR_EQUAL, x)]
    rules += [(g, Order.BOUNDARY, None) for g in (0.0, 0.5e-9, -0.5e-9, np.nan)]
    for gap, relation, witness in rules:
        v = LoewnerVerdict.of_gap(gap, 1e-9, x)
        assert (v.relation, v.tolerance, v.witness) == (relation, 1e-9, witness)
        assert v.min_gap == gap or np.isnan(gap)


def test_loewner_witness_attains_min_gap():
    A = random_hermitian(4, 30)
    B = random_hermitian(4, 31) - 3.0 * identity(4)
    v = loewner_leq(A, B)
    assert v.relation is Order.NOT_LESS_OR_EQUAL
    x = v.witness
    quad = float(np.real(x.conj() @ (hermitian_part(B - A) @ x)))
    assert abs(quad - v.min_gap) <= 1e-10 * (1.0 + abs(v.min_gap))
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_loewner_tol_scales_with_norms():
    A = identity(2)
    B = 1e6 * identity(2)
    assert default_loewner_tol(A, B) >= 1e-9 * 1e6


def test_loewner_tol_has_the_bytes_of_two_separate_norms():
    # one batched SVD of the pair gives each norm of a call per matrix
    for dim in range(1, 9):
        for seed in range(200):
            A = random_hermitian(dim, 2 * seed, scale=10.0 ** (seed % 7 - 3))
            B = random_hermitian(dim, 2 * seed + 1)
            want = 1e-9 * (1.0 + operator_norm(A) + operator_norm(B))
            assert default_loewner_tol(A, B).hex() == want.hex()


def test_loewner_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        loewner_leq(identity(2), identity(3))


def test_loewner_leq_validates_what_enters_it():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    for A, B in ((skew, identity(2)), (identity(2), skew)):
        with pytest.raises(NotHermitian):
            loewner_leq(A, B)
    bad = identity(2)
    bad[0, 1] = np.nan
    for A, B in ((bad, identity(2)), (identity(2), bad)):
        with pytest.raises(ValueError):
            loewner_leq(A, B)
    with pytest.raises(DimensionMismatch):
        loewner_leq(np.zeros((2, 3)), np.zeros((2, 3)))
    # a Hermitian drift within HERMITIAN_RTOL is accepted, and the verdict reads the Hermitian parts
    near = identity(2) + 1e-14j * skew
    v = loewner_leq(near, 2.0 * identity(2))
    assert v.relation is Order.LESS_OR_EQUAL and v.min_gap == pytest.approx(1.0, abs=1e-12)


def test_loewner_compare_is_loewner_leq_on_hermitian_operands():
    eye = identity(2)
    for A, B, relation in ((np.zeros((2, 2), dtype=np.complex128), eye, Order.LESS_OR_EQUAL),
                           (2.0 * eye, eye, Order.NOT_LESS_OR_EQUAL), (eye, eye, Order.BOUNDARY)):
        assert loewner_compare(A, B).relation is relation
    for seed in range(50):
        dim = 1 + seed % 8
        A, B = random_hermitian(dim, 2 * seed), random_hermitian(dim, 2 * seed + 1)
        got, want = loewner_compare(A, B), loewner_leq(A, B)
        assert (got.relation, got.min_gap, got.tolerance) == (want.relation, want.min_gap, want.tolerance)
        assert (got.witness is None and want.witness is None) or got.witness.tobytes() == want.witness.tobytes()


def test_commutator_norm_and_is_normal():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert commutator_norm(identity(2), X) == 0.0
    assert commutator_norm(X, X.T) > 0.5
    assert is_normal(np.diag([1.0, 2.0j]))
    assert not is_normal(X)


def test_is_normal_is_the_normal_defect_at_1e_10():
    X = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    D = np.diag([0.5, -0.25j])
    Q = random_unitary(2, 3)
    cases = [D, Q @ D @ Q.conj().T, X, 2.0 * X + D]
    # near-normal: the defect of D + eps X grows like eps, so these straddle 1e-10
    cases += [D + eps * X for eps in (1e-12, 1e-11, 5e-11, 1e-10, 2e-10, 1e-9, 1e-6)]
    defects = [normal_defect(A) for A in cases]
    assert any(d <= 1e-10 for d in defects) and any(d > 1e-10 for d in defects)
    for A, d in zip(cases, defects):
        assert is_normal(A) == (d <= 1e-10)
    assert normal_defect(X) == pytest.approx(np.sqrt(2.0) / 2.0)


def test_random_unitary_is_unitary_and_seeded():
    for seed in range(20):
        dim = 1 + seed % 8
        Q = random_unitary(dim, seed)
        assert frobenius(Q.conj().T @ Q - identity(dim)) <= 1e-12 * dim
    assert np.array_equal(random_unitary(5, 42), random_unitary(5, 42))
    assert not np.array_equal(random_unitary(5, 42), random_unitary(5, 43))


def test_random_unitary_needs_a_dimension():
    with pytest.raises(DimensionMismatch):
        random_unitary(0, 0)


def test_random_hermitian_seeded():
    H = random_hermitian(6, 9)
    assert frobenius(H - H.conj().T) == 0.0
    assert np.array_equal(H, random_hermitian(6, 9))


def test_operator_norm_matches_singular_value():
    A = np.diag([3.0, -4.0])
    assert abs(operator_norm(A) - 4.0) <= 1e-14
