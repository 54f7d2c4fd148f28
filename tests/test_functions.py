"""Function representations: evaluation, coefficients, transforms, generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from reference_loops import loop_certified_sup, loop_evaluate, loop_terms, loop_transfer_terms
from sampled_instances import sampled_instances, scaled_polynomial

from bohrlab import functions
from bohrlab.checks import RUNGS, default_z_samples, majorant, require_hypotheses
from bohrlab.errors import (
    CommutationViolated,
    DimensionMismatch,
    GridTooCoarse,
    HypothesisViolated,
    NotInvertible,
    OutsideDomain,
)
from bohrlab.functions import (
    HYPOTHESIS_TOL,
    LIFT_ROWS,
    CoefficientSeries,
    FunctionSamples,
    HalfPlaneLift,
    HypothesisReport,
    MobiusLift,
    Polynomial,
    TransferRealization,
    certified_sup,
    coefficients_dft,
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
    hypothesis_check,
    hypothesis_grid,
    mobius_witness,
    reconstruct_from_transform,
    schur_transform,
)
from bohrlab.linalg import abs_operator, frobenius, identity, operator_norm, random_unitary


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        CoefficientSeries((), 0.0, exact=True)
    with pytest.raises(ValueError):
        CoefficientSeries((np.eye(2),), 0.5, exact=True)
    with pytest.raises(DimensionMismatch):
        CoefficientSeries((np.eye(2), np.eye(3)), 0.0, exact=True)
    with pytest.raises(ValueError):
        CoefficientSeries((np.eye(2),), np.inf, exact=False)


def test_a_function_needs_a_coefficient_and_a_dimension():
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(DimensionMismatch):
        functions.OperatorFunction(0)


def test_function_samples_validation():
    pts = np.array([0.1, 0.2])
    vals = np.zeros((2, 2, 2))
    fs = FunctionSamples(pts, vals)
    assert len(fs) == 2
    with pytest.raises(DimensionMismatch):
        FunctionSamples(pts, np.zeros((3, 2, 2)))
    with pytest.raises(OutsideDomain):
        FunctionSamples(np.array([1.0]), np.zeros((1, 1, 1)))
    with pytest.raises(DimensionMismatch):
        FunctionSamples(np.zeros((1, 1)), np.zeros((1, 1, 1)))
    # values of shape (1, 2, 3) used to be accepted
    with pytest.raises(DimensionMismatch):
        FunctionSamples(np.zeros(1), np.zeros((1, 2, 3)))


# Non-finite data must be refused where it enters: the linalg kernels
# downstream take their arrays as given.
NAN, INF = float("nan"), float("inf")


def _series(*entries):
    return CoefficientSeries(tuple(np.full((1, 1), complex(e)) for e in entries), 0.0, exact=True)


NONFINITE_INPUTS = {
    "mobius lambda nan": (HypothesisViolated, lambda: MobiusLift(np.eye(2), [NAN, 0.5], [1, 1], [1, 1])),
    "mobius lambda inf": (HypothesisViolated, lambda: MobiusLift(np.eye(1), [INF], [1.0], [1])),
    "mobius phase nan": (HypothesisViolated, lambda: MobiusLift(np.eye(2), [0.1, 0.5], [NAN, 1], [1, 1])),
    "mobius phase complex nan": (HypothesisViolated, lambda: MobiusLift(np.eye(1), [0.5], [1 + NAN * 1j], [1])),
    "mobius phase inf": (HypothesisViolated, lambda: MobiusLift(np.eye(1), [0.5], [INF], [1])),
    "halfplane diag nan": (HypothesisViolated, lambda: HalfPlaneLift(np.eye(2), [NAN, 0.5], 0.5, 0.1)),
    "halfplane diag inf": (HypothesisViolated, lambda: HalfPlaneLift(np.eye(1), [INF], 0.5, 0.1)),
    "halfplane t nan": (HypothesisViolated, lambda: HalfPlaneLift(np.eye(1), [0.5], NAN, 0.1)),
    "halfplane beta nan": (HypothesisViolated, lambda: HalfPlaneLift(np.eye(1), [0.5], 0.5, NAN)),
    "halfplane beta inf": (HypothesisViolated, lambda: HalfPlaneLift(np.eye(1), [0.5], 0.5, INF * 1j)),
    "polynomial entry nan": (ValueError, lambda: Polynomial([np.diag([0.5, NAN])])),
    "samples point nan": (OutsideDomain, lambda: FunctionSamples([0.1, NAN], np.zeros((2, 1, 1)))),
    "samples value nan": (ValueError, lambda: FunctionSamples([0.1], np.full((1, 1, 1), NAN))),
    "samples value inf": (ValueError, lambda: FunctionSamples([0.1], np.full((1, 2, 2), INF))),
    "majorant series nan": (ValueError, lambda: majorant(_series(1.0, NAN), 0.5)),
    "majorant series inf": (ValueError, lambda: majorant(_series(INF), 0.5)),
    "polynomial evaluate nan": (OutsideDomain, lambda: Polynomial([np.eye(2)]).evaluate(NAN)),
    "mobius evaluate nan": (OutsideDomain, lambda: mobius_witness(0.5).evaluate(NAN)),
    "mobius evaluate complex nan": (OutsideDomain, lambda: mobius_witness(0.5).evaluate(0.1 + NAN * 1j)),
    "transfer evaluate nan": (OutsideDomain, lambda: generate_transfer_instance(2, 1).evaluate(NAN)),
    "halfplane evaluate nan": (OutsideDomain, lambda: generate_thm2_instance(2).evaluate(NAN)),
    "dft N nan": (ValueError, lambda: coefficients_dft(mobius_witness(0.5), 0.5, NAN, 64)),
    "dft M inf": (ValueError, lambda: coefficients_dft(mobius_witness(0.5), 0.5, 2, INF)),
}


@pytest.mark.parametrize("case", sorted(NONFINITE_INPUTS))
def test_nonfinite_inputs_are_refused_at_the_boundary(case):
    error, build = NONFINITE_INPUTS[case]
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# polynomial
# ---------------------------------------------------------------------------

def test_polynomial_coefficients_exact_and_truncated():
    f = scaled_polynomial(3, 4, seed=0)
    s = f.coefficients(6)
    assert s.exact and s.tail_norm_bound == 0.0 and s.order == 6
    t = f.coefficients(2)
    assert not t.exact
    assert t.tail_norm_bound >= operator_norm(f.coeffs[3])


_R = [[0.6, 0.8], [-0.8, 0.6]]
_CUBIC = Polynomial([np.diag([0.5, 0.25]), [[0, 0.125j], [0.25, 0]], 0.125 * np.eye(2),
                     [[0.0625, 0], [0, -0.0625j]]])
# (function, N, exact) for each kind; a polynomial below, at and above its
# degree; a transfer function with state_dim 0; and two series whose tail
# bound is 0.0 although they are not exact
PINNED_SERIES = {
    "polynomial below degree": (_CUBIC, 1, False),
    "polynomial at degree": (_CUBIC, 3, True),
    "polynomial above degree": (_CUBIC, 5, True),
    "polynomial zero tail": (Polynomial([0.3 * np.eye(2), np.zeros((2, 2))]), 0, False),
    "mobius": (MobiusLift(_R, [0.5, -0.25 + 0.125j], [1, 1j], [1, 3]), 6, False),
    "transfer": (TransferRealization([[0.6, 0.8, 0], [0, 0, 1j], [-0.8, 0.6, 0]], 1), 4, False),
    "transfer state_dim 0": (TransferRealization(_R, 0), 2, True),
    "halfplane": (HalfPlaneLift(_R, [0.2, 0.6], 0.25, 0.3 + 0.1j), 4, False),
    "halfplane beta 0": (HalfPlaneLift(_R, [0.2, 0.6], 0.25, 0.0), 2, False),
}
# sha256 of the coefficient bytes, then repr((tail, order)), of each row
SERIES_SHA256 = {
    "halfplane": "c100d3b370d1f2c0f24a9287738921beba26206624ca9df736c9949a96aa2ca0",
    "halfplane beta 0": "1cc1c804202a29f9c938562cd6ef5fc380363cfaa8eebfc0c45859b982afa242",
    "mobius": "1a2240a9d955e7d6ad08395f1c45aac25e40087a9ea13f1e06bd0a60f804e1ac",
    "polynomial above degree": "1d6876caf34c489cedf9f7f2688b28df9d128bb0b43b3afd7a66c5972dcdf4b6",
    "polynomial at degree": "48d8739d33444056e1544a7f7414d539b10c0c550cdf7ee06bee79b5c45f1e3f",
    "polynomial below degree": "5007ee391d8bb302f9139eb12ca5d20f779d8f8503270eecee1efa6a68e8827f",
    "polynomial zero tail": "474dd378d8e7322d442348cdd95924b8de11dcf330bfabe2e5c89ba2c0fa29df",
    "transfer": "73866cafc8a3fc83de99d87600771d7f823092844b3ab53add8ee41f446952cd",
    "transfer state_dim 0": "2ba6a025df614f9eb89ce8cc8c9a420fe84058ce8410dfe7299b7ba90cfa1d37",
}


@pytest.mark.parametrize("name", sorted(PINNED_SERIES))
def test_coefficient_series_are_pinned(name):
    f, N, exact = PINNED_SERIES[name]
    s = f.coefficients(N)
    digest = hashlib.sha256(b"".join(A.tobytes() for A in s.coeffs))
    digest.update(repr((s.tail_norm_bound, s.order)).encode())
    assert digest.hexdigest() == SERIES_SHA256[name]
    assert s.exact is exact and s.order == N
    assert all(A.dtype == np.complex128 for A in s.coeffs)
    assert f.coefficient0().tobytes() == s.coeffs[0].tobytes()
    if name.endswith("zero tail") or name.endswith("beta 0"):
        assert s.tail_norm_bound == 0.0


@pytest.mark.parametrize("name", sorted(PINNED_SERIES))
def test_tail_bound_is_the_series_tail_and_generates_no_coefficient(name, monkeypatch):
    f, N, _ = PINNED_SERIES[name]
    orders = (0, N, N + 1, 70)
    tails = [f.coefficients(n).tail_norm_bound for n in orders]
    monkeypatch.setattr(f, "terms", None)
    assert [f.tail_bound(n) for n in orders] == tails


# d = 1 instances of each kind, beside the 2 x 2 pinned ones
SCALAR_SERIES = {
    "scalar polynomial": Polynomial([[[0.5]], [[0.25j]], [[-0.125]]]),
    "scalar mobius": mobius_witness(0.6, degree=3),
    "scalar transfer": TransferRealization(_R, 1),
    "scalar halfplane": HalfPlaneLift(np.eye(1), [0.4], 0.25, -0.5j),
    "scalar halfplane beta 0": HalfPlaneLift(np.eye(1), [0.4], 0.25, 0.0),
}
# A_0 alone, eq9's range, whole and offset stacks of 64, and a first past
# every polynomial's degree
TERM_RANGES = ((0, 0), (1, 20), (4, 9), (64, 127), (65, 512))


@pytest.mark.parametrize("name", sorted(PINNED_SERIES) + sorted(SCALAR_SERIES))
def test_terms_has_the_bytes_of_the_series(name):
    f = PINNED_SERIES[name][0] if name in PINNED_SERIES else SCALAR_SERIES[name]
    for first, last in TERM_RANGES:
        got = f.terms(first, last)
        want = f.coefficients(last).coeffs[first:]
        assert len(got) == last - first + 1
        assert [A.tobytes() for A in got] == [A.tobytes() for A in want]
        assert all(A.shape == (f.dim, f.dim) and A.dtype == np.complex128 for A in got)


@pytest.mark.parametrize("name", sorted(PINNED_SERIES) + sorted(SCALAR_SERIES))
def test_abs_terms_is_one_array_with_the_bytes_of_the_whole_range(name):
    f = PINNED_SERIES[name][0] if name in PINNED_SERIES else SCALAR_SERIES[name]
    for first, last in TERM_RANGES:
        got = f.abs_terms(first, last)
        assert type(got) is np.ndarray and got.dtype == np.complex128
        assert got.shape == (last - first + 1, f.dim, f.dim)
        assert got.tobytes() == f.abs_terms(0, last)[first:].tobytes()


@pytest.mark.parametrize("name", sorted(PINNED_SERIES) + sorted(SCALAR_SERIES))
def test_sample_of_no_points_is_empty(name):
    # every class used to raise numpy's "need at least one array to stack"
    f = PINNED_SERIES[name][0] if name in PINNED_SERIES else SCALAR_SERIES[name]
    for points in ([], np.zeros(0)):
        s = f.sample(points)
        assert len(s) == 0 and s.points.shape == (0,)
        assert s.values.shape == (0, f.dim, f.dim) and s.values.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        f.sample([[0.1, 0.2]])
    with pytest.raises(OutsideDomain):
        f.sample([0.1, 1.0])


@pytest.mark.parametrize("first, last", [(-1, 0), (0, -1), (3, 2)])
def test_terms_needs_an_ordered_nonnegative_range(first, last):
    for f, _, _ in PINNED_SERIES.values():
        with pytest.raises(ValueError):
            f.terms(first, last)
        with pytest.raises(ValueError):
            f.coefficients(-1)


def test_polynomial_boundary_evaluation():
    f = scaled_polynomial(2, 3, seed=1)
    with pytest.raises(OutsideDomain):
        f.evaluate(1.0)
    z = np.exp(0.7j)
    direct = sum(c * z**k for k, c in enumerate(f.coeffs))
    assert frobenius(f._values(np.array([z]))[0] - direct) <= 1e-13


def test_polynomial_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        Polynomial([np.eye(2), np.eye(3)])


# ---------------------------------------------------------------------------
# commuting-channel lifts
# ---------------------------------------------------------------------------

def test_mobius_channel_evaluation_matches_scalar_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(1, 6))
        f = generate_thm1_instance(dim, seed=int(rng.integers(10_000)))
        z = 0.5 * np.exp(2j * np.pi * rng.uniform())
        b = f.phases * z ** f.degrees
        chan = (f.lambdas + b) / (1.0 + np.conj(f.lambdas) * b)
        expect = (f.basis * chan) @ f.basis.conj().T
        assert frobenius(f.evaluate(z) - expect) <= 1e-12


def _bytes(mats) -> list:
    return [A.tobytes() for A in mats]


@pytest.mark.parametrize("dim", range(1, 9))
def test_mobius_terms_have_the_bytes_of_the_scalar_loop(dim):
    # complex anchors at d = 1 catch a lift that multiplies the stack by numpy's
    # array product; real anchors (mobius_witness) do not
    for degrees in ((1, 4), (1, 10)):
        for seed in range(3):
            for allow_boundary in (False, True):
                f = generate_thm1_instance(dim, degrees, seed=seed, allow_boundary=allow_boundary)
                for first, last in TERM_RANGES:
                    assert _bytes(f.terms(first, last)) == _bytes(loop_terms(f, first, last))


def test_mobius_terms_square_the_anchor_modulus_as_the_scalar_formula():
    # numpy's scalar abs(l) ** 2 calls libm pow, which rounds |l|^2 of this
    # anchor one bit away from |l| * |l|
    f = generate_thm1_instance(1, seed=21)
    h = abs(f.lambdas[0])
    assert h**2 != h * h
    assert _bytes(f.terms(0, 20)) == _bytes(loop_terms(f, 0, 20))


def test_mobius_terms_of_huge_degrees_have_the_bytes_of_the_scalar_loop():
    # j m_i would overflow int64 past the first multiple of these degrees
    wide = MobiusLift(random_unitary(3, 4), [0.3 - 0.2j, 0.5j, -0.7], [1j, -1.0, np.exp(0.3j)],
                      [2**62, 2**63 - 1, 3])
    scalar = MobiusLift(np.eye(1), [0.4 + 0.3j], [np.exp(1.1j)], [2**63 - 1])
    for f in (wide, scalar):
        for first, last in TERM_RANGES + ((2**62 - 2, 2**62 + 1),):
            assert _bytes(f.terms(first, last)) == _bytes(loop_terms(f, first, last))


def test_mobius_lifts_are_handed_at_most_lift_rows(monkeypatch):
    # _lift owns the blocks: each of its products by Q* takes at most LIFT_ROWS matrices
    f = generate_thm1_instance(3, (1, 5), seed=2)
    rows, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        rows.append(len(a))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for first, last in ((0, 3 * LIFT_ROWS + 5), (5, 2 * LIFT_ROWS)):
        rows.clear()
        f.terms(first, last)
        assert max(rows) <= LIFT_ROWS and sum(rows) == last - first + 1


@pytest.mark.parametrize("kind", ["mobius", "transfer"])
def test_abs_terms_peak_memory_is_at_most_twice_its_output(kind):
    # the output array, plus temporaries of one LIFT_ROWS block (1.77x at d = 8;
    # a list of coefficient stacks and its np.stack copy made it 3.03x)
    if kind == "mobius":
        f = generate_thm1_instance(8, (1, 5), seed=2)
    else:
        f = generate_transfer_instance(8, 16, seed=2)
    f.abs_terms(0, 2 * LIFT_ROWS)  # first-call allocations of numpy and LAPACK
    tracemalloc.start()
    try:
        out = f.abs_terms(0, 8 * LIFT_ROWS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


@pytest.mark.parametrize("state_dim", range(5))
def test_transfer_terms_have_the_bytes_of_the_sequential_loop(state_dim):
    for dim in (1, 2, 4):
        f = generate_transfer_instance(dim, state_dim, seed=3 + state_dim)
        for first, last in TERM_RANGES + ((65, 128),):
            assert _bytes(f.terms(first, last)) == _bytes(loop_transfer_terms(f, first, last))


SAMPLED = sampled_instances()


def _fresh_tail_bound(f, N: int) -> float:
    """tail_bound's formula with every norm taken anew."""
    if isinstance(f, HalfPlaneLift):
        return 2.0 * operator_norm(identity(f.dim) - f.a0()) * abs(f.beta) ** N
    A, B, C, _ = f.blocks
    return min(operator_norm(C) * operator_norm(A) ** N * operator_norm(B), 1.0)


@pytest.mark.parametrize("kind", ["transfer", "halfplane"])
def test_tail_bounds_from_norms_taken_once_have_the_bytes_of_fresh_norms(kind):
    for f in SAMPLED[kind]:
        got = [f.tail_bound(N).hex() for N in (0,) + RUNGS]
        assert got == [_fresh_tail_bound(f, N).hex() for N in (0,) + RUNGS]


def _assert_samples_have_the_bytes_of_per_point_evaluation(f):
    pts = default_z_samples(64)
    want = [loop_evaluate(f, z) for z in pts]
    # a lone point is where a broadcast product takes numpy's scalar loop
    for count in (64, 1, 2, 5):
        assert f.sample(pts[:count]).values.tobytes() == np.stack(want[:count]).tobytes()
    assert _bytes(f.evaluate(z) for z in pts) == _bytes(want)


@pytest.mark.parametrize("kind", ["polynomial"])
def test_samples_have_the_bytes_of_per_point_evaluation(kind):
    # the batched Horner loop makes the per-point loop's products in its order
    for f in SAMPLED[kind]:
        _assert_samples_have_the_bytes_of_per_point_evaluation(f)


def _assert_samples_are_within_rounding_of_per_point_evaluation(f):
    """Batched values within 16 eps (1 + max|f|) of the per-point formula, entry by entry:
    a few complex flops each (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    pts = default_z_samples(64)
    want = np.stack([loop_evaluate(f, z) for z in pts])
    bound = 16.0 * np.finfo(np.float64).eps * (1.0 + np.max(np.abs(want)))
    # no point; a lone point, where broadcast products take numpy's scalar loop; and, in
    # SAMPLED, square transfer B at one point, which numpy 1.x read as a stack of rows
    for count in (0, 1, 2, 5, 17, 64):
        got = f.sample(pts[:count]).values
        assert got.shape == (count, f.dim, f.dim)
        assert np.max(np.abs(got - want[:count]), initial=0.0) <= bound
    assert np.max(np.abs(np.stack([f.evaluate(z) for z in pts]) - want)) <= bound


@pytest.mark.parametrize("kind", ["halfplane", "mobius", "transfer"])
def test_samples_are_within_rounding_of_per_point_evaluation(kind):
    for f in SAMPLED[kind]:
        _assert_samples_are_within_rounding_of_per_point_evaluation(f)


@pytest.mark.parametrize("name", sorted(PINNED_SERIES) + sorted(SCALAR_SERIES))
def test_evaluate_returns_a_fresh_writeable_matrix(name):
    f = PINNED_SERIES[name][0] if name in PINNED_SERIES else SCALAR_SERIES[name]
    value = f.evaluate(0.25j)
    assert value.shape == (f.dim, f.dim) and value.flags.writeable
    owned = [a for v in vars(f).values() for a in (v if isinstance(v, tuple) else (v,))]
    assert not any(np.shares_memory(value, a) for a in owned if isinstance(a, np.ndarray))


# at d >= 2 every product of the batched formula runs the contiguous loop that one
# point's length-d products run, so thm1 values and eq5 audits keep their bytes; at
# d = 1 a lone point takes numpy's scalar loop, so only the rounding bound holds there
@pytest.mark.parametrize("dim", range(2, 9))
def test_mobius_samples_have_the_bytes_of_per_point_evaluation(dim):
    for f in SAMPLED["mobius"]:
        if f.dim == dim:
            _assert_samples_have_the_bytes_of_per_point_evaluation(f)


def test_mobius_coefficients_vanish_off_degree_multiples():
    f = MobiusLift(np.eye(1), [0.4], [1.0], [3])
    s = f.coefficients(7)
    for n in (1, 2, 4, 5, 7):
        assert operator_norm(s.coeffs[n]) == 0.0
    assert abs(s.coeffs[3][0, 0] - (1 - 0.16)) <= 1e-14
    # degree-3 inner function: sixth coefficient is the j=2 term
    assert abs(s.coeffs[6][0, 0] - (1 - 0.16) * (-0.4)) <= 1e-14


def test_scalar_witness_coefficient_formula():
    for lam in (0.3, 0.5, 0.75, 0.9):
        w = mobius_witness(lam)
        s = w.coefficients(64)
        assert abs(s.coeffs[0][0, 0] - lam) <= 1e-14
        for n in range(1, 65):
            target = -(1.0 - lam * lam) * lam ** (n - 1)
            assert abs(s.coeffs[n][0, 0] - target) <= 1e-10


def test_mobius_constructor_guards():
    with pytest.raises(HypothesisViolated):
        MobiusLift(np.eye(2) * 2.0, [0.1, 0.2], [1.0, 1.0], [1, 1])
    with pytest.raises(HypothesisViolated):
        MobiusLift(np.eye(1), [0.9995], [1.0], [1])
    with pytest.raises(HypothesisViolated):
        MobiusLift(np.eye(1), [0.5], [0.5], [1])
    # a degree is an integer in [1, 2**63); the last two used to raise
    # OverflowError and to truncate to 1
    for degree in (0, 2**63, 10**30, 1.5):
        with pytest.raises(HypothesisViolated):
            MobiusLift(np.eye(1), [0.5], [1.0], [degree])
    with pytest.raises(DimensionMismatch):
        MobiusLift(np.eye(2), [0.1], [1.0], [1])


def test_mobius_witness_domain():
    with pytest.raises(HypothesisViolated):
        mobius_witness(0.9999)
    with pytest.raises(HypothesisViolated):
        mobius_witness(-0.1)


def test_boundary_anchor_channel_is_constant():
    f = MobiusLift(np.eye(1), [1.0], [1.0], [1], allow_boundary=True)
    for z in (0.0, 0.3, 0.5j):
        assert abs(f.evaluate(z)[0, 0] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# transfer functions
# ---------------------------------------------------------------------------

def test_transfer_is_contractive_on_the_disk():
    rng = np.random.default_rng(2)
    for i in range(10):
        f = generate_transfer_instance(1 + i % 3, 2 + i % 3, seed=i)
        z = (1.0 - 1e-6) * np.exp(2j * np.pi * rng.uniform())
        assert operator_norm(f.evaluate(z)) <= 1.0 + 1e-9


def test_transfer_coefficients_match_block_products():
    f = generate_transfer_instance(2, 3, seed=4)
    A, B, C, D = f.blocks
    s = f.coefficients(3)
    assert frobenius(s.coeffs[0] - D) <= 1e-15
    assert frobenius(s.coeffs[1] - C @ B) <= 1e-14
    assert frobenius(s.coeffs[2] - C @ A @ B) <= 1e-14
    assert s.tail_norm_bound <= 1.0


def test_transfer_state_dim_zero_is_constant():
    f = TransferRealization(random_unitary(3, 8), 0)
    s = f.coefficients(2)
    assert s.exact
    assert frobenius(f.evaluate(0.5) - s.coeffs[0]) <= 1e-15


def test_transfer_constructor_guards():
    with pytest.raises(HypothesisViolated):
        TransferRealization(np.eye(4) * 1.5, 2)
    with pytest.raises(DimensionMismatch):
        TransferRealization(random_unitary(4, 0), 4)


# ---------------------------------------------------------------------------
# half-plane lifts
# ---------------------------------------------------------------------------

def test_halfplane_coefficients_closed_form():
    f = generate_thm2_instance(3, seed=12)
    s = f.coefficients(5)
    A0 = f.a0()
    gap = identity(3) - A0
    assert frobenius(s.coeffs[0] - A0) <= 1e-14
    for n in range(1, 6):
        target = gap * (-2.0 * f.t * f.beta ** (n - 1))
        assert frobenius(s.coeffs[n] - target) <= 1e-13
    assert s.tail_norm_bound <= 2.0 * operator_norm(gap) * abs(f.beta) ** 5 + 1e-15


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("beta, t", [(0.55 - 0.3j, 0.2), (0.9, 0.05), (0.0, 0.35), (0.4j, 0.0)])
def test_halfplane_abs_terms_are_the_closed_form(dim, beta, t):
    # |A_n| = 2t |beta|^(n-1) (I - A_0), |A_0| = A_0: within 1e-14 (1 + ||A_n||)
    # of that formula, and within 1e-12 of the Gram route, whose clamp drops
    # nothing here since every channel keeps 1 - d_i >= 1e-3
    rng = np.random.default_rng(dim)
    f = HalfPlaneLift(random_unitary(dim, dim), rng.uniform(0.0, 0.999, dim), t, beta)
    got = f.abs_terms(0, 130)
    assert got.shape == (131, dim, dim)
    gram = abs_operator(np.stack(f.terms(0, 130)))
    gap = identity(dim) - f.a0()
    for n, T in enumerate(got):
        exact = f.a0() if n == 0 else 2.0 * t * abs(beta) ** (n - 1) * gap
        scale = 1.0 + operator_norm(exact)
        assert np.array_equal(T, T.conj().T)
        assert operator_norm(T - exact) <= 1e-14 * scale
        assert operator_norm(T - gram[n]) <= 1e-12 * scale
    assert np.array_equal(f.abs_terms(5, 70), got[5:71])


def _mp_abs(mpmath, A: np.ndarray) -> np.ndarray:
    """|A| to 40 digits: the square root of A*A by mpmath's Hermitian eigensolver."""
    with mpmath.workdps(40):
        M = mpmath.matrix(A.tolist())
        E, Q = mpmath.eighe(M.H * M)
        S = Q * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in E]) * Q.H
        return np.array([[complex(S[i, j]) for j in range(S.cols)] for i in range(S.rows)])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_polynomial_abs_terms_keep_singular_values_the_gram_route_drops(dim):
    # ||A|| in [2, 4] and s_min / ||A|| in {1e-7, 1e-8, 1e-9}: s_min^2 falls
    # under psd_sqrt's 1e-12 clamp, so the Gram route is off by s_min > 1e-9
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(40 + dim)
    coeffs = []
    for ratio in (1e-7, 1e-8, 1e-9):
        s = rng.uniform(2.0, 4.0) * np.concatenate(([1.0], rng.uniform(0.1, 1.0, dim - 2), [ratio]))
        U, V = (random_unitary(dim, int(seed)) for seed in rng.integers(1 << 30, size=2))
        coeffs.append((U * s) @ V.conj().T)
    f = Polynomial(coeffs)
    got = f.abs_terms(0, 130)
    assert got.shape == (131, dim, dim)
    assert not got[3:].any()
    gram = abs_operator(np.stack(f.coeffs))
    for A, T, G in zip(f.coeffs, got, gram):
        exact = _mp_abs(mpmath, A)
        assert np.array_equal(T, T.conj().T)
        assert operator_norm(T - exact) <= 1e-14 * (1.0 + operator_norm(A))
        assert operator_norm(G - exact) > 1e-9
    assert np.array_equal(f.abs_terms(2, 70), got[2:71])


def test_halfplane_evaluation_uses_the_symbol():
    f = generate_thm2_instance(2, seed=3)
    z = 0.4 - 0.2j
    expect = f.a0() + (identity(2) - f.a0()) * f.symbol(z)
    assert frobenius(f.evaluate(z) - expect) <= 1e-13


def test_halfplane_constructor_guards():
    with pytest.raises(HypothesisViolated):
        HalfPlaneLift(np.eye(1), [1.0], 0.5, 0.1)
    with pytest.raises(HypothesisViolated):
        HalfPlaneLift(np.eye(1), [0.5], 1.5, 0.1)
    with pytest.raises(HypothesisViolated):
        HalfPlaneLift(np.eye(1), [0.5], 0.5, 0.9999995)
    with pytest.raises(DimensionMismatch):
        HalfPlaneLift(np.eye(2), [0.5], 0.5, 0.1)


def test_real_part_bound_fails_outside_the_admissible_region():
    # sup Re of the symbol is 2t(1-Re beta)/(1-|beta|^2) = 20/19 > 1 here
    f = HalfPlaneLift(np.eye(1), [0.0], 1.0, 0.9)
    report = hypothesis_check(f, "thm2")
    assert not report.passed
    assert "grid_re_excess" in report.failures()


# ---------------------------------------------------------------------------
# the coefficient-zeroing transform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [
    scaled_polynomial(3, 40, seed=2),
    generate_thm1_instance(3, seed=2),
    generate_transfer_instance(3, 2, seed=2),
    generate_thm2_instance(3, seed=2),
], ids=["polynomial", "mobius", "transfer", "halfplane"])
def test_coefficient0_is_the_first_series_coefficient(f):
    expected = f.coefficients(0).coeffs[0]
    calls = []
    generate = f.coefficients
    f.coefficients = lambda N: calls.append(N) or generate(N)
    A0 = f.coefficient0()
    assert A0.dtype == expected.dtype and A0.tobytes() == expected.tobytes()
    # A_0 is the first term of the formula: no series is built to read it
    assert calls == []


@pytest.mark.parametrize("kind", sorted(SAMPLED))
def test_coefficient0_kept_on_the_function_has_the_bytes_of_terms(kind):
    for f in sampled_instances()[kind]:
        want = f.terms(0, 0)[0].tobytes()
        calls = []
        generate = f.terms
        f.terms = lambda first, last: calls.append((first, last)) or generate(first, last)
        try:
            first = f.coefficient0()
            assert first.tobytes() == want
            first[...] = np.nan  # a caller's copy: the next call is unchanged
            again = f.coefficient0()
            assert again.tobytes() == want and again is not first
        finally:
            del f.terms
        # built once per function, by terms(0, 0)
        assert calls == [(0, 0)]


def test_schur_transform_vanishes_at_zero_and_contracts():
    for i in range(10):
        f = generate_thm1_instance(1 + i % 4, seed=50 + i)
        assert operator_norm(schur_transform(f, 0.0)) <= 1e-10
        z = 0.6 * np.exp(0.9j)
        assert operator_norm(schur_transform(f, z)) <= 1.0 + 1e-9


def test_schur_transform_round_trip():
    f = generate_thm1_instance(3, seed=77)
    pts = np.array([0.1, 0.4j, -0.55, 0.3 - 0.3j])
    phi = FunctionSamples(pts, np.stack([schur_transform(f, z) for z in pts]))
    back = reconstruct_from_transform(f.coefficient0(), phi)
    ref = f.sample(pts)
    for k in range(len(pts)):
        assert operator_norm(back.values[k] - ref.values[k]) <= 1e-8


def test_schur_transform_requires_strict_contractions():
    f = Polynomial([np.eye(2) * 1.2])
    with pytest.raises(HypothesisViolated):
        schur_transform(f, 0.1)


def test_schur_transform_requires_a_contractive_value():
    # ||A_0|| = 0.5, but f(0.9) = 0.5 I + 0.81 I is no contraction
    with pytest.raises(HypothesisViolated, match="f\\(z\\)"):
        schur_transform(Polynomial([0.5 * np.eye(2), 0.9 * np.eye(2)]), 0.9)


def test_schur_transform_refuses_a_numerically_singular_denominator():
    # I - A_0* f(z) = diag(2e-14, 1) for the constant f = A_0: condition number 5e13 > CONDITION_CAP
    with pytest.raises(NotInvertible):
        schur_transform(Polynomial([np.diag([1.0 - 1e-14, 0.0])]), 0.1)


def test_reconstruct_guards():
    pts = np.array([0.2])
    phi = FunctionSamples(pts, np.zeros((1, 2, 2)))
    nonnormal = np.array([[0.0, 0.9], [0.0, 0.0]])
    with pytest.raises(HypothesisViolated):
        reconstruct_from_transform(nonnormal, phi)
    A0 = np.diag([0.1, 0.6])
    off = np.array([[0.0, 0.5], [0.5, 0.0]])
    bad = FunctionSamples(pts, off[None, :, :])
    with pytest.raises(CommutationViolated):
        reconstruct_from_transform(A0, bad)
    with pytest.raises(DimensionMismatch):
        reconstruct_from_transform(np.diag([0.1, 0.6, 0.2]), phi)


def test_reconstruct_requires_contractions():
    pts = np.array([0.2])
    with pytest.raises(HypothesisViolated, match="A_0"):
        reconstruct_from_transform(np.diag([0.1, 1.0]), FunctionSamples(pts, np.zeros((1, 2, 2))))
    with pytest.raises(HypothesisViolated, match="phi"):
        reconstruct_from_transform(np.diag([0.1, 0.6]), FunctionSamples(pts, np.diag([0.1, 1.5])[None]))


# ---------------------------------------------------------------------------
# coefficient cross-check by circle sampling
# ---------------------------------------------------------------------------

def test_dft_guards():
    f = scaled_polynomial(2, 2, seed=6)
    with pytest.raises(OutsideDomain):
        coefficients_dft(f, 0.9999, 4, 64)
    with pytest.raises(GridTooCoarse):
        coefficients_dft(f, 0.5, 4, 16)
    # M = 16.5 used to return coefficients off by far more than their
    # aliasing bounds, and N = 2.5 to raise IndexError
    for N, M in ((2, 16.5), (2.5, 64), (2.0, 16), (2, np.float64(16)), (True, 16), (2, True), (-1, 16)):
        with pytest.raises(ValueError):
            coefficients_dft(mobius_witness(0.5), 0.5, N, M)
    s = coefficients_dft(f, 0.5, np.int64(2), np.int32(16))
    assert s.order == 2


def test_dft_recovers_polynomial_coefficients():
    # minimal grid keeps the aliasing bounds far above roundoff
    f = scaled_polynomial(3, 5, seed=9)
    s = coefficients_dft(f, 0.5, 5, 24)
    assert s.aliasing_bounds is not None and len(s.aliasing_bounds) == 6
    for n in range(6):
        err = operator_norm(s.coeffs[n] - f.coeffs[n])
        assert err <= float(s.aliasing_bounds[n])


# ---------------------------------------------------------------------------
# generators and certification
# ---------------------------------------------------------------------------

def test_generators_are_deterministic_in_seed():
    a = generate_thm1_instance(4, seed=123)
    b = generate_thm1_instance(4, seed=123)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.degrees, b.degrees)

    c = generate_thm2_instance(3, seed=9)
    d = generate_thm2_instance(3, seed=9)
    assert np.array_equal(c.diag, d.diag) and c.t == d.t and c.beta == d.beta

    e = generate_transfer_instance(2, 3, seed=5)
    g = generate_transfer_instance(2, 3, seed=5)
    assert np.array_equal(e.colligation, g.colligation)


def test_generated_instances_pass_their_hypothesis_checks():
    # the generators do not check their own output: every draw must lie in its class
    for i in range(48):
        dim = 1 + i % 8
        for f in (
            generate_thm1_instance(dim, seed=i),
            generate_thm1_instance(dim, degrees=(1, 10), seed=i),
            generate_thm1_instance(dim, degrees=(1, 10), seed=i, allow_boundary=True),
        ):
            assert hypothesis_check(f, "thm1").passed
        g = generate_thm2_instance(dim, seed=i)
        assert hypothesis_check(g, "thm2").passed
        require_hypotheses(g, "thm2")


def test_thm1_report_checks_every_coefficient_of_a_polynomial():
    # A_40 does not commute with A_0, and every coefficient between is 0;
    # only the first COMMUTATION_ORDER = 32 coefficients used to be checked
    f = Polynomial([np.diag([0.1, 0.2]), *[np.zeros((2, 2))] * 39, [[0, 0.1], [0.1, 0]]])
    report = hypothesis_check(f, "thm1")
    assert report.failures() == ["max_commutator"]
    assert report.max_commutator > 1e-3
    with pytest.raises(HypothesisViolated, match="thm1 hypotheses fail: max_commutator"):
        require_hypotheses(f, "thm1")
    # past the degree every coefficient is 0, which commutes with A_0
    assert hypothesis_check(Polynomial(f.coeffs[:40]), "thm1").passed


def test_hypothesis_grid_shape():
    grid = hypothesis_grid()
    assert len(grid) == 32
    assert np.allclose(np.abs(grid), 0.999)


def test_cor2_hypothesis_needs_scalar_initial_coefficient():
    f = MobiusLift(np.eye(2), [0.3, 0.6], [1.0, 1.0], [1, 1])
    report = hypothesis_check(f, "cor2")
    assert "a0_scalar_defect" in report.failures()
    assert hypothesis_check(mobius_witness(0.5), "cor2").passed


# each limit field of a report: a value at its bound, which passes, and the
# next float past it, which fails
TH = HYPOTHESIS_TOL
REPORT_LIMITS = {
    "a0_normal_defect": (TH, np.nextafter(TH, 1.0)),
    "max_commutator": (TH, np.nextafter(TH, 1.0)),
    "grid_norm_max": (1.0 + TH, np.nextafter(1.0 + TH, 2.0)),
    "grid_re_excess": (TH, np.nextafter(TH, 1.0)),
    "grid_normality_defect": (TH, np.nextafter(TH, 1.0)),
    "a0_scalar_defect": (TH, np.nextafter(TH, 1.0)),
    "a0_min_eigenvalue": (-TH, np.nextafter(-TH, -1.0)),
    "a0_norm": (np.nextafter(1.0, 0.0), 1.0),
}
# the report fields each class leaves unset
REPORT_UNSET = {
    "thm1": {"grid_re_excess", "grid_normality_defect", "a0_scalar_defect",
             "a0_min_eigenvalue", "a0_norm"},
    "cor2": {"grid_re_excess", "grid_normality_defect", "a0_min_eigenvalue", "a0_norm"},
    "thm2": {"grid_norm_max", "a0_scalar_defect"},
}


def _report(**limits) -> HypothesisReport:
    fields = {"a0_normal_defect": 0.0, "max_commutator": 0.0, **limits}
    return HypothesisReport(klass="thm1", dim=1, threshold=TH, **fields)


@pytest.mark.parametrize("name", sorted(REPORT_LIMITS))
def test_each_report_limit_passes_at_its_bound_and_fails_past_it(name):
    at, past = REPORT_LIMITS[name]
    assert _report(**{name: at}).passed
    failed = _report(**{name: past})
    assert failed.failures() == [name] and not failed.passed
    assert failed.to_dict()[name] == past and failed.to_dict()["passed"] is False


def test_report_failures_keep_their_order():
    # require_hypotheses joins this list into its error message
    report = _report(**{name: past for name, (_, past) in REPORT_LIMITS.items()})
    assert report.failures() == list(REPORT_LIMITS)


@pytest.mark.parametrize("klass", sorted(REPORT_UNSET))
def test_report_dict_keys_and_unset_fields_per_class(klass):
    for f in (mobius_witness(0.5), generate_thm2_instance(3, seed=1)):
        report = hypothesis_check(f, klass)
        d = report.to_dict()
        assert list(d) == ["class", "dim", "threshold", *REPORT_LIMITS, "passed"]
        assert {k for k, v in d.items() if v is None} == REPORT_UNSET[klass]
        assert (d["class"], d["dim"], d["threshold"]) == (klass, f.dim, TH)
        assert d["passed"] is report.passed


def test_hypothesis_check_rejects_unknown_class():
    with pytest.raises(ValueError):
        hypothesis_check(mobius_witness(0.5), "thm3")


def test_certified_sup_takes_polynomials_only():
    with pytest.raises(HypothesisViolated):
        certified_sup(mobius_witness(0.5))


def test_certified_sup_dominates_boundary_samples():
    f = scaled_polynomial(2, 4, seed=14)
    bound, worst = certified_sup(f)
    assert abs(worst) <= 1.0 + 1e-12
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = np.exp(2j * np.pi * rng.uniform())
        assert operator_norm(loop_evaluate(f, z)) <= bound + 1e-12


def test_certified_sup_has_the_bytes_of_the_per_angle_bound():
    for f in SAMPLED["polynomial"]:
        assert repr(certified_sup(f)) == repr(loop_certified_sup(f))
