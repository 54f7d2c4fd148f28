"""Verdict logic, radius formulas, proof steps, and the relaxation search."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bohrlab import checks
from bohrlab.checks import (
    INITIAL_N,
    Branch,
    ProofStep,
    RADIUS_CAP,
    SQRT_HALF,
    Status,
    bombieri_radius,
    build_radius_report,
    check_bb2_norm_bound,
    check_bohr,
    check_cor2,
    check_thm2_bounds,
    chi,
    coefficient_bound_eq14,
    cor2_rhs,
    counterexample_search,
    empirical_bohr_radius,
    majorant,
    proof_step_validate,
    sharpness_scan,
    thm1_admissible_radius,
    xi,
    xi_argmax,
)
from bohrlab.errors import (
    DomainError,
    HypothesisViolated,
    OutsideDomain,
    StepClassMismatch,
    StepNotApplicable,
)
from bohrlab.functions import (
    LIFT_ROWS,
    HalfPlaneLift,
    MobiusLift,
    Polynomial,
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
    mobius_witness,
)
from bohrlab.linalg import abs_operator, hermitian_part, identity, loewner_leq, random_unitary


def scalar_majorant(lam: float, r: float) -> float:
    return lam + (1.0 - lam * lam) * r / (1.0 - lam * r)


# ---------------------------------------------------------------------------
# majorant and verdicts
# ---------------------------------------------------------------------------

def test_majorant_matches_scalar_closed_form():
    w = mobius_witness(0.75)
    series = w.coefficients(512)
    for r in (0.1, 0.3, 0.4, 0.45):
        partial, tail = majorant(series, r)
        val = float(partial[0, 0].real)
        assert abs(val - scalar_majorant(0.75, r)) <= 1e-12 + tail
        assert tail >= 0.0
    with pytest.raises(OutsideDomain):
        majorant(series, 1.0)


def test_majorant_sums_every_stored_term():
    f = Polynomial([[[0.1]], [[0.2]], [[0.6]]])
    partial, tail = majorant(f.coefficients(2), 0.9)
    assert abs(float(partial[0, 0].real) - (0.1 + 0.2 * 0.9 + 0.6 * 0.81)) <= 1e-15
    assert tail == 0.0


def test_majorant_keeps_a_singular_value_below_the_gram_clamp():
    # the Gram route dropped the 5e-7 of |A_1| = diag(0.9, 5e-7) and read
    # lambda_max - 1 = -2.0e-7, while check_bohr said VIOLATED at +5.0e-8
    f = Polynomial([np.diag([0.0, 1.0 - 2e-7]), np.diag([0.9, 5e-7])])
    partial, tail = majorant(f.coefficients(1), 0.5)
    top = float(np.linalg.eigvalsh(partial)[-1])
    assert tail == 0.0
    assert abs(top - (1.0 + 5e-8)) <= 1e-12
    assert abs(check_bohr(f, 0.5).lhs_extreme - (top - 1.0)) <= 1e-15


def _loop_sum(terms, r, first, last):
    """The per-term reference: partial += T_n r^n in n order."""
    partial = np.zeros(terms[0].shape, dtype=np.complex128)
    for n in range(first, last + 1):
        partial += terms[n] * r**n
    return hermitian_part(partial)


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("squared", [False, True])
def test_stack_sum_has_the_bytes_of_the_per_term_loop(dim, squared):
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((257, dim, dim)) + 1j * rng.standard_normal((257, dim, dim))
    A[::7] = 0.0
    T = abs_operator(A * 0.9 ** np.arange(257)[:, None, None])
    # eq2 squares the whole array; the loop squares one matrix at a time
    summed, terms = (T @ T, [S @ S for S in T]) if squared else (T, list(T))
    for first in (0, 1):
        # a last in the first, second and fourth LIFT_ROWS block of the sum
        for last in (0, LIFT_ROWS - 1, LIFT_ROWS, LIFT_ROWS + 1, 200):
            for r in (0.0, 0.5, 1.0 - 1e-6):
                got = checks._sum(summed, r, first, last)
                want = _loop_sum(terms, r, first, last)
                assert got.tobytes() == want.tobytes(), (first, last, r)


def test_check_bohr_statuses_at_the_sharp_radius():
    w = mobius_witness(0.75)
    at = check_bohr(w, 0.4)
    # the majorant equals 1 exactly at r = 1/(1+2*0.75)
    assert at.status in (Status.HOLDS, Status.INCONCLUSIVE)
    assert abs(at.lhs_extreme) <= 1e-9

    past = check_bohr(w, 0.45)
    assert past.status is Status.VIOLATED
    assert past.witness is not None
    target = scalar_majorant(0.75, 0.45) - 1.0
    assert abs(past.lhs_extreme - target) <= 1e-9

    under = check_bohr(w, 0.3)
    assert under.status is Status.HOLDS
    assert under.holds and under.margin > 0.0


def test_check_bohr_domain():
    with pytest.raises(OutsideDomain):
        check_bohr(mobius_witness(0.5), 1.0)
    with pytest.raises(OutsideDomain):
        check_bohr(mobius_witness(0.5), -0.1)


@pytest.mark.parametrize(
    "check, f, r",
    [
        (check_bohr, mobius_witness(0.75), 0.3),
        (check_bb2_norm_bound, generate_transfer_instance(2, 2, seed=4), 0.5),
        (check_cor2, mobius_witness(0.5), 0.5),
        (check_thm2_bounds, generate_thm2_instance(2, seed=5), 0.5),
    ],
)
@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-3])
def test_verdicts_refuse_a_nonfinite_tol(check, f, r, tol):
    # tol=nan used to climb the ladder to MAX_N and return INCONCLUSIVE; a
    # negative tol called a majorant below its bound VIOLATED
    with pytest.raises(ValueError):
        check(f, r, tol=tol)


def _verdict_bytes(v) -> tuple:
    witness = None if v.witness is None else v.witness.tobytes()
    return (v.status, v.r, v.lhs_extreme, v.truncation_gap, v.N_used, witness)


def _diagonal_polynomial() -> Polynomial:
    """Degree 100, in thm1, with ||A_n|| > 0 beyond the first rung."""
    tail = [0.02 * 0.97**n * np.diag([1.0, 0.5]) for n in range(1, 101)]
    return Polynomial([np.diag([0.3, 0.2])] + tail)


def test_a_warm_term_store_gives_the_verdicts_of_a_fresh_function():
    radii = (0.3, 0.5, 0.7, 0.9, 0.99)
    # grown straight to the rung covering n = 100, the store reads the first
    # rung's nonzero tail bound from tail_bound
    warm = _diagonal_polynomial()
    coefficient_bound_eq14(warm, max_n=100)
    assert warm.tail_bound(INITIAL_N) > 0.0
    for r in radii:
        fresh = _diagonal_polynomial()
        assert _verdict_bytes(check_bohr(warm, r)) == _verdict_bytes(check_bohr(fresh, r))
    warm = generate_thm1_instance(4, degrees=(1, 10), seed=17)
    empirical_bohr_radius(warm)
    assert check_bb2_norm_bound(warm, 0.999).N_used == 4096
    for r in radii:
        fresh = generate_thm1_instance(4, degrees=(1, 10), seed=17)
        assert _verdict_bytes(check_bohr(warm, r)) == _verdict_bytes(check_bohr(fresh, r))
    warm = generate_thm2_instance(3, seed=8)
    check_thm2_bounds(warm, 0.9)
    for r in radii:
        fresh = generate_thm2_instance(3, seed=8)
        for step in (ProofStep.EQ2, ProofStep.THM2_FINAL):
            a = proof_step_validate(warm, step, r=r).verdict
            b = proof_step_validate(fresh, step, r=r).verdict
            assert (a.relation, a.min_gap, a.tolerance) == (b.relation, b.min_gap, b.tolerance)


def test_threads_sharing_one_function_get_the_verdicts_of_a_fresh_one():
    radii = (0.9, 0.95, 0.97, 0.99) * 2
    expected = {
        r: _verdict_bytes(check_bb2_norm_bound(generate_thm1_instance(3, seed=23), r))
        for r in set(radii)
    }
    shared = generate_thm1_instance(3, seed=23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda r: _verdict_bytes(check_bb2_norm_bound(shared, r)), radii))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[r] for r in radii]


def _count_ranges(f, method: str = "terms") -> list:
    """Record the (first, last) of every call of f's method from now on."""
    ranges = []
    generate = getattr(f, method)

    def counting(first, last):
        ranges.append((first, last))
        return generate(first, last)

    setattr(f, method, counting)
    return ranges


def _each_index_built_once(ranges) -> bool:
    """Whether the ranges that grow the |A_n| stacks are disjoint and
    contiguous from 0; coefficient0() builds (0, 0) and keeps nothing."""
    grown = [r for r in ranges if r != (0, 0)]
    return bool(grown) and grown[0][0] == 0 and all(
        later[0] == earlier[1] + 1 for earlier, later in zip(grown, grown[1:])
    )


def test_a_singular_value_below_the_gram_clamp_counts():
    # the Gram route dropped the 5e-7 of |A_1| = diag(0.9, 5e-7) and read HOLDS
    # at -2.0e-7; the exact majorant at r = 0.5 is diag(0.45, 1 + 5e-8)
    f = Polynomial([np.diag([0.0, 1.0 - 2e-7]), np.diag([0.9, 5e-7])])
    verdict = check_bohr(f, 0.5)
    assert verdict.status is Status.VIOLATED
    assert abs(verdict.lhs_extreme - 5e-8) <= 1e-12


def test_bisection_generates_each_rung_once():
    f = mobius_witness(0.75, degree=2)
    ranges = _count_ranges(f)
    radius = empirical_bohr_radius(f)
    assert abs(radius - 0.4**0.5) <= 1e-5
    assert _each_index_built_once(ranges)

    # the proof steps read the same store: no index is generated again
    proof_step_validate(f, "eq10", k=20)
    proof_step_validate(f, "eq12", r=0.9)
    coefficient_bound_eq14(f)
    # a HalfPlaneLift grows its store by its own abs_terms, not by terms
    g = generate_thm2_instance(3, seed=8)
    g_ranges = _count_ranges(g, "abs_terms")
    for r in (0.5, 0.95):
        check_thm2_bounds(g, r)
        proof_step_validate(g, "eq2", r=r)
        proof_step_validate(g, "thm2final", r=r)
    for seen in (ranges, g_ranges):
        assert _each_index_built_once(seen)

    # an eq14 chain past the first rung grows straight to the rung covering
    # it; a later verdict reads the first rung's tail from tail_bound
    h = mobius_witness(0.5, degree=3)
    coefficient_bound_eq14(h, max_n=70)
    h_ranges = _count_ranges(h)
    check_bohr(h, 0.3)
    assert h_ranges == []

    # a proof step picks its rung from tail_bound before it generates any:
    # eq12 at r = 0.9 sums to rung 512 and generates none of 128 and 256
    w = mobius_witness(0.75, degree=2)
    w_ranges = _count_ranges(w)
    proof_step_validate(w, "eq12", r=0.9)
    assert w_ranges == [(0, INITIAL_N), (INITIAL_N + 1, 512)]


WARMED = {
    "mobius witness": lambda: mobius_witness(0.3, degree=5),
    "thm1": lambda: generate_thm1_instance(3, degrees=(1, 10), seed=5),
    "transfer": lambda: generate_transfer_instance(2, 2, seed=3),
    "halfplane": lambda: generate_thm2_instance(2, seed=4),
    "polynomial": lambda: Polynomial([0.5 * np.eye(2), [[0, 0.2], [0.1, 0]]]),
}


@pytest.mark.parametrize("name", sorted(WARMED))
def test_stacks_grown_by_bisection_have_the_bytes_of_one_fresh_series(name):
    warm = WARMED[name]()
    empirical_bohr_radius(warm)
    grown = warm._abs_store
    fresh = WARMED[name]().abs_terms(0, len(grown) - 1)
    assert grown.shape == fresh.shape and grown.dtype == fresh.dtype == np.complex128
    assert grown.tobytes() == fresh.tobytes()


def test_a_checked_function_is_freed_without_the_cycle_collector():
    f = generate_thm2_instance(3, seed=2)
    check_thm2_bounds(f, 0.8)
    ref = weakref.ref(f)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_norm_class_bound_holds_for_transfer_functions():
    f = generate_transfer_instance(3, 3, seed=21)
    for r in (0.2, 0.5, 0.8):
        assert check_bb2_norm_bound(f, r).holds


def test_check_cor2_domain_and_gate():
    w = mobius_witness(0.6)
    with pytest.raises(DomainError):
        check_cor2(w, 0.2)
    with pytest.raises(DomainError):
        check_cor2(w, 0.8)
    assert check_cor2(w, 0.5).holds
    nonscalar = MobiusLift(np.eye(2), [0.3, 0.6], [1.0, 1.0], [1, 1])
    with pytest.raises(HypothesisViolated):
        check_cor2(nonscalar, 0.5)


# lambdas of a MobiusLift in a random basis -> whether the cor2 gate admits
# it; the largest |lambda_i - mean(lambda)| is the scalar defect of A_0
MOBIUS_COR2 = {
    "equal": ([0.4, 0.4, 0.4], True),
    "equal complex": ([0.3 - 0.2j] * 3, True),
    "defect 6.7e-9": ([0.4, 0.4 + 1e-8, 0.4], True),
    "defect 2e-8": ([0.4, 0.4 + 3e-8, 0.4], False),
    "unequal": ([0.3, 0.6, 0.3], False),
}


@pytest.mark.parametrize("name", sorted(MOBIUS_COR2))
def test_cor2_gate_decides_a_mobius_lift_from_its_lambdas(name, monkeypatch):
    lambdas, admitted = MOBIUS_COR2[name]
    f = MobiusLift(random_unitary(3, 5), lambdas, [1.0, 1j, -1.0], [1, 2, 3])

    def sampled(*args):
        raise AssertionError("hypothesis_check ran")

    monkeypatch.setattr("bohrlab.checks.hypothesis_check", sampled)
    if admitted:
        assert check_cor2(f, 0.5).status is not Status.INCONCLUSIVE
    else:
        with pytest.raises(HypothesisViolated, match="^cor2 hypotheses fail: a0_scalar_defect$"):
            check_cor2(f, 0.5)


# ---------------------------------------------------------------------------
# radius formulas
# ---------------------------------------------------------------------------

def test_radius_branches():
    inv = thm1_admissible_radius(np.diag([0.75]))
    assert inv.branch is Branch.INVERTIBLE
    assert abs(inv.value - 0.4) <= 1e-12

    sq = thm1_admissible_radius(np.diag([0.3]))
    assert sq.branch is Branch.SQRT
    assert abs(sq.value - np.sqrt(0.35)) <= 1e-12

    tie = thm1_admissible_radius(np.diag([0.5]))
    assert tie.branch is Branch.MAX
    assert abs(tie.value - 0.5) <= 1e-12

    # the inverse formula reads off the largest channel
    mixed = thm1_admissible_radius(np.diag([0.6, 0.9]))
    assert mixed.branch is Branch.INVERTIBLE
    assert abs(mixed.value - 1.0 / 2.8) <= 1e-12


def test_radius_formula_rejects_bad_coefficients():
    with pytest.raises(HypothesisViolated):
        thm1_admissible_radius(np.array([[0.0, 0.9], [0.0, 0.0]]))
    with pytest.raises(HypothesisViolated):
        thm1_admissible_radius(np.diag([1.0]))


def test_bombieri_radius_branches_meet_at_one_half():
    assert abs(bombieri_radius(0.75) - 0.4) <= 1e-15
    assert abs(bombieri_radius(0.3) - np.sqrt(0.35)) <= 1e-15
    assert abs(bombieri_radius(0.5) - 0.5) <= 1e-15
    with pytest.raises(DomainError):
        bombieri_radius(1.0)


def test_guaranteed_radius_is_loewner_monotone_safe(thm1_population):
    # every generated instance must hold strictly below its guarantee
    for f in thm1_population[:20]:
        rep = thm1_admissible_radius(f.coefficient0())
        assert 0.0 < rep.value <= SQRT_HALF + 1e-12
        assert check_bohr(f, max(0.0, rep.value - 1e-4)).holds


# ---------------------------------------------------------------------------
# scalar envelope helpers
# ---------------------------------------------------------------------------

def test_cor2_rhs_endpoints():
    assert abs(cor2_rhs(1.0 / 3.0) - 1.0) <= 1e-12
    assert abs(cor2_rhs(SQRT_HALF) - np.sqrt(2.0)) <= 1e-12
    with pytest.raises(DomainError):
        cor2_rhs(0.2)


def test_chi_peaks_at_twice_r_below_the_crossover():
    for r in (0.35, 0.5, 0.65):
        xs = np.linspace(0.0, r, 400)
        peak = max(chi(float(x), r) for x in xs)
        assert abs(peak - 2.0 * r) <= 1e-6
    with pytest.raises(DomainError):
        chi(1.0, 0.5)


def test_xi_argmax_attains_the_envelope():
    for r in (0.35, 0.45, 0.6, 0.7):
        x0 = xi_argmax(r)
        assert 0.0 < x0 < 1.0
        assert abs(xi(x0, r) - cor2_rhs(r)) <= 1e-12
        for x in np.linspace(0.0, 0.998, 300):
            assert xi(float(x), r) <= cor2_rhs(r) + 1e-9


# ---------------------------------------------------------------------------
# proof steps
# ---------------------------------------------------------------------------

def test_every_contractive_step_passes_on_a_generated_instance():
    f = generate_thm1_instance(4, seed=99)
    for token in ("eq5", "eq9", "eq10", "eq12", "eq14"):
        rep = proof_step_validate(f, token)
        assert rep.verdict.holds, token
        assert rep.step is ProofStep(token)


def test_eq11_needs_radius_below_the_smallest_channel():
    f = mobius_witness(0.75)
    rep = proof_step_validate(f, "eq11", r=0.4)
    assert rep.verdict.holds
    with pytest.raises(StepNotApplicable):
        proof_step_validate(f, "eq11", r=0.9)
    # outside thm1 the gate refuses first, whatever r
    w = counterexample_search("drop-commutation", 2, budget=10, seed=1).witness.function
    for r in (0.3, 0.99):
        with pytest.raises(HypothesisViolated, match="thm1 hypotheses fail") as exc:
            proof_step_validate(w, "eq11", r=r)
        assert not isinstance(exc.value, StepNotApplicable)


def test_real_part_steps_pass_on_generated_instances():
    f = generate_thm2_instance(3, seed=41)
    for token in ("eq1", "eq2", "thm2final"):
        assert proof_step_validate(f, token, r=0.3).verdict.holds, token


def test_step_class_gates():
    m = mobius_witness(0.5)
    h = generate_thm2_instance(2, seed=8)
    with pytest.raises(StepClassMismatch):
        proof_step_validate(h, "eq5")
    with pytest.raises(StepClassMismatch):
        proof_step_validate(h, "bb2remark")
    # contractive instances fail the PSD initial-coefficient requirement
    neg = MobiusLift(np.eye(1), [-0.5], [1.0], [1])
    with pytest.raises(HypothesisViolated):
        proof_step_validate(neg, "eq1")
    assert proof_step_validate(m, "bb2remark", r=0.5).verdict.holds


def test_eq2_matches_a_direct_sum_of_gram_terms():
    f = generate_thm2_instance(3, seed=41)
    coeffs = f.coefficients(1000).coeffs
    gap = identity(3) - coeffs[0]
    for r in (0.3, 0.6, 0.9):
        lhs = sum(A.conj().T @ A * r**n for n, A in enumerate(coeffs[1:], 1))
        rhs = 4.0 * gap @ gap * (r / (1.0 - r))
        reference = np.linalg.eigvalsh(hermitian_part(rhs - lhs))[0]
        got = proof_step_validate(f, "eq2", r=r).verdict.min_gap
        assert abs(got - reference) <= 1e-12, r


def test_halfplane_steps_check_the_real_part_bound():
    # 2t(1 - Re beta) = 0.2 > 1 - |beta|^2 = 0.19: Re f exceeds I near z = 1
    bad = HalfPlaneLift(np.eye(1), [0.5], 1.0, 0.9)
    # sup Re f - I = 2.5e-7 here, reached so close to z = 1 that no sampled
    # point sees it; the gate reads it from the parameters
    hair = HalfPlaneLift(np.eye(1), [0.5], 1.0, 1.0 - 1e-6)
    for f in (bad, hair):
        for token in ("eq1", "eq2", "thm2final"):
            with pytest.raises(HypothesisViolated, match="grid_re_excess"):
                proof_step_validate(f, token, r=0.3)
        with pytest.raises(HypothesisViolated, match="grid_re_excess"):
            check_thm2_bounds(f, 0.3)
    # a class mismatch is a hypothesis failure too
    with pytest.raises(HypothesisViolated):
        proof_step_validate(bad, "eq5")


def test_step_parameter_domains():
    f = mobius_witness(0.5)
    with pytest.raises(ValueError):
        proof_step_validate(f, "eq9", k=0)
    # an empty sample set used to raise a bare IndexError
    with pytest.raises(ValueError):
        proof_step_validate(f, "eq5", z_samples=[])
    with pytest.raises(ValueError):
        proof_step_validate(generate_thm2_instance(2, seed=8), "eq1", z_samples=[])
    # samples that are not 1-D used to reach complex() and raise TypeError
    for bad in ([[0.1, 0.2]], [[0.1], [0.2]], 0.1):
        with pytest.raises(ValueError):
            proof_step_validate(f, "eq5", z_samples=bad)
    with pytest.raises(DomainError):
        proof_step_validate(f, "eq12", r=1.0)
    with pytest.raises(ValueError):
        proof_step_validate(f, "not-a-step")


@pytest.mark.parametrize("count", [*range(1, 10), 63, 64, 65, 4095])
def test_default_z_samples_gives_count_points(count):
    # a count not divisible by 4 used to give 4 * (count // 4) points
    pts = checks.default_z_samples(count)
    assert len(pts) == count and len(set(pts.tolist())) == count
    expected = []
    for i, rho in enumerate((0.3, 0.6, 0.9, 0.975)):
        n = count // 4 + (i < count % 4)
        expected += [rho * np.exp(2j * np.pi * k / n) for k in range(n)]
    assert pts.tobytes() == np.asarray(expected, dtype=np.complex128).tobytes()
    if count >= 4:
        assert np.sum(np.isclose(np.abs(pts), 0.975)) == count // 4


def _gram_reference(f, left_of, samples):
    """Worst gap, z and eigenvector of left*left - right*right, one sample at a time,
    on the values of one f.sample(samples) call."""
    A0 = f.coefficient0()
    worst = (np.inf, None, None)
    for z, fz in zip(samples, f.sample(samples).values):
        L, R = left_of(fz, A0), fz - A0
        w, V = np.linalg.eigh(hermitian_part(L.conj().T @ L - R.conj().T @ R))
        if w[0] < worst[0]:
            worst = (float(w[0]), complex(z), V[:, 0].copy())
    return worst


def _eq5_left(fz, A0):
    return identity(len(A0)) - A0.conj().T @ fz


def _eq1_left(fz, A0):
    return 2.0 * (identity(len(A0)) - A0) - (fz - A0)


def test_batched_gram_audit_has_the_bytes_of_a_per_sample_audit():
    # outer rings come last, so with 150 samples the worst sits in a later stack
    samples = checks.default_z_samples(150)
    # a complex d = 1 lift is where a batched product most easily loses bytes
    scalar = generate_thm1_instance(1, seed=0)
    mobius = generate_thm1_instance(3, seed=2)
    halfplane = generate_thm2_instance(3, seed=2)
    for f, token, left in ((scalar, "eq5", _eq5_left), (mobius, "eq5", _eq5_left), (halfplane, "eq1", _eq1_left)):
        gap, z, _ = _gram_reference(f, left, samples)
        rep = proof_step_validate(f, token, z_samples=samples)
        assert list(samples).index(z) >= INITIAL_N
        assert (rep.verdict.min_gap, rep.location) == (gap, z)
    # violated pairings report the witness of the worst sample
    for f, left in ((halfplane, _eq5_left), (mobius, _eq1_left)):
        gap, z, vec = _gram_reference(f, left, samples)
        verdict, worst_z = checks._gram_verdict(f, left, samples)
        assert (verdict.min_gap, worst_z) == (gap, z)
        assert verdict.witness.tobytes() == vec.tobytes()


def test_batched_gram_audit_keeps_the_first_of_tied_samples():
    # f depends on z^2 alone, so z and -z give the same Gram defect
    f = MobiusLift(random_unitary(3, 5), [0.2, 0.5 + 0.1j, -0.3], [1.0, 1j, -1.0], [2, 2, 2])
    w = 0.999 * np.exp(0.7j)
    assert f.evaluate(w).tobytes() == f.evaluate(-w).tobytes()
    samples = list(checks.default_z_samples(160))
    samples[70], samples[90], samples[140] = -w, w, w
    rep = proof_step_validate(f, "eq5", z_samples=samples)
    gap, z, _ = _gram_reference(f, _eq5_left, samples)
    assert z == -w
    assert (rep.verdict.min_gap, rep.location) == (gap, -w)


def test_eq14_decimation_chain():
    f = generate_thm1_instance(3, seed=17)
    reports = coefficient_bound_eq14(f, max_n=8)
    assert len(reports) == 8
    assert all(rep.verdict.holds for rep in reports)
    assert [rep.k_or_r for rep in reports] == [float(n) for n in range(1, 9)]


def _loewner_bytes(v) -> tuple:
    witness = None if v.witness is None else v.witness.tobytes()
    return (v.relation, v.min_gap, v.tolerance, witness)


@pytest.mark.parametrize(
    "f",
    [
        generate_thm1_instance(3, degrees=(1, 10), seed=17),
        Polynomial([0.2 * np.eye(2), np.diag([0.5, 0.8])]),
    ],
)
def test_eq14_chain_equals_a_per_coefficient_reference(f):
    max_n = 70
    coeffs = f.coefficients(max_n).coeffs
    eye = identity(f.dim)
    abs_a0 = abs_operator(coeffs[0])
    mid = hermitian_part(eye - abs_a0 @ abs_a0)
    second = loewner_leq(mid, hermitian_part(2.0 * (eye - abs_a0)))
    rank = {"nleq": 2, "boundary": 1, "leq": 0}
    expected = []
    for n in range(1, max_n + 1):
        first = loewner_leq(abs_operator(coeffs[n]), mid)
        lead = first if rank[first.relation.value] >= rank[second.relation.value] else second
        witness = None if lead.witness is None else lead.witness.tobytes()
        gap, tol = min(first.min_gap, second.min_gap), max(first.tolerance, second.tolerance)
        expected.append((float(n), f"n={n}", lead.relation, gap, tol, witness))
    chain = coefficient_bound_eq14(f, max_n=max_n)
    got = [(rep.k_or_r, rep.location, *_loewner_bytes(rep.verdict)) for rep in chain]
    assert got == expected
    step = proof_step_validate(f, "eq14")
    assert (step.k_or_r, step.location, *_loewner_bytes(step.verdict)) == expected[0]


def test_eq14_needs_a_coefficient_to_bound():
    f = Polynomial([0.2 * np.eye(2), 0.8 * np.eye(2)])
    # max_n=0 used to report n=1 with A_1 replaced by 0 (min_gap 0.64)
    for max_n in (0, -1, np.nan):
        with pytest.raises(ValueError):
            coefficient_bound_eq14(f, max_n=max_n)
    (only,) = coefficient_bound_eq14(f, max_n=1)
    assert abs(only.verdict.min_gap - 0.16) <= 1e-12


def _counted(f, where: str, count) -> list:
    """The reports of eq9 or eq10 at k = count, or of the eq14 chain to max_n = count."""
    if where == "eq14":
        return coefficient_bound_eq14(f, count)
    return [proof_step_validate(f, where, k=count)]


@pytest.mark.parametrize("where", ["eq9", "eq10", "eq14"])
@pytest.mark.parametrize("count", [np.int64(3), np.uint8(3), np.int32(3)])
def test_a_count_of_any_integer_type_gives_the_reports_of_the_int(where, count):
    # eq10 and eq14 used to raise AttributeError: 'numpy.int64' object has no attribute 'bit_length'
    f = generate_thm1_instance(2, degrees=(1, 3), seed=5)
    want = [(rep.k_or_r, rep.location, *_loewner_bytes(rep.verdict)) for rep in _counted(f, where, 3)]
    got = [(rep.k_or_r, rep.location, *_loewner_bytes(rep.verdict)) for rep in _counted(f, where, count)]
    assert got == want


@pytest.mark.parametrize("where", ["eq9", "eq10", "eq14"])
@pytest.mark.parametrize("count", [2.5, np.float64(3.0), True, np.bool_(True), "3", None])
def test_a_count_that_is_not_an_integer_is_refused(where, count):
    # 2.5 used to raise TypeError or AttributeError, and True ran as 1
    f = generate_thm1_instance(2, degrees=(1, 3), seed=5)
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        _counted(f, where, count)


# ---------------------------------------------------------------------------
# composite real-part bounds
# ---------------------------------------------------------------------------

def test_thm2_bounds_hold_and_gate():
    f = generate_thm2_instance(4, seed=23)
    bounds = check_thm2_bounds(f, 1.0 / 3.0 - 1e-6)
    assert bounds.bohr.holds
    assert bounds.eq2.verdict.holds
    assert bounds.final.verdict.holds
    neg = MobiusLift(np.eye(1), [-0.5], [1.0], [1])
    with pytest.raises(HypothesisViolated):
        check_thm2_bounds(neg, 0.3)


def test_thm2_extremal_instance_is_sharp_at_one_third():
    f = HalfPlaneLift(np.eye(1), [0.5], 1.0, 1.0 - 1e-6)
    at = check_bohr(f, 1.0 / 3.0)
    assert abs(at.lhs_extreme) <= 1e-4
    past = check_bohr(f, 0.35)
    assert past.status is Status.VIOLATED
    oracle = 0.5 + 0.35 / 0.65 - 1.0
    assert abs(past.lhs_extreme - oracle) <= 1e-4


# ---------------------------------------------------------------------------
# empirical radius and sharpness
# ---------------------------------------------------------------------------

def test_empirical_radius_bisects_the_witness_boundary():
    emp = empirical_bohr_radius(mobius_witness(0.75))
    assert abs(emp - 0.4) <= 1e-5
    with pytest.raises(ValueError):
        empirical_bohr_radius(mobius_witness(0.75), tol=1e-7)
    # tol=nan used to skip the bisection and return 0.4999995
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError):
            empirical_bohr_radius(mobius_witness(0.75), tol=tol)


def test_empirical_radius_caps_for_exact_series():
    zI = Polynomial([np.zeros((2, 2)), identity(2)])
    assert empirical_bohr_radius(zI) == RADIUS_CAP
    rep = build_radius_report(zI)
    assert rep.capped
    assert rep.branch is Branch.SQRT
    assert abs(rep.guaranteed_radius - np.sqrt(0.5)) <= 1e-12


def test_radius_report_margin_sign():
    rep = build_radius_report(mobius_witness(0.3))
    assert abs(rep.guaranteed_radius - np.sqrt(0.35)) <= 1e-12
    assert rep.empirical_radius >= rep.guaranteed_radius - 1e-6
    assert abs(rep.margin - (rep.empirical_radius - rep.guaranteed_radius)) <= 1e-15


def test_sharpness_scan_confirms_the_witness_family():
    rows = sharpness_scan([0.5, 0.75, 0.9])
    assert all(row.confirmed for row in rows)
    for row in rows:
        assert abs(row.guaranteed - 1.0 / (1.0 + 2.0 * row.lam)) <= 1e-15
        assert row.excess_at_delta > 0.0
    with pytest.raises(DomainError):
        sharpness_scan([0.4])


# ---------------------------------------------------------------------------
# relaxation search
# ---------------------------------------------------------------------------

def test_drop_commutation_search_finds_a_witness():
    result = counterexample_search("drop-commutation", 2, budget=10, seed=1)
    assert result.witness is not None
    w = result.witness
    assert w.verdict.status is Status.VIOLATED
    assert result.trials == w.trial + 1
    # the witness must re-verify from scratch at the same radius
    again = check_bohr(w.function, w.radius)
    assert again.status is Status.VIOLATED
    assert again.lhs_extreme == w.verdict.lhs_extreme


def test_search_is_deterministic_in_seed():
    a = counterexample_search("drop-commutation", 2, budget=10, seed=1)
    b = counterexample_search("drop-commutation", 2, budget=10, seed=1)
    assert a.trials == b.trials and a.skipped == b.skipped
    assert a.witness.radius == b.witness.radius
    assert a.witness.verdict.lhs_extreme == b.witness.verdict.lhs_extreme


# (relaxation, dim, budget, seed) -> (trials, skipped, witness trial, radius),
# as counterexample_search returned them when it spawned every seed up front
SEARCHES = {
    ("drop-commutation", 2, 10, 0): (3, 0, 2, 0.35252259164631483),
    ("drop-commutation", 2, 10, 3): (2, 0, 1, 0.35491008016461517),
    ("drop-commutation", 4, 10, 1): (2, 0, 1, 0.3538647864780884),
    ("drop-normality", 3, 20, 2): (20, 0, None, None),
    ("weak-norm-bound", 2, 5, 0): (5, 0, None, None),
    ("drop-commutation", 1, 3, 0): (3, 3, None, None),
}


@pytest.mark.parametrize("case", list(SEARCHES), ids=str)
def test_search_builds_each_trial_seed_alone(case, monkeypatch):
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("spawn builds every child seed up front")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    result = counterexample_search(*case)
    trials, skipped, trial, radius = SEARCHES[case]
    assert (result.trials, result.skipped) == (trials, skipped)
    if trial is None:
        assert result.witness is None
    else:
        assert result.witness.trial == trial
        assert result.witness.radius == pytest.approx(radius, rel=1e-9, abs=0.0)


def test_search_skips_dimension_one_for_structure_relaxations():
    result = counterexample_search("drop-commutation", 1, budget=5, seed=0)
    assert result.witness is None
    assert result.skipped == 5 and result.trials == 5


def test_weak_norm_bound_search_reports_none_honestly():
    result = counterexample_search("weak-norm-bound", 2, budget=5, seed=0)
    assert result.witness is None
    assert result.trials == 5
    with pytest.raises(ValueError):
        counterexample_search("weak-norm-bound", 2, budget=0, seed=0)
    with pytest.raises(ValueError):
        counterexample_search("drop-everything", 2, budget=5, seed=0)
