"""Verdict logic, radius formulas, proof steps, and the relaxation search."""

import gc
import inspect
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from reference_loops import loop_bisection_radius
from sampled_instances import sampled_instances

import bohrlab
from bohrlab import checks, functions, linalg
from bohrlab.checks import (
    INITIAL_N,
    MAX_N,
    BohrVerdict,
    Branch,
    ProofStep,
    RADIUS_CAP,
    SQRT_HALF,
    STEPS,
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
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
    OutsideDomain,
    StepClassMismatch,
    StepNotApplicable,
)
from bohrlab.cli import main
from bohrlab.fileio import FunctionFile, parse_function_file, save_function_file, serialize_function_file
from bohrlab.functions import (
    LIFT_ROWS,
    HalfPlaneLift,
    MobiusLift,
    Polynomial,
    TransferRealization,
    certified_sup,
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
    hypothesis_check,
    mobius_witness,
)
from bohrlab.linalg import (
    abs_operator,
    hermitian_part,
    identity,
    loewner_compare,
    loewner_leq,
    random_unitary,
)


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
    "check, f",
    [
        (check_bb2_norm_bound, generate_transfer_instance(2, 2, seed=4)),
        (check_thm2_bounds, generate_thm2_instance(2, seed=5)),
    ],
)
@pytest.mark.parametrize("r", [1.0, -0.1])
def test_verdicts_refuse_a_radius_outside_the_disk(check, f, r):
    with pytest.raises(OutsideDomain):
        check(f, r)


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
    contiguous from 0; coefficient0() builds (0, 0) once and keeps it apart."""
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
    "thm1 wide": lambda: generate_thm1_instance(5, degrees=(1, 10), seed=0),  # grows to 129 rows
    "transfer": lambda: generate_transfer_instance(2, 2, seed=3),
    "halfplane": lambda: generate_thm2_instance(2, seed=4),
    "halfplane wide": lambda: generate_thm2_instance(8, seed=4),  # grows to 1,025 rows
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


def test_a_matrix_enters_the_guarantee_as_a_validated_polynomial():
    A0 = np.diag([0.6, 0.3j])
    assert thm1_admissible_radius(A0) == thm1_admissible_radius(Polynomial([A0]))
    with pytest.raises(DimensionMismatch):
        thm1_admissible_radius(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        thm1_admissible_radius(np.diag([0.5, np.nan]))


def _normal_transfer(dim: int, seed: int) -> TransferRealization:
    """A transfer function with a normal contractive D = Q diag(c) Q*: each channel is the unitary
    colligation [[-conj(c), s], [s, c]], s = sqrt(1 - |c|^2), with state and output turned by W and Q."""
    rng = np.random.default_rng(seed)
    c = np.sqrt(rng.uniform(0.0, 0.98, dim)) * np.exp(2j * np.pi * rng.uniform(size=dim))
    s = np.sqrt(1.0 - np.abs(c) ** 2)
    W, Q = random_unitary(dim, rng), random_unitary(dim, rng)
    U = np.block([[(W * -np.conj(c)) @ W.conj().T, (W * s) @ Q.conj().T],
                  [(Q * s) @ W.conj().T, (Q * c) @ Q.conj().T]])
    return TransferRealization(U, dim)


# pool-style functions: the campaign's thm1 files (dims 1-8, inner degrees up to 4 and 10), and
# transfer functions of dims 1-4 whose A_0 is normal
_GUARANTEED = [
    *(partial(generate_thm1_instance, dim, degrees=degrees, seed=200 + dim)
      for degrees in ((1, 4), (1, 10)) for dim in range(1, 9)),
    *(partial(_normal_transfer, 1 + j % 4, seed=300 + j) for j in range(8)),
]


@pytest.mark.parametrize("make", _GUARANTEED)
def test_the_guarantee_of_a_function_has_the_bytes_of_abs_operator_of_its_a0(make):
    f = make()
    want = checks._radius_from_abs(abs_operator(f.coefficient0()))
    got = thm1_admissible_radius(f)
    assert (got.value.hex(), got.branch) == (want.value.hex(), want.branch)
    # the store it read holds abs_operator(A_0) to the byte
    assert checks._abs_store(f, 0)[0].tobytes() == abs_operator(f.coefficient0()).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_a_transfer_store_holds_the_bytes_of_abs_operator_of_its_a0(seed):
    f = generate_transfer_instance(1 + seed % 4, 1 + (seed // 4) % 4, seed=300 + seed)
    assert checks._abs_store(f, 0)[0].tobytes() == abs_operator(f.coefficient0()).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_a_search_witness_radius_is_the_guarantee_of_its_function(dim):
    # the search and the guarantee read one |A_0|; with abs_operator(A_0) on one side and the
    # Polynomial's abs_svd store on the other, 29 of these 36 radii differed in their last bits
    for seed in range(12):
        w = counterexample_search("drop-commutation", dim, budget=20, seed=seed).witness
        guaranteed = thm1_admissible_radius(w.function)
        assert (w.radius, w.branch) == (guaranteed.value, guaranteed.branch)


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


@pytest.mark.parametrize("call", [partial(chi, 0.5, 1.0), partial(xi, 1.0, 0.5), partial(xi, 0.5, 1.0),
                                  partial(xi, -0.1, 0.5), partial(xi_argmax, 0.2), partial(xi_argmax, 0.75)])
def test_scalar_envelopes_refuse_their_domain(call):
    with pytest.raises(DomainError):
        call()


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


@pytest.mark.parametrize("where", ["eq9", "eq10", "eq14"])
def test_a_count_is_capped_at_the_largest_rung(where):
    # MAX_N + 1 used to build a store of 2 MAX_N + 1 rows
    f = mobius_witness(0.5)
    reports = _counted(f, where, MAX_N)
    assert reports[-1].k_or_r == MAX_N
    assert len(f.__dict__.get("_abs_store", ())) <= MAX_N + 1
    f = mobius_witness(0.5)
    with pytest.raises(ValueError, match=f"must be an integer >= 1 and <= {MAX_N}"):
        _counted(f, where, MAX_N + 1)
    assert "_abs_store" not in f.__dict__


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


def _schur_polynomial(dim: int, degree: int, seed: int) -> Polynomial:
    """Normal A_0 plus Ginibre A_1..A_degree, scaled to sup norm 1 - 1e-3 on the disk."""
    rng = np.random.default_rng(seed)
    q = random_unitary(dim, rng)
    lam = rng.uniform(0.3, 0.95, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    coeffs = [(q * lam) @ q.conj().T]
    for _ in range(degree):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        coeffs.append(0.5 * g / np.sqrt(2.0 * dim))
    bound, _ = certified_sup(Polynomial(coeffs))
    return Polynomial([(1.0 - 1e-3) / bound * c for c in coeffs])


RADIUS_CASES = {
    **{
        f"thm1 d{dim} deg{top} seed{seed}": partial(generate_thm1_instance, dim, degrees=(1, top), seed=seed)
        for dim in range(1, 9) for top in (4, 10) for seed in (3, 29)
    },
    **{f"witness {lam}": partial(mobius_witness, lam) for lam in (0.3, 0.5, 0.75, 0.9)},
    "witness 0.01 degree 10": partial(mobius_witness, 0.01, degree=10),
    **{
        f"transfer {dim}+{state} seed{seed}": partial(generate_transfer_instance, dim, state, seed=seed)
        for dim, state, seed in ((1, 2, 0), (3, 2, 1), (4, 3, 2))
    },
    **{
        f"schur polynomial d{dim} deg{degree}": partial(_schur_polynomial, dim, degree, seed=dim)
        for dim, degree in ((1, 1), (2, 3), (5, 2))
    },
    "zI": lambda: Polynomial([np.zeros((2, 2)), identity(2)]),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("case", RADIUS_CASES)
def test_empirical_radius_has_the_bytes_of_the_bisection(case, tol):
    f = RADIUS_CASES[case]()
    assert empirical_bohr_radius(f, tol).hex() == loop_bisection_radius(f, tol).hex()


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("theta", [0.3, 0.7, 0.999])
def test_empirical_radius_stops_a_creeping_secant_at_twice_the_bisection(theta, tol, monkeypatch):
    # each lhs_extreme puts the next secant a fifth of tol past the last probe,
    # inside Brent's step rule, so every probe moves one bracket; with no budget
    # this took about 300 probes before the lhs_extreme values underflowed
    calls = []

    def creeping(f, r, bohr_tol=checks.DEFAULT_BOHR_TOL):
        holds = r <= theta
        if calls:
            r0, g0 = calls[-1]
            target = r + 0.2 * tol if holds else r - 0.2 * tol
            g = (target - r) * g0 / (target - r0)
        else:
            g = 1e200
        calls.append((r, g))
        status = Status.HOLDS if holds else Status.VIOLATED
        return BohrVerdict(status, r, g / (1.0 - r) + checks.DEFAULT_BOHR_TOL, 0.0, INITIAL_N)

    monkeypatch.setattr(checks, "check_bohr", creeping)
    radius = empirical_bohr_radius(None, tol)
    probes = len(calls)
    calls.clear()
    assert radius.hex() == loop_bisection_radius(None, tol).hex()
    assert probes <= 2 * len(calls)


def test_empirical_radius_takes_at_most_10_probes_in_the_median(monkeypatch):
    calls = []

    def counted(f, r, tol=checks.DEFAULT_BOHR_TOL):
        calls.append(r)
        return check_bohr(f, r, tol)

    monkeypatch.setattr(checks, "check_bohr", counted)
    probes = []
    for i in range(16):
        f = generate_thm1_instance(1 + i % 8, degrees=(1, 4) if i < 8 else (1, 10), seed=100 + i)
        calls.clear()
        empirical_bohr_radius(f)
        probes.append(len(calls))
    # plain bisection takes 21 on every one of these
    assert np.median(probes) <= 10, probes


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
    assert a.trials == b.trials
    assert a.witness.radius == b.witness.radius
    assert a.witness.verdict.lhs_extreme == b.witness.verdict.lhs_extreme


# (relaxation, dim, budget, seed) -> (trials, witness trial, radius),
# as counterexample_search returned them when it spawned every seed up front;
# None marks a request refused before any trial seed is built
SEARCHES = {
    ("drop-commutation", 1, 3, 0): None,
    ("drop-commutation", 2, 10, 0): (3, 2, 0.35252259164631483),
    ("drop-commutation", 2, 10, 3): (2, 1, 0.35491008016461517),
    ("drop-commutation", 4, 10, 1): (2, 1, 0.3538647864780884),
    ("drop-normality", 3, 20, 2): (20, None, None),
    ("weak-norm-bound", 2, 5, 0): (5, None, None),
}


@pytest.mark.parametrize("case", list(SEARCHES), ids=str)
def test_search_builds_each_trial_seed_alone(case, monkeypatch):
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("spawn builds every child seed up front")

    class NoSeed(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a refused request built a trial seed")

    expected = SEARCHES[case]
    if expected is None:
        monkeypatch.setattr(np.random, "SeedSequence", NoSeed)
        with pytest.raises(ValueError, match="needs dim >= 2"):
            counterexample_search(*case)
        return
    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    result = counterexample_search(*case)
    trials, trial, radius = expected
    assert result.trials == trials
    if trial is None:
        assert result.witness is None
    else:
        assert result.witness.trial == trial
        assert result.witness.radius == pytest.approx(radius, rel=1e-9, abs=0.0)


def test_search_refuses_dimension_one_for_structure_relaxations():
    # at dim 1 every coefficient commutes and is normal: no draw can relax either hypothesis
    for relaxation in ("drop-commutation", "drop-normality"):
        with pytest.raises(ValueError, match="needs dim >= 2"):
            counterexample_search(relaxation, 1, budget=3, seed=0)
    # the norm relaxation has scalar instances
    assert counterexample_search("weak-norm-bound", 1, budget=2, seed=0).trials == 2


def test_search_skips_dimension_one_for_structure_relaxations(monkeypatch):
    # dim 1 is skipped before any draw: neither structure builder is ever called
    def no_draw(dim, rng):
        raise AssertionError("a dim-1 structure relaxation drew an instance")

    monkeypatch.setattr(checks, "_drop_commutation_instance", no_draw)
    monkeypatch.setattr(checks, "_drop_normality_instance", no_draw)
    for relaxation in ("drop-commutation", "drop-normality"):
        with pytest.raises(ValueError):
            counterexample_search(relaxation, 1, budget=3, seed=0)


def test_weak_norm_bound_search_reports_none_honestly():
    result = counterexample_search("weak-norm-bound", 2, budget=5, seed=0)
    assert result.witness is None
    assert result.trials == 5
    with pytest.raises(ValueError):
        counterexample_search("weak-norm-bound", 2, budget=0, seed=0)
    with pytest.raises(ValueError):
        counterexample_search("drop-everything", 2, budget=5, seed=0)


# ---------------------------------------------------------------------------
# the unvalidated Loewner kernel
# ---------------------------------------------------------------------------

def test_hermitian_part_is_idempotent_to_the_bytes():
    # complex, real (+0 imaginary parts), sparse with signed zeros, and scaled entries
    rng = np.random.default_rng(24)
    for i in range(2000):
        dim = 1 + i % 8
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if i % 4 == 1:
            X = X.real.astype(np.complex128)
        elif i % 4 == 2:
            X[rng.random((dim, dim)) < 0.5] = 0.0
            X = -X
        elif i % 4 == 3:
            X *= 10.0 ** int(rng.integers(-6, 7))
        H = hermitian_part(X)
        assert hermitian_part(H).tobytes() == H.tobytes()


_COMPARE_SITES = {
    n for n, line in enumerate(inspect.getsource(checks).splitlines(), 1) if "loewner_compare(" in line
}


def _compare_operands(monkeypatch, instances, radii) -> list:
    """Every (A, B) checks hands loewner_compare while it audits each function at each radius,
    with the line of checks.py that hands it over."""
    seen = []

    def spy(A, B):
        seen.append((sys._getframe(1).f_lineno, A, B))
        return loewner_compare(A, B)

    monkeypatch.setattr(checks, "loewner_compare", spy)
    for f in instances:
        checks._radius_from_abs(checks._abs_store(f, 0)[0])
        checks._eq14_chain(f, 4)
        for step in ProofStep:
            for r in radii:
                if STEPS[step].param in ("k", "r"):
                    try:
                        checks._validate_step(f, step, r=r)
                    except StepNotApplicable:
                        pass
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("group", ["warmed"] + sorted(sampled_instances()))
def test_loewner_compare_on_the_operands_of_checks_has_the_bytes_of_loewner_leq(group, monkeypatch):
    instances = [make() for make in WARMED.values()] if group == "warmed" else sampled_instances()[group]
    seen = _compare_operands(monkeypatch, instances, (0.5, 0.9))
    if group == "warmed":
        assert {line for line, _, _ in seen} == _COMPARE_SITES
    for _, A, B in seen:
        # each operand is Hermitian to the byte, so validating it would change nothing
        assert hermitian_part(A).tobytes() == A.tobytes() and hermitian_part(B).tobytes() == B.tobytes()
        got, want = loewner_compare(A, B), loewner_leq(A, B)
        assert got.relation is want.relation
        assert (got.min_gap.hex(), got.tolerance.hex()) == (want.min_gap.hex(), want.tolerance.hex())
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.tobytes() == want.witness.tobytes()


def test_checks_validate_none_of_their_own_matrices(monkeypatch):
    # pool-style instance files: thm1 of dims 1-8 with inner degrees up to 4 and 10, loaded back
    thm1 = [
        FunctionFile(generate_thm1_instance(dim, degrees=degrees, seed=dim), "thm1")
        for degrees in ((1, 4), (1, 10)) for dim in range(1, 9)
    ]
    thm2 = [FunctionFile(generate_thm2_instance(dim, seed=dim), "thm2") for dim in range(1, 9)]
    loaded = [parse_function_file(serialize_function_file(ff)) for ff in thm1 + thm2]
    calls = Counter()

    def counting(name, real):
        def spy(M):
            calls[name] += 1
            return real(M)
        return spy

    # every module binding of the two validators: linalg's own (loewner_leq reads it there),
    # and the names checks and functions import
    for module in (linalg, checks, functions):
        for name in ("as_matrix", "require_hermitian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for ff in loaded:
        f = ff.function
        if ff.klass == "thm2":
            for r in (0.5, 0.9):
                check_thm2_bounds(f, r)
            continue
        for step in ProofStep:
            if "thm1" in STEPS[step].defaults:
                try:
                    proof_step_validate(f, step)
                except StepNotApplicable:
                    pass
        build_radius_report(f)
    # the radius report reads A_0 and |A_0| from the function it is given, so nothing is validated
    assert calls == Counter()
    # the boundary still validates both operands
    calls.clear()
    loewner_leq(identity(2), 2.0 * identity(2))
    assert calls == Counter(as_matrix=2, require_hermitian=2)


def test_checks_compute_no_abs_of_their_own(monkeypatch):
    # the class hook abs_terms is the one place that chooses how |A| is computed
    assert not any(hasattr(checks, name) for name in ("abs_operator", "abs_svd", "as_matrix"))
    callers = Counter()

    def spying(name, real):
        def spy(A):
            callers[name, sys._getframe(1).f_globals["__name__"]] += 1
            return real(A)
        return spy

    kernels = {name: getattr(linalg, name) for name in ("abs_operator", "abs_svd")}
    for module in (linalg, functions):
        for name, real in kernels.items():
            monkeypatch.setattr(module, name, spying(name, real))
    thm1 = [generate_thm1_instance(3, degrees=(1, 10), seed=1), _normal_transfer(2, seed=1)]
    others = [generate_transfer_instance(2, 2, seed=4), generate_thm2_instance(3, seed=2),
              Polynomial([0.5 * np.eye(2), [[0, 0.2], [0.1, 0]]])]
    for f in thm1:
        check_bohr(f, 0.5)
        check_bb2_norm_bound(f, 0.5)
        build_radius_report(f)
        coefficient_bound_eq14(f, 4)
    check_cor2(mobius_witness(0.5), 0.5)
    check_thm2_bounds(others[1], 0.3)
    for f in thm1 + others:
        majorant(f.coefficients(8), 0.5)
        for step in ProofStep:
            try:
                checks._validate_step(f, step)
            except StepNotApplicable:
                pass
    for relaxation in ("drop-commutation", "drop-normality", "weak-norm-bound"):
        counterexample_search(relaxation, 2, budget=3, seed=0)
    assert not [key for key in callers if key[1] == "bohrlab.checks"]
    # both kernels ran, each from the class hooks
    assert set(callers) == {("abs_operator", "bohrlab.functions"), ("abs_svd", "bohrlab.functions")}


def test_the_eigen_kernels_are_handed_only_hermitian_matrices(tmp_path, monkeypatch, capsys):
    # hermitian_eigen and psd_sqrt take their input as given: the code that builds a matrix makes it
    # Hermitian, so each argument from a bohrlab caller equals its conjugate transpose entry for entry
    callers = Counter()
    bad = []

    def spying(name, real):
        def spy(H):
            caller = sys._getframe(1).f_code.co_qualname
            callers[name, caller] += 1
            if not np.array_equal(H, H.conj().swapaxes(-1, -2)):
                bad.append((name, caller))
            return real(H)
        return spy

    # every module binding: linalg's own (psd_sqrt and _verdict read them there), and the names
    # the package, checks and functions import
    kernels = {name: getattr(linalg, name) for name in ("hermitian_eigen", "psd_sqrt")}
    for module in (bohrlab, linalg, checks, functions):
        for name, real in kernels.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spying(name, real))
    # pool-style thm1 files through the CLI, inner degrees up to 4 and 10
    for degrees in ((1, 4), (1, 10)):
        for dim in (1, 2, 4, 8):
            path = str(tmp_path / f"thm1_{dim}_{degrees[1]}.json")
            f = generate_thm1_instance(dim, degrees=degrees, seed=dim)
            save_function_file(path, FunctionFile(f, "thm1", dim, hypothesis_check(f, "thm1").to_dict()))
            for command in ("verify", "radius", "proofcheck"):
                assert main([command, path, "--out", str(tmp_path / f"{command}.json")]) == 0
    capsys.readouterr()
    # the four verdict-mix kinds
    rng = np.random.default_rng(5)
    for dim in (1, 3):
        Q = random_unitary(dim, seed=dim)
        coeffs = [(Q * rng.uniform(0.3, 0.95, dim)) @ Q.conj().T]
        coeffs += [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(2)]
        p = Polynomial([c / (1.001 * certified_sup(Polynomial(coeffs))[0]) for c in coeffs])
        check_bohr(p, thm1_admissible_radius(p.coefficient0()).value)
        check_bohr(generate_thm1_instance(dim, degrees=(1, 10), seed=dim), 0.6)
        check_thm2_bounds(generate_thm2_instance(dim, seed=dim), 0.6)
        check_bb2_norm_bound(generate_transfer_instance(dim, 2, seed=dim), 0.6)
        hypothesis_check(generate_thm2_instance(dim, seed=dim + 1), "thm2")
    for relaxation in ("drop-commutation", "drop-normality", "weak-norm-bound"):
        counterexample_search(relaxation, 2, budget=2, seed=0)
    # the boundary makes Hermitian what it validates, drift within HERMITIAN_RTOL, before it decides
    U = random_unitary(3, seed=2)
    near = U + U.conj().T + 1e-13j * np.triu(np.ones((3, 3)), 1)
    assert not np.array_equal(near, near.conj().T)
    loewner_leq(near, 3.0 * identity(3))
    assert bad == []
    # every builder that hands a kernel a product takes its Hermitian part there
    assert {caller for _, caller in callers} >= {
        "_adaptive_bohr", "_radius_from_abs", "_gram_verdict", "_validate_step", "abs_operator",
        "psd_sqrt", "_verdict", "hypothesis_check",
    }
