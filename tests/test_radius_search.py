"""empirical_bohr_radius against the bisection it replays, on fake check_bohr
verdicts: any monotone Holds/Violated boundary, with adversarial lhs_extreme;
and the branch the guaranteed radius takes for any |A_0| >= I/2."""

import bisect

import numpy as np
import pytest
from reference_loops import loop_bisection_radius

from bohrlab import checks
from bohrlab.checks import INITIAL_N, RADIUS_CAP, BohrVerdict, Branch, Status, empirical_bohr_radius
from bohrlab.linalg import hermitian_part, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _bisection_node(bits) -> float:
    """The midpoint the bisection of (0, RADIUS_CAP) probes after the turns in bits (True: up)."""
    lo, hi = 0.0, RADIUS_CAP
    for up in bits:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if up else (lo, mid)
    return 0.5 * (lo + hi)


EXTREMES = st.floats() | st.sampled_from([0.0, -1.0, 1e-9, 1e300, -1e300, np.inf])


@st.composite
def monotone_boundaries(draw):
    """A threshold below which probes hold, and adversarial lhs_extreme values:
    piecewise constant (plateaus, jumps and a constant), huge near the cap,
    or linear with a root away from the threshold."""
    theta = draw(st.floats(0.0, 1.0) | st.lists(st.booleans(), max_size=24).map(_bisection_node))
    strict = draw(st.booleans())
    inconclusive_from = draw(st.floats(0.0, 1.0))
    breaks = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=6)))
    values = draw(st.lists(EXTREMES, min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    shape = draw(st.sampled_from(["steps", "huge at the cap", "wrong root"]))
    wrong_root = draw(st.floats(0.0, 1.0))

    def lhs(r):
        if shape == "huge at the cap" and r > 1.0 - 1e-3:
            return 1e300 / (1.0 - r)
        if shape == "wrong root":
            return r - wrong_root
        return values[bisect.bisect(breaks, r)]

    def fake_check_bohr(f, r, tol=checks.DEFAULT_BOHR_TOL):
        if (r < theta) if strict else (r <= theta):
            status = Status.HOLDS
        else:
            status = Status.INCONCLUSIVE if r >= inconclusive_from else Status.VIOLATED
        return BohrVerdict(status, r, lhs(r), 0.0, INITIAL_N)

    return fake_check_bohr


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(fake=monotone_boundaries(), tol=st.sampled_from([1e-6, 1e-4, 1e-3, 0.05, 0.3]))
def test_empirical_radius_replays_the_bisection_on_any_monotone_boundary(fake, tol):
    calls = []

    def counted(f, r, tol=checks.DEFAULT_BOHR_TOL):
        calls.append(r)
        return fake(f, r, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "check_bohr", counted)
        radius = empirical_bohr_radius(None, tol)
        probes = len(calls)
        calls.clear()
        expected = loop_bisection_radius(None, tol)
    assert radius.hex() == expected.hex()
    assert probes <= 2 * len(calls)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    eigenvalues=st.lists(st.floats(0.5 - 1e-9, 1.0, exclude_max=True), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_inverse_formula_is_never_beaten_where_it_applies(eigenvalues, seed):
    # (1-x)(1+2x)^2 <= 2 on [0, 1), so 1/(1+2x) >= sqrt((1-x)/2) up to rounding, which the tie test absorbs
    Q = random_unitary(len(eigenvalues), seed)
    abs_a0 = hermitian_part((Q * np.array(eigenvalues)) @ Q.conj().T)
    assert checks._radius_from_abs(abs_a0).branch in (Branch.INVERTIBLE, Branch.MAX)
