"""Instances of every class for the tests that run one check over many of them.

sampled_instances() builds new functions on each call, so the stores and the
A_0 a function keeps are never carried from one test module to another."""

import numpy as np

from bohrlab.functions import (
    HalfPlaneLift,
    Polynomial,
    generate_thm1_instance,
    generate_thm2_instance,
    generate_transfer_instance,
)
from bohrlab.linalg import operator_norm


def scaled_polynomial(dim: int, degree: int, seed: int) -> Polynomial:
    # coefficient norms 0.3 * 0.5^k keep the sup norm under 0.6
    rng = np.random.default_rng(seed)
    coeffs = []
    for k in range(degree + 1):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        coeffs.append(0.3 * 0.5**k * G / operator_norm(G))
    return Polynomial(coeffs)


def sampled_instances() -> dict:
    """Mobius lifts of d = 1 to 8 (boundary channels at seed 2), polynomials of
    degrees 0-5, transfer functions of state_dim 0-4, half-plane lifts of d = 1
    (complex beta) to 8, by class."""
    return {
        "mobius": [
            generate_thm1_instance(dim, degrees, seed=seed, allow_boundary=seed == 2)
            for dim in range(1, 9) for degrees in ((1, 4), (1, 10)) for seed in range(3)
        ],
        "polynomial": [scaled_polynomial(dim, degree, seed=degree) for dim in (1, 2, 5) for degree in range(6)],
        "transfer": [generate_transfer_instance(dim, s, seed=s) for dim in (1, 2, 4) for s in range(5)],
        "halfplane": [generate_thm2_instance(dim, seed=seed) for dim in range(1, 9) for seed in range(3)]
        + [HalfPlaneLift(np.eye(1), [0.4], 0.25, 0.0), HalfPlaneLift([[1j]], [0.1], 0.5, -0.3)],
    }
