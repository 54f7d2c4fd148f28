#!/usr/bin/env python3
"""Guaranteed versus observed radius for the contractive commuting class.

For each generated instance the guaranteed radius comes from the leading
coefficient alone: the invertible formula 1/(1+2*lambda_max) once
|A_0| >= I/2, otherwise the square-root formula
lambda_min(((I-|A_0|)/2)^(1/2)). The observed radius is found by
bisection on the full majorant check. The margin column shows how much
room the guarantee leaves; it shrinks toward zero when a single channel
dominates.

    python demos/radius_guarantees.py --count 12 --seed 0
"""

import argparse

from bohrlab import build_radius_report, check_bohr, generate_thm1_instance, thm1_admissible_radius


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'dim':>3} {'branch':>10} {'guaranteed':>12} {'empirical':>12} {'margin':>10} {'holds':>6}")
    for i in range(args.count):
        dim = 1 + i % 8
        f = generate_thm1_instance(dim, seed=args.seed + i)
        guess = thm1_admissible_radius(f)
        report = build_radius_report(f)
        verdict = check_bohr(f, max(0.0, guess.value - 1e-6))
        print(
            f"{dim:>3} {guess.branch.value:>10} {guess.value:>12.8f} "
            f"{report.empirical_radius:>12.8f} {report.margin:>10.2e} "
            f"{str(verdict.holds):>6}"
        )


if __name__ == "__main__":
    main()
