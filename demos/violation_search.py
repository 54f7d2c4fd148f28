#!/usr/bin/env python3
"""Hunt for majorant violations once a hypothesis is relaxed.

Dropping commutation between coefficients produces violations quickly.
Weakening the norm bound alone cannot produce one below the norm-class
ceiling 1/sqrt(1-r^2), and dropping normality has not produced one at
desk-scale budgets either, so those searches honestly report none.
Every witness is re-verified from its stored form before being trusted.
"""

import argparse

from bohrlab import Status, check_bohr, counterexample_search


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--budget", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.dim < 2:
        ap.error("dropping commutation or normality needs --dim >= 2")

    for relax in ("drop-commutation", "drop-normality", "weak-norm-bound"):
        result = counterexample_search(relax, args.dim, args.budget, args.seed)
        if result.witness is None:
            print(f"{relax:>17}: none after {result.trials} trials")
            continue
        w = result.witness
        recheck = check_bohr(w.function, w.radius)
        agreed = recheck.status is Status.VIOLATED and recheck.lhs_extreme == w.verdict.lhs_extreme
        print(
            f"{relax:>17}: trial {w.trial}, radius {w.radius:.6f} "
            f"({w.branch.value} branch), excess {w.verdict.lhs_extreme:+.3e}, "
            f"re-verified={agreed}"
        )


if __name__ == "__main__":
    main()
