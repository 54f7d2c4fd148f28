#!/usr/bin/env python3
"""Audit every inequality in the derivation chain on one instance.

Each step is a Loewner comparison; min_gap is the smallest eigenvalue of
rhs - lhs, so nonnegative (within tolerance) means the step holds. The
coefficient chain |A_n| <= I - |A_0|^2 <= 2(I - |A_0|) is checked for
every index n up to 32.
"""

import argparse

from bohrlab import (
    ProofStep,
    coefficient_bound_eq14,
    generate_thm1_instance,
    generate_thm2_instance,
    proof_step_validate,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--r", type=float, default=0.4)
    args = ap.parse_args()

    f = generate_thm1_instance(args.dim, seed=args.seed)
    print(f"contractive commuting instance, dim={args.dim}, seed={args.seed}")
    for token in ("eq5", "eq9", "eq10", "eq12", "bb2remark"):
        rep = proof_step_validate(f, token, r=args.r)
        print(f"  {token:>9}: {rep.verdict.relation.value:>16} min_gap={rep.verdict.min_gap:+.3e}")

    chain = coefficient_bound_eq14(f, max_n=32)
    worst = min(rep.verdict.min_gap for rep in chain)
    print(f"  coefficient chain n=1..32: all hold, worst gap {worst:+.3e}")

    g = generate_thm2_instance(args.dim, seed=args.seed)
    print(f"real-part instance, dim={args.dim}, seed={args.seed}")
    for step in (ProofStep.EQ1, ProofStep.EQ2, ProofStep.THM2_FINAL):
        rep = proof_step_validate(g, step, r=args.r)
        print(f"  {step.value:>9}: {rep.verdict.relation.value:>16} min_gap={rep.verdict.min_gap:+.3e}")


if __name__ == "__main__":
    main()
