#!/usr/bin/env python3
"""Print the analytic guarantee tables for representative token sizes.

Covers honest-acceptance (soundness), counterfeiting (security), sequential
verification (learning), multi-copy issuance, and the paired-token
challenge-response bounds, one row per parameter point.
"""
from fractions import Fraction

from qtokens.bounds import (CLONING_CEILING, cv_security_bound,
                            cv_soundness_bound, learning_bound,
                            multicopy_security_bound, multicopy_threshold,
                            security_bound, soundness_bound)


def main() -> int:
    print("thresholds:")
    for c in sorted(CLONING_CEILING):
        print(f"  {c} issued copies -> F_tol > {multicopy_threshold(c)}")
    print()

    f_exp, f_tol = 0.99, Fraction(9, 10)
    print(f"measured tokens, F_exp={f_exp}, F_tol={f_tol}:")
    print(f"  {'N':>6} {'accept >=':>12} {'forge <=':>12} {'v=10 <=':>12} "
          f"{'c=2,F=24/25 <=':>16}")
    for n in (50, 100, 200, 500, 1000):
        acc = soundness_bound(n, f_exp, f_tol).raw
        sec = security_bound(n, f_tol).clamped
        learn = learning_bound(n, f_tol, 10).clamped
        multi = multicopy_security_bound(n, Fraction(24, 25), 2).clamped
        print(f"  {n:>6} {acc:>12.3e} {sec:>12.3e} {learn:>12.3e} {multi:>16.3e}")
    print()

    print(f"paired tokens, F_exp={f_exp}, F_tol={f_tol}, v=2:")
    print(f"  {'n x r':>10} {'accept >=':>12} {'double-spend <=':>16}")
    for blocks, pairs in ((5, 50), (10, 100), (20, 200)):
        acc = cv_soundness_bound(blocks, pairs, f_exp, f_tol).raw
        sec = cv_security_bound(blocks, pairs, f_tol, 2).clamped
        print(f"  {blocks:>4} x{pairs:>4} {acc:>12.3e} {sec:>16.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
