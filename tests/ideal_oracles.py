"""Test-only ideal helpers that no command reaches.

`ideal_divisors` lists every integral divisor of an ideal.  The divisor-sum
oracle in test_eisenstein_kernels sums over it, and test_quadfield checks it.
"""

from eiscong.quadfield import IdealQF, ideal_mul


def ideal_divisors(a: IdealQF) -> list[IdealQF]:
    """All integral divisors of a; count is prod(e_i + 1)."""
    divisors = [IdealQF(a.d, ())]
    for p, tag, e in a.factors:
        divisors = [
            ideal_mul(dv, IdealQF(a.d, ((p, tag, k),)) if k else IdealQF(a.d, ()))
            for dv in divisors
            for k in range(e + 1)
        ]
    return sorted(divisors, key=lambda i: (i.norm, i.factors))
