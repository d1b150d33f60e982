"""Test-only ideal helpers that no command reaches.

`prime_ideal`, `ideal_mul` and `ideal_divide` build the ideals the tests name.
`enumerate_ideals` lists the ideals of bounded norm in the order the
coefficient walk keys them.  `ideal_divisors` lists every integral divisor
of an ideal; the divisor-sum oracle in test_eisenstein_kernels sums over it,
and test_quadfield checks it.  `eps_by_definition` is eps on an ideal with
the modulus tested apart, as `value_on_ideal` once computed it.
`splitting_by_roots` decides how p splits without the Kronecker symbol.
"""

from functools import lru_cache

from eiscong.eisenstein import _ideal_walk
from eiscong.quadfield import IdealQF, RealQuadraticField, principal_ideal


@lru_cache(maxsize=None)
def _value_counts(p: int, b: int) -> tuple[int, ...]:
    """counts[r] = #{x mod p : x^2 + b x = r mod p}."""
    counts = [0] * p
    for x in range(p):
        counts[(x * x + b * x) % p] += 1
    return tuple(counts)


def splitting_by_roots(field: RealQuadraticField, p: int) -> str:
    """"split", "ramified" or "inert" for the rational prime p, by Dedekind-Kummer.

    The ring generator's minimal polynomial is x^2 - d, or x^2 - x - (d - 1)/4
    when d = 1 mod 4; two roots mod p mean p splits, one that it ramifies,
    none that it is inert.
    """
    d = field.d
    b, c = (-1, (d - 1) // 4) if d % 4 == 1 else (0, d)
    return ("inert", "ramified", "split")[_value_counts(p, b)[c % p]]


def prime_ideal(field: RealQuadraticField, p: int) -> IdealQF:
    """The first prime ideal above p: the split1 factor when p splits."""
    return principal_ideal(field, p).prime_factors()[0]


def ideal_mul(a: IdealQF, b: IdealQF) -> IdealQF:
    assert a.d == b.d
    acc: dict[tuple[int, str], int] = {}
    for p, tag, e in a.factors + b.factors:
        acc[(p, tag)] = acc.get((p, tag), 0) + e
    return IdealQF(a.d, tuple(sorted((p, tag, e) for (p, tag), e in acc.items())))


def coprime_to(a: IdealQF, b: IdealQF) -> bool:
    """True iff a and b share no prime ideal, compared by (p, tag)."""
    return not {f[:2] for f in a.factors} & {f[:2] for f in b.factors}


def eps_by_definition(eps, a: IdealQF) -> int:
    """eps(a): 0 when a shares a rational prime with the modulus (m), else chi1(N(a))."""
    if {p for p, _, _ in a.factors} & {p for p, _, _ in eps.modulus_ideal.factors}:
        return 0
    return eps.chi1(a.norm)


def ideal_divide(a: IdealQF, b: IdealQF) -> IdealQF:
    """a / b, requiring b | a."""
    acc = {(p, tag): e for p, tag, e in a.factors}
    for p, tag, e in b.factors:
        got = acc.get((p, tag), 0) - e
        if got < 0:
            raise ValueError("not a divisor")
        if got == 0:
            acc.pop((p, tag))
        else:
            acc[(p, tag)] = got
    return IdealQF(a.d, tuple(sorted((p, tag, e) for (p, tag), e in acc.items())))


def enumerate_ideals(field: RealQuadraticField, bound: int) -> list[IdealQF]:
    """All integral ideals of norm <= bound, sorted by (norm, factors); empty
    for bound < 1.  They are the rows of `_ideal_walk`, sorted once."""
    return [IdealQF(field.d, row[1]) for row in sorted(_ideal_walk(field, bound)[1])]


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
