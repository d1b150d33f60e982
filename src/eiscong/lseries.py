"""Special values of Dirichlet and induced Hecke L-functions at s <= 0.

All values are exact: rationals for quadratic characters, cyclotomic
rationals otherwise, via generalized Bernoulli numbers
B_{n,chi} = f^(n-1) sum_{a=1..f} chi(a) B_n(a/f).  No floating point.

For order <= 2 the sum runs on the integer power sums
S_j = sum_{a=1..f} chi(a) a^j, read from the character's value table
(`characters.value_table`) with C-level passes: pow over the residues
where chi is +1 minus pow over those where it is -1.  The parity relation
chi(f - a) = chi(-1) chi(a) fixes half of the S_j from the lower ones, so
L(-1, chi) of an even character costs one pass.  Weights above the
Bernoulli cap are rejected before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import compress, repeat

from .arith import factorize
from .characters import CycSum, DirichletCharacter, HeckeCharacterQF, value_table
from .quadfield import IdealQF

BERNOULLI_CAP = 10**4
_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_PLUS_MASK = bytes.maketrans(b"\xff", b"\x00")
_MINUS_MASK = bytes.maketrans(b"\x01\xff", b"\x00\x01")


def bernoulli(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2), by the standard recurrence."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > BERNOULLI_CAP:
        raise ValueError(f"Bernoulli cap is {BERNOULLI_CAP}")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        # sum_{k<=m} C(m+1,k) B_k = 0
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI_CACHE[k]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[n]


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact."""
    acc = Fraction(0)
    xp = Fraction(1)
    for k in range(n, -1, -1):
        acc += math.comb(n, k) * bernoulli(k) * xp
        xp *= x
    return acc


def _power_sums(chi: DirichletCharacter, n: int) -> list[int]:
    """[S_0, ..., S_n] with S_j = sum_{a=1..f} chi(a) a^j, chi of order <= 2.

    S_0 is a count on the value table and each other S_j one pass of
    pow(a, j) over the residues where chi is +1, minus one over those where
    it is -1.  Since chi(f - a) = chi(-1) chi(a), a sum with
    chi(-1) (-1)^j = -1 is fixed by the lower ones,
    2 S_j = chi(-1) sum_{i<j} C(j,i) f^(j-i) (-1)^i S_i, and gets no pass.
    The trivial character (f = 1) has S_j = 1.
    """
    f = chi.conductor
    if f == 1:
        return [1] * (n + 1)
    table = value_table(chi).tobytes()
    plus = table.translate(_PLUS_MASK)
    minus = table.translate(_MINUS_MASK)
    sign = -1 if table[-1] == 0xFF else 1  # chi(-1)
    sums = [table.count(1) - table.count(0xFF)]
    for j in range(1, n + 1):
        if sign * (-1) ** j == -1:
            acc = sum(math.comb(j, i) * f ** (j - i) * (-1) ** i * sums[i] for i in range(j))
            sums.append(sign * acc // 2)
        else:
            sums.append(sum(map(pow, compress(range(f), plus), repeat(j)))
                        - sum(map(pow, compress(range(f), minus), repeat(j))))
    return sums


def gen_bernoulli(chi: DirichletCharacter, n: int):
    """B_{n,chi} for chi of modulus equal to its conductor.

    Rational for order <= 2, a CycSum otherwise.  For order <= 2 it runs on
    the integer power sums of `_power_sums`:
    B_{n,chi} = sum_k C(n,k) B_k f^(k-1) S_{n-k}.  The trivial character
    (f = 1) gives B_n(1): B_n for n != 1, +1/2 at n = 1.  n above the
    Bernoulli cap is rejected before any work.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BERNOULLI_CAP:
        raise ValueError(f"weight {n} is above the Bernoulli cap {BERNOULLI_CAP}")
    if not chi.is_primitive() and chi.kind != "trivial":
        raise ValueError("gen_bernoulli needs modulus = conductor")
    f = chi.conductor
    if chi.order <= 2:
        sums = _power_sums(chi, n)
        return sum(math.comb(n, k) * bernoulli(k) * Fraction(f) ** (k - 1) * sums[n - k]
                   for k in range(n + 1))
    e = chi.zeta_order_eff()
    acc = CycSum(e)
    for a in range(1, f):
        k = chi.value_exp(a)
        if k is not None:
            acc.add_term(k, f ** (n - 1) * bernoulli_poly(n, Fraction(a, f)))
    return acc


@dataclass
class LValueRecord:
    """An exact special value L(s, character) with its stripping history."""

    character: object
    s: int
    value: Fraction
    stripped: tuple = ()
    flags: tuple = dataclass_field(default_factory=tuple)

    @property
    def weight(self) -> int:
        """n with s = 1 - n."""
        return 1 - self.s

    def factorization(self, rho_iters: int = 200000):
        """Prime factorization of the numerator; None on rho failure."""
        num = self.value.numerator
        return factorize(num, rho_iters=rho_iters)


def dirichlet_L_neg(chi: DirichletCharacter, n: int) -> LValueRecord:
    """L(1-n, chi) = -B_{n,chi}/n, exact.

    The excluded point (trivial chi, n = 1, the zeta pole) returns
    -B_1 = 1/2 carrying a "non-primitive-at-infinity" flag instead of
    raising.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    flags = ()
    if chi.is_trivial() and n == 1:
        return LValueRecord(chi, 0, Fraction(1, 2), flags=("non-primitive-at-infinity",))
    b = gen_bernoulli(chi, n)
    if isinstance(b, CycSum):
        raise NotImplementedError("exact L-values only for order <= 2 here")
    return LValueRecord(chi, 1 - n, -b / n, flags=flags)


def hecke_L_neg_induced(eps: HeckeCharacterQF, n: int) -> LValueRecord:
    """L_F(1-n, eps) as the product of the two induced Dirichlet factors."""
    if eps.kind != "induced":
        raise ValueError("need a character from induce_quadratic")
    l1 = dirichlet_L_neg(eps.chi1, n)
    l2 = dirichlet_L_neg(eps.chi2, n)
    return LValueRecord(eps, 1 - n, l1.value * l2.value,
                        flags=tuple(set(l1.flags + l2.flags)))


def strip_euler(rec: LValueRecord, sigma0) -> LValueRecord:
    """Multiply by prod_{q in sigma0} (1 - eps(q) N(q)^(n-1)) at s = 1-n.

    Primes dividing the conductor contribute the factor 1 (eps(q) = 0).
    The exponent is n - 1: the factor is 1 - eps(q) N(q)^(-s) specialized
    to s = 1 - n.
    """
    eps = rec.character
    n = rec.weight
    val = rec.value
    stripped = list(rec.stripped)
    for q in sigma0:
        if not isinstance(q, IdealQF):
            raise TypeError("sigma0 must contain ideals")
        ev = eps.value_on_ideal(q) if isinstance(eps, HeckeCharacterQF) else eps(q.norm)
        val *= 1 - ev * Fraction(q.norm) ** (n - 1)
        stripped.append(q)
    return LValueRecord(eps, rec.s, val, tuple(stripped), rec.flags)
