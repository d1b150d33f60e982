"""Special values of Dirichlet and induced Hecke L-functions at s <= 0.

All values are exact rationals, via generalized Bernoulli numbers
B_{n,chi} = f^(n-1) sum_{a=1..f} chi(a) B_n(a/f) of characters of order
<= 2.  No floating point.

The trivial character is the Kronecker symbol of D = 1, and
L(1-n, chi_1) = -B_{n,chi_1}/n is zeta(1-n): B_{n,chi_1} = B_n(1), which is
+1/2 at n = 1, so zeta(0) = -1/2.  For a nontrivial chi of order <= 2,
B_{n,chi} = 0 when chi(-1) != (-1)^n, and that is returned before any work.
At weight 2 an even chi of conductor f > 1 is chi_f, and Siegel's formula
for K = Q(sqrt f),
zeta_K(-1) = (1/60) sum_{b^2 < f, b = f mod 2} sigma_1((f - b^2)/4)
(Siegel 1969; Zagier 1977; Cohen, Math. Ann. 217, 1975), together with
zeta_K(-1) = zeta(-1) L(-1, chi_f) = B_{2,chi_f}/24, gives
B_{2,chi} = (2/5) sum_b sigma_1((f - b^2)/4): about sqrt(f)/2 divisor sums
instead of a pass over the conductor.

Other weights run on the centered power sums
T_m = sum_{a=1..f} chi(a) (2a - f)^m, read from the character's value
table (`characters.value_table`) with C-level passes: pow over the
residues where chi is +1 minus pow over those where it is -1.  Expanding
B_n(x) about x = 1/2 leaves only the T_m with m = n mod 2, and for those
a and f - a contribute alike, so each is one pass over half the residues.
Weights above the Bernoulli cap are rejected before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat

from .arith import primes_up_to
from .characters import DirichletCharacter, HeckeCharacterQF, sign_masks, value_table

BERNOULLI_CAP = 10**4


def bernoulli_numbers(n: int) -> list[Fraction]:
    """[B_0, ..., B_n] (B_1 = -1/2) from the integer tangent numbers T_1, ..., T_(n//2).

    The T_k come from the O(k^2) integer recurrence of Brent and Harvey
    ("Fast computation of Bernoulli, tangent and secant numbers", 2011), and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); B_1 = -1/2 and the other odd
    B_k are 0.  n above the Bernoulli cap is rejected before any work.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > BERNOULLI_CAP:
        raise ValueError(f"Bernoulli cap is {BERNOULLI_CAP}")
    half = n // 2
    t = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, half + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return table[:n + 1]


def _centered_power_sums(chi: DirichletCharacter, n: int) -> dict[int, int]:
    """{m: T_m} for m = n, n - 2, ..., n mod 2, T_m = sum_{a=1..f} chi(a) (2a - f)^m.

    chi is of order 2 with chi(-1) = (-1)^n.  Then a and f - a give the same
    term (chi(f - a) (f - 2a)^m = chi(-1) (-1)^m chi(a) (2a - f)^m), and
    a = f/2 has chi(a) = 0, so T_m is twice the sum over f/2 < a < f: one
    pass of pow over those a where chi is +1, minus one over those where it
    is -1.
    """
    f = chi.conductor
    half = value_table(chi).tobytes()[f // 2 + 1:]
    plus, minus = sign_masks(half)
    xs = range(f - 2 * len(half), f, 2)  # 2a - f
    return {m: 2 * (sum(map(pow, compress(xs, plus), repeat(m)))
                    - sum(map(pow, compress(xs, minus), repeat(m))))
            for m in range(n % 2, n + 1, 2)}


def _siegel_b2(f: int) -> Fraction:
    """B_{2,chi_f} = (2/5) sum_{b^2 < f, b = f mod 2} sigma_1((f - b^2)/4), f > 1.

    f is a positive fundamental discriminant.  The sum runs over all integers
    b, so b = 0 counts once and each b > 0 twice (for b and -b).  n =
    (f - b^2)/4 is divided only by the primes of g = gcd(n, prod of the
    primes <= sqrt(f/4)), found by trial division of g until p^2 > g; what
    remains of n <= f/4 is then 1 or a prime.
    """
    primes = primes_up_to(math.isqrt(f // 4))
    prod, total = math.prod(primes), 0
    for b in range(f % 2, math.isqrt(f - 1) + 1, 2):
        n = (f - b * b) // 4
        g, qs = math.gcd(n, prod), []
        for p in primes:
            if p * p > g:
                break
            if g % p == 0:
                qs.append(p)
                g //= p
        if g > 1:
            qs.append(g)
        s = 1
        for q in qs:
            term = 1  # sigma_1(q^v) = 1 + q + ... + q^v, one q per division
            while n % q == 0:
                n //= q
                term = term * q + 1
            s *= term
        s *= n + 1 if n > 1 else 1
        total += 2 * s if b else s
    return Fraction(2 * total, 5)


def gen_bernoulli(chi: DirichletCharacter, n: int) -> Fraction:
    """B_{n,chi} for the Kronecker character chi, of conductor f.

    The value is rational:
      - conductor 1 (the trivial character) gives B_n(1): B_n for n != 1,
        +1/2 at n = 1;
      - a nontrivial chi with chi(-1) != (-1)^n gives 0, before any work;
      - at n = 2 the remaining (even) chi is chi_f, and Siegel's divisor sum
        (`_siegel_b2`, see the module docstring) gives
        B_{2,chi} = (2/5) sum_{b^2 < f, b = f mod 2} sigma_1((f - b^2)/4);
      - any other n runs on the centered power sums T_m of
        `_centered_power_sums`: with B_n(x) = sum_k C(n,k) (2^(1-k) - 1) B_k
        (x - 1/2)^(n-k), B_{n,chi} = f^(n-1) sum_a chi(a) B_n(a/f) is
        2^-n sum_{k even} C(n,k) (2 - 2^k) B_k f^(k-1) T_{n-k}
        (the k = 1 term vanishes and so do the odd B_k, k >= 3).
    n above the Bernoulli cap is rejected before any work.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BERNOULLI_CAP:
        raise ValueError(f"weight {n} is above the Bernoulli cap {BERNOULLI_CAP}")
    f = chi.conductor
    if f == 1:
        return Fraction(1, 2) if n == 1 else bernoulli_numbers(n)[n]
    if chi.is_even() != (n % 2 == 0):
        return Fraction(0)
    if n == 2:
        return _siegel_b2(f)
    sums = _centered_power_sums(chi, n)
    bern = bernoulli_numbers(n)
    return sum(math.comb(n, k) * (2 - 2**k) * bern[k] * Fraction(f) ** (k - 1)
               * sums[n - k] for k in range(0, n + 1, 2)) / 2**n


@dataclass
class LValueRecord:
    """An exact special value L(s, chi) of some character chi."""

    s: int
    value: Fraction


def dirichlet_L_neg(chi: DirichletCharacter, n: int) -> LValueRecord:
    """L(1-n, chi) = -B_{n,chi}/n, exact; zeta(0) = -1/2 at the trivial chi."""
    if n < 1:
        raise ValueError("need n >= 1")
    return LValueRecord(1 - n, -gen_bernoulli(chi, n) / n)


def hecke_L_neg_induced(eps: HeckeCharacterQF, n: int) -> LValueRecord:
    """L_F(1-n, eps) as the product of the two induced Dirichlet factors."""
    l1 = dirichlet_L_neg(eps.chi1, n)
    l2 = dirichlet_L_neg(eps.chi2, n)
    return LValueRecord(1 - n, l1.value * l2.value)

