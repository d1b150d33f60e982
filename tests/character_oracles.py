"""Test-only Dirichlet characters of any order, and exact cyclotomic sums.

`src` has one character kind, the Kronecker character of a fundamental
discriminant.  The oracles here cover the rest:
- `CycSum` is an exact element of Q[x]/(x^e - 1), x a primitive e-th root
  of unity.  Sums of character values accumulate there and are reduced mod
  the cyclotomic polynomial Phi_e only for comparison.
- `GenericCharacter` is a character mod m given by its logarithms against
  the generators of (Z/m)^x (`UnitGroup`): chi(g_i) = zeta^k_i, zeta of
  order e, the exponent of the group.  It has what the kernels read of a
  character (conductor, is_even and the integer value chi(a) at order
  <= 2), so its primitive quadratic members run through value_table,
  gen_bernoulli and the power tables; modulus, order and is_primitive
  serve the oracles.
- `bernoulli_sum` is the defining sum B_{n,chi} = f^(n-1) sum_a chi(a)
  B_n(a/f) in CycSum.  `pair_with_character` pairs a level family with a
  character, and acceptance criterion 4 compares the two through
  `inverse`, `times_euler_factor` and `cyc_equal`.
- `siegel_b2` is Siegel's divisor sum for B_{2,chi_f} with each sigma_1 by
  plain trial division (`sigma1`), the reference for `lseries._siegel_b2`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from eiscong.arith import crt, factorize, primes_up_to
from eiscong.characters import DirichletCharacter
from eiscong.lseries import bernoulli_numbers

EVEN = "even"
ODD = "odd"


# ---------------------------------------------------------------------------
# exact cyclotomic values


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num), "inexact cyclotomic division"
    return out


class CycSum:
    """Exact element of Q[x]/(x^e - 1); x stands for a primitive e-th root."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs=None):
        self.e = e
        self.coeffs = [Fraction(0)] * e if coeffs is None else list(coeffs)

    def add_term(self, exponent: int, scalar) -> None:
        self.coeffs[exponent % self.e] += scalar

    def __add__(self, other: "CycSum") -> "CycSum":
        assert self.e == other.e
        return CycSum(self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, CycSum):
            assert self.e == other.e
            out = [Fraction(0)] * self.e
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[(i + j) % self.e] += a * b
            return CycSum(self.e, out)
        return CycSum(self.e, [a * other for a in self.coeffs])

    __rmul__ = __mul__

    def canonical(self) -> tuple:
        """Residue mod Phi_e as a tuple of Fractions (degree < phi(e))."""
        phi = cyclotomic_poly(self.e)
        deg = len(phi) - 1
        work = list(self.coeffs)
        for i in range(len(work) - 1, deg - 1, -1):
            c = work[i]
            if c:
                for j in range(len(phi)):
                    work[i - deg + j] -= c * phi[j]
        return tuple(work[:deg])

    def equals(self, other: "CycSum") -> bool:
        assert self.e == other.e
        return self.canonical() == other.canonical()


def cyc_equal(got, want) -> bool:
    """got == want for rationals and CycSums; a CycSum is read mod Phi_e."""
    if isinstance(got, CycSum) and isinstance(want, CycSum):
        return got.equals(want)
    if isinstance(want, CycSum):
        got, want = want, got
    if isinstance(got, CycSum):
        can = got.canonical()
        return can[0] == want and not any(can[1:])
    return got == want


# ---------------------------------------------------------------------------
# unit group structure of (Z/m)^x


def _primitive_root(q: int, p: int) -> int:
    """The least primitive root mod q = p^e, p an odd prime."""
    phi = q - q // p
    fac = factorize(phi)
    return next(g for g in range(2, q)
                if g % p and all(pow(g, phi // r, q) != 1 for r in fac))


class UnitGroup:
    """Generators and orders of (Z/m)^x, with a full dlog table."""

    def __init__(self, m: int):
        self.m = m
        gens: list[tuple[int, int]] = []
        for p, e in sorted(factorize(m).items()):
            q = p**e
            if p > 2:
                local = [(_primitive_root(q, p), q - q // p)]
            elif q == 4:
                local = [(3, 2)]
            else:
                local = [(q - 1, 2), (5, q // 4)] if q > 4 else []
            gens += [(crt(g, q, 1, m // q), o) for g, o in local]
        self.gens = tuple(g for g, _ in gens)
        self.orders = tuple(o for _, o in gens)
        self.table: dict[int, tuple[int, ...]] = {}
        for vec in product(*map(range, self.orders)):
            a = 1 % m
            for g, k in zip(self.gens, vec):
                a = a * pow(g, k, m) % m
            self.table[a] = vec

    def dlog(self, a: int) -> tuple[int, ...]:
        a %= self.m
        if a not in self.table:
            raise ValueError(f"{a} is not a unit mod {self.m}")
        return self.table[a]

    def exponent(self) -> int:
        return math.lcm(*self.orders)

    def units(self) -> list[int]:
        return sorted(self.table)


unit_group = lru_cache(maxsize=None)(UnitGroup)


# ---------------------------------------------------------------------------
# characters of any order


class GenericCharacter:
    """The character mod `modulus` with chi(g_i) = zeta^log_values[i].

    g_i are the generators of `unit_group(modulus)` and zeta has order
    `zeta_order`, the exponent of the group.
    """

    def __init__(self, modulus: int, log_values: tuple[int, ...]):
        group = unit_group(modulus)
        e = group.exponent()
        if any(k * o % e for k, o in zip(log_values, group.orders)):
            raise ValueError("log value incompatible with generator order")
        self.modulus = modulus
        self.log_values = tuple(log_values)
        self.zeta_order = e
        self.order = math.lcm(*(e // math.gcd(e, k) for k in log_values))
        self.parity = EVEN if self._log_at(-1) == 0 else ODD
        self.conductor = next(f for f in range(1, modulus + 1) if modulus % f == 0
                              and all(self._log_at(a) == 0 for a in group.table if a % f == 1 % f))

    def _log_at(self, a: int) -> int:
        vec = unit_group(self.modulus).dlog(a)
        return sum(k * v for k, v in zip(self.log_values, vec)) % self.zeta_order

    def value_exp(self, a: int) -> int | None:
        """k with chi(a) = zeta^k; None where chi(a) = 0."""
        if math.gcd(a, self.modulus) != 1:
            return None
        return self._log_at(a)

    def __call__(self, a: int) -> int:
        """chi(a) as an integer; only for order <= 2."""
        if self.order > 2:
            raise ValueError("character has order > 2; use value_exp")
        k = self.value_exp(a)
        if k is None:
            return 0
        return 1 if k == 0 else -1

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def is_even(self) -> bool:
        return self.parity == EVEN

    def __repr__(self):
        return f"chi mod {self.modulus} logs {self.log_values}"


def enumerate_characters(m: int) -> list[GenericCharacter]:
    """All Dirichlet characters mod m."""
    e = unit_group(m).exponent()
    steps = (range(0, e, e // o) for o in unit_group(m).orders)
    return [GenericCharacter(m, vec) for vec in product(*steps)]


def primitive_characters(m: int) -> list[GenericCharacter]:
    return [c for c in enumerate_characters(m) if c.conductor == m]


def inverse(chi):
    """chi^-1; a character of order <= 2 is its own inverse."""
    if chi.order <= 2:
        return chi
    e = chi.zeta_order
    return GenericCharacter(chi.modulus, tuple(-k % e for k in chi.log_values))


# ---------------------------------------------------------------------------
# generalized Bernoulli numbers and the pairing, by their definitions


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact."""
    acc = Fraction(0)
    xp = Fraction(1)
    bern = bernoulli_numbers(n)
    for k in range(n, -1, -1):
        acc += math.comb(n, k) * bern[k] * xp
        xp *= x
    return acc


def bernoulli_sum(chi: GenericCharacter, n: int) -> CycSum:
    """B_{n,chi} = f^(n-1) sum_{a=1..f} chi(a) B_n(a/f), chi primitive of conductor f."""
    f = chi.conductor
    acc = CycSum(chi.zeta_order)
    for a in range(1, f):
        k = chi.value_exp(a)
        if k is not None:
            acc.add_term(k, f ** (n - 1) * bernoulli_poly(n, Fraction(a, f)))
    return acc


def sigma1(n: int, primes: list[int]) -> int:
    """Sum of the divisors of n >= 1, by trial division; primes holds every prime <= sqrt(n)."""
    total = 1
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            power = term = 1
            while n % p == 0:
                n //= p
                power *= p
                term += power
            total *= term
    return total * (n + 1) if n > 1 else total


def siegel_b2(f: int) -> Fraction:
    """(2/5) sum_{b^2 < f, b = f mod 2} sigma_1((f - b^2)/4) for a fundamental discriminant f > 1."""
    primes = primes_up_to(math.isqrt(f // 4))
    total = 0
    for b in range(f % 2, math.isqrt(f - 1) + 1, 2):
        s = sigma1((f - b * b) // 4, primes)
        total += 2 * s if b else s
    return Fraction(2 * total, 5)


def times_euler_factor(value, chi, p: int):
    """value (1 - chi(p)), in CycSum when value is one."""
    if not isinstance(value, CycSum):
        return value * (1 - Fraction(chi(p)))
    factor = CycSum(value.e)
    factor.add_term(0, Fraction(1))
    k = chi.value_exp(p)
    if k is not None:
        factor.add_term(k, Fraction(-1))
    return value * factor


def pair_with_character(fam, eta):
    """sum_a eta(a)^-1 mu(a, modulus(eta)) at the level of fam matching the modulus.

    eta is a GenericCharacter or a Kronecker character, whose modulus is its
    conductor.  Imprimitive eta returns the degenerate value 0 by contract.
    Exact: the result is a Fraction for order <= 2 and a CycSum otherwise.
    """
    kronecker = isinstance(eta, DirichletCharacter)
    modulus = eta.conductor if kronecker else eta.modulus
    nu = next((k for k in range(fam.depth + 1) if fam.level_modulus(k) == modulus), None)
    if nu is None:
        raise ValueError("character modulus is not a level of the family")
    if modulus != eta.conductor:
        return Fraction(0)
    lvl, den = fam.num[nu], fam.den[nu]
    if kronecker or eta.order <= 2:
        return Fraction(sum(eta(a) * x for a, x in zip(fam.units(nu), lvl)), den)
    e = eta.zeta_order
    coeffs = [0] * e
    for a, x in zip(fam.units(nu), lvl):
        coeffs[-eta.value_exp(a) % e] += x
    return CycSum(e, [Fraction(c, den) for c in coeffs])
