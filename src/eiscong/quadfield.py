"""Real quadratic fields F = Q(sqrt(d)): units, splitting, factored ideals.

The narrow class number h_F^+ = 1 is an input contract throughout: ideals
are kept in factored form and never tested for principality.  Elements are
stored as exact rational pairs (x, y) meaning x + y*sqrt(d); ring integers
have denominator at most 2 (and only when d = 1 mod 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_squarefree, kronecker

# continued-fraction period cap; desk-scale fields only
_CF_MAX_PERIOD = 10**6

SPLIT1 = "split1"
SPLIT2 = "split2"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadElement:
    """x + y*sqrt(d) with exact rational x, y."""

    d: int
    x: Fraction
    y: Fraction

    def __mul__(self, other: "QuadElement") -> "QuadElement":
        assert self.d == other.d
        return QuadElement(
            self.d,
            self.x * other.x + self.d * self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.d})"


@dataclass(frozen=True)
class RealQuadraticField:
    """Q(sqrt(d)) with its fundamental unit data; assumes h_F^+ = 1."""

    d: int
    disc: int
    basis_kind: str  # "Z[sqrt(d)]" or "Z[(1+sqrt(d))/2]"
    fund_unit: QuadElement
    fund_unit_norm: int
    u_plus: QuadElement

    def to_json(self) -> dict:
        def pair(e: QuadElement):
            return [_rat_json(e.x), _rat_json(e.y)]

        return {
            "d": self.d,
            "disc": self.disc,
            "u": pair(self.fund_unit),
            "u_norm": self.fund_unit_norm,
            "u_plus": pair(self.u_plus),
        }


def _rat_json(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fundamental_unit(d: int, disc: int) -> QuadElement:
    """The least unit > 1 of o_F, from one continued-fraction period of omega.

    omega = (r + sqrt(disc))/2 with r = disc mod 2 generates o_F.  Its
    complete quotients are (P + sqrt(disc))/Q, starting at (P, Q) = (r, 2);
    Q returns to 2 exactly at the end of a period, and with p/q the last
    convergent before it, p - q*conj(omega) is the fundamental unit.
    """
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("d is a perfect square")
    r = disc % 2
    P, Q = r, 2
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for _ in range(_CF_MAX_PERIOD):
        a = (P + s) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (disc - P * P) // Q
        if Q == 2:
            # conj(omega) = (r - g sqrt(d))/2 with g^2 = disc/d
            g = math.isqrt(disc // d)
            return QuadElement(d, Fraction(2 * p - r * q, 2), Fraction(g * q, 2))
    raise ValueError("continued-fraction period exceeds cap")


def make_field(d: int) -> RealQuadraticField:
    """Construct Q(sqrt(d)) with fundamental unit and totally positive u_plus.

    The unit comes from one continued-fraction period of the ring generator
    omega = (r + sqrt(disc))/2, r = disc mod 2, which serves both integral
    bases; u_plus is the unit or, when its norm is -1, its square.
    """
    if d <= 1:
        raise ValueError("need d >= 2")
    if not is_squarefree(d):
        raise ValueError("d must be squarefree")
    disc = d if d % 4 == 1 else 4 * d
    basis = "Z[(1+sqrt(d))/2]" if d % 4 == 1 else "Z[sqrt(d)]"
    u = _fundamental_unit(d, disc)
    nu = int(u.norm())
    assert nu in (1, -1)
    u_plus = u if nu == 1 else u * u
    return RealQuadraticField(d, disc, basis, u, nu, u_plus)


def primes_over(p: int, st: int) -> list[tuple[str, int]]:
    """[(tag, N(q))] for the primes q over the rational prime p, st = (disc_F | p).

    p splits into two primes of norm p at st = 1, ramifies into one of norm
    p at st = 0 and stays inert, of norm p^2, at st = -1.
    """
    if st > 0:
        return [(SPLIT1, p), (SPLIT2, p)]
    return [(RAMIFIED, p)] if st == 0 else [(INERT, p * p)]


@dataclass(frozen=True)
class IdealQF:
    """Integral ideal in factored form: ((p, tag, e), ...), sorted."""

    d: int
    factors: tuple[tuple[int, str, int], ...]

    @property
    def norm(self) -> int:
        n = 1
        for p, tag, e in self.factors:
            f = 2 if tag == INERT else 1
            n *= p ** (f * e)
        return n

    def is_one(self) -> bool:
        return not self.factors

    def residue_unit_count(self) -> int:
        """#(o_F/a)^x, multiplicative over the prime factorization."""
        n = 1
        for p, tag, e in self.factors:
            q = p * p if tag == INERT else p
            n *= q ** e - q ** (e - 1)
        return n

    def prime_factors(self) -> list["IdealQF"]:
        return [IdealQF(self.d, ((p, tag, 1),)) for p, tag, _ in self.factors]

    def to_json(self) -> list:
        return [["p", p, tag, e] for p, tag, e in self.factors]

    def __str__(self) -> str:
        if not self.factors:
            return "(1)"
        return "*".join(
            f"({p},{tag})^{e}" if e > 1 else f"({p},{tag})" for p, tag, e in self.factors
        )


def principal_ideal(field: RealQuadraticField, n: int) -> IdealQF:
    """The ideal (n) of o_F for a positive rational integer n."""
    if n <= 0:
        raise ValueError("need a positive integer")
    fac = factorize(n)
    if fac is None:
        raise ValueError("could not factor %d" % n)
    factors = []
    for p in sorted(fac):
        st = kronecker(field.disc, p)
        factors += [(p, tag, fac[p] if st else 2 * fac[p]) for tag, _ in primes_over(p, st)]
    return IdealQF(field.d, tuple(factors))


def ideal_pow(a: IdealQF, n: int) -> IdealQF:
    if n < 0:
        raise ValueError("integral ideals only")
    return IdealQF(a.d, tuple((p, tag, e * n) for p, tag, e in a.factors)) if n else IdealQF(a.d, ())


def index_iota1(field: RealQuadraticField, a: IdealQF) -> int:
    """iota^1(a) = 1/2 #(o_F/a)^x N(a) prod_{q|a} (1 + 1/N(q)); a != (2)."""
    if a.is_one():
        return 1
    if a == principal_ideal(field, 2):
        raise ValueError("iota^1 formula excludes a = (2)")
    val = Fraction(a.residue_unit_count() * a.norm, 2)
    for q in a.prime_factors():
        val *= 1 + Fraction(1, q.norm)
    if val.denominator != 1:
        raise ArithmeticError("iota^1 did not come out integral")
    return int(val)


def unit_power_check(field: RealQuadraticField, p: int, e: int) -> str:
    """"divides" iff u_plus^e = 1 in some residue field above p.

    N(u_plus) = 1 gives N(u_plus^e - 1) = 2 - V_e for the trace sequence
    V_k = Tr(u_plus^k), so the test is V_e = 2 mod p.  V_e comes from the
    doubling ladder on (V_k, V_(k+1)) with V_0 = 2, V_1 = t = Tr(u_plus):
    V_2k = V_k^2 - 2 and V_(2k+1) = V_k V_(k+1) - t.  Ramified p is
    rejected (residue ring not etale).
    """
    if field.disc % p == 0:
        raise ValueError("p divides the discriminant")
    if e <= 0:
        raise ValueError("need a positive exponent")
    t = int(2 * field.u_plus.x) % p
    v, w = 2, t
    for bit in bin(e)[2:]:
        if bit == "1":
            v, w = (v * w - t) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - t) % p
    return "divides" if (v - 2) % p == 0 else "coprime"
