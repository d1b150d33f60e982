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

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.d, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def pow(self, n: int) -> "QuadElement":
        if n < 0:
            raise ValueError("negative powers not needed here")
        result = QuadElement(self.d, Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def embeds_above(self, bound: Fraction) -> bool:
        """True iff x + y*sqrt(d) > bound in the embedding with sqrt(d) > 0."""
        # x - bound > -y sqrt(d), squared by sign cases
        lhs = self.x - bound
        if self.y > 0:
            return lhs >= 0 or lhs * lhs < self.d * self.y * self.y
        if self.y == 0:
            return lhs > 0
        return lhs > 0 and lhs * lhs > self.d * self.y * self.y

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


def _cf_pell_unit(d: int) -> QuadElement:
    """Fundamental solution of x^2 - d y^2 = +-1 via the CF of sqrt(d)."""
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d is a perfect square")
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    P, Q = 0, 1
    a = a0
    for _ in range(_CF_MAX_PERIOD):
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if Q == 1:
            # period complete: previous convergent gives the unit
            return QuadElement(d, Fraction(p_prev), Fraction(q_prev))
    raise ValueError("continued-fraction period exceeds cap")


def _half_integer_cube_root(eps: QuadElement) -> QuadElement | None:
    """u = (a + b sqrt(d))/2 with u^3 = eps, if one exists (d = 5 mod 8)."""
    d = eps.d
    x, y = eps.x, eps.y  # integers here
    s3 = eps.norm()
    if abs(s3) != 1:
        return None
    s = int(s3)  # norm of u equals the norm of eps when cubing (s^3 = s)
    # (a + b sqrt(d))/2 cubed = eps  and  a^2 - d b^2 = 4s  give
    #   a (s + d b^2) = 2x,   b (3 s + d b^2) = 2y.
    b = 1
    while d * b**3 <= 2 * y + 3 * b:
        num = 2 * int(y)
        if num % b == 0 and (num // b - 3 * s) % d == 0:
            bb = (num // b - 3 * s) // d
            if bb == b * b:
                aa = 4 * s + d * b * b
                a = math.isqrt(aa) if aa > 0 else -1
                if a >= 0 and a * a == aa:
                    for sa in (a, -a):
                        u = QuadElement(d, Fraction(sa, 2), Fraction(b, 2))
                        if u.pow(3) == eps:
                            return u
        b += 1
    return None


def make_field(d: int) -> RealQuadraticField:
    """Construct Q(sqrt(d)) with fundamental unit and totally positive u_plus.

    The unit comes from the continued fraction of sqrt(d); for d = 1 mod 4
    the Pell unit may be the cube of the true fundamental unit, which is
    recovered exactly.
    """
    if d <= 1:
        raise ValueError("need d >= 2")
    if not is_squarefree(d):
        raise ValueError("d must be squarefree")
    disc = d if d % 4 == 1 else 4 * d
    basis = "Z[(1+sqrt(d))/2]" if d % 4 == 1 else "Z[sqrt(d)]"
    u = _cf_pell_unit(d)
    if d % 4 == 1:
        root = _half_integer_cube_root(u)
        if root is not None:
            u = root
    # normalize to the embedding-largest associate > 1
    if not u.embeds_above(Fraction(1)):
        u = QuadElement(d, abs(u.x), abs(u.y))
    nu = int(u.norm())
    assert nu in (1, -1)
    u_plus = u if nu == 1 else u * u
    return RealQuadraticField(d, disc, basis, u, nu, u_plus)


def splitting_type(field: RealQuadraticField, p: int) -> str:
    """"split", "inert", or "ramified" for the rational prime p."""
    if field.disc % p == 0:
        return RAMIFIED
    return "split" if kronecker(field.disc, p) == 1 else INERT


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

    def coprime_to(self, other: "IdealQF") -> bool:
        mine = {(p, tag) for p, tag, _ in self.factors}
        # ramified primes meet both split tags of nothing; compare by (p, tag)
        return not any((p, tag) in mine for p, tag, _ in other.factors)

    def shares_rational_prime(self, other: "IdealQF") -> bool:
        mine = {p for p, _, _ in self.factors}
        return any(p in mine for p, _, _ in other.factors)

    def to_json(self) -> list:
        return [["p", p, tag, e] for p, tag, e in self.factors]

    def __str__(self) -> str:
        if not self.factors:
            return "(1)"
        return "*".join(
            f"({p},{tag})^{e}" if e > 1 else f"({p},{tag})" for p, tag, e in self.factors
        )


def unit_ideal(field: RealQuadraticField) -> IdealQF:
    return IdealQF(field.d, ())


def prime_ideal(field: RealQuadraticField, p: int, tag: str | None = None) -> IdealQF:
    """A prime ideal above p; tag picks a split factor (default split1)."""
    st = splitting_type(field, p)
    if st == "split":
        tag = tag or SPLIT1
        if tag not in (SPLIT1, SPLIT2):
            raise ValueError("split prime needs a split tag")
    else:
        tag = st
    return IdealQF(field.d, ((p, tag, 1),))


def principal_ideal(field: RealQuadraticField, n: int) -> IdealQF:
    """The ideal (n) of o_F for a positive rational integer n."""
    if n <= 0:
        raise ValueError("need a positive integer")
    fac = factorize(n)
    if fac is None:
        raise ValueError("could not factor %d" % n)
    factors = []
    for p in sorted(fac):
        e = fac[p]
        st = splitting_type(field, p)
        if st == "split":
            factors.append((p, SPLIT1, e))
            factors.append((p, SPLIT2, e))
        elif st == RAMIFIED:
            factors.append((p, RAMIFIED, 2 * e))
        else:
            factors.append((p, INERT, e))
    return IdealQF(field.d, tuple(sorted(factors)))


def ideal_mul(a: IdealQF, b: IdealQF) -> IdealQF:
    assert a.d == b.d
    acc: dict[tuple[int, str], int] = {}
    for p, tag, e in a.factors + b.factors:
        acc[(p, tag)] = acc.get((p, tag), 0) + e
    return IdealQF(a.d, tuple(sorted((p, tag, e) for (p, tag), e in acc.items())))


def ideal_pow(a: IdealQF, n: int) -> IdealQF:
    if n < 0:
        raise ValueError("integral ideals only")
    return IdealQF(a.d, tuple((p, tag, e * n) for p, tag, e in a.factors)) if n else IdealQF(a.d, ())


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


def ideal_gcd(a: IdealQF, b: IdealQF) -> IdealQF:
    eb = {(p, tag): e for p, tag, e in b.factors}
    out = []
    for p, tag, e in a.factors:
        m = min(e, eb.get((p, tag), 0))
        if m:
            out.append((p, tag, m))
    return IdealQF(a.d, tuple(sorted(out)))


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


def _uplus_matrix(field: RealQuadraticField) -> tuple[int, int, int, int]:
    """Multiplication-by-u_plus matrix on the integral basis (1, omega)."""
    d = field.d
    up = field.u_plus
    if d % 4 == 1:
        # u_plus = c0 + c1*omega with omega = (1+sqrt d)/2
        c1 = up.y * 2
        c0 = up.x - up.y
        assert c0.denominator == 1 and c1.denominator == 1
        c0, c1 = int(c0), int(c1)
        # omega^2 = (d-1)/4 + omega
        t = (d - 1) // 4
        return c0, c1 * t, c1, c0 + c1
    c0, c1 = int(up.x), int(up.y)
    return c0, c1 * d, c1, c0


def unit_power_check(field: RealQuadraticField, p: int, e: int) -> str:
    """"divides" iff u_plus^e = 1 in some residue field above p.

    Square-and-multiply on the 2x2 multiplication matrix mod p; equivalent
    to p | N(u_plus^e - 1).  Ramified p is rejected (residue ring not etale).
    """
    if field.disc % p == 0:
        raise ValueError("p divides the discriminant")
    if e <= 0:
        raise ValueError("need a positive exponent")
    m00, m01, m10, m11 = (c % p for c in _uplus_matrix(field))
    r00, r01, r10, r11 = 1, 0, 0, 1
    a00, a01, a10, a11 = m00, m01, m10, m11
    n = e
    while n:
        if n & 1:
            r00, r01, r10, r11 = (
                (r00 * a00 + r01 * a10) % p,
                (r00 * a01 + r01 * a11) % p,
                (r10 * a00 + r11 * a10) % p,
                (r10 * a01 + r11 * a11) % p,
            )
        a00, a01, a10, a11 = (
            (a00 * a00 + a01 * a10) % p,
            (a00 * a01 + a01 * a11) % p,
            (a10 * a00 + a11 * a10) % p,
            (a10 * a01 + a11 * a11) % p,
        )
        n >>= 1
    # u_plus^e - 1 has basis coordinates (r00 - 1, r10); its norm mod p is
    # the determinant of multiplication by it, i.e. N(x + y*omega).
    x, y = (r00 - 1) % p, r10 % p
    d = field.d
    if d % 4 == 1:
        # N(x + y*omega) = x^2 + xy - y^2 (d-1)/4
        norm = (x * x + x * y - y * y * ((d - 1) // 4)) % p
    else:
        norm = (x * x - d * y * y) % p
    return "divides" if norm == 0 else "coprime"


def enumerate_ideals(field: RealQuadraticField, bound: int) -> list[IdealQF]:
    """All integral ideals of norm <= bound, sorted by norm."""
    from .arith import primes_up_to

    primes = []
    for p in primes_up_to(bound):
        st = splitting_type(field, p)
        if st == "split":
            primes.append((p, SPLIT1, p))
            primes.append((p, SPLIT2, p))
        elif st == RAMIFIED:
            primes.append((p, RAMIFIED, p))
        else:
            if p * p <= bound:
                primes.append((p, INERT, p * p))
    ideals = [unit_ideal(field)]
    for p, tag, nrm in primes:
        new = []
        for ideal in ideals:
            n = ideal.norm
            e = 1
            while n * nrm**e <= bound:
                new.append(ideal_mul(ideal, IdealQF(field.d, ((p, tag, e),))))
                e += 1
        ideals.extend(new)
    return sorted(ideals, key=lambda i: (i.norm, i.factors))
