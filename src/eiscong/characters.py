"""Exact Dirichlet characters and the quadratic Hecke character eps.

Quadratic characters are Kronecker symbols of fundamental discriminants and
take the values -1/0/+1 directly; the trivial character is the Kronecker
symbol of D = 1 (order 1, conductor 1).  Characters of higher order store
logarithms against unit-group generators and take values as exact powers of
a root of unity; sums over values are accumulated in Q[x]/(x^e - 1) and
reduced mod the cyclotomic polynomial only for comparison, which keeps
everything exact.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import crt, factorize, fundamental_discriminant, kronecker
from .quadfield import IdealQF, RealQuadraticField, principal_ideal

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


# ---------------------------------------------------------------------------
# unit group structure of (Z/m)^x


def _primitive_root(q: int, p: int) -> int:
    """Primitive root mod q = p^e, p odd prime."""
    phi = q - q // p
    fac = factorize(phi)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // r, q) != 1 for r in fac):
            return g
    raise ArithmeticError("no primitive root found")


class UnitGroup:
    """Generators and orders of (Z/m)^x, with a full dlog table."""

    def __init__(self, m: int):
        self.m = m
        local: list[tuple[int, int]] = []
        if m > 1:
            fac = factorize(m)
            for p in sorted(fac):
                e = fac[p]
                q = p**e
                rest = m // q
                if p == 2:
                    if e == 1:
                        continue
                    if e == 2:
                        local.append((crt(3, q, 1, rest) if rest > 1 else 3, 2))
                    else:
                        g1 = crt(q - 1, q, 1, rest) if rest > 1 else q - 1
                        g2 = crt(5, q, 1, rest) if rest > 1 else 5
                        local.append((g1, 2))
                        local.append((g2, q // 4))
                else:
                    g = _primitive_root(q, p)
                    local.append((crt(g, q, 1, rest) if rest > 1 else g, q - q // p))
        self.gens = tuple(g for g, _ in local)
        self.orders = tuple(o for _, o in local)
        self.table: dict[int, tuple[int, ...]] = {}

        def rec(i: int, a: int, vec: list[int]) -> None:
            if i == len(self.gens):
                self.table[a] = tuple(vec)
                return
            x = a
            for k in range(self.orders[i]):
                vec.append(k)
                rec(i + 1, x, vec)
                vec.pop()
                x = x * self.gens[i] % m
        rec(0, 1 % m, [])

    def dlog(self, a: int) -> tuple[int, ...]:
        if self.m == 1:
            return ()
        a %= self.m
        if a not in self.table:
            raise ValueError(f"{a} is not a unit mod {self.m}")
        return self.table[a]

    def exponent(self) -> int:
        out = 1
        for o in self.orders:
            out = math.lcm(out, o)
        return out

    def units(self) -> list[int]:
        return sorted(self.table)


_UNIT_GROUPS: dict[int, UnitGroup] = {}


def unit_group(m: int) -> UnitGroup:
    if m not in _UNIT_GROUPS:
        _UNIT_GROUPS[m] = UnitGroup(m)
    return _UNIT_GROUPS[m]


# ---------------------------------------------------------------------------
# Dirichlet characters


def is_fundamental_discriminant(D: int) -> bool:
    from .arith import is_squarefree

    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


class DirichletCharacter:
    """Exact Dirichlet character; quadratic fast path via Kronecker symbols.

    `kind` is "kronecker" (fundamental discriminant D; D = 1 is the trivial
    character) or "generic" (log-values against the unit-group generators of
    the modulus).
    """

    def __init__(self, modulus: int, kind: str, D: int = 0,
                 log_values: tuple[int, ...] = (), zeta_order: int = 1):
        self.modulus = modulus
        self.kind = kind
        self.D = D
        self.log_values = log_values
        self.zeta_order = zeta_order
        if kind == "kronecker":
            self.conductor = abs(D)
            self.order = 1 if D == 1 else 2
            self.parity = EVEN if D > 0 else ODD
        else:
            ords = [zeta_order // math.gcd(zeta_order, k) if k else 1
                    for k in log_values]
            self.order = math.lcm(*ords) if ords else 1
            self.parity = EVEN if self._log_at(-1) == 0 else ODD
            self.conductor = self._conductor()

    @staticmethod
    def generic(modulus: int, log_values: tuple[int, ...]) -> "DirichletCharacter":
        g = unit_group(modulus)
        e = g.exponent()
        for k, o in zip(log_values, g.orders):
            if (k * o) % e != 0:
                raise ValueError("log value incompatible with generator order")
        return DirichletCharacter(modulus, "generic",
                                  log_values=tuple(log_values), zeta_order=e)

    def _log_at(self, a: int) -> int:
        vec = unit_group(self.modulus).dlog(a)
        return sum(k * v for k, v in zip(self.log_values, vec)) % self.zeta_order

    def _conductor(self) -> int:
        g = unit_group(self.modulus)
        for f in _divisors_of(self.modulus):
            if all(self._log_at(a) == 0 for a in g.table if a % f == 1 % f):
                return f
        return self.modulus

    # -- evaluation ----------------------------------------------------
    def __call__(self, a: int) -> int:
        """Value as an integer; only meaningful for order <= 2."""
        if self.kind == "kronecker":
            return kronecker(self.D, a)
        if self.order > 2:
            raise ValueError("character has order > 2; use value_exp")
        k = self.value_exp(a)
        if k is None:
            return 0
        return 1 if k == 0 else -1

    def value_exp(self, a: int) -> int | None:
        """k with chi(a) = zeta^k, zeta of order zeta_order_eff(); None if 0."""
        if math.gcd(a, self.modulus) != 1:
            return None
        if self.kind == "kronecker":
            return 0 if kronecker(self.D, a) == 1 else 1
        return self._log_at(a)

    def zeta_order_eff(self) -> int:
        if self.kind == "kronecker":
            return 2
        return self.zeta_order

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def is_even(self) -> bool:
        return self.parity == EVEN

    def is_trivial(self) -> bool:
        return self.order == 1

    def mul_quadratic(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product of Kronecker characters with coprime discriminants."""
        if self.kind != "kronecker" or other.kind != "kronecker":
            raise NotImplementedError("general character products not supported")
        if math.gcd(self.D, other.D) != 1:
            raise NotImplementedError("non-coprime discriminant product")
        return kronecker_character(self.D * other.D)

    def __repr__(self):
        if self.kind == "kronecker":
            return f"chi_{self.D}"
        return f"chi mod {self.modulus} logs {self.log_values}"


def _divisors_of(m: int) -> list[int]:
    out = [1]
    for p, e in factorize(m).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def kronecker_character(D: int) -> DirichletCharacter:
    """The character a -> (D|a) of modulus and conductor |D|; trivial at D = 1."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return DirichletCharacter(abs(D), "kronecker", D=D)


def enumerate_characters(m: int) -> list[DirichletCharacter]:
    """All Dirichlet characters mod m, as generic-kind objects."""
    g = unit_group(m)
    e = g.exponent()
    out: list[DirichletCharacter] = []

    def rec(i: int, vec: list[int]) -> None:
        if i == len(g.orders):
            out.append(DirichletCharacter.generic(m, tuple(vec)))
            return
        for k in range(0, e, e // g.orders[i]):
            rec(i + 1, vec + [k])

    rec(0, [])
    return out


def primitive_characters(m: int) -> list[DirichletCharacter]:
    return [c for c in enumerate_characters(m) if c.conductor == m]


# A table state is a sum of per-component exponents: 0 where the component
# is +1, 1 where it is -1 and _ZERO where it is 0.  Fewer than 16 components
# keep every sum below 256, so sums of byte tables never carry.
_ZERO = 16
_STATE_TO_VALUE = bytes(0 if v >= _ZERO else 0xFF if v % 2 else 1 for v in range(256))


def _local_component(chi: DirichletCharacter, l: int, q: int) -> bytearray:
    """The states of chi's component mod q = l^e, one byte per residue.

    At an odd l the component of a primitive quadratic character is the
    Legendre symbol mod l, so the non-squares get 1.  At l = 2 (q = 4 or 8)
    it is read from chi at the CRT lifts of the odd residues that are 1
    mod f/q.
    """
    state = bytearray(q)
    if l > 2:
        state[1:] = b"\x01" * (q - 1)
        for x in range(1, (q + 1) // 2):
            state[x * x % q] = 0
    else:
        rest = chi.conductor // q
        for r in range(1, q, 2):
            state[r] = chi(crt(r, q, 1, rest)) == -1
    state[::l] = bytes([_ZERO]) * len(range(0, q, l))
    return state


def value_table(chi: DirichletCharacter) -> array:
    """chi(0), ..., chi(f - 1) for f = chi.conductor, chi primitive of order <= 2.

    A primitive quadratic character is the product of its components at
    the prime powers q || f (see `_local_component`).  By CRT the states
    mod L q of the product so far (period L) and of the next component
    (period q) are the sum of the first tiled q times and the second tiled
    L times (`bytes * k`), added as big integers (`int.from_bytes`).
    Taking the components in increasing order keeps the earlier tables
    short, so the work is a few f-byte buffers and no call of chi per
    residue; one `translate` maps the states to -1/0/+1.  The trivial
    character (f = 1, no components) gives [1].  The result is a signed-byte
    array.
    """
    if chi.order > 2:
        raise ValueError("value_table needs a character of order <= 2")
    if not chi.is_primitive():
        raise ValueError("value_table needs a primitive character")
    fac = factorize(chi.conductor)
    if len(fac) >= 16:
        raise ValueError("a state byte holds fewer than 16 prime components")
    state = b"\x00"
    for q, l in sorted((l**e, l) for l, e in fac.items()):
        comp = _local_component(chi, l, q)
        state = (int.from_bytes(state * q, "little")
                 + int.from_bytes(comp * len(state), "little")).to_bytes(len(state) * q, "little")
    return array("b", state.translate(_STATE_TO_VALUE))


def sign_masks(table: bytes) -> tuple[bytes, bytes]:
    """The masks (1 or 0 per byte) of chi = +1 and of chi = -1 over value_table bytes."""
    return (table.translate(bytes.maketrans(b"\xff", b"\x00")),
            table.translate(bytes.maketrans(b"\x01\xff", b"\x00\x01")))


# ---------------------------------------------------------------------------
# the quadratic Hecke character eps of F, presented by its induced pair


@dataclass(frozen=True)
class HeckeCharacterQF:
    """The character eps of F whose induction to Q splits as chi1 + chi2.

    Its modulus is `modulus_ideal` = (m), also its conductor iff m = 1 mod 4
    or d = 3 mod 4 (see `induce_quadratic`).  Values on ideals coprime to (m)
    are chi1(N(a)); ideals sharing a prime with (m) map to 0.
    """

    field: RealQuadraticField
    chi1: DirichletCharacter
    chi2: DirichletCharacter
    modulus_ideal: IdealQF
    aux_m: int  # the rational generator m of the modulus

    def value_on_ideal(self, a: IdealQF) -> int:
        """eps(a): 0 on ideals meeting the modulus, else chi1(N(a)), multiplicative."""
        if a.shares_rational_prime(self.modulus_ideal):
            return 0
        return self.chi1(a.norm)

    def to_json(self) -> dict:
        modulus = self.modulus_ideal.to_json()
        return {
            "d": self.field.d,
            "m": self.aux_m,
            "kind": "induced",
            "chi1_disc": self.chi1.D,
            "chi2_disc": self.chi2.D,
            "conductor": modulus,
            "modulus": modulus,
        }


def induce_quadratic(field: RealQuadraticField, m: int) -> HeckeCharacterQF:
    """Quadratic character of F attached to F(sqrt(m))/F with conductor (m).

    chi1 and chi2 are the Kronecker characters of the fundamental
    discriminants of m and d*m.  The conductor is exactly (m) iff
    chi1.conductor * chi2.conductor == disc_F * m^2, that is iff m = 1 mod 4
    or d = 3 mod 4; that, and h_F^+ = 1, is the caller's hypothesis.
    """
    from .arith import is_squarefree

    if m < 3:
        raise ValueError("need m >= 3")
    if m % 2 == 0 or math.gcd(m, field.disc) != 1:
        raise ValueError("m must be odd and coprime to the discriminant")
    if not is_squarefree(m):
        raise ValueError("m must be squarefree")
    chi1 = kronecker_character(fundamental_discriminant(m))
    chi2 = kronecker_character(fundamental_discriminant(field.d * m))
    return HeckeCharacterQF(field, chi1, chi2, principal_ideal(field, m), m)
