"""p-adic scalars with explicit precision, and modular p-adic primitives.

A PadicScalar is u * p^v + O(p^(v+n)) with unit mantissa u (or the pure
error term O(p^v) when nothing is known).  Negative valuations are allowed;
they occur only in the pseudo-measure branch.  Heavy kernels work on plain
integers mod p^W and wrap results at the end: the power tables, the series
bridge and the branch tail in `measures` (node values, divided differences
and the Newton expansion, with one proved precision per node and per level)
build no PadicScalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import val_p

_INF = 10**9  # valuation of an exact zero


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


@dataclass(frozen=True)
class PadicScalar:
    """u * p^v + O(p^(v+n)); u == 0 forces n == 0 (pure big-O)."""

    p: int
    v: int
    u: int
    n: int

    @staticmethod
    def from_rational(x, p: int, abs_prec: int) -> "PadicScalar":
        """Exact rational x to absolute precision O(p^abs_prec)."""
        x = Fraction(x)
        if x == 0:
            return PadicScalar(p, abs_prec, 0, 0)
        vn = val_p(x.numerator, p)
        vd = val_p(x.denominator, p)
        v = vn - vd
        n = abs_prec - v
        if n <= 0:
            return PadicScalar(p, abs_prec, 0, 0)
        mod = p**n
        u = (x.numerator // p**vn) % mod * inv_mod(x.denominator // p**vd, mod) % mod
        return PadicScalar(p, v, u, n)

    @staticmethod
    def zero(p: int, abs_prec: int) -> "PadicScalar":
        return PadicScalar(p, abs_prec, 0, 0)

    @staticmethod
    def from_unit(p: int, v: int, u: int, n: int) -> "PadicScalar":
        u %= p**n
        if u == 0:
            return PadicScalar(p, v + n, 0, 0)
        w = val_p(u, p)
        if w:
            return PadicScalar(p, v + w, u // p**w, n - w)
        return PadicScalar(p, v, u, n)

    # -- views ----------------------------------------------------------
    @property
    def abs_prec(self) -> int:
        return self.v + self.n

    def is_zero_to_precision(self) -> bool:
        return self.u == 0

    def valuation(self) -> int:
        """Exact valuation; raises on a pure big-O term."""
        if self.u == 0:
            raise ValueError("valuation indistinguishable from precision")
        return self.v

    def residue_mod(self, k: int) -> int:
        """Representative mod p^k; requires abs_prec >= k and v >= 0."""
        if self.abs_prec < k:
            raise ValueError("insufficient precision")
        if self.u == 0:
            return 0
        if self.v < 0:
            raise ValueError("not p-integral")
        return self.u * self.p**self.v % self.p**k

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            return other
        return PadicScalar.from_rational(other, self.p, self.abs_prec + abs(self.v) + 4)

    def __add__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        assert o.p == self.p
        abs_prec = min(self.abs_prec, o.abs_prec)
        v = min(self.v if self.u else _INF, o.v if o.u else _INF, abs_prec)
        if v >= abs_prec:
            return PadicScalar.zero(self.p, abs_prec)
        mod = self.p ** (abs_prec - v)
        total = (self.u * self.p ** (self.v - v) if self.u else 0) + \
                (o.u * self.p ** (o.v - v) if o.u else 0)
        return PadicScalar.from_unit(self.p, v, total % mod, abs_prec - v)

    __radd__ = __add__

    def __neg__(self) -> "PadicScalar":
        if self.u == 0:
            return self
        return PadicScalar(self.p, self.v, self.p**self.n - self.u, self.n)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        assert o.p == self.p
        if self.u == 0 or o.u == 0:
            # O(p^a) * (u p^v + O(p^b)) = O(p^(a+v)); zero*zero pessimistic
            if self.u == 0 and o.u == 0:
                return PadicScalar.zero(self.p, self.v + o.v)
            z, w = (self, o) if self.u == 0 else (o, self)
            return PadicScalar.zero(self.p, z.v + w.v)
        n = min(self.n, o.n)
        return PadicScalar.from_unit(self.p, self.v + o.v,
                                     self.u * o.u % self.p**n, n)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o.u == 0:
            raise ZeroDivisionError("division by a p-adic zero")
        n = min(self.n, o.n) if self.u else self.n
        if self.u == 0:
            return PadicScalar.zero(self.p, self.abs_prec - o.v)
        inv = inv_mod(o.u % self.p**n, self.p**n)
        return PadicScalar.from_unit(self.p, self.v - o.v,
                                     self.u * inv % self.p**n, n)

    def __eq__(self, other) -> bool:
        """Equality to the shared precision."""
        o = self._coerce(other)
        return (self - o).u == 0

    def __hash__(self):
        raise TypeError("PadicScalar compares to precision; not hashable")

    def __repr__(self):
        if self.u == 0:
            return f"O({self.p}^{self.abs_prec})"
        return f"{self.u}*{self.p}^{self.v} + O({self.p}^{self.abs_prec})"


# ---------------------------------------------------------------------------
# integer-kernel primitives


def teichmuller(a: int, p: int, w: int) -> int:
    """The Teichmuller representative omega(a) mod p^w."""
    mod = p**w
    x = a % mod
    if x % p == 0:
        raise ValueError("a must be a p-adic unit")
    prev = None
    while x != prev:
        prev = x
        x = pow(x, p, mod)
    return x


def padic_log_1unit(x: int, p: int, w: int) -> int:
    """log(x) mod p^w for x = 1 mod p, p odd; input exact mod p^(w+guard)."""
    guard = 1
    t = w
    while p**guard <= t + guard:
        guard += 1
    mod = p ** (w + guard)
    t = (x - 1) % mod
    if t % p != 0:
        raise ValueError("x must be = 1 mod p")
    term = 1
    acc = 0
    i = 1
    power = t
    while power != 0 and i <= (w + guard) * 2 + 4:
        # term_i = (-1)^(i+1) t^i / i
        vi = val_p(i, p) if i % p == 0 else 0
        piece = power // p**vi * inv_mod(i // p**vi, mod) % mod
        acc = (acc + piece) if i % 2 == 1 else (acc - piece)
        i += 1
        power = power * t % mod
    return acc % p**w


def unit_log_ratio(x: int, u: int, p: int, w: int) -> int:
    """c = log<x> / log(u) mod p^w, x a unit, u a generator of 1 + pZp."""
    mod_hi = p ** (w + 2)
    om = teichmuller(x, p, w + 2)
    xu = x % mod_hi * inv_mod(om, mod_hi) % mod_hi  # <x> in 1 + pZp
    lx = padic_log_1unit(xu, p, w + 1)
    lu = padic_log_1unit(u % mod_hi, p, w + 1)
    if lu == 0 or val_p(lu, p) != 1:
        raise ValueError("u must generate 1 + pZp (v(log u) = 1)")
    if lx == 0:
        return 0
    if val_p(lx, p) < 1:
        raise ValueError("log x has smaller valuation than log u")
    return (lx // p) * inv_mod(lu // p, p**w) % p**w


def binomial_row(c: int, length: int, p: int, w: int) -> list[int]:
    """C(c, j) mod p^w for j < length, c an exact integer representative.

    C(c, j) = C(c, j-1) (c-j+1) / j is an integer for every integer c, so
    the row is exact before the reduction; callers supply c to enough
    precision that the result is meaningful (error in c propagates as
    C(c,j) differences).
    """
    mod = p**w
    out = [1 % mod]
    b = 1
    for j in range(1, length):
        b = b * (c - j + 1) // j
        out.append(b % mod)
    return out
