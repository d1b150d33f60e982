"""Test-only p-adic oracles that no command reaches.

The library keeps one p-adic format, integers mod p^k.  Two older forms
survive here as references:

- `PadicScalar`, u * p^v + O(p^(v+n)) with its own precision, is the
  scalar of the branch tail that test_branch_kernels' integer tail must
  equal exactly;
- `teichmuller` is omega(a) mod p^w as the fixed point of x -> x^p, which
  `measures._teichmuller_powers` (a closed form) must equal;
- `series_unit_log_ratio` is c(x) = log<x>/log u by the truncated log
  series with guard digits, which `iwasawa.unit_log_ratio` (an exact
  discrete log in base u = 1 + p) must equal on every input.

`p_b1_omega_inv` and `p_value_at_zero` compare a branch series at T = 0
with the direct Teichmuller sum, in integers.  `random_series` draws a
series with known lambda and mu.

`power_tables_by_visit` is the per-residue pass the branch power-sum kernel
replaced, and `full_power_tables` the parent's table over all p - 1 classes
mod p, which the kernel now forms for one class of each pair {r, p - r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from eiscong.arith import val_p
from eiscong.iwasawa import IwasawaElement
from eiscong.measures import _power_tables

_INF = 10**9  # valuation of an exact zero


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
        u = (x.numerator // p**vn) % mod * pow(x.denominator // p**vd, -1, mod) % mod
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
        inv = pow(o.u % self.p**n, -1, self.p**n)
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
    acc = 0
    i = 1
    power = t
    while power != 0 and i <= (w + guard) * 2 + 4:
        # term_i = (-1)^(i+1) t^i / i
        vi = val_p(i, p) if i % p == 0 else 0
        piece = power // p**vi * pow(i // p**vi, -1, mod) % mod
        acc = (acc + piece) if i % 2 == 1 else (acc - piece)
        i += 1
        power = power * t % mod
    return acc % p**w


def teichmuller(a: int, p: int, w: int) -> int:
    """The Teichmuller representative omega(a) mod p^w: the fixed point of x -> x^p."""
    mod = p**w
    x = a % mod
    if x % p == 0:
        raise ValueError("a must be a p-adic unit")
    prev = None
    while x != prev:
        prev, x = x, pow(x, p, mod)
    return x


def series_unit_log_ratio(x: int, u: int, p: int, w: int) -> int:
    """c = log<x> / log(u) mod p^w by the log series: <x> = x omega(x)^-1."""
    mod_hi = p ** (w + 2)
    om = teichmuller(x, p, w + 2)
    xu = x % mod_hi * pow(om, -1, mod_hi) % mod_hi  # <x> in 1 + pZp
    lx = padic_log_1unit(xu, p, w + 1)
    lu = padic_log_1unit(u % mod_hi, p, w + 1)
    if lu == 0 or val_p(lu, p) != 1:
        raise ValueError("u must generate 1 + pZp (v(log u) = 1)")
    if lx == 0:
        return 0
    return (lx // p) * pow(lu // p, -1, p**w) % p**w


def p_b1_omega_inv(chi, p: int, w: int, e: int = -1) -> int:
    """p B_{1, chi omega^e} mod p^w by the direct sum over 1 <= a <= f = f0 p.

    e must not be 0 mod p - 1; the default e = -1 gives the omega_power = 0
    branch's value at T = 0, and e = j - 1 that of omega_power = j.  Then
    eta = chi omega^e is nontrivial of conductor f, so B_{1,eta} =
    (1/f) sum_{gcd(a, f) = 1} eta(a) a and p B_{1,eta} = f0^-1 times that sum.
    """
    f0 = chi.conductor
    mod = p**w
    s = 0
    for a in range(1, f0 * p + 1):
        c = chi(a) if f0 > 1 else 1
        if c and math.gcd(a, f0 * p) == 1:
            s += c * pow(teichmuller(a, p, w), e % (p - 1), mod) * a
    return s * pow(f0, -1, mod) % mod


def p_value_at_zero(series) -> tuple[int, int]:
    """(x, k): p times the branch value at T = 0 is x mod p^k.

    The value is a_0 = res[0], known mod p^prec[0]; on a pole-flagged
    series a_0 is ((1+T) - u) times it at T = 0, u = 1 + p, so p times the
    value is -a_0, known mod p^prec[0].
    """
    a0, k = series.res[0], series.prec[0]
    if series.pole_factor:
        return -a0 % series.p**k, k
    return series.p * a0 % series.p ** (k + 1), k + 1


def random_series(rng, p: int, N: int, M: int, mu: int = 0, max_lam: int = 5):
    """(p^mu * distinguished * unit, lambda); lambda/mu certify exactly when mu = 0."""
    lam = rng.randrange(0, max_lam + 1)
    dist = [rng.randrange(0, p ** (N - 2)) * p % p**N for _ in range(lam)] + [1]
    unit = [rng.randrange(1, p)] + [rng.randrange(0, p**N) for _ in range(M - 1)]
    e = IwasawaElement.from_integers(p, N, M, dist) * IwasawaElement.from_integers(p, N, M, unit)
    return IwasawaElement.from_integers(p, N, M, [c * p**mu for c in e.res]), lam


def power_tables_by_visit(chi, p: int, wk: int, mmax: int):
    """U[m][r], U0[m] mod p^wk by one visit to every a <= f0 p (U[m][0] = 0)."""
    f0 = chi.conductor
    mod = p**wk
    U = [[0] * p for _ in range(mmax + 1)]
    U0 = [0] * (mmax + 1)
    vals = [chi(r) for r in range(f0)] if f0 > 1 else [1]
    for a in range(1, f0 * p + 1):
        c = vals[a % f0] if f0 > 1 else 1
        if not c or a % p == 0:
            if a <= f0 and c:
                apow = 1  # a divisible by p still counts in the tame-only sum
                for m in range(mmax + 1):
                    U0[m] = (U0[m] + c * apow) % mod
                    apow = apow * a % mod
            continue
        r = a % p
        apow = 1
        if a <= f0:
            for m in range(mmax + 1):
                t = c * apow
                U[m][r] = (U[m][r] + t) % mod
                U0[m] = (U0[m] + t) % mod
                apow = apow * a % mod
        else:
            for m in range(mmax + 1):
                U[m][r] = (U[m][r] + c * apow) % mod
                apow = apow * a % mod
    return U, U0


def mirror_classes(chi, p: int, wk: int, H, U) -> list[list[int]]:
    """The rows over every class r = 0..p-1 (0 at r = 0) from rows U over H, one class of each pair.

    a -> f0 p - a maps class r onto p - r and chi(-a) = chi(-1) chi(a), so
    U[m][p-r] = chi(-1) sum_l C(m,l) (f0 p)^(m-l) (-1)^l U[l][r].
    """
    f, mod = chi.conductor * p, p**wk
    sign = 1 if chi.is_even() else -1
    full = [[0] * p for _ in U]
    for i, r in enumerate(H):
        col = [row[i] for row in U]
        for m, row in enumerate(full):
            row[r] = col[m]
            row[p - r] = sign * sum(math.comb(m, l) * f**(m - l) * (-1)**l * col[l]
                                    for l in range(m + 1)) % mod
    return full


# f0 p up to which full_power_tables visits every a; the visit costs f0 p (mmax + 1) products
_VISIT_LIMIT = 20000


def full_power_tables(chi, p: int, wk: int, mmax: int):
    """(U, U0) over every class mod p, as the tables were before they kept one class of each pair.

    By `power_tables_by_visit` when f0 p <= _VISIT_LIMIT; above it the
    kernel's rows over one class of each pair, which the power-table tests
    check against the visit, and `mirror_classes` for the partners.
    """
    if chi.conductor * p <= _VISIT_LIMIT:
        return power_tables_by_visit(chi, p, wk, mmax)
    H, U, U0 = _power_tables(chi, p, wk, mmax)
    return mirror_classes(chi, p, wk, H, U), U0
