"""Finite-precision arithmetic in the Iwasawa algebra Zp[[T]].

Elements live in O[[T]] mod (p^N, T^M) as integer residue vectors with a
per-coefficient absolute precision.  Multiplication propagates the
pessimistic minimum precision.  lambda/mu certification is conservative:
an invariant is certified only when no coefficient could hide a smaller
valuation below its stated precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, val_p
from .padic import PadicScalar, binomial_row, inv_mod, unit_log_ratio


class IndistinguishableFromZero(ValueError):
    """All coefficients vanish to their stated precision."""


@dataclass
class IwasawaElement:
    """sum res[j] T^j + O(p^prec[j]) T^j + O(T^M), integral coefficients."""

    p: int
    p_prec: int  # declared N
    t_prec: int  # declared M
    res: list
    prec: list
    pole_factor: bool = False  # true branch is self / ((1+T) - u); see kubota_leopoldt

    def __post_init__(self):
        assert len(self.res) == self.t_prec and len(self.prec) == self.t_prec
        self.res = [r % self.p**k if k > 0 else 0 for r, k in zip(self.res, self.prec)]

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_integers(p: int, N: int, M: int, coeffs, pole_factor: bool = False) -> "IwasawaElement":
        coeffs = list(coeffs)
        res = [int(c) % p**N for c in coeffs] + [0] * (M - len(coeffs))
        return IwasawaElement(p, N, M, res[:M], [N] * M, pole_factor)

    @staticmethod
    def from_rationals(p: int, N: int, M: int, coeffs) -> "IwasawaElement":
        mod = p**N
        out = []
        for c in coeffs:
            c = Fraction(c)
            if val_p(c.denominator, p):
                raise ValueError("coefficient not p-integral")
            out.append(c.numerator % mod * inv_mod(c.denominator % mod, mod) % mod)
        return IwasawaElement.from_integers(p, N, M, out)

    @staticmethod
    def zero(p: int, N: int, M: int) -> "IwasawaElement":
        return IwasawaElement(p, N, M, [0] * M, [N] * M)

    @staticmethod
    def one(p: int, N: int, M: int) -> "IwasawaElement":
        return IwasawaElement.from_integers(p, N, M, [1])

    # -- views ------------------------------------------------------------
    def min_prec(self) -> int:
        return min(self.prec)

    def coefficient(self, j: int) -> PadicScalar:
        r = self.res[j]
        if r == 0:
            return PadicScalar.zero(self.p, self.prec[j])
        v = val_p(r, self.p)
        return PadicScalar(self.p, v, r // self.p**v % self.p ** (self.prec[j] - v),
                           self.prec[j] - v)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "N": self.min_prec(),
            "M": self.t_prec,
            "coeffs": [digit_string(r, self.p, k) for r, k in zip(self.res, self.prec)],
            "pole_factor": self.pole_factor,
        }

    @staticmethod
    def from_json(obj: dict) -> "IwasawaElement":
        """Inverse of to_json, every coefficient stamped with the serialized N.

        A missing key raises KeyError.  Input of the wrong shape raises
        ValueError: not an object, p, N or M not a non-negative integer, p
        not prime, coeffs not a list of digit strings or longer than M, or a
        digit outside [0, p).
        """
        if not isinstance(obj, dict):
            raise ValueError("a serialized series must be a JSON object")
        p, n, m = obj["p"], obj["N"], obj["M"]
        if not all(type(x) is int and x >= 0 for x in (p, n, m)):
            raise ValueError("p, N and M must be non-negative integers")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        coeffs = obj["coeffs"]
        if not (isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs)):
            raise ValueError("coeffs must be a list of digit strings")
        if len(coeffs) > m:
            raise ValueError(f"{len(coeffs)} coefficients exceed M = {m}")
        res = [parse_digit_string(s, p) for s in coeffs]
        res += [0] * (m - len(res))
        return IwasawaElement(p, n, m, res, [n] * m, obj.get("pole_factor", False))

    # -- ring operations ----------------------------------------------------
    def _common(self, other: "IwasawaElement"):
        assert self.p == other.p
        m = min(self.t_prec, other.t_prec)
        return m

    def __add__(self, other: "IwasawaElement") -> "IwasawaElement":
        m = self._common(other)
        prec = [min(a, b) for a, b in zip(self.prec, other.prec)]
        res = [(a + b) % self.p**k for a, b, k in zip(self.res, other.res, prec)]
        return IwasawaElement(self.p, min(prec), m, res[:m], prec[:m],
                              self.pole_factor or other.pole_factor)

    def __neg__(self) -> "IwasawaElement":
        return IwasawaElement(self.p, self.p_prec, self.t_prec,
                              [-r % self.p**k if k else 0 for r, k in zip(self.res, self.prec)],
                              list(self.prec), self.pole_factor)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "IwasawaElement") -> "IwasawaElement":
        m = self._common(other)
        n = min(self.min_prec(), other.min_prec())
        mod = self.p**n
        res = [0] * m
        for i in range(min(self.t_prec, m)):
            a = self.res[i] % mod
            if a:
                for j in range(min(other.t_prec, m - i)):
                    b = other.res[j]
                    if b:
                        res[i + j] = (res[i + j] + a * b) % mod
        return IwasawaElement(self.p, n, m, res, [n] * m,
                              self.pole_factor or other.pole_factor)

    def scale(self, c) -> "IwasawaElement":
        """Multiply by an exact p-integral rational."""
        c = Fraction(c)
        if c.denominator % self.p == 0:
            raise ValueError("scalar not p-integral")
        out = []
        for r, k in zip(self.res, self.prec):
            mod = self.p**k
            out.append(r * (c.numerator % mod) % mod * inv_mod(c.denominator % mod, mod) % mod)
        return IwasawaElement(self.p, self.p_prec, self.t_prec, out, list(self.prec),
                              self.pole_factor)

    def truncate(self, M: int) -> "IwasawaElement":
        return IwasawaElement(self.p, self.p_prec, M, self.res[:M], self.prec[:M],
                              self.pole_factor)


def digit_string(r: int, p: int, k: int) -> str:
    """Base-p digits, least significant first, comma separated."""
    digits = []
    for _ in range(k):
        r, d = divmod(r, p) if r else (0, 0)
        digits.append(str(d))
    return ",".join(digits)


def parse_digit_string(s: str, p: int) -> int:
    if s == "":
        return 0
    acc = 0
    for d in reversed([int(t) for t in s.split(",")]):
        if not 0 <= d < p:
            raise ValueError(f"digit {d} of {s!r} is outside [0, {p})")
        acc = acc * p + d
    return acc


# ---------------------------------------------------------------------------
# lambda/mu and Weierstrass preparation


def lambda_mu(f: IwasawaElement) -> tuple[int, int, bool]:
    """(mu, lambda, certified) read off the coefficient valuations.

    mu is the minimum exact coefficient valuation, lambda the first index
    attaining it; certified means no coefficient could hide a smaller
    valuation below its stated precision.
    """
    if f.pole_factor:
        raise ValueError("pole-carrying branch has no Weierstrass invariants")
    exact: list[tuple[int, int]] = []
    bounds: list[int] = []
    for j in range(f.t_prec):
        r = f.res[j]
        if r:
            exact.append((val_p(r, f.p), j))
        else:
            bounds.append(f.prec[j])
    if not exact:
        raise IndistinguishableFromZero(
            f"element is O(p^{f.min_prec()}) + O(T^{f.t_prec}) throughout")
    mu = min(v for v, _ in exact)
    lam = min(j for v, j in exact if v == mu)
    certified = all(b > mu for b in bounds)
    return mu, lam, certified


@dataclass
class WeierstrassData:
    """f = p^mu * distinguished * unit at the stated reduced precision."""

    mu: int
    lam: int
    distinguished: list  # monic integer coefficients, length lam + 1, mod p^stated_N
    unit: IwasawaElement
    certified: bool
    stated_N: int
    stated_M: int


def weierstrass_prepare(f: IwasawaElement) -> WeierstrassData:
    """Weierstrass factorization by p-digit Hensel lifting.

    Requires a certified (mu, lambda) with lambda < M.  The reconstruction
    identity f = p^mu P U holds mod (p^(N - mu), T^M) as computed; the unit
    is tail-sensitive above T^(M - lambda), so the stated precision is
    (N - mu, M - lambda).
    """
    p, M = f.p, f.t_prec
    mu, lam, certified = lambda_mu(f)
    if not certified:
        raise ValueError("lambda/mu not certified at this precision")
    if lam >= M:
        raise ValueError("lambda exceeds the T-precision")
    n_red = min(f.prec) - mu
    if n_red <= 0:
        raise ValueError(f"precision exhausted: need p-precision > {mu}")
    mod = p**n_red
    g = [r // p**mu % mod for r in f.res]  # exact: v(coeff) >= mu throughout

    # initial factorization mod p: P = T^lam, U = top part of g
    P = [0] * lam + [1]  # monic, degree lam
    U = [g[lam + i] % p for i in range(M - lam)] + [0] * lam
    assert U[0] % p != 0

    def poly_mul(a, b, pk):
        out = [0] * M
        for i, ai in enumerate(a):
            if ai and i < M:
                for j, bj in enumerate(b):
                    if bj and i + j < M:
                        out[i + j] = (out[i + j] + ai * bj) % pk
        return out

    def series_inv_mod_p(a):
        out = [0] * M
        out[0] = inv_mod(a[0], p)
        for k in range(1, M):
            acc = 0
            for i in range(1, k + 1):
                if i < len(a) and a[i]:
                    acc += a[i] * out[k - i]
            out[k] = -acc * out[0] % p
        return out

    for k in range(1, n_red):
        pk = p ** (k + 1)
        prod = poly_mul(P, U, pk)
        err = [(g[i] - prod[i]) % pk for i in range(M)]
        if all(e % p**k == 0 for e in err):
            d = [e // p**k % p for e in err]
        else:
            raise ArithmeticError("Hensel invariant broken")
        if not any(d):
            continue
        ubar_inv = series_inv_mod_p([u % p for u in U])
        w = poly_mul(d, ubar_inv, p)
        dP = w[:lam]
        rem = [(d[i] - sum(dP[j] * U[i - j] % p for j in range(min(lam, i + 1)))) % p
               for i in range(M)]
        assert all(r == 0 for r in rem[:lam])
        dU = [rem[lam + i] for i in range(M - lam)] + [0] * lam
        P = [(P[i] + dP[i] * p**k) % p**n_red for i in range(lam)] + [1]
        U = [(U[i] + dU[i] * p**k) % p**n_red for i in range(M)]

    final = poly_mul(P, U, p**n_red)
    if any((g[i] - final[i]) % p**n_red for i in range(M)):
        raise ArithmeticError("reconstruction failed at the stated precision")
    unit = IwasawaElement(p, n_red, M, [u % p**n_red for u in U], [n_red] * M)
    dist = [c % p**n_red for c in P]
    return WeierstrassData(mu, lam, dist, unit, certified, n_red, M - lam)


# ---------------------------------------------------------------------------
# Euler factors and evaluation


def euler_factor(chi_q, n_q: int, u: int, p: int, N: int, M: int) -> IwasawaElement:
    """1 - chi_q * Nq^-1 * (1+T)^c with c = log<Nq> / log(u).

    chi_q is an exact scalar (0, +-1, or any p-integral rational); Nq must
    be coprime to p.  (1+T)^c is the p-adic binomial series truncated at
    T^M, with c computed to enough digits that every coefficient is good
    mod p^N.
    """
    if n_q % p == 0:
        raise ValueError("Nq must be coprime to p")
    chi_q = Fraction(chi_q)
    if chi_q == 0:
        return IwasawaElement.one(p, N, M)
    w_c = N + M // (p - 1) + 3
    c = unit_log_ratio(n_q, u, p, w_c)
    row = binomial_row(c, M, p, N)
    mod = p**N
    a = chi_q.numerator % mod * inv_mod(chi_q.denominator % mod, mod) % mod
    a = a * inv_mod(n_q % mod, mod) % mod
    res = [(-a * row[j]) % mod for j in range(M)]
    res[0] = (1 + res[0]) % mod
    return IwasawaElement(p, N, M, res, [N] * M)


def reflect(f: IwasawaElement) -> IwasawaElement:
    """Compose with the disk automorphism T -> (1+T)^-1 - 1.

    This is the gamma -> gamma^-1 reparametrization of the Iwasawa algebra;
    it fixes T = 0 and preserves lambda and mu.
    """
    p, M = f.p, f.t_prec
    n = f.min_prec()
    mod = p**n
    # s(T) = (1+T)^-1 - 1 = -T + T^2 - T^3 + ...
    s = [0] + [(-1) ** k % mod for k in range(1, M)]
    out = [0] * M
    spow = [1] + [0] * (M - 1)
    for j in range(f.t_prec):
        r = f.res[j] % mod
        if r:
            for i in range(M):
                if spow[i]:
                    out[i] = (out[i] + r * spow[i]) % mod
        if j + 1 < f.t_prec:
            new = [0] * M
            for a in range(M):
                va = spow[a]
                if va:
                    for b in range(1, M - a):
                        new[a + b] = (new[a + b] + va * s[b]) % mod
            spow = new
    # output coefficient i mixes input coefficients 0..i: prefix-min precision
    prec = []
    running = n
    for k in f.prec:
        running = min(running, k)
        prec.append(running)
    return IwasawaElement(p, n, M, out, prec, f.pole_factor)


@dataclass
class ExtensionValue:
    """Value in Zp[zeta_{p^k}] as a vector in powers of (zeta - 1)."""

    p: int
    k: int
    coeffs: list  # length phi(p^k), integers mod p^prec
    prec: int  # conservative p-precision of the vector entries


def evaluate(f: IwasawaElement, point="T=0"):
    """f at T = 0 (a PadicScalar) or at zeta - 1 for zeta of order p^k.

    For k >= 1 pass ("zeta", k); the value is returned as an integer vector
    against powers of (zeta - 1), computed mod the Eisenstein polynomial of
    zeta - 1.  Truncation at T^M costs floor(M / phi(p^k)) digits, which is
    reflected in the declared precision.
    """
    if point == "T=0":
        if f.pole_factor:
            raise ValueError("divide by ((1+T)-u) externally; see kubota_leopoldt")
        return f.coefficient(0)
    tag, k = point
    if tag != "zeta" or k < 1:
        raise ValueError("point must be 'T=0' or ('zeta', k)")
    p = f.p
    e = p ** (k - 1) * (p - 1)  # degree of the extension
    n = f.min_prec()
    mod = p**n
    # minimal polynomial of X = zeta - 1: Phi_{p^k}(1 + X), monic degree e
    from .characters import cyclotomic_poly

    phi = cyclotomic_poly(p**k)
    eis = [0] * (e + 1)
    # expand Phi(1+X) = sum phi[i] (1+X)^i
    binrow = [[0] * (e + 1) for _ in range(len(phi))]
    for i in range(len(phi)):
        c = 1
        for j in range(0, min(i, e) + 1):
            binrow[i][j] = c
            c = c * (i - j) // (j + 1)
    for i, ci in enumerate(phi):
        if ci:
            for j in range(e + 1):
                eis[j] += ci * binrow[i][j]
    assert eis[e] == 1

    acc = [0] * e
    xpow = [1] + [0] * (e - 1)  # X^j reduced, as a vector

    def reduce_once(vec_hi):
        # subtract vec_hi * (X^e = -(eis[0..e-1]))
        return [(-vec_hi * eis[j]) % mod for j in range(e)]

    for j in range(f.t_prec):
        r = f.res[j]
        if r:
            for i in range(e):
                acc[i] = (acc[i] + r * xpow[i]) % mod
        # xpow *= X
        hi = xpow[e - 1]
        xpow = [0] + xpow[: e - 1]
        if hi:
            red = reduce_once(hi)
            xpow = [(a + b) % mod for a, b in zip(xpow, red)]
    prec = min(n, f.t_prec // e)
    return ExtensionValue(p, k, acc, prec)
