"""Finite-precision arithmetic in the Iwasawa algebra Zp[[T]].

Elements live in O[[T]] mod (p^N, T^M) as integer residue vectors with a
per-coefficient absolute precision.  Multiplication propagates the
pessimistic minimum precision.  lambda/mu certification is conservative:
the invariants are certified only when mu = 0 and no coefficient could
hide a unit below its stated precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .arith import is_prime, val_p, val_p_factorial
from .lseries import BERNOULLI_CAP


class IndistinguishableFromZero(ValueError):
    """All coefficients vanish to their stated precision."""


@dataclass
class IwasawaElement:
    """sum res[j] T^j + O(p^prec[j]) T^j + O(T^M), integral coefficients, M = len(res)."""

    p: int
    res: list
    prec: list
    pole_factor: bool = False  # true branch is self / ((1+T) - u); see kubota_leopoldt

    def __post_init__(self):
        assert len(self.res) == len(self.prec)
        self.res = [r % self.p**k if k > 0 else 0 for r, k in zip(self.res, self.prec)]

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_integers(p: int, N: int, M: int, coeffs) -> "IwasawaElement":
        return IwasawaElement(p, (list(coeffs) + [0] * M)[:M], [N] * M)

    # -- views ------------------------------------------------------------
    @property
    def t_prec(self) -> int:
        return len(self.res)

    def min_prec(self) -> int:
        return min(self.prec)

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
        """Inverse of to_json, lossless on the per-coefficient precision.

        to_json writes coefficient j with prec[j] digits and N = min(prec),
        so coefficient j is read at the precision of its digit string; a
        string with fewer than N digits (high zero digits left out), and a
        coefficient past the end of the list, is stated to precision N.

        A missing key raises KeyError.  Input of the wrong shape raises
        ValueError: not an object, p, N or M not a non-negative integer, M
        zero, p not prime, coeffs not a list of digit strings or longer than
        M, a digit not written in ASCII 0-9 or outside [0, p), or
        pole_factor not a boolean.  So does a series longer than any command
        writes, refused before its digits are read: N + M + 7 (the node count
        of a padic-l branch, measures._fit_points(N, M) + _CHECK_POINTS at 8
        check nodes, written out since measures imports this module) or a
        coefficient's digit count above BERNOULLI_CAP.
        """
        if not isinstance(obj, dict):
            raise ValueError("a serialized series must be a JSON object")
        p, n, m = obj["p"], obj["N"], obj["M"]
        if not all(type(x) is int and x >= 0 for x in (p, n, m)):
            raise ValueError("p, N and M must be non-negative integers")
        if m == 0:
            raise ValueError("M must be positive: a series needs a coefficient")
        if n + m + 7 > BERNOULLI_CAP:
            raise ValueError(f"N + M + 7 exceeds the Bernoulli cap {BERNOULLI_CAP}")
        pole = obj.get("pole_factor", False)
        if type(pole) is not bool:
            raise ValueError("pole_factor must be a boolean")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        coeffs = obj["coeffs"]
        if not (isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs)):
            raise ValueError("coeffs must be a list of digit strings")
        if len(coeffs) > m:
            raise ValueError(f"{len(coeffs)} coefficients exceed M = {m}")
        if any(s.count(",") >= BERNOULLI_CAP for s in coeffs):
            raise ValueError(f"a coefficient has more than {BERNOULLI_CAP} digits")
        res = [parse_digit_string(s, p) for s in coeffs] + [0] * (m - len(coeffs))
        prec = [max(n, s.count(",") + 1 if s else 0) for s in coeffs] + [n] * (m - len(coeffs))
        return IwasawaElement(p, res, prec, pole)

    # -- ring operations ----------------------------------------------------
    def __mul__(self, other: "IwasawaElement") -> "IwasawaElement":
        assert self.p == other.p
        m = min(self.t_prec, other.t_prec)
        n = min(self.min_prec(), other.min_prec())
        return IwasawaElement(self.p, _mul_trunc(self.res, other.res, m, self.p**n),
                              [n] * m, self.pole_factor or other.pole_factor)

    def scale(self, c: int) -> "IwasawaElement":
        """Multiply by the integer c."""
        return IwasawaElement(self.p, [r * c for r in self.res], list(self.prec), self.pole_factor)


def _mul_trunc(a: list, b: list, m: int, mod: int) -> list:
    """The coefficients of a*b below T^m, mod `mod`."""
    out = [0] * m
    for i, ai in enumerate(a[:m]):
        ai %= mod
        if ai:
            for j, bj in enumerate(b[: m - i]):
                out[i + j] += ai * bj
    return [c % mod for c in out]


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
    width = len(str(p - 1))
    acc = 0
    for t in reversed(s.split(",")):
        # a token longer than p - 1, leading zeros aside, is refused before int() reads it
        if not (t.isascii() and t.isdigit() and len(t.lstrip("0")) <= width and int(t) < p):
            raise ValueError(f"digit {_head(t)} of {_head(s)} is not ASCII 0-9 in [0, {p})")
        acc = acc * p + int(t)
    return acc


def _head(x: str, k: int = 40) -> str:
    """repr of x, cut to its first k characters."""
    return repr(x) if len(x) <= k else repr(x[:k]) + "..."


# ---------------------------------------------------------------------------
# lambda/mu and Weierstrass preparation


def lambda_mu(f: IwasawaElement) -> tuple[int, int, bool]:
    """(mu, lambda, certified) read off the coefficient valuations.

    mu is the minimum exact coefficient valuation, lambda the first index
    attaining it.  Past T^M the coefficients are unknown, and a unit there
    would make mu = 0, so mu > 0 is never certified: certified means mu = 0
    and no coefficient could hide a unit below its stated precision.
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
    certified = mu == 0 and all(b > 0 for b in bounds)
    return mu, lam, certified


@dataclass
class WeierstrassData:
    """f = distinguished * unit mod (p^N, T^M), N = min(f.prec); mu is always 0."""

    mu: int
    lam: int
    distinguished: list  # monic integer coefficients, length lam + 1, reduced mod p^N
    unit: IwasawaElement


def weierstrass_prepare(f: IwasawaElement) -> WeierstrassData:
    """Weierstrass factorization by p-digit Hensel lifting.

    Requires a certified (mu, lambda), so mu = 0 and lambda < M.  Only the
    reconstruction identity f = P U mod (p^N, T^M), N = min(prec), is
    guaranteed; P and U are reduced mod p^N but can be right to fewer
    digits.  The unknown coefficients from T^M on enter P through
    T^lambda = (a multiple of p) mod P, about one digit per lambda degrees
    of T: (T^2 - 5) times a unit, truncated at p = 5, N = 6, gives
    P = T^2 - 5 mod 5^6 at M = 12, but only mod 5^4 at M = 8 and mod 5^3
    at M = 6.
    """
    p, M = f.p, f.t_prec
    mu, lam, certified = lambda_mu(f)
    if not certified:
        raise ValueError("lambda/mu not certified at this precision")
    n_red = min(f.prec)
    mod = p**n_red
    g = [r % mod for r in f.res]

    # initial factorization mod p: P = T^lam, U = top part of g
    P = [0] * lam + [1]  # monic, degree lam
    U = [g[lam + i] % p for i in range(M - lam)] + [0] * lam
    assert U[0] % p != 0

    # each step adds a multiple of p^k, so U mod p and its inverse are fixed
    ubar_inv = [pow(U[0], -1, p)] + [0] * (M - 1)
    for k in range(1, M):
        acc = sum(U[i] * ubar_inv[k - i] for i in range(1, k + 1))
        ubar_inv[k] = -acc * ubar_inv[0] % p

    for k in range(1, n_red):
        pk = p ** (k + 1)
        prod = _mul_trunc(P, U, M, pk)
        err = [(g[i] - prod[i]) % pk for i in range(M)]
        if all(e % p**k == 0 for e in err):
            d = [e // p**k % p for e in err]
        else:
            raise ArithmeticError("Hensel invariant broken")
        if not any(d):
            continue
        dP = _mul_trunc(d, ubar_inv, M, p)[:lam]
        rem = [(di - ci) % p for di, ci in zip(d, _mul_trunc(dP, U, M, p))]
        assert all(r == 0 for r in rem[:lam])
        dU = [rem[lam + i] for i in range(M - lam)] + [0] * lam
        P = [(P[i] + dP[i] * p**k) % p**n_red for i in range(lam)] + [1]
        U = [(U[i] + dU[i] * p**k) % p**n_red for i in range(M)]

    final = _mul_trunc(P, U, M, p**n_red)
    if any((g[i] - final[i]) % p**n_red for i in range(M)):
        raise ArithmeticError("reconstruction failed at the stated precision")
    return WeierstrassData(mu, lam, P, IwasawaElement(p, U, [n_red] * M))


# ---------------------------------------------------------------------------
# Euler factors


def unit_log_ratio(x: int, p: int, w: int) -> int:
    """c = log<x> / log(u) mod p^w, x a unit, u = 1 + p, p odd.

    An exact discrete log: <x>^(p-1) = x^(p-1) = y is u^c' mod p^(w+1) for
    one c' = (p - 1) c mod p^w, as u generates the cyclic group
    (1 + pZ)/(1 + p^(w+1)Z) of order p^w.  With y = 1 mod p^(i+1) and
    h = u^(-p^i) = 1 - p^(i+1) mod p^(i+2), digit i of c' is
    d = (y - 1)/p^(i+1) mod p, and y h^d = 1 mod p^(i+2).
    """
    if x % p == 0:
        raise ValueError("x must be a p-adic unit")
    mod = p ** (w + 1)
    y, h, c, pi = pow(x, p - 1, mod), pow(1 + p, -1, mod), 0, 1
    for _ in range(w):  # h = u^-pi, pi = p^i
        d = (y - 1) // (pi * p) % p
        y, c = y * pow(h, d, mod) % mod, c + d * pi
        h, pi = pow(h, p, mod), pi * p
    return c * pow(p - 1, -1, pi) % pi


def binomial_row(c: int, length: int, p: int, w: int) -> list[int]:
    """C(c, j) mod p^w for j < length, c an exact integer representative.

    C(c, j) = C(c, j-1) (c-j+1) / j is an integer for every integer c, so
    the row is exact before the reduction; a change of c by p^e moves
    C(c, j) by a multiple of p^(e - v_p(j!)).
    """
    mod = p**w
    out = [1 % mod]
    b = 1
    for j in range(1, length):
        b = b * (c - j + 1) // j
        out.append(b % mod)
    return out


def euler_factor(chi_q: int, n_q: int, p: int, N: int, M: int) -> IwasawaElement:
    """1 - chi_q * Nq^-1 * (1+T)^c with c = log<Nq> / log(u), u = 1 + p.

    chi_q is an integer (a character value, 0 or +-1); Nq must be coprime
    to p.  (1+T)^c is the p-adic binomial series truncated at T^M, with c
    computed mod p^(N + v_p((M-1)!)): by binomial_row's rule, every C(c, j),
    j < M, is then good mod p^N.
    """
    if n_q % p == 0:
        raise ValueError("Nq must be coprime to p")
    if chi_q == 0:
        return IwasawaElement.from_integers(p, N, M, [1])
    c = unit_log_ratio(n_q, p, N + val_p_factorial(M - 1, p))
    a = chi_q * pow(n_q, -1, p**N)
    res = [-a * b for b in binomial_row(c, M, p, N)]
    res[0] += 1
    return IwasawaElement(p, res, [N] * M)


def reflect(f: IwasawaElement) -> IwasawaElement:
    """Compose with the disk automorphism T -> (1+T)^-1 - 1.

    This is the gamma -> gamma^-1 reparametrization of the Iwasawa algebra;
    it fixes T = 0 and preserves lambda and mu.  With s = (1+T)^-1 - 1 =
    -T/(1+T), the T^i coefficient of s^j is (-1)^i C(i-1, j-1) for
    1 <= j <= i, so the T^i coefficient of f(s) is
    (-1)^i sum_{j=1..i} C(i-1, j-1) f_j, and f_0 at i = 0.  Output
    coefficient i >= 1 depends only on f_1..f_i, so it is stated at
    min(prec[1..i]); coefficient 0 keeps prec[0].
    """
    prec = f.prec[:1] + list(accumulate(f.prec[1:], min))
    out = f.res[:1] + [
        (-1) ** i * sum(comb(i - 1, j - 1) * f.res[j] for j in range(1, i + 1))
        for i in range(1, f.t_prec)]
    return IwasawaElement(f.p, out, prec, f.pole_factor)
