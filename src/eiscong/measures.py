"""Distributions on the tower (Z/m0 p^nu)^x and their Iwasawa-series bridge.

The Bernoulli family carries B1(a / m0 p^nu) at every level nu >= 1; the
bottom level holds the coherent pushforward (the sigma_p-Euler-stripped
values), which is what makes the exact distribution identity hold on unit
groups all the way down.  Stabilization twists by the tame Frobenius
component and rescales by alpha^-nu; for the unit root alpha = 1 of
X^2 - (1 + eps p) X + eps p (the Hecke data these families carry) the
result is again exactly coherent.

The series bridge is the Gamma-transform
    a_j = sum_a branch^-1(a) C(log_u<a>, j) mu(a)
computed at the deepest level; it equals minus the Kubota-Leopoldt branch
series (the classical Stickelberger sign).  kubota_leopoldt itself is built
by exact Newton interpolation through the special values
    -(1 - chi omega^(j-n)(p) p^(n-1)) B_{n, chi omega^(j-n)} / n
with a built-in stability self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import crt, val_p
from .characters import CycSum, DirichletCharacter, HeckeCharacterQF
from .iwasawa import IwasawaElement, euler_factor, lambda_mu
from .lseries import bernoulli
from .padic import PadicScalar, binomial_row, inv_mod, teichmuller, unit_log_ratio


# ---------------------------------------------------------------------------
# level families


def _b1(a: int, q: int) -> Fraction:
    """B1 of the fractional part of a/q: a/q - 1/2 on 0 <= a < q."""
    a %= q
    return Fraction(a, q) - Fraction(1, 2)


@dataclass
class LevelFamily:
    """Exact values on (Z/m0 p^nu)^x for nu = 0..depth."""

    m0: int
    p: int
    depth: int
    values: list  # values[nu] is {unit a mod m0 p^nu: Fraction}

    def level_modulus(self, nu: int) -> int:
        return self.m0 * self.p**nu

    def units_at(self, nu: int) -> list[int]:
        q = self.level_modulus(nu)
        return [a for a in range(q) if math.gcd(a, q) == 1] or [0]

    def r_action(self, a: int, nu: int) -> tuple[int, int]:
        """The R(p) label map: multiply the underlying fraction by p.

        Level nu >= 1 drops one level (a mod m0 p^(nu-1)); the bottom level
        maps to itself through a -> p a mod m0.
        """
        if nu >= 1:
            q = self.level_modulus(nu - 1)
            return (a % q, nu - 1)
        return (self.p * a % self.m0 if self.m0 > 1 else 0, 0)

    def tame_twist(self, a: int, nu: int) -> int:
        """The unit acting as Frobenius on the tame part: p mod m0, 1 mod p^nu."""
        if self.m0 == 1:
            return a
        if nu == 0:
            return self.p * a % self.m0
        return crt(self.p * a % self.m0, self.m0, a % self.p**nu, self.p**nu)

    def value(self, a: int, nu: int) -> Fraction:
        return self.values[nu][a]

    def map_values(self, fn) -> "LevelFamily":
        return LevelFamily(self.m0, self.p, self.depth,
                           [{a: fn(v) for a, v in lvl.items()} for lvl in self.values])


def bernoulli_family(m0: int, p: int, depth: int) -> LevelFamily:
    """B1 values on the tower; the bottom level is the coherent pushforward.

    Levels nu >= 1 carry B1(a / m0 p^nu) exactly.  At nu = 0 the unit-group
    fiber over a loses the lift divisible by p, so the coherent value is
    B1(a/m0) - B1(p^-1 a / m0); with the plain value there the distribution
    identity would fail at the bottom step (level m0 conventions).
    """
    if math.gcd(m0, p) != 1:
        raise ValueError("m0 must be coprime to p")
    if depth < 1:
        raise ValueError("need depth >= 1")
    values = []
    for nu in range(depth + 1):
        q = m0 * p**nu
        if nu >= 1:
            lvl = {a: _b1(a, q) for a in range(q) if math.gcd(a, q) == 1}
        else:
            if m0 == 1:
                lvl = {0: Fraction(0)}
            else:
                pinv = inv_mod(p % m0, m0)
                lvl = {a: _b1(a, m0) - _b1(pinv * a % m0, m0)
                       for a in range(m0) if math.gcd(a, m0) == 1}
        values.append(lvl)
    return LevelFamily(m0, p, depth, values)


def delta_family(m0: int, p: int, depth: int, at: int = 1) -> LevelFamily:
    """Point mass at the tower point congruent to `at` at every level."""
    values = []
    for nu in range(depth + 1):
        q = m0 * p**nu
        if q == 1:
            values.append({0: Fraction(1)})
            continue
        if math.gcd(at, q) != 1:
            raise ValueError("delta point must be a unit at every level")
        values.append({a: Fraction(1) if a == at % q else Fraction(0)
                       for a in range(q) if math.gcd(a, q) == 1})
    return LevelFamily(m0, p, depth, values)


@dataclass(frozen=True)
class StabilizationParams:
    """Unit root alpha and the level character value eps_p at p.

    For an eigen-system with Hecke data C at p, alpha must satisfy
    alpha^2 - C alpha + eps_p p = 0; the families built here have
    C = 1 + eps_p p, whose unit root is exactly 1.
    """

    alpha: Fraction
    eps_p: Fraction
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "eps_p", Fraction(self.eps_p))


def stabilize(fam: LevelFamily, params: StabilizationParams) -> LevelFamily:
    """alpha^-nu (1 - alpha^-1 eps_p R(p)) applied on the units tower.

    R(p) multiplies the underlying fraction by p; on the units tower its
    well-defined realization is the tame Frobenius twist (trivial wild
    component), which at the bottom level is literally a -> p a mod m0.
    The p-adic valuation of alpha must be 0.
    """
    alpha, eps = params.alpha, params.eps_p
    if val_p(alpha.numerator, fam.p) or val_p(alpha.denominator, fam.p):
        raise ValueError("alpha must be a unit at p")
    out = []
    for nu in range(fam.depth + 1):
        scale = Fraction(1) / alpha**nu
        lvl = {}
        for a, v in fam.values[nu].items():
            w = v
            if eps:
                w = w - fam.values[nu][fam.tame_twist(a, nu)] * eps / alpha
            lvl[a] = scale * w
        out.append(lvl)
    return LevelFamily(fam.m0, fam.p, fam.depth, out)


@dataclass
class DistributionReport:
    ok: bool
    cells_checked: int
    first_failure: tuple | None = None  # (nu, a, expected, got)


def check_distribution(fam: LevelFamily) -> DistributionReport:
    """Fiber sums between consecutive levels, exactly, lexicographic-first failure."""
    checked = 0
    for nu in range(fam.depth):
        q = fam.level_modulus(nu)
        sums: dict[int, Fraction] = {a: Fraction(0) for a in fam.values[nu]}
        for b, v in fam.values[nu + 1].items():
            sums[b % q if q > 1 else 0] += v
        for a in sorted(fam.values[nu]):
            checked += 1
            if sums[a] != fam.values[nu][a]:
                return DistributionReport(False, checked,
                                          (nu, a, fam.values[nu][a], sums[a]))
    return DistributionReport(True, checked)


def pair_with_character(fam: LevelFamily, eta: DirichletCharacter):
    """sum_a eta(a)^-1 mu(a, modulus(eta)) at the level matching the modulus.

    Imprimitive eta returns the degenerate value 0 by contract.  Exact: the
    result is a Fraction for order <= 2 and a CycSum otherwise.
    """
    nu = None
    for k in range(fam.depth + 1):
        if fam.level_modulus(k) == eta.modulus:
            nu = k
            break
    if nu is None:
        raise ValueError("character modulus is not a level of the family")
    if not eta.is_primitive():
        return Fraction(0)
    lvl = fam.values[nu]
    if eta.zeta_order_eff() <= 2:
        acc = Fraction(0)
        for a, v in lvl.items():
            c = eta(a) if eta.modulus > 1 else 1
            if c:
                acc += c * v
        return acc
    e = eta.zeta_order_eff()
    acc = CycSum(e)
    for a, v in lvl.items():
        k = eta.value_exp(a)
        if k is not None and v:
            acc.add_term(-k % e, v)
    return acc


# ---------------------------------------------------------------------------
# the Gamma-transform bridge

_BRIDGE_SLACK = 1  # certified digits kept back from the depth bound


def to_iwasawa_series(fam: LevelFamily, chi_tame: DirichletCharacter,
                      omega_power: int, u: int, N: int, M: int) -> IwasawaElement:
    """Gamma-transform of a bounded family against the branch chi * omega^j.

    The branch character of the torsion part (Z/m0 p)^x is given as a tame
    character mod m0 (order <= 2, exact values) times the j-th Teichmuller
    power at p (p-adic values).  The coefficients are the Riemann sums

        a_j = sum over deepest-level units of branch^-1(a) C(log_u<a>, j) mu(a).

    The family must be p-integral (stabilize the Bernoulli family first).
    Coefficient j >= 1 is certified to min(N, depth - 1 - v_p(j!) - 1)
    digits; a_0 is exact up to N because its integrand is locally constant,
    so the finite depth loses nothing there.
    """
    p, m0, V = fam.p, fam.m0, fam.depth
    if chi_tame.conductor > 1 and m0 % chi_tame.conductor:
        raise ValueError("tame character must have conductor dividing m0")
    if chi_tame.order > 2:
        raise NotImplementedError("tame branch characters of order > 2")
    if V < 2:
        raise ValueError("need depth >= 2 for the wild coordinate")
    deepest = fam.values[V]
    den = 1
    for v in deepest.values():
        den = math.lcm(den, v.denominator)
    if den % p == 0:
        raise ValueError("family is not p-integral at the deepest level; stabilize first")

    w = N + V + 4
    mod = p**w
    den_inv = inv_mod(den % mod, mod)
    jinv = (-omega_power) % (p - 1)
    # omega(r)^(-j) table on (Z/p)^x
    om_inv = {r: pow(teichmuller(r, p, w), jinv, mod) if jinv else 1
              for r in range(1, p)}
    # log_u<a> depends on a mod p^V; cache the binomial rows per wild class
    rows: dict[int, list[int]] = {}
    acc = [0] * M
    for a, v in deepest.items():
        sign = chi_tame(a) if chi_tame.conductor > 1 else 1
        if not sign or not v:
            continue
        ap = a % p**V
        if ap not in rows:
            c = unit_log_ratio(ap, u, p, w)
            rows[ap] = binomial_row(c, M, p, w)
        row = rows[ap]
        scal = sign * om_inv[a % p] % mod * \
            ((v.numerator % mod) * ((den // v.denominator) % mod) % mod) % mod
        for j in range(M):
            acc[j] = (acc[j] + scal * row[j]) % mod
    res = [a_ * den_inv % mod for a_ in acc]
    prec = [min(N, max(0, V - 1 - _vfact(j, p) - _BRIDGE_SLACK)) if j else N
            for j in range(M)]
    out = [r % p**k if k else 0 for r, k in zip(res, prec)]
    return IwasawaElement(p, min(prec) if prec else N, M, out, prec)


def _vfact(j: int, p: int) -> int:
    """v_p(j!)."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v


def bridge_certified_precision(depth: int, p: int, j: int, N: int) -> int:
    """Exported so tests and the CLI can state the per-coefficient claim."""
    if j == 0:
        return N
    return min(N, max(0, depth - 1 - _vfact(j, p) - _BRIDGE_SLACK))


# ---------------------------------------------------------------------------
# Kubota-Leopoldt branch series


def _power_tables(chi: DirichletCharacter, p: int, wk: int, mmax: int):
    """Character power sums for the branch Bernoulli numbers.

    Returns (U, U0) with U[m][r] = sum of chi(a) a^m over 1 <= a <= f0*p,
    a = r mod p, gcd(a, f0 p) = 1, and U0[m] the same sum over 1 <= a <= f0.
    One pass of f0*p*mmax modular multiplications; this is the dominant cost
    of branch series at large conductors and is why every node shares it.
    """
    f0 = chi.conductor
    mod = p**wk
    U = [[0] * p for _ in range(mmax + 1)]
    U0 = [0] * (mmax + 1)
    # periodic value table keeps the 45M-iteration passes out of kronecker()
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


def _branch_nodes(chi: DirichletCharacter, p: int, omega_power: int, count: int,
                  w: int) -> list[tuple[Fraction, PadicScalar]]:
    """(t_n, L(t_n)) for n = 1..count, t_n = u^(1-n) - 1, values mod p^w.

    L(t_n) = -(1 - eta(p) p^(n-1)) B_{n,eta}/n with eta the primitive part of
    chi * omega^tw, tw = omega_power - n mod p - 1; eta(p) = chi(p) when
    tw = 0 and 0 otherwise.  B_{n,eta} is the classical f^(n-1) sum of
    eta(a) B_n(a/f), f = f0 p or f0, expanded through power sums:
    B_{n,eta} = sum_k C(n,k) B_k f^(k-1) S_{n-k}.  The power sums and the
    Teichmuller table are built once, at p^(w+6), for every node.
    """
    u = 1 + p
    f0 = chi.conductor
    wk = w + 6
    mod = p**wk
    U, U0 = _power_tables(chi, p, wk, count)
    omega = [0] + [teichmuller(r, p, wk) for r in range(1, p)]
    chi_p = chi(p % f0) if f0 > 1 else 1
    nodes = []
    for n in range(1, count + 1):
        t = Fraction(u) ** (1 - n) - 1
        tw = (omega_power - n) % (p - 1)
        if tw:
            f = f0 * p
            omp = [pow(o, tw, mod) for o in omega]
            s = [sum(omp[r] * U[m][r] for r in range(1, p)) % mod for m in range(n + 1)]
        else:
            f = f0
            s = U0[:n + 1]
        b = PadicScalar.zero(p, w + n + 2)
        for k in range(n + 1):
            if not s[n - k]:
                continue
            coef = PadicScalar.from_rational(
                Fraction(math.comb(n, k)) * bernoulli(k) * Fraction(f) ** (k - 1),
                p, w + n + 2)
            b = b + coef * PadicScalar.from_unit(p, 0, s[n - k], wk)
        eta_p = 0 if tw else chi_p
        fac = PadicScalar.from_rational(1 - eta_p * Fraction(p) ** (n - 1), p, w)
        y = -(fac * b / PadicScalar.from_rational(n, p, w + val_p(n, p) + 1))
        nodes.append((t, y))
    return nodes


# The self-check fits the same node values with this many extra points.  The
# Newton coefficient c_k = f[t_0..t_k] depends only on t_0..t_k, so the
# M'-point fit is the first M' coefficients of the (M' + 8)-point one: both
# come from one pass of divided differences, and the series (the prefix) must
# agree mod p^N with the full expansion.
_CHECK_POINTS = 8


def kubota_leopoldt(chi: DirichletCharacter, p: int, N: int, M: int,
                    omega_power: int = 0) -> IwasawaElement:
    """The branch series L with L(u^(1-n) - 1) = -(1 - eta_n(p) p^(n-1)) B_{n,eta_n}/n.

    eta_n is the primitive character of chi * omega^(omega_power - n), and
    u = 1 + p is the image of the topological generator.  p must be odd.
    chi must be even (trivial or quadratic here) with conductor prime to p,
    and chi * omega^omega_power even overall.  The trivial branch (chi
    trivial, omega_power = 0) is the p-adic zeta pseudo-measure: the
    returned element is ((1+T) - u) times the branch, flagged pole_factor.

    Construction: exact Newton interpolation with p-adic precision tracked
    per scalar.  The nodes n = 1..M'+8 (M' = _fit_points > M + N) are
    evaluated once and their divided differences taken once.  The series is
    the Newton form of the first M' coefficients expanded to T^0..T^(M-1);
    the self-check expands all M' + 8 and must agree with it mod p^N.
    """
    u = 1 + p
    if p < 3:
        raise ValueError("p must be an odd prime")
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if chi.order > 2:
        raise NotImplementedError("branch characters of order > 2")
    if chi.conductor % p == 0:
        raise ValueError("chi conductor must be coprime to p")
    if not chi.is_even():
        raise ValueError("odd chi makes the branch identically zero; not returned")
    if omega_power % 2:
        raise ValueError("omega_power must be even to keep the branch even")
    pole = chi.is_trivial() and omega_power % (p - 1) == 0

    mprime = _fit_points(p, N, M)
    big = mprime + _CHECK_POINTS
    w = N + big + big // (p - 1) + 10
    ts, ys = [], []
    for t, y in _branch_nodes(chi, p, omega_power, big, w):
        if pole:
            y = y * PadicScalar.from_rational(t - (u - 1), p, w)  # ((1+T)-u) at t
        ts.append(PadicScalar.from_rational(t, p, w))
        ys.append(y)
    # Newton divided differences; keep every order (the high ones carry the
    # tail accuracy that makes the low monomial coefficients good mod p^N)
    dd = ys
    coeffs = [dd[0]]
    for k in range(1, big):
        dd = [(dd[i + 1] - dd[i]) / (ts[i + k] - ts[i]) for i in range(len(dd) - 1)]
        coeffs.append(dd[0])
    res = _newton_to_monomials(coeffs[:mprime], ts, p, N, M, w)
    check = _newton_to_monomials(coeffs, ts, p, N, M, w)
    for j in range(M):
        if res[j] != check[j]:
            raise ArithmeticError(
                f"interpolation unstable at T^{j}; raise the point count")
    return IwasawaElement(p, N, M, res, [N] * M, pole_factor=pole)


def _fit_points(p: int, N: int, M: int) -> int:
    return (N + M + 8) * (p - 1) // (p - 2) + 1


def _newton_to_monomials(coeffs: list, ts: list, p: int, N: int, M: int,
                         w: int) -> list[int]:
    """The Newton form's T^0..T^(M-1) coefficients mod p^N (Horner)."""
    poly = [PadicScalar.zero(p, w)] * M
    for k in range(len(coeffs) - 1, -1, -1):
        new = [PadicScalar.zero(p, w)] + poly[:M - 1]
        for j in range(M):
            new[j] = new[j] - poly[j] * ts[k]
        new[0] = new[0] + coeffs[k]
        poly = new
    res = []
    for j, c in enumerate(poly):
        if c.u != 0 and c.v < 0:
            raise ArithmeticError(f"non-integral coefficient at T^{j} (unexpected pole)")
        k = min(N, c.abs_prec)
        if k < N:
            raise ArithmeticError(
                f"precision exhausted at T^{j}: have {k}, need N={N}; "
                f"raise the working precision")
        res.append(c.residue_mod(N) if c.u else 0)
    return res


def kl_value_at_zero(series: IwasawaElement, u: int) -> PadicScalar:
    """The branch value at T = 0, undoing the pole factor when flagged."""
    a0 = series.coefficient(0)
    if series.pole_factor:
        return a0 / PadicScalar.from_rational(1 - u, series.p, a0.abs_prec + 2)
    return a0


# ---------------------------------------------------------------------------
# induced Deligne-Ribet products


@dataclass
class DRResult:
    series: IwasawaElement
    factor1: IwasawaElement
    factor2: IwasawaElement
    euler_factors: list
    lambda_mu_parts: dict
    additivity: bool


def branch_product(chi1: DirichletCharacter, chi2: DirichletCharacter,
                   strip_norms, p: int, N: int, M: int) -> DRResult:
    """Product of the Kubota-Leopoldt branches of chi1 and chi2, Euler-stripped.

    For each n in strip_norms (each coprime to p), each branch is multiplied
    by 1 - eta(n) n^-1 (1+T)^c(n), with eta the branch's own character and
    u = 1 + p.  Reports lambda/mu of each part and the additivity verdict:
    lambda and mu of the product equal the sums over the branches and the
    Euler factors, all certified.
    """
    u = 1 + p
    f1 = kubota_leopoldt(chi1, p, N, M)
    f2 = kubota_leopoldt(chi2, p, N, M)
    eulers = []
    prod = f1 * f2
    for nq in strip_norms:
        for chi_b in (chi1, chi2):
            val = chi_b(nq % chi_b.conductor) if chi_b.conductor > 1 else 1
            e = euler_factor(val, nq, u, p, N, M)
            eulers.append(e)
            prod = prod * e
    parts = {}
    mu1, l1, c1 = lambda_mu(f1)
    mu2, l2, c2 = lambda_mu(f2)
    parts["factor1"] = (mu1, l1, c1)
    parts["factor2"] = (mu2, l2, c2)
    lam_e = mu_e = 0
    certified = c1 and c2
    for e in eulers:
        mue, le, ce = lambda_mu(e)
        lam_e += le
        mu_e += mue
        certified = certified and ce
    mu_p, l_p, c_p = lambda_mu(prod)
    parts["product"] = (mu_p, l_p, c_p)
    parts["euler"] = (mu_e, lam_e, certified)
    additivity = (c_p and certified
                  and l_p == l1 + l2 + lam_e and mu_p == mu1 + mu2 + mu_e)
    return DRResult(prod, f1, f2, eulers, parts, additivity)


def deligne_ribet_induced(eps: HeckeCharacterQF, twist: DirichletCharacter | None,
                          sigma0, p: int, N: int, M: int) -> DRResult:
    """branch_product for the pair induced by eps (twisted by `twist` if given).

    Both branches are stripped at the norm N(q) of each ideal q in sigma0:
    each gets the factor 1 - eta(N(q)) N(q)^-1 (1+T)^c(N(q)), eta its own
    character.  An inert q thus enters with N(q) = q^2 on both branches.

    verify-example passes the prime ideals dividing (m) as sigma0.  Both
    branch characters have conductor divisible by m, so eta(N(q)) = 0 there:
    every Euler factor is exactly 1 and the "euler" part reads lambda =
    mu = 0.  Which Euler factor the paper strips is still open.
    """
    chi1 = eps.chi1 if twist is None else eps.chi1.mul_quadratic(twist)
    chi2 = eps.chi2 if twist is None else eps.chi2.mul_quadratic(twist)
    return branch_product(chi1, chi2, [q.norm for q in sigma0], p, N, M)
