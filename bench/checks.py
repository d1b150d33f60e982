"""Output checks, run outside the timed region, and the check of the checks.

Each check returns a list of problems; an empty list means the result
passed.  The branch oracle is written here from the definition and shares
no code with the package's power tables, Newton fit or Teichmuller routine.
The branch lambda/mu parts are read again with the package's lambda_mu from
the series returned, so the parts and the verdict must fit the series.
"""

from __future__ import annotations

import copy
import math

from eiscong.iwasawa import lambda_mu, reflect
from eiscong.measures import kubota_leopoldt

from workloads import HEADLINE

HEADLINE_VALUE = 373322926540
HEADLINE_FACTORS = {2: 2, 5: 1, 281: 1, 4951: 1, 13417: 1}
HEADLINE_CANDIDATES = [281, 4951, 13417]


# ---------------------------------------------------------------------------
# census


def check_census(params: dict, res) -> list[str]:
    bad = []
    num = abs(res.value.numerator)
    fac = res.factorization
    if fac is None:
        return [f"numerator {num} left unfactored"]
    if math.prod(q**e for q, e in fac.items()) != num:
        bad.append("factorization does not multiply back to the numerator")
    cands = [r.p for r in res.reports if r.verdict == "candidate"]
    bad += [f"candidate {q} does not divide the L-value" for q in cands if num % q]
    if any(r.lvalue != str(res.value) for r in res.reports):
        bad.append("scan's L-value differs from hecke_L_neg_induced")
    if res.coeffs.at(res.coeffs.ideals()[0]) != 1:
        bad.append("Eisenstein coefficient at (1) is not 1")
    if (params["d"], params["m"]) == HEADLINE:
        if res.value != HEADLINE_VALUE:
            bad.append(f"headline L-value {res.value} != {HEADLINE_VALUE}")
        if fac != HEADLINE_FACTORS:
            bad.append(f"headline factorization {fac}")
        if cands != HEADLINE_CANDIDATES:
            bad.append(f"headline candidates {cands} != {HEADLINE_CANDIDATES}")
    return bad


# ---------------------------------------------------------------------------
# branch series


def _teichmuller(a: int, p: int, w: int) -> int:
    """omega(a) mod p^w as the limit of a^(p^k)."""
    mod = p**w
    x = a % mod
    for _ in range(w):
        x = pow(x, p, mod)
    return x


def node_oracles(chi, p: int, N: int) -> tuple[int, int]:
    """The branch series at its first two nodes, mod p^N, from the definition.

    Node n is T = u^(1-n) - 1 with u = 1 + p, where the series takes the
    value -B_{n,eta}/n for eta = chi omega^-n (p > 3, so eta has conductor
    f = f0 p and eta(p) = 0).  Summing over 1 <= a <= f, gcd(a, f) = 1:
    B_{1,eta} = (1/f) sum eta(a) a, since eta is nontrivial and sum eta(a)
    vanishes; B_{2,eta} = (1/f) sum eta(a) a^2, since eta is moreover even
    for n = 2 and sum eta(a) a vanishes too.  Both sums are divisible by p.
    """
    if p <= 3:
        raise ValueError("the node oracles need omega^-2 nontrivial, p > 3")
    f0 = chi.conductor
    mod = p**(N + 2)
    vals = [chi(r) for r in range(f0)]
    om_inv = [0] * p
    for r in range(1, p):
        om_inv[r] = pow(_teichmuller(r, p, N + 2), -1, mod)
    s1 = s2 = 0
    for a in range(1, f0 * p + 1):
        c = vals[a % f0]
        if c and a % p:
            w = c * om_inv[a % p] * a
            s1 += w
            s2 += w * om_inv[a % p] * a
    out = []
    for n, s in ((1, s1 % mod), (2, s2 % mod)):
        if s % p:
            raise ArithmeticError(f"B_{n} sum not divisible by p")
        out.append(-(s // p) * pow(n * f0, -1, p**N) % p**N)
    return out[0], out[1]


def _node2(p: int, N: int) -> int:
    """u^-1 - 1 mod p^N, the second node, of valuation 1."""
    return (pow(1 + p, -1, p**N) - 1) % p**N


def _value_at(f, t: int, N: int) -> int | None:
    """f(t) mod p^N for v(t) >= 1, or None if f does not determine it.

    res[j] t^j is known mod p^(prec[j] + j), and the terms from T^M on
    vanish mod p^N once M >= N.
    """
    mod = f.p**N
    if f.t_prec < N or any(k + j < N for j, k in enumerate(f.prec)):
        return None
    return sum(r * pow(t, j, mod) for j, r in enumerate(f.res)) % mod


def branch_oracles(params: dict, res) -> tuple[tuple[int, int], tuple[int, int]]:
    p, N = params["p"], params["N"]
    return node_oracles(res.chi1, p, N), node_oracles(res.chi2, p, N)


def check_branch(params: dict, res, oracles) -> list[str]:
    p, N = params["p"], params["N"]
    mod = p**N
    t2 = _node2(p, N)
    nodes = (("T=0", 0), ("T=u^-1-1", t2))
    dr = res.dr
    bad = []
    for name, f, want in (("factor1", dr.factor1, oracles[0]),
                          ("factor2", dr.factor2, oracles[1])):
        for (label, t), w in zip(nodes, want):
            got = _value_at(f, t, N)
            if got != w:
                bad.append(f"{name} at {label} is {got}, oracle says {w} mod {p}^{N}")
    # evaluation at a node is a ring map.  Euler factor of chi_b at q:
    # 1 - chi_b(q) Nq^-1 (1+T)^c with u^c = <Nq> = Nq omega(Nq)^-1, so it is
    # 1 - chi_b(q)/Nq at T=0 and 1 - chi_b(q) omega(Nq)/Nq^2 at the second node
    want = [oracles[0][0] * oracles[1][0], oracles[0][1] * oracles[1][1]]
    eulers = [(nq, chi_b) for nq in res.sigma0_norms for chi_b in (res.chi1, res.chi2)]
    if len(dr.euler_factors) != len(eulers):
        bad.append(f"{len(dr.euler_factors)} Euler factors, expected {len(eulers)}")
    for e, (nq, chi_b) in zip(dr.euler_factors, eulers):
        c = chi_b(nq % chi_b.conductor) if chi_b.conductor > 1 else 1
        ev = [(1 - c * pow(nq, -1, mod)) % mod,
              (1 - c * _teichmuller(nq, p, N) * pow(nq, -2, mod)) % mod]
        for (label, t), w in zip(nodes, ev):
            if _value_at(e, t, N) != w:
                bad.append(f"Euler factor for N(q) = {nq} at {label} is "
                           f"{_value_at(e, t, N)}, expected {w}")
        want = [want[0] * ev[0], want[1] * ev[1]]
    for (label, t), w in zip(nodes, want):
        got = _value_at(dr.series, t, N)
        if got != w % mod:
            bad.append(f"product at {label} is {got}, expected {w % mod}")
    # lambda/mu of every part, read again from the returned series
    lm1, lm2, lmp = lambda_mu(dr.factor1), lambda_mu(dr.factor2), lambda_mu(dr.series)
    lme = [lambda_mu(e) for e in dr.euler_factors]
    euler = (sum(x[0] for x in lme), sum(x[1] for x in lme),
             lm1[2] and lm2[2] and all(x[2] for x in lme))
    parts = {"factor1": lm1, "factor2": lm2, "product": lmp, "euler": euler}
    if {k: tuple(v) for k, v in dr.lambda_mu_parts.items()} != parts:
        bad.append(f"lambda/mu parts {dr.lambda_mu_parts} != recomputed {parts}")
    additive = (lmp[2] and euler[2] and lmp[1] == lm1[1] + lm2[1] + euler[1]
                and lmp[0] == lm1[0] + lm2[0] + euler[0])
    if dr.additivity != additive:
        bad.append(f"additivity verdict {dr.additivity}, recomputed {additive}")
    if not additive:
        bad.append(f"lambda-additivity not certified: {parts}")
    return bad


# ---------------------------------------------------------------------------
# tower


def tower_reference(params: dict, res):
    """-(1 - chi(p)) reflect(KL), which the bridge equals digit for digit."""
    p, N, M = params["p"], params["N"], params["M"]
    chi = res.chi
    return reflect(kubota_leopoldt(chi, p, N, M)).scale(-(1 - chi(p)))


def check_tower(params: dict, res, ref) -> list[str]:
    D, p, V = params["D"], params["p"], params["V"]
    bad = []
    if not res.report.ok:
        bad.append(f"distribution identity fails at {res.report.first_failure}")
    # cells are the units at levels 0..V-1: phi(D) p^(V-1) in all
    phi = sum(math.gcd(a, D) == 1 for a in range(D))
    if res.report.cells_checked != phi * p ** (V - 1):
        bad.append(f"{res.report.cells_checked} cells checked, "
                   f"expected {phi * p ** (V - 1)}")
    br = res.bridge
    for j, k in enumerate(br.prec):
        if k and (ref.prec[j] < k or (br.res[j] - ref.res[j]) % p**k):
            bad.append(f"bridge T^{j} differs from -(1-chi(p)) reflect(KL) "
                       f"within its {k} certified digits")
    if not res.lambda_mu[2]:
        bad.append(f"bridge lambda/mu not certified: {res.lambda_mu}")
    wd = res.weierstrass
    if (wd.mu, wd.lam) != tuple(res.lambda_mu[:2]) or len(wd.distinguished) != wd.lam + 1:
        bad.append("Weierstrass data disagrees with lambda/mu")
    return bad


# ---------------------------------------------------------------------------
# the check of the checks


def _flip_digit(f, j: int):
    """A copy of the series with the lowest base-p digit of T^j changed."""
    g = copy.deepcopy(f)
    r = g.res[j]
    g.res[j] = r - r % g.p + (r + 1) % g.p
    return g


def corruptions(workload: str, params: dict, res):
    """(label, corrupted copy) pairs that the checker must reject."""
    if workload == "census":
        off = copy.copy(res)
        off.value = res.value + 1
        yield "L-value off by one", off
        if (params["d"], params["m"]) == HEADLINE:
            dropped = copy.copy(res)
            dropped.reports = [r for r in res.reports if r.p != HEADLINE_CANDIDATES[0]]
            yield "candidate dropped", dropped
    elif workload == "tower":
        j = max(range(len(res.bridge.prec)), key=lambda i: res.bridge.prec[i])
        bad = copy.copy(res)
        bad.bridge = _flip_digit(res.bridge, j)
        yield f"digit flipped in bridge T^{j}", bad
    else:
        for part in ("factor1", "factor2", "series"):
            for j in (0, 1):
                bad = copy.copy(res)
                bad.dr = copy.copy(res.dr)
                setattr(bad.dr, part, _flip_digit(getattr(res.dr, part), j))
                yield f"digit flipped in {part} T^{j}", bad
        bad = copy.copy(res)
        bad.dr = copy.copy(res.dr)
        bad.dr.lambda_mu_parts = dict(res.dr.lambda_mu_parts)
        mu, lam, cert = res.dr.lambda_mu_parts["factor1"]
        bad.dr.lambda_mu_parts["factor1"] = (mu, lam + 1, cert)
        yield "factor1 lambda off by one", bad


def checker(workload: str, params: dict, res):
    """A function listing the problems of `res`, or of a corrupted copy of it.

    The oracle or reference is computed once here and shared by the copies.
    """
    if workload == "census":
        return lambda r: check_census(params, r)
    if workload == "tower":
        ref = tower_reference(params, res)
        return lambda r: check_tower(params, r, ref)
    oracles = branch_oracles(params, res)
    return lambda r: check_branch(params, r, oracles)
