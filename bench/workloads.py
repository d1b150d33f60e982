"""Seeded inputs and the timed operations of the four workloads.

Each workload is a list of strata of near-equal cost.  One round draws a
fixed number of operations from each stratum, so every seed gives the same
mix of operation sizes and the batch time depends little on the seed; the
seed picks the inputs inside each stratum.  A round holds an odd number of
operations, most of them in one stratum, and a batch an odd number
of rounds, so the median operation falls among many of similar cost.

The package sees only the generated plain integers.  An operation returns
the objects the checks need and nothing larger, so big intermediate tables
are freed inside the timed region, as a caller would pay for them.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass

from eiscong import measures
from eiscong.arith import factorize
from eiscong.characters import induce_quadratic, kronecker_character
from eiscong.eisenstein import eisenstein_coeffs, scan_congruence, stripped_eisenstein
from eiscong.iwasawa import IwasawaElement, lambda_mu, weierstrass_prepare
from eiscong.lseries import hecke_L_neg_induced
from eiscong.measures import (
    DRResult,
    StabilizationParams,
    bernoulli_family,
    check_distribution,
    deligne_ribet_induced,
    stabilize,
    to_iwasawa_series,
)
from eiscong.quadfield import make_field, principal_ideal

HEADLINE = (2, 20149)

# census: narrow-class-number-one fields (the h_F^+ = 1 input contract) and
# strata of (Kronecker terms, operations per field and round).  A conductor
# divisible by 4 counts half, since every even term of its loop is a cheap
# zero; the second stratum holds the headline's 20149 + 161192 / 2.
CENSUS_FIELDS = (2, 5, 13, 17, 29)
CENSUS_STRATA = ((72_000, 1), (100_745, 2))
STRATUM_WIDTH = 0.02  # relative spread of the size inside a stratum
CENSUS_BOUND = 1500  # Eisenstein coefficients up to this ideal norm

# branch workloads: verify-example defaults N = 2, M = 6 over Q(sqrt 2).
# branch-conductor is the headline pair at p = 5, then, for each p in
# BRANCH_CONDUCTOR_M, BRANCH_CONDUCTOR_DRAWN operations on a prime
# m = 1 mod 4 (conductors m, 8m) within BRANCH_WIDTH of the size that makes
# f0 * p near 157k table cells, about 1.2 s.  branch-prime draws
# BRANCH_PRIME_OPS distinct (m, p) pairs of near-equal cost from
# BRANCH_PRIME_M x BRANCH_PRIME_P.  No two operations of a batch share both
# m and p, so none finds a (character, p) power table left by an earlier one.
# Many operations of one size keep the median operation steady.
BRANCH_N, BRANCH_M = 2, 6
BRANCH_HEADLINE_P = 5
BRANCH_CONDUCTOR_M = {5: 3500, 7: 2500}
BRANCH_CONDUCTOR_DRAWN = 4
BRANCH_WIDTH = 0.04
BRANCH_PRIME_M = (13, 17, 29, 37, 41)
BRANCH_PRIME_P = (101, 103, 107)
BRANCH_PRIME_OPS = 7

# tower: (p, depth V, discriminants D > 0 with phi(D) equal and chi_D(p) = -1,
# so every choice has the same unit count and a nonzero bridge, operations
# per round)
TOWER_STRATA = ((5, 5, (13, 28), 1), (5, 6, (8, 12), 5), (7, 5, (5, 12), 1))
TOWER_M = 8  # every coefficient below T^8 keeps >= 1 certified digit at these depths

# seconds one round takes on the reference machine (see bench/NOTES.md); the
# batch holds the odd number of rounds closest to --seconds / ROUND_S
ROUND_S = {"census": 10.0, "tower": 10.0}


def _odd_rounds(seconds: float, round_s: float) -> int:
    return max(1, 2 * round((seconds / round_s - 1) / 2) + 1)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _branch_m(rng: random.Random, p: int, taken: set[int]) -> int:
    """A prime m = 1 mod 4 near BRANCH_CONDUCTOR_M[p], not yet in the batch."""
    lo = int(BRANCH_CONDUCTOR_M[p] * (1 - BRANCH_WIDTH))
    hi = int(BRANCH_CONDUCTOR_M[p] * (1 + BRANCH_WIDTH))
    while True:
        m = rng.randrange(lo, hi + 1)
        if m % 4 == 1 and m not in taken and _is_prime(m):
            taken.add(m)
            return m


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _field_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _census_m(rng: random.Random, d: int, target: int) -> int:
    """Odd squarefree m prime to disc(F) with about `target` Kronecker terms."""
    r = rng.choice((1, 3))
    # cond(m) is m or 4m, cond(dm) is dm or 4dm; a multiple of 4 counts half
    c = (1 if r == 1 else 2) + (d if d * r % 4 == 1 else 2 * d)
    lo = int(target / c * (1 - STRATUM_WIDTH))
    hi = int(target / c * (1 + STRATUM_WIDTH))
    while True:
        m = rng.randrange(lo, hi + 1)
        if (m % 4 == r and math.gcd(m, _field_disc(d)) == 1 and _squarefree(m)
                and (d, m) != HEADLINE):
            return m


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The batch of operation inputs for one run; same seed, same batch."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict] = []
    if workload == "census":
        for k in range(_odd_rounds(seconds, ROUND_S[workload])):
            for target, count in CENSUS_STRATA:
                for d in CENSUS_FIELDS:
                    for j in range(count):
                        if k == j == 0 and (d, target) == (HEADLINE[0], CENSUS_STRATA[1][0]):
                            m = HEADLINE[1]
                        else:
                            m = _census_m(rng, d, target)
                        ops.append({"d": d, "m": m, "bound": CENSUS_BOUND})
    elif workload == "branch-conductor":
        pairs = [(HEADLINE[1], BRANCH_HEADLINE_P)]
        taken = {HEADLINE[1]}
        for p in sorted(BRANCH_CONDUCTOR_M):
            pairs += [(_branch_m(rng, p, taken), p) for _ in range(BRANCH_CONDUCTOR_DRAWN)]
        ops = [{"d": 2, "m": m, "p": p, "N": BRANCH_N, "M": BRANCH_M} for m, p in pairs]
    elif workload == "branch-prime":
        pairs = [(m, p) for m in BRANCH_PRIME_M for p in BRANCH_PRIME_P]
        ops = [{"d": 2, "m": m, "p": p, "N": BRANCH_N, "M": BRANCH_M}
               for m, p in rng.sample(pairs, BRANCH_PRIME_OPS)]
    elif workload == "tower":
        for _ in range(_odd_rounds(seconds, ROUND_S[workload])):
            for p, depth, discs, count in TOWER_STRATA:
                for _ in range(count):
                    ops.append({"D": rng.choice(discs), "p": p, "V": depth,
                                "N": depth - 2, "M": TOWER_M})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# operations


@dataclass
class CensusResult:
    conductors: tuple[int, int]
    value: object  # Fraction
    factorization: dict | None
    reports: list
    coeffs: object  # CoefficientSystem


def census_op(t, d: int, m: int, bound: int) -> CensusResult:
    """The verify-example front end: L-value, factorization, scan, coefficients."""
    field = t.call("quadfield.make_field", make_field, d)
    eps = t.call("characters.induce_quadratic", induce_quadratic, field, m)
    rec = t.call("lseries.hecke_L_neg_induced", hecke_L_neg_induced, eps, 2)
    fac = t.call("arith.factorize", factorize, rec.value.numerator)
    reports = t.call("eisenstein.scan_congruence", scan_congruence, field, m)
    series = t.call("eisenstein.stripped_eisenstein", stripped_eisenstein, field, m)
    coeffs = t.call("eisenstein.eisenstein_coeffs", eisenstein_coeffs, series, bound)
    return CensusResult((eps.chi1.conductor, eps.chi2.conductor), rec.value, fac,
                        reports, coeffs)


@dataclass
class BranchResult:
    chi1: object
    chi2: object
    sigma0_norms: list[int]
    dr: DRResult
    dr_s: float  # the deligne_ribet_induced call alone


def branch_op(t, d: int, m: int, p: int, N: int, M: int) -> BranchResult:
    """deligne_ribet_induced for the pair induced from (d, m), stripping (m).

    The call is the same traced or not; traced_parts splits it into spans.
    """
    field = t.call("quadfield.make_field", make_field, d)
    eps = t.call("characters.induce_quadratic", induce_quadratic, field, m)
    sigma0 = t.call("quadfield.principal_ideal", principal_ideal, field, m).prime_factors()
    start = time.perf_counter()
    dr = t.call("measures.deligne_ribet_induced", deligne_ribet_induced,
                eps, None, sigma0, p, N, M)
    dr_s = time.perf_counter() - start
    return BranchResult(eps.chi1, eps.chi2, [q.norm for q in sigma0], dr, dr_s)


def traced_parts(t, workload: str) -> ExitStack:
    """Spans around the public calls deligne_ribet_induced makes, while open.

    The names it looks up in eiscong.measures, and IwasawaElement's product,
    are replaced by traced wrappers, so the spans fall in the order the
    function uses them: both kubota_leopoldt calls, the Euler factors and
    products, then lambda_mu.  Each kubota_leopoldt call is repeated at once
    as a warm probe, whose span does not count toward the batch time.
    Untraced, and on the other workloads, nothing is replaced.
    """
    stack = ExitStack()
    if t.enabled and workload.startswith("branch"):
        stack.enter_context(t.patched(measures, "kubota_leopoldt", "measures.kubota_leopoldt",
                                      probe="probe.kubota_leopoldt_warm"))
        stack.enter_context(t.patched(measures, "euler_factor", "iwasawa.euler_factor"))
        stack.enter_context(t.patched(measures, "lambda_mu", "iwasawa.lambda_mu"))
        stack.enter_context(t.patched(IwasawaElement, "__mul__", "iwasawa.mul"))
    return stack


@dataclass
class TowerResult:
    chi: object
    report: object  # DistributionReport
    bridge: object  # IwasawaElement
    lambda_mu: tuple
    weierstrass: object  # WeierstrassData


def tower_op(t, D: int, p: int, V: int, N: int, M: int) -> TowerResult:
    """Bernoulli family, stabilization, distribution check, series bridge."""
    chi = t.call("characters.kronecker_character", kronecker_character, D)
    fam = t.call("measures.bernoulli_family", bernoulli_family, D, p, V)
    stab = t.call("measures.stabilize", stabilize, fam, StabilizationParams(1, 1))
    del fam
    rep = t.call("measures.check_distribution", check_distribution, stab)
    bridge = t.call("measures.to_iwasawa_series", to_iwasawa_series,
                    stab, chi, 1, 1 + p, N, M)
    del stab
    lm = t.call("iwasawa.lambda_mu", lambda_mu, bridge)
    wd = t.call("iwasawa.weierstrass_prepare", weierstrass_prepare, bridge)
    return TowerResult(chi, rep, bridge, lm, wd)


OPS = {"census": census_op, "branch-conductor": branch_op,
       "branch-prime": branch_op, "tower": tower_op}


# ---------------------------------------------------------------------------
# serialized results and counts


def serialize(workload: str, params: dict, res) -> dict:
    """The operation's result in the package's own JSON forms."""
    if workload == "census":
        v = res.value
        return {
            "params": params,
            "value": f"{v.numerator}/{v.denominator}",
            "factorization": None if res.factorization is None
            else sorted([q, e] for q, e in res.factorization.items()),
            "scan": [r.to_json() for r in res.reports],
            "coeffs": [[a.to_json(), int(res.coeffs.at(a))] for a in res.coeffs.ideals()],
        }
    if workload == "tower":
        wd = res.weierstrass
        return {
            "params": params,
            "distribution": [res.report.ok, res.report.cells_checked],
            "bridge": res.bridge.to_json(),
            "lambda_mu": list(res.lambda_mu),
            "weierstrass": [wd.mu, wd.lam, wd.distinguished, wd.unit.to_json()],
        }
    dr = res.dr
    return {
        "params": params,
        "series": dr.series.to_json(),
        "factor1": dr.factor1.to_json(),
        "factor2": dr.factor2.to_json(),
        "euler": [e.to_json() for e in dr.euler_factors],
        "parts": {k: list(v) for k, v in sorted(dr.lambda_mu_parts.items())},
        "additivity": dr.additivity,
    }


def tallies(workload: str, params: dict, res) -> dict[str, float]:
    """Work counts of one operation, read from its inputs and results, and
    on the branch workloads the time of its deligne_ribet_induced call."""
    if workload == "census":
        cands = sum(r.verdict == "candidate" for r in res.reports)
        return {"lseries.character_terms": sum(res.conductors),
                "eisenstein.ideals": len(res.coeffs.coeffs),
                "arith.factorize.unfactored": int(res.factorization is None),
                "scan.candidates": cands,
                "scan.primes_tested": len(res.reports)}
    if workload == "tower":
        return {"measures.check_distribution.cells": res.report.cells_checked}
    # computed, not measured: one table cell per a <= f0 * p for each branch
    return {"measures.power_cells": params["p"] * (res.chi1.conductor + res.chi2.conductor),
            "measures.deligne_ribet_induced.s": res.dr_s}
