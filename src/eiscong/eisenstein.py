"""The Eisenstein series E_2(eps, 1 mod (m)), its coefficients, the scanner.

The series has coefficients C(a) = sum_{c | a} eps(a/c) 1_(m)(c) N(c), with
1_(m) the trivial character modulo (m): every Euler factor at a prime over
m is removed.  A coefficient system maps the integral ideals of norm <= bound
to their exact coefficients.

`congruence_stages` runs the worked congruence-prime search in one pass:
the exact value L_F(-1, eps), its factorization, then the level-coefficient,
residue-unit-group, index-coprimality and fundamental-unit order tests on
each candidate prime divisor.  `scan_congruence` is its report list.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import repeat
from math import isqrt
from operator import add, mul
from typing import ClassVar

from .arith import factorize, kronecker, primes_up_to
from .characters import HeckeCharacterQF, induce_quadratic, kronecker_character, value_table
from .lseries import LValueRecord, hecke_L_neg_induced
from .quadfield import (
    RAMIFIED,
    SPLIT1,
    SPLIT2,
    IdealQF,
    RealQuadraticField,
    ideal_pow,
    index_iota1,
    primes_over,
    unit_power_check,
)


@dataclass(frozen=True)
class EisensteinSeries:
    """Weight-2 Eisenstein series E_2(eps, 1 mod (m)) of level (m)^2, (m) eps's modulus."""

    eps: HeckeCharacterQF

    def local_factors(self, p: int, ev: int, nq: int, bound: int) -> list[int]:
        """[L_0, L_1, ...], the Euler factors of C at q^e for N(q)^e <= bound.

        q is a prime over p with eps(q) = ev and N(q) = nq.  L_0 = 1, then
        L_e = 0 when q divides (m), else L_e = eps(q) L_(e-1) + N(q)^e.
        """
        out, qe = [1], nq
        while qe <= bound:
            out.append(0 if self.eps.aux_m % p == 0 else ev * out[-1] + qe)
            qe *= nq
        return out

    def coefficient_at(self, a: IdealQF):
        """C(a) = sum_{c | a} eps(a/c) 1_(m)(c) N(c), as an Euler product.

        eps and 1_(m) are completely multiplicative, so C is multiplicative and a
        prime power q^e in a contributes L_e of `local_factors`.
        """
        acc = 1
        for q, (p, _, e) in zip(a.prime_factors(), a.factors):
            acc *= self.local_factors(p, self.eps.value_on_ideal(q), q.norm, q.norm**e)[e]
        return acc


@dataclass
class CoefficientSystem:
    """Fourier coefficients C(a) for N(a) <= bound.

    coeffs is kept in (norm, factors) order, the order `eisenstein_coeffs`
    inserts its keys in.
    """

    coeffs: dict

    def at(self, a: IdealQF):
        return self.coeffs[a]

    def ideals(self):
        """The keys of coeffs in insertion order, (norm, factors)."""
        return list(self.coeffs)


def eisenstein_coeffs(series: EisensteinSeries, bound: int) -> CoefficientSystem:
    """Coefficients C(a) for N(a) <= bound, keyed in (norm, factors) order.

    One depth-first walk over the prime ideals q of norm <= bound, in
    increasing (p, tag) order, reaches every ideal once: an ideal is
    extended only by powers q^e of later primes, so its factor tuple stays
    sorted.  C is multiplicative, so the child gets C(parent) L_e(q) as it
    is made.  The splitting of p is read off chi_disc's value table, and
    eps(q) = chi1(N(q)) is taken from p: no character is evaluated per
    ideal and no value table of chi1 is built.

    A prime ideal over p <= max(2, sqrt(bound)) gets its `local_factors`,
    from eps(q) = (D1 | p)^f with D1 = chi1.D and f its degree, and its
    powers.  One over an odd p > sqrt(bound) is a leaf of norm p (an inert
    one makes nothing) with L_1 = eps(q) + p, where Euler's criterion
    r = D1^((p-1)/2) mod p is 1 or p - 1 for eps(q) = 1 or -1, and 0 iff
    p | D1, iff q | (m), where L_1 = 0.  A node of norm n visits the primes
    with p^2 <= bound/n one by one, descending only when the next prime
    fits; a later q adds at most the leaf of norm n p (N(q) = p <= bound/n),
    and those leaves are appended by C-level passes over a slice.
    """
    if bound < 1:
        return CoefficientSystem({})
    field, D1 = series.eps.field, series.eps.chi1.D
    kron = value_table(kronecker_character(field.disc))
    primes = primes_up_to(bound)
    small = bisect_right(primes, max(2, isqrt(bound)))
    # ps[j]: p of the j-th prime ideal q over a small p, then the p of the
    # next leaf; steps[j]: its (N(q)^e, ((p, tag, e),), L_e); leaf_*: N(q),
    # ((p, tag, 1),) and L_1 of each q of norm p, first[j] of them before the j-th
    ps, steps, first, leaf_n, leaf_f, leaf_c = [], [], [], [], [], []
    for p in primes[:small]:
        chi = kronecker(D1, p)
        for tag, nq in primes_over(p, kron[p % field.disc]):
            local = series.local_factors(p, chi if nq == p else chi * chi, nq, bound)
            ps.append(p)
            first.append(len(leaf_n))
            steps.append([(nq**e, ((p, tag, e),), local[e]) for e in range(1, len(local))])
            if nq == p:
                leaf_n.append(p)
                leaf_f.append(((p, tag, 1),))
                leaf_c.append(local[1])
    first.append(len(leaf_n))
    for p in primes[small:]:
        st = kron[p % field.disc]
        if st >= 0:
            r = pow(D1, p >> 1, p)
            c = p + 1 if r == 1 else p - 1 if r else 0
            for tag in (SPLIT1, SPLIT2) if st else (RAMIFIED,):
                leaf_n.append(p)
                leaf_f.append(((p, tag, 1),))
                leaf_c.append(c)
    ps.append(leaf_n[first[-1]] if len(leaf_n) > first[-1] else bound + 1)
    norms, facs, cs = [1], [()], [1]

    def descend(start: int, n: int, factors: tuple, c: int) -> None:
        top = bound // n
        split = max(start, bisect_right(ps, isqrt(top)))
        for j in range(start, split):
            for qe, pe, le in steps[j]:
                nc = n * qe
                if nc > bound:
                    break
                child, cc = factors + pe, c * le
                norms.append(nc)
                facs.append(child)
                cs.append(cc)
                if nc * ps[j + 1] <= bound:
                    descend(j + 1, nc, child, cc)
        lo, hi = first[split], bisect_right(leaf_n, top)
        norms.extend(map(mul, repeat(n), leaf_n[lo:hi]))
        facs.extend(map(add, repeat(factors), leaf_f[lo:hi]))
        cs.extend(map(mul, repeat(c), leaf_c[lo:hi]))

    descend(0, 1, (), 1)
    # preorder emits the factor tuples in increasing order (a prefix before
    # its extensions, siblings in (p, tag, e) order), so a stable sort on the
    # norm alone gives the (norm, factors) order; tuple.__new__ builds the
    # keys without IdealQF's Python-level constructor
    order = sorted(range(len(norms)), key=norms.__getitem__)
    keys = map(tuple.__new__, repeat(IdealQF), zip(repeat(field.d), map(facs.__getitem__, order)))
    return CoefficientSystem(dict(zip(keys, map(cs.__getitem__, order))))


@dataclass
class CongruenceReport:
    """Per-prime verdict for the congruence-prime hypotheses."""

    d: int
    m: int
    p: int
    lvalue: str
    lvalue_factorization: list | None
    hypothesis_b: bool
    hypothesis_c: bool
    residue_unit_check: bool
    iota1_check: bool
    unit_order_check: bool
    verdict: str
    label: ClassVar[str] = "surrogate-candidate"
    unchecked: ClassVar[tuple] = (
        "cohomology torsion-freeness (hypothesis (a)) is assumed, not computed",
        "the residue-unit condition stands in for the undefined o_{F,n}^{x2} index",
    )

    def to_json(self) -> dict:
        return {**asdict(self), "label": self.label,
                "unchecked_assumptions": list(self.unchecked)}


def stripped_eisenstein(field: RealQuadraticField, m: int) -> EisensteinSeries:
    """E_2(eps, 1 mod (m)): both Euler factors at the level primes removed."""
    return EisensteinSeries(induce_quadratic(field, m))


def congruence_stages(eps: HeckeCharacterQF, rho_iters: int
                      ) -> tuple[LValueRecord, dict[int, int] | None, list[CongruenceReport]]:
    """Stages 1-2 for eps = induce_quadratic(field, m): (L-value, factorization, reports).

    Stage 1 is L_F(-1, eps), exact, and the factorization of its numerator;
    if rho gives up within rho_iters, the factorization is None and the one
    report is "unfactored".  Stage 2 reports each prime divisor that passes
    the filters (p | 6 Delta_F, p <= 4, p | m), in increasing order, with the
    level-coefficient test (b), the residue-unit and index-coprimality tests
    and the totally-positive-unit order test; "candidate" means all passed.
    Cohomology torsion-freeness remains an explicit unchecked assumption.

    (b) asks C(q) != N(q) mod p at some prime q of the level (m)^2.  Each
    such q lies over a prime dividing m, where eps and 1_(m) vanish, so
    C(q) = 0 and (b) reads p not dividing N(q), which the p | m filter
    implies: `hypothesis_b` is true on every report.
    """
    lrec = hecke_L_neg_induced(eps, 2)
    fac = factorize(lrec.value.numerator, rho_iters=rho_iters)
    field, m, lstr = eps.field, eps.aux_m, str(lrec.value)
    if fac is None:
        return lrec, None, [CongruenceReport(field.d, m, 0, lstr, None,
                                             False, False, False, False, False,
                                             verdict="unfactored")]
    fac_list = sorted([q, e] for q, e in fac.items())
    series = EisensteinSeries(eps)
    m_sq = ideal_pow(eps.modulus_ideal, 2)
    level_primes = m_sq.prime_factors()
    iota1 = index_iota1(field, m_sq)
    unit_count = m_sq.residue_unit_count()

    reports = []
    for p, _ in fac_list:
        if p <= 4 or (6 * field.disc) % p == 0 or m % p == 0:
            continue
        hyp_b = any((series.coefficient_at(q) - q.norm) % p != 0 for q in level_primes)
        hyp_c = lrec.value != 0 and fac.get(p, 0) >= 1
        res_ok = unit_count % p != 0
        iota_ok = iota1 % p != 0
        unit_ok = unit_power_check(field, p, iota1) == "coprime"
        ok = hyp_b and hyp_c and res_ok and iota_ok and unit_ok
        reports.append(CongruenceReport(
            field.d, m, p, lstr, fac_list, hyp_b, hyp_c, res_ok, iota_ok, unit_ok,
            verdict="candidate" if ok else "rejected",
        ))
    return lrec, fac, reports


def scan_congruence(field: RealQuadraticField, m: int, *,
                    rho_iters: int = 200000) -> list[CongruenceReport]:
    """The reports of `congruence_stages` for the weight-2 Eisenstein series at (m)."""
    return congruence_stages(induce_quadratic(field, m), rho_iters)[2]
