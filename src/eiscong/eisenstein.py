"""The Eisenstein series E_2(eps, 1 mod (m)), its coefficients, the scanner.

The series has coefficients C(a) = sum_{c | a} eps(a/c) 1_(m)(c) N(c), with
1_(m) the trivial character modulo (m): every Euler factor at a prime over
m is removed.  A coefficient system maps the integral ideals of norm <= bound
to their exact coefficients.

The scanner reproduces the worked congruence-prime search: candidate primes
divide the exact value L_F(-1, eps), then must pass the level-coefficient
test, the residue-unit-group and index coprimality tests, and the
fundamental-unit order test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

from .arith import factorize, primes_up_to
from .characters import HeckeCharacterQF, induce_quadratic, kronecker_character, value_table
from .lseries import LValueRecord, hecke_L_neg_induced
from .quadfield import (
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


def _ideal_walk(field: RealQuadraticField, bound: int) -> tuple[list, list]:
    """The prime ideals q of norm <= bound, and one walk over their powers.

    `primes` lists (p, tag, N(q), [(N(q)^e, (p, tag, e)) for N(q)^e <= bound])
    in increasing (p, tag) order, named by `primes_over` from (disc_F | p)
    read off chi_disc's value table.  `rows` are (norm, factors, start,
    parent), parents first, row 0 the unit ideal with parent None.  A row is
    extended only by powers of primes[j] for j >= start, into a child with
    start j + 1, so the new factor keeps the tuple sorted and each ideal is
    reached once.  N(q) >= p, so a row's scan stops at the first p with
    norm * p > bound.
    """
    kron = value_table(kronecker_character(field.disc))
    primes = []
    for p in primes_up_to(bound):
        for tag, nrm in primes_over(p, kron[p % field.disc]):
            pw, qe = [], nrm
            while qe <= bound:
                pw.append((qe, (p, tag, len(pw) + 1)))
                qe *= nrm
            if pw:
                primes.append((p, tag, nrm, pw))
    rows: list[tuple[int, tuple, int, int | None]] = [(1, (), 0, None)] if bound >= 1 else []
    for i, (n, factors, start, _) in enumerate(rows):  # rows appended here are visited too
        for j in range(start, len(primes)):
            if n * primes[j][0] > bound:
                break
            for qe, pe in primes[j][3]:
                if n * qe > bound:
                    break
                rows.append((n * qe, factors + (pe,), j + 1, i))
    return primes, rows


def eisenstein_coeffs(series: EisensteinSeries, bound: int) -> CoefficientSystem:
    """Coefficients C(a) for N(a) <= bound, keyed in (norm, factors) order.

    C is multiplicative, and a row of `_ideal_walk` is its parent
    times a power q^e of a prime not dividing it, so C(row) = C(parent)
    L_e(q), with each q's `local_factors` computed once from eps(q) = chi1(N(q))
    read off chi1's value table: no character is evaluated per ideal.
    """
    field, table = series.eps.field, value_table(series.eps.chi1)
    primes, rows = _ideal_walk(field, bound)
    local = [series.local_factors(p, table[nq % len(table)], nq, bound) for p, _, nq, _ in primes]
    cs: list[int] = []
    for _, factors, start, parent in rows:
        cs.append(1 if parent is None else cs[parent] * local[start - 1][factors[-1][2]])
    order = sorted(range(len(rows)), key=rows.__getitem__)
    coeffs = {IdealQF(field.d, rows[i][1]): cs[i] for i in order}
    return CoefficientSystem(coeffs)


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


def scan_congruence(field: RealQuadraticField, m: int, *,
                    rho_iters: int = 200000) -> list[CongruenceReport]:
    """Candidate congruence primes for the weight-2 Eisenstein series at (m).

    Candidates are the prime divisors of the exact value L_F(-1, eps)
    surviving the filters (p | 6 Delta_F, p <= 4, p | m); each then faces
    the level-coefficient test (b), the residue-unit and index-coprimality
    tests, and the totally-positive-unit order test.  Verdict "candidate"
    means every implemented check passed; cohomology torsion-freeness
    remains an explicit unchecked assumption.

    Test (b) asks C(q) != N(q) mod p at some level prime q.  Every level
    prime lies over a prime dividing m, where eps and 1_(m) vanish, so
    C(q) = 0 and (b) reads p does not divide N(q): the p | m filter already
    implies it, and `hypothesis_b` is true on every report.
    """
    lrec = hecke_L_neg_induced(induce_quadratic(field, m), 2)
    fac = factorize(lrec.value.numerator, rho_iters=rho_iters)
    if fac is None:
        return [CongruenceReport(field.d, m, 0, str(lrec.value), None,
                                 False, False, False, False, False,
                                 verdict="unfactored")]
    return scan_factored(lrec, fac)


def scan_factored(lrec: LValueRecord, fac: dict[int, int]) -> list[CongruenceReport]:
    """The per-prime checks of scan_congruence, given L_F(-1, eps) factored.

    lrec is hecke_L_neg_induced(eps, 2) for eps = induce_quadratic(field, m),
    and fac the factorization of its numerator; one report per prime that
    passes the filters, in increasing order.  The level is (m)^2.  Since
    C(q) = 0 at every level prime q, hyp_b is p not dividing N(q), implied
    by the p | m filter (see scan_congruence).
    """
    eps = lrec.character
    field, m = eps.field, eps.aux_m
    lstr = str(lrec.value)
    series = EisensteinSeries(eps)
    m_sq = ideal_pow(eps.modulus_ideal, 2)
    level_primes = m_sq.prime_factors()
    iota1 = index_iota1(field, m_sq)
    unit_count = m_sq.residue_unit_count()

    reports = []
    for p in sorted(fac):
        if p <= 4 or (6 * field.disc) % p == 0 or m % p == 0:
            continue
        hyp_b = any((series.coefficient_at(q) - q.norm) % p != 0 for q in level_primes)
        hyp_c = lrec.value != 0 and fac.get(p, 0) >= 1
        res_ok = unit_count % p != 0
        iota_ok = iota1 % p != 0
        unit_ok = unit_power_check(field, p, iota1) == "coprime"
        ok = hyp_b and hyp_c and res_ok and iota_ok and unit_ok
        reports.append(CongruenceReport(
            field.d, m, p, lstr, sorted([q, e] for q, e in fac.items()),
            hyp_b, hyp_c, res_ok, iota_ok, unit_ok,
            verdict="candidate" if ok else "rejected",
        ))
    return reports
