"""Eisenstein coefficient systems, Hecke relations, and the scanner."""

import random
from fractions import Fraction

import pytest

from eiscong import eisenstein
from eiscong.characters import HeckeCharacterQF, induce_quadratic
from eiscong.eisenstein import (
    CoefficientSystem,
    EisensteinSeries,
    eisenstein_coeffs,
    scan_congruence,
    stripped_eisenstein,
)
from eiscong.quadfield import ideal_pow, make_field, principal_ideal

from hecke_oracles import hecke_T, hecke_U, series_level
from ideal_oracles import coprime_to, enumerate_ideals, ideal_mul, prime_ideal


class _One:
    """An S-scalar that is 1 on every ideal, for synthetic coefficient systems."""

    def value_on_ideal(self, a):
        return 1


@pytest.fixture(scope="module")
def f2():
    return make_field(2)


@pytest.fixture(scope="module")
def e20149(f2):
    return stripped_eisenstein(f2, 20149)


class TestCoefficients:
    def test_normalized(self, f2, e20149):
        assert e20149.coefficient_at(principal_ideal(f2, 1)) == 1

    def test_inert_three(self, f2, e20149):
        i3 = principal_ideal(f2, 3)
        assert e20149.coefficient_at(i3) == 10
        assert e20149.coefficient_at(ideal_pow(i3, 2)) == 91

    def test_level_primes_vanish(self, f2, e20149):
        q = principal_ideal(f2, 20149)
        for pr in q.prime_factors():
            assert e20149.coefficient_at(pr) == 0

    def test_prime_formula(self, f2, e20149):
        # C(q) = eps(q) + N(q) at primes coprime to (m)
        for p in (3, 5, 7, 11, 13):
            for q in principal_ideal(f2, p).prime_factors():
                assert coprime_to(q, e20149.eps.modulus_ideal)
                want = e20149.eps.value_on_ideal(q) + q.norm
                assert e20149.coefficient_at(q) == want

    def test_multiplicativity(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 1000)
        ideals = sys.ideals()
        for a in ideals:
            for b in ideals:
                if a.norm * b.norm > 1000 or not coprime_to(a, b):
                    continue
                assert sys.at(ideal_mul(a, b)) == sys.at(a) * sys.at(b)

    def test_dirichlet_series_factorization(self, f2):
        # norm-indexed coefficients of E_2(eps, 1 mod (m)) are the convolution
        # of the eps-coefficients with N(a) over the ideals coprime to (m)
        from collections import Counter

        series = stripped_eisenstein(f2, 5)
        bound = 1000
        sys = eisenstein_coeffs(series, bound)
        got = Counter()
        for a in sys.ideals():
            got[a.norm] += sys.at(a)
        c1 = Counter()
        c2 = Counter()
        for a in enumerate_ideals(f2, bound):
            v1 = series.eps.value_on_ideal(a)
            if v1:
                c1[a.norm] += v1
            if coprime_to(a, series.eps.modulus_ideal):
                c2[a.norm] += a.norm
        conv = Counter()
        for n1, x in c1.items():
            for n2, y in c2.items():
                if n1 * n2 <= bound:
                    conv[n1 * n2] += x * y
        for n in range(1, bound + 1):
            assert got[n] == conv[n], n

    def test_prime_power_recursion(self, f2):
        # C(q^(e+1)) = C(q) C(q^e) - eps(q) N(q) C(q^(e-1)) away from the level
        series = stripped_eisenstein(f2, 5)
        eps = series.eps
        for p in (3, 7, 11):
            for q in principal_ideal(f2, p).prime_factors():
                cs = [series.coefficient_at(ideal_pow(q, e)) for e in range(5)]
                ev = eps.value_on_ideal(q)
                for e in range(1, 4):
                    assert cs[e + 1] == cs[1] * cs[e] - ev * q.norm * cs[e - 1]

    def test_no_character_call_per_ideal(self, f2, monkeypatch):
        # the walk evaluates no character per ideal and builds no value table
        # of chi1: eps(q) comes from p, and only the prime ideals over
        # p <= sqrt(bound) get Euler factors; the others are leaves
        series = stripped_eisenstein(f2, 20149)
        calls = {"value_on_ideal": 0, "local_factors": 0}
        tabled = []

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        def value_table(chi):
            tabled.append(chi)
            return real_table(chi)

        counted(HeckeCharacterQF, "value_on_ideal")
        counted(EisensteinSeries, "local_factors")
        real_table = eisenstein.value_table
        monkeypatch.setattr(eisenstein, "value_table", value_table)
        sys = eisenstein_coeffs(series, 2000)
        prime_ideals = [a for a in sys.coeffs if len(a.factors) == 1 and a.factors[0][2] == 1]
        below_root = [a for a in prime_ideals if a.factors[0][0] ** 2 <= 2000]
        assert calls == {"value_on_ideal": 0, "local_factors": len(below_root)}
        assert len(below_root) == 19 and len(prime_ideals) < len(sys.coeffs) // 4
        assert [chi.D for chi in tabled] == [f2.disc]  # the splitting table alone
        monkeypatch.undo()
        for a, c in sys.coeffs.items():
            assert series.coefficient_at(a) == c, str(a)


class TestHecke:
    def test_T_moves_coefficients(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 400)
        q = prime_ideal(f2, 3)
        img = hecke_T(sys, q, series.eps, series_level(series), 400)
        assert img.at(principal_ideal(f2, 1)) == sys.at(q)
        # C(q, sys|T(q)) = C(q^2) + N(q) eps(q) C((1))
        ev = series.eps.value_on_ideal(q)
        assert img.at(q) == sys.at(ideal_pow(q, 2)) + q.norm * ev * sys.at(principal_ideal(f2, 1))

    def test_T_rejects_level_prime(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 700)
        q5 = principal_ideal(f2, 5).prime_factors()[0]
        with pytest.raises(ValueError):
            hecke_T(sys, q5, series.eps, series_level(series), 700)

    def test_U_shift(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 700)
        q5 = principal_ideal(f2, 5).prime_factors()[0]
        img = hecke_U(sys, q5, series_level(series), 700)
        for m in img.ideals():
            assert img.at(m) == sys.at(ideal_mul(m, q5))
        with pytest.raises(ValueError):
            hecke_U(sys, prime_ideal(f2, 3), series_level(series), 700)

    def test_images_keep_the_norm_order(self, f2):
        # ideals() is insertion order: (norm, factors) from eisenstein_coeffs,
        # kept by T(q) and U(q)
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 700)
        q5 = principal_ideal(f2, 5).prime_factors()[0]
        for img in (sys, hecke_T(sys, prime_ideal(f2, 3), series.eps, series_level(series), 700),
                    hecke_U(sys, q5, series_level(series), 700)):
            assert img.ideals() == sorted(img.coeffs, key=lambda i: (i.norm, i.factors))

    def test_U_square_is_U_of_square(self, f2):
        # U(q)^2 = U(q^2) as operators, on a random system
        rng = random.Random(11)
        ideals = enumerate_ideals(f2, 625)
        q5 = principal_ideal(f2, 5).prime_factors()[0]
        coeffs = {a: Fraction(rng.randrange(-50, 50)) for a in ideals}
        level = ideal_pow(q5, 2)
        once = hecke_U(hecke_U(CoefficientSystem(coeffs), q5, level, 625), q5, level, 25)
        # U(q^2) directly: C(m) -> C(m q^2)
        for m in once.ideals():
            assert once.at(m) == coeffs[ideal_mul(m, level)]

    def test_commutativity_on_random_systems(self, f2):
        rng = random.Random(5)
        ideals = enumerate_ideals(f2, 441)
        coeffs = {a: Fraction(rng.randrange(-9, 9)) for a in ideals}
        sys, one, level = CoefficientSystem(coeffs), _One(), principal_ideal(f2, 1)
        q3, q7 = prime_ideal(f2, 3), prime_ideal(f2, 7)
        ab = hecke_T(hecke_T(sys, q3, one, level, 441), q7, one, level, 441 // q3.norm)
        ba = hecke_T(hecke_T(sys, q7, one, level, 441), q3, one, level, 441 // q7.norm)
        assert ab.coeffs == ba.coeffs


def t_eigen_failures(series, sys, q, bound):
    """Ideals m with (T(q) sys)(m) != C(q) sys(m) on the shrunken bound."""
    lam = series.coefficient_at(q)
    image = hecke_T(sys, q, series.eps, series_level(series), bound)
    return [m for m in image.ideals() if image.at(m) != lam * sys.at(m)]


class TestEigenform:
    def test_eigen_under_T(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 600)
        q = prime_ideal(f2, 3)
        assert hecke_T(sys, q, series.eps, series_level(series), 600).ideals()
        assert t_eigen_failures(series, sys, q, 600) == []

    def test_corrupted_coefficient_reported(self, f2):
        series = stripped_eisenstein(f2, 5)
        sys = eisenstein_coeffs(series, 600)
        q = prime_ideal(f2, 3)
        bad = dict(sys.coeffs)
        victim = principal_ideal(f2, 7)
        bad[victim] = bad[victim] + 1
        assert victim in t_eigen_failures(series, CoefficientSystem(bad), q, 600)


class TestScan:
    def test_worked_example(self, f2):
        reports = scan_congruence(f2, 20149)
        cands = [r.p for r in reports if r.verdict == "candidate"]
        assert cands == [281, 4951, 13417]
        rejected = {r.p: r for r in reports if r.verdict == "rejected"}
        assert set(rejected) == {5}
        assert not rejected[5].iota1_check
        for r in reports:
            if r.verdict == "candidate":
                assert r.hypothesis_b and r.hypothesis_c
                assert r.residue_unit_check and r.iota1_check and r.unit_order_check

    @pytest.mark.parametrize("d,m", [(2, 20149), (5, 12001)])
    def test_hypothesis_b_reduces_to_the_norm_test(self, d, m):
        # every level prime lies over a prime dividing m, where eps and 1_(m)
        # vanish, so C(q) = 0 and (b) reads p does not divide N(q), which the
        # p | m filter already guarantees
        field = make_field(d)
        series = stripped_eisenstein(field, m)
        level_primes = series_level(series).prime_factors()
        assert level_primes
        for q in level_primes:
            assert m % q.factors[0][0] == 0
            assert series.coefficient_at(q) == 0
        reports = scan_congruence(field, m)
        assert reports
        for r in reports:
            assert r.hypothesis_b
            assert r.hypothesis_b == any(q.norm % r.p for q in level_primes)

    def test_small_m(self, f2):
        # m = 5: the candidate set is whatever the exact L-value yields
        from eiscong.arith import factorize
        from eiscong.lseries import hecke_L_neg_induced

        eps = induce_quadratic(f2, 5)
        val = hecke_L_neg_induced(eps, 2).value
        reports = scan_congruence(f2, 5)
        fac = set(factorize(val.numerator))
        expect = {p for p in fac if p > 4 and 48 % p and p != 5}
        assert {r.p for r in reports} == expect

    def test_all_small_factors_filtered(self, f2):
        # a value of the form +-2^a 3^b yields an empty report list
        from unittest import mock
        from eiscong import eisenstein as eis
        from eiscong.lseries import LValueRecord

        fake = LValueRecord(-1, Fraction(-48))
        with mock.patch.object(eis, "hecke_L_neg_induced", return_value=fake):
            assert scan_congruence(f2, 5) == []

    def test_sweep_many_conductors(self, f2):
        # pipeline robustness: every odd squarefree m = 1 mod 4 coprime to 2
        # below 60 scans cleanly and verdicts agree with the checks
        from eiscong.arith import is_squarefree

        for m in range(5, 60, 4):
            if not is_squarefree(m):
                continue
            for r in scan_congruence(f2, m):
                checks = (r.hypothesis_b and r.hypothesis_c and r.residue_unit_check
                          and r.iota1_check and r.unit_order_check)
                assert (r.verdict == "candidate") == checks

    def test_unfactored_cofactor_reported(self, f2):
        # a resistant semiprime cofactor produces the "unfactored" report
        from unittest import mock
        from eiscong import eisenstein as eis
        from eiscong.arith import is_prime
        from eiscong.lseries import LValueRecord

        def next_prime(n):
            n += 1
            while not is_prime(n):
                n += 1
            return n

        hard = next_prime(2**82) * next_prime(2**83 + 9)
        fake = LValueRecord(-1, Fraction(hard))
        with mock.patch.object(eis, "hecke_L_neg_induced", return_value=fake):
            reports = scan_congruence(f2, 5, rho_iters=50)
        assert len(reports) == 1
        assert reports[0].verdict == "unfactored"
