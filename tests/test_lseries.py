"""Bernoulli numbers, generalized Bernoulli numbers, exact L-values."""

from fractions import Fraction

from eiscong.arith import factorize
from eiscong.characters import kronecker_character, induce_quadratic
from eiscong.lseries import bernoulli_numbers, dirichlet_L_neg, gen_bernoulli, hecke_L_neg_induced
from eiscong.quadfield import make_field

from character_oracles import bernoulli_poly, bernoulli_sum, enumerate_characters
from ideal_oracles import enumerate_ideals


class TestBernoulli:
    def test_small_values(self):
        b = bernoulli_numbers(12)
        assert b[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
        assert b[12] == Fraction(-691, 2730)

    def test_odd_vanish(self):
        b = bernoulli_numbers(29)
        assert all(b[n] == 0 for n in range(3, 30, 2))

    def test_von_staudt_clausen_denominators(self):
        # denominator of B_{2k} is the product of primes p with (p-1) | 2k
        from eiscong.arith import primes_up_to

        b = bernoulli_numbers(22)
        for k in range(1, 12):
            want = 1
            for p in primes_up_to(2 * k + 2):
                if (2 * k) % (p - 1) == 0:
                    want *= p
            assert b[2 * k].denominator == want

    def test_distribution_relation(self):
        # sum_{j<m} B_n((x+j)/m) = m^(1-n) B_n(x)
        for n in (1, 2, 3):
            for m in (2, 3, 5):
                for x in (Fraction(1, 7), Fraction(2, 5)):
                    lhs = sum(bernoulli_poly(n, (x + j) / m) for j in range(m))
                    assert lhs == Fraction(m) ** (1 - n) * bernoulli_poly(n, x)


class TestGenBernoulli:
    def test_trivial(self):
        triv = kronecker_character(1)
        assert gen_bernoulli(triv, 2) == Fraction(1, 6)
        assert gen_bernoulli(triv, 1) == Fraction(1, 2)  # B_1(1)

    def test_chi5(self):
        chi = kronecker_character(5)
        assert gen_bernoulli(chi, 2) == Fraction(4, 5)
        assert gen_bernoulli(chi, 1) == 0  # even character, odd weight

    def test_parity_vanishing(self):
        # all primitive quadratics of conductor <= 100 via fundamental discs
        from eiscong.characters import is_fundamental_discriminant

        discs = [D for a in range(2, 101) for D in (a, -a)
                 if is_fundamental_discriminant(D)]
        assert len(discs) > 50
        for D in discs:
            chi = kronecker_character(D)
            for n in range(1, 7):
                if (chi.is_even() and n % 2 == 1) or \
                   (not chi.is_even() and n % 2 == 0):
                    assert gen_bernoulli(chi, n) == 0, (D, n)
        # spot-check the defining sum at higher-order primitive characters,
        # which no Kronecker character reaches
        for m in (5, 7, 13):
            for chi in enumerate_characters(m):
                if chi.order <= 2 or not chi.is_primitive():
                    continue
                for n in (1, 2):
                    b = bernoulli_sum(chi, n)
                    if (chi.is_even() and n % 2) or (not chi.is_even() and n % 2 == 0):
                        assert all(c == 0 for c in b.canonical()), (m, n)

    def test_fast_path_matches_slow(self):
        # the defining sum f^(n-1) sum_{a=1..f} chi(a) B_n(a/f), both parities
        for D in (1, 5, 8, 12, 1001, -3, -4, -8, -163):
            chi = kronecker_character(D)
            f = chi.conductor
            for n in range(1, 7):
                slow = Fraction(f) ** (n - 1) * sum(
                    chi(a) * bernoulli_poly(n, Fraction(a, f)) for a in range(1, f + 1))
                assert gen_bernoulli(chi, n) == slow, (D, n)


class TestLValues:
    def test_zeta_minus_one(self):
        triv = kronecker_character(1)
        assert dirichlet_L_neg(triv, 2).value == Fraction(-1, 12)

    def test_chi5(self):
        assert dirichlet_L_neg(kronecker_character(5), 2).value == Fraction(-2, 5)

    def test_dedekind_zeta_q_sqrt5(self):
        # zeta_{Q(sqrt 5)}(-1) = zeta(-1) L(-1, chi_5) = 1/30 (classical table)
        triv = kronecker_character(1)
        z = dirichlet_L_neg(triv, 2).value * dirichlet_L_neg(kronecker_character(5), 2).value
        assert z == Fraction(1, 30)

    def test_odd_chi3(self):
        assert dirichlet_L_neg(kronecker_character(-3), 1).value == Fraction(1, 3)

    def test_zeta_at_zero(self):
        # zeta(0) = -B_{1,chi_1} = -B_1(1) = -1/2; the pole of zeta is at s = 1
        rec = dirichlet_L_neg(kronecker_character(1), 1)
        assert (rec.s, rec.value) == (0, Fraction(-1, 2))

    def test_worked_example_value(self):
        f = make_field(2)
        eps = induce_quadratic(f, 20149)
        rec = hecke_L_neg_induced(eps, 2)
        assert rec.value == 2**2 * 5 * 281 * 4951 * 13417
        assert factorize(rec.value.numerator) == {2: 2, 5: 1, 281: 1, 4951: 1, 13417: 1}

    def test_parity_zero_product(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        assert hecke_L_neg_induced(eps, 1).value == 0  # both factors vanish

    def test_dirichlet_series_coefficient_identity(self):
        # sum_{N(a) <= B} eps(a) N(a)^m agrees with the Euler product of the
        # two Dirichlet factors, coefficientwise in the norm (second oracle)
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        bound = 500
        from collections import Counter

        lhs = Counter()
        for a in enumerate_ideals(f, bound):
            v = eps.value_on_ideal(a)
            if v:
                lhs[a.norm] += v
        # rhs: Dirichlet convolution of chi1(n) and chi2(n) over integers
        rhs = Counter()
        for n1 in range(1, bound + 1):
            c1 = eps.chi1(n1)
            if not c1:
                continue
            for n2 in range(1, bound // n1 + 1):
                c2 = eps.chi2(n2)
                if c2:
                    rhs[n1 * n2] += c1 * c2
        for n in range(1, bound + 1):
            assert lhs[n] == rhs[n], n
