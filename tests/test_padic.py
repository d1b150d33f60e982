"""The p-adic primitives on integers mod p^k, and the test-only PadicScalar.

`unit_log_ratio` (an exact discrete log in base 1 + p) must equal
`series_unit_log_ratio` (the log series it replaced) on every input.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiscong.iwasawa import binomial_row, unit_log_ratio

from padic_oracles import PadicScalar, padic_log_1unit, series_unit_log_ratio, teichmuller


class TestScalar:
    def test_from_rational(self):
        x = PadicScalar.from_rational(Fraction(7, 3), 5, 8)
        assert x.v == 0 and x.abs_prec == 8
        assert x.residue_mod(8) == 7 * pow(3, -1, 5**8) % 5**8

    def test_valuations(self):
        assert PadicScalar.from_rational(50, 5, 10).valuation() == 2
        assert PadicScalar.from_rational(Fraction(1, 5), 5, 10).valuation() == -1
        with pytest.raises(ValueError):
            PadicScalar.zero(5, 6).valuation()

    def test_add_cancellation_tracks_precision(self):
        a = PadicScalar.from_rational(1, 5, 6)
        b = PadicScalar.from_rational(-1, 5, 6)
        z = a + b
        assert z.is_zero_to_precision() and z.abs_prec == 6

    def test_division_shifts_precision(self):
        a = PadicScalar.from_rational(25, 5, 10)
        b = PadicScalar.from_rational(5, 5, 10)
        q = a / b
        assert q.valuation() == 1 and q.residue_mod(5) == 5
        assert q.abs_prec == 9  # one digit spent on the divisor's valuation

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-400, 400), st.integers(-400, 400), st.integers(-400, 400))
    def test_ring_laws_match_exact(self, a, b, c):
        p, n = 5, 10
        fa = PadicScalar.from_rational(a, p, n)
        fb = PadicScalar.from_rational(b, p, n)
        fc = PadicScalar.from_rational(c, p, n)
        lhs = (fa + fb) * fc
        rhs = fa * fc + fb * fc
        assert lhs == rhs
        exact = (a + b) * c
        if exact:
            got = lhs
            assert got == PadicScalar.from_rational(exact, p, n)


class TestPrimitives:
    def test_teichmuller_fixed_points(self):
        for p in (5, 7, 13):
            for a in range(1, p):
                om = teichmuller(a, p, 10)
                assert om % p == a
                assert pow(om, p, p**10) == om
                assert pow(om, p - 1, p**10) == 1

    def test_log_is_homomorphism(self):
        p, w = 5, 10
        for x in (6, 26, 126, 21):
            for y in (6, 11, 31):
                lx = padic_log_1unit(x, p, w)
                ly = padic_log_1unit(y, p, w)
                lxy = padic_log_1unit(x * y % p ** (w + 3), p, w)
                assert (lx + ly - lxy) % 5**w == 0

    def test_log_ratio_examples(self):
        # 36 = 6^2 and omega(36) = 1, so log<36>/log 6 = 2
        assert unit_log_ratio(36, 5, 8) == 2
        assert unit_log_ratio(6, 5, 8) == 1
        # Teichmuller values have <x> = 1
        assert unit_log_ratio(teichmuller(3, 5, 12), 5, 8) == 0

    @pytest.mark.parametrize("p", (3, 5, 7, 101, 281, 4951, 13417))
    def test_log_ratio_equals_the_log_series(self, p):
        # seeded units x at w = 1..40; in base u = 1 + p, and in base u' through
        # log<x>/log u = (log<x>/log u') (log u'/log u), u' another generator of 1 + pZp
        rng = random.Random(p)
        u = (1 + 2 * p) * (1 + p * p) ** 3
        for w in range(1, 41):
            for _ in range(3):
                x = rng.randrange(1, p ** (w + 2))
                x += x % p == 0
                c = unit_log_ratio(x, p, w)
                assert c == series_unit_log_ratio(x, 1 + p, p, w), (x, w)
                assert c == series_unit_log_ratio(x, u, p, w) * unit_log_ratio(u, p, w) % p**w, \
                    (x, w)

    def test_log_ratio_rejects_a_non_unit(self):
        for x in (0, 5, 50):
            with pytest.raises(ValueError, match="unit"):
                unit_log_ratio(x, 5, 6)

    def test_binomial_row_integer_cases(self):
        import math

        row = binomial_row(10, 8, 5, 12)
        assert row == [math.comb(10, j) % 5**12 for j in range(8)]

    def test_binomial_row_negative_c(self):
        import math

        # C(c, j) = (-1)^j C(j - c - 1, j) for c < 0
        for c in (-1, -2, -7, -126):
            row = binomial_row(c, 9, 5, 6)
            assert row == [(-1) ** j * math.comb(j - c - 1, j) % 5**6 for j in range(9)]

    def test_binomial_row_padic_consistency(self):
        # C(c, j) mod p^w depends on c mod p^(w + v_p(j!)) only
        p, w = 5, 6
        c1 = 7
        c2 = 7 + p ** (w + 3)
        r1 = binomial_row(c1, 10, p, w)
        r2 = binomial_row(c2, 10, p, w)
        assert all((a - b) % p**w == 0 for a, b in zip(r1, r2))
