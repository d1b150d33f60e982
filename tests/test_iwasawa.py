"""Lambda/mu invariants, Weierstrass preparation, Euler factors, evaluation."""

import random
import pytest
from hypothesis import given, settings, strategies as st

from eiscong.iwasawa import (
    IndistinguishableFromZero,
    IwasawaElement,
    digit_string,
    euler_factor,
    evaluate,
    lambda_mu,
    parse_digit_string,
    reflect,
    weierstrass_prepare,
)
from eiscong.padic import teichmuller


def random_certified(rng, p, N, M, max_mu=2, max_lam=5):
    """p^mu * distinguished * unit with unit leading digits, certified."""
    mu = rng.randrange(0, max_mu + 1)
    lam = rng.randrange(0, max_lam + 1)
    dist = [rng.randrange(0, p ** (N - max_mu)) * p % p**N for _ in range(lam)] + [1]
    d = IwasawaElement.from_integers(p, N, M, dist)
    unit = [rng.randrange(1, p)] + [rng.randrange(0, p**N) for _ in range(M - 1)]
    e = d * IwasawaElement.from_integers(p, N, M, unit)
    return IwasawaElement.from_integers(p, N, M, [c * p**mu for c in e.res]), mu, lam


class TestLambdaMu:
    def test_examples(self):
        f = IwasawaElement.from_integers(5, 10, 8, [5, 0, 1])
        assert lambda_mu(f) == (0, 2, True)
        g = IwasawaElement.from_integers(5, 10, 8, [5, 5])
        assert lambda_mu(g) == (1, 0, True)
        h = IwasawaElement.from_integers(5, 10, 8, [125, -30, 1])
        u = IwasawaElement.from_integers(5, 10, 8, [1, 3, 2, 1])
        assert lambda_mu(h * u) == (0, 2, True)

    def test_zero_raises(self):
        with pytest.raises(IndistinguishableFromZero):
            lambda_mu(IwasawaElement.zero(5, 8, 6))

    def test_uncertified_when_precision_hides(self):
        # coefficient 0 is O(p) while the best exact valuation is 2: a smaller
        # valuation could hide below the stated precision
        f = IwasawaElement(5, 1, 4, [0, 0, 25, 0], [1, 8, 8, 8])
        mu, lam, cert = lambda_mu(f)
        assert (mu, lam) == (2, 2)
        assert not cert
        # with enough precision on that coefficient the same data certifies
        g = IwasawaElement(5, 3, 4, [0, 0, 25, 0], [3, 8, 8, 8])
        assert lambda_mu(g) == (2, 2, True)

    def test_additivity_and_unit_invariance(self):
        # acceptance-grade bulk check lives in test_acceptance; spot here
        rng = random.Random(2024)
        for _ in range(200):
            p = rng.choice((5, 7))
            a, mua, lama = random_certified(rng, p, 12, 20)
            b, mub, lamb = random_certified(rng, p, 12, 20)
            assert lambda_mu(a) == (mua, lama, True)
            mu, lam, cert = lambda_mu(a * b)
            assert cert and (mu, lam) == (mua + mub, lama + lamb)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_additivity_property(self, data):
        p = data.draw(st.sampled_from([5, 7]))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        a, mua, lama = random_certified(rng, p, 10, 32)
        b, mub, lamb = random_certified(rng, p, 10, 32)
        mu, lam, cert = lambda_mu(a * b)
        assert cert and mu == mua + mub and lam == lama + lamb


class TestWeierstrass:
    def test_already_distinguished(self):
        f = IwasawaElement.from_integers(5, 10, 8, [-5, 0, 1])
        wd = weierstrass_prepare(f)
        assert (wd.mu, wd.lam) == (0, 2)
        assert wd.distinguished == [(-5) % 5**10, 0, 1]
        assert wd.unit.res[0] == 1
        assert all(c == 0 for c in wd.unit.res[1:])

    def test_unit_input(self):
        f = IwasawaElement.from_integers(5, 10, 8, [3, 1, 4])
        wd = weierstrass_prepare(f)
        assert (wd.mu, wd.lam) == (0, 0)
        assert wd.distinguished == [1]

    def test_factor_recovery(self):
        a = IwasawaElement.from_integers(5, 12, 10, [1, 1, 0, 5])
        b = IwasawaElement.from_integers(5, 12, 10, [-5, 1])
        wd = weierstrass_prepare(a * b)
        assert (wd.mu, wd.lam) == (0, 1)
        assert wd.distinguished == [(-5) % 5**12, 1]

    def test_reconstruction_identity(self):
        rng = random.Random(31)
        for _ in range(25):
            p = rng.choice((5, 7))
            f, mu, lam = random_certified(rng, p, 10, 16)
            wd = weierstrass_prepare(f)
            assert (wd.mu, wd.lam) == (mu, lam)
            prod = IwasawaElement.from_integers(p, wd.stated_N, 16, wd.distinguished) * wd.unit
            mod = p**wd.stated_N
            for j in range(16):
                assert (f.res[j] // p**mu - prod.res[j]) % mod == 0

    def test_unit_multiplication_invariance(self):
        rng = random.Random(99)
        f, mu, lam = random_certified(rng, 5, 12, 16)
        u = IwasawaElement.from_integers(5, 12, 16,
                                         [2] + [rng.randrange(0, 5**12) for _ in range(15)])
        assert lambda_mu(f * u)[:2] == (mu, lam)

    def test_precision_exhaustion(self):
        f = IwasawaElement.from_integers(5, 1, 6, [5 % 5, 0, 1])  # fine at N=1
        g = IwasawaElement(5, 1, 6, [0, 0, 1, 0, 0, 0], [1] * 6)
        wd = weierstrass_prepare(g)  # N-mu = 1 still works
        assert wd.lam == 2
        h = IwasawaElement(5, 2, 6, [5, 0, 5, 0, 0, 0], [2] * 6)
        # mu = 1 at N = 2 leaves one digit; lambda_mu certified, prepare works
        assert lambda_mu(h) == (1, 0, True)


class TestEulerFactor:
    def test_chi_zero_is_one(self):
        e = euler_factor(0, 9, 6, 5, 8, 6)
        assert e.res == [1, 0, 0, 0, 0, 0]

    def test_teichmuller_norm_constant(self):
        # <Nq> = 1 when Nq is a Teichmuller representative: c = 0 to working
        # precision and the factor is the constant 1 - chi/Nq
        nq = teichmuller(2, 5, 14)  # integer Teichmuller lift of 2
        e = euler_factor(1, nq, 6, 5, 8, 6)
        assert e.res[0] == (1 - pow(nq, -1, 5**8)) % 5**8
        assert all(c == 0 for c in e.res[1:])

    def test_square_of_generator(self):
        e = euler_factor(1, 36, 6, 5, 10, 8)
        inv36 = pow(36, -1, 5**10)
        assert e.res[0] == (1 - inv36) % 5**10
        assert e.res[1] == (-2 * inv36) % 5**10
        assert e.res[2] == (-inv36) % 5**10
        assert all(c == 0 for c in e.res[3:])

    def test_rejects_p_divisible(self):
        with pytest.raises(ValueError):
            euler_factor(1, 10, 6, 5, 8, 6)

    def test_lambda_of_factor(self):
        # 1 - a(1+T)^c is a unit iff 1 - a is; else lambda from T-coefficients
        e = euler_factor(1, 7, 6, 5, 10, 8)
        assert lambda_mu(e) == (0, 0, True)  # 1 - 1/7 = 6/7, a 5-adic unit
        e2 = euler_factor(1, 36, 6, 5, 10, 8)  # 36 = 1 mod 5: constant in 5Z
        assert lambda_mu(e2) == (0, 1, True)
        e3 = euler_factor(1, 841, 8, 7, 10, 8)  # 841 = 1 mod 7
        assert lambda_mu(e3) == (0, 1, True)
        # brute-force cross-check of the coefficient valuations
        inv36 = pow(36, -1, 5**10)
        assert (1 - inv36) % 5 == 0 and (2 * inv36) % 5 != 0

    def test_product_commutes_and_adds(self):
        e1 = euler_factor(1, 36, 6, 5, 10, 12)
        e2 = euler_factor(-1, 11, 6, 5, 10, 12)
        assert (e1 * e2).res == (e2 * e1).res
        l1 = lambda_mu(e1)[1]
        l2 = lambda_mu(e2)[1]
        assert lambda_mu(e1 * e2)[1] == l1 + l2


class TestEvaluate:
    def test_at_zero(self):
        f = IwasawaElement.from_integers(5, 8, 6, [1, 1])
        v = evaluate(f)
        assert v.residue_mod(8) == 1

    def test_euler_at_zero(self):
        e = euler_factor(1, 36, 6, 5, 8, 10)
        v = evaluate(e)
        assert v.residue_mod(8) == (1 - pow(36, -1, 5**8)) % 5**8

    def test_one_plus_T_at_zeta(self):
        f = IwasawaElement.from_integers(5, 8, 12, [1, 1])
        ev = evaluate(f, ("zeta", 1))
        assert ev.coeffs[:2] == [1, 1] and all(c == 0 for c in ev.coeffs[2:])

    def test_minimal_polynomial_vanishes_at_zeta(self):
        # (1+T)^(p^k) - 1 evaluates to zero at zeta of order p^k
        import math as _math

        for p, k in ((5, 1), (5, 2), (7, 1)):
            q = p**k
            coeffs = [_math.comb(q, j) for j in range(q + 1)]
            coeffs[0] -= 1
            f = IwasawaElement.from_integers(p, 6, q + 1, coeffs)
            ev = evaluate(f, ("zeta", k))
            mod = p**ev.prec if ev.prec else 1
            assert all(c % mod == 0 for c in ev.coeffs)

    def test_binomial_power_at_zeta(self):
        # (1+T)^c at zeta of order p is zeta^(c mod p)
        p, c = 5, 7
        from eiscong.padic import binomial_row

        row = binomial_row(c, 30, p, 8)
        f = IwasawaElement.from_integers(p, 8, 30, row)
        ev = evaluate(f, ("zeta", 1))
        # zeta^7 = zeta^2 = (1+X)^2 = 1 + 2X + X^2
        want = [1, 2, 1, 0]
        assert [c % 5**ev.prec for c in ev.coeffs] == [w % 5**ev.prec for w in want]


class TestReflection:
    def test_fixes_constant_term(self):
        rng = random.Random(17)
        f, _, _ = random_certified(rng, 5, 10, 14)
        assert reflect(f).res[0] == f.res[0]

    def test_involution(self):
        rng = random.Random(18)
        f, _, _ = random_certified(rng, 7, 8, 12)
        twice = reflect(reflect(f))
        assert all((twice.res[j] - f.res[j]) % 7**8 == 0 for j in range(12))

    def test_preserves_invariants(self):
        rng = random.Random(19)
        for _ in range(20):
            f, mu, lam = random_certified(rng, 5, 10, 16)
            assert lambda_mu(reflect(f))[:2] == (mu, lam)


class TestSerialization:
    def test_digit_strings_roundtrip(self):
        for p in (5, 7, 13):
            for val in (0, 1, p, p**3 + 2 * p + 4, p**6 - 1):
                s = digit_string(val, p, 8)
                assert parse_digit_string(s, p) == val

    def test_element_roundtrip(self):
        f = IwasawaElement.from_integers(5, 20, 64, [5, 0, 1, 7])
        g = IwasawaElement.from_json(f.to_json())
        assert g.res == f.res and g.t_prec == f.t_prec
        assert lambda_mu(g) == (0, 2, True)

    @pytest.mark.parametrize("obj", [
        [1, 2],                                              # not an object
        {"p": 5, "N": "4", "M": 6, "coeffs": ["1"]},         # N not an integer
        {"p": 5, "N": 4, "M": 6, "coeffs": [7]},             # not digit strings
        {"p": 6, "N": 4, "M": 6, "coeffs": ["1"]},           # p not prime
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1,5"]},         # digit >= p
        {"p": 5, "N": 4, "M": 2, "coeffs": ["1", "", "1"]},  # more than M
    ], ids=["not-object", "N-not-int", "coeff-not-str", "p-not-prime",
            "digit-out-of-range", "too-many-coeffs"])
    def test_malformed_input_rejected(self, obj):
        with pytest.raises(ValueError):
            IwasawaElement.from_json(obj)
