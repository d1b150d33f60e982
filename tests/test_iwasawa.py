"""Lambda/mu invariants, Weierstrass preparation, Euler factors, serialization."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eiscong.arith import val_p
from eiscong.characters import kronecker_character
from eiscong.iwasawa import (
    IndistinguishableFromZero,
    IwasawaElement,
    digit_string,
    euler_factor,
    lambda_mu,
    parse_digit_string,
    reflect,
    weierstrass_prepare,
)
from eiscong.measures import kubota_leopoldt

from padic_oracles import random_series, teichmuller


class TestLambdaMu:
    def test_examples(self):
        f = IwasawaElement.from_integers(5, 10, 8, [5, 0, 1])
        assert lambda_mu(f) == (0, 2, True)
        # 5 + 5T reads mu = 1, but a unit at T^8 or later would make mu = 0
        g = IwasawaElement.from_integers(5, 10, 8, [5, 5])
        assert lambda_mu(g) == (1, 0, False)
        h = IwasawaElement.from_integers(5, 10, 8, [125, -30, 1])
        u = IwasawaElement.from_integers(5, 10, 8, [1, 3, 2, 1])
        assert lambda_mu(h * u) == (0, 2, True)

    def test_zero_raises(self):
        with pytest.raises(IndistinguishableFromZero):
            lambda_mu(IwasawaElement.from_integers(5, 8, 6, []))

    def test_uncertified_when_precision_hides(self):
        # coefficient 0 is O(1) while T^2 has a unit: a unit could hide at T^0
        f = IwasawaElement(5, [0, 0, 1, 0], [0, 8, 8, 8])
        assert lambda_mu(f) == (0, 2, False)
        # with one digit on that coefficient the same data certifies
        g = IwasawaElement(5, [0, 0, 1, 0], [1, 8, 8, 8])
        assert lambda_mu(g) == (0, 2, True)

    def test_additivity_and_unit_invariance(self):
        # acceptance-grade bulk check lives in test_acceptance; spot here
        rng = random.Random(2024)
        for _ in range(200):
            p = rng.choice((5, 7))
            mua, mub = rng.randrange(3), rng.randrange(3)
            a, lama = random_series(rng, p, 12, 20, mua)
            b, lamb = random_series(rng, p, 12, 20, mub)
            assert lambda_mu(a) == (mua, lama, mua == 0)
            assert lambda_mu(a * b) == (mua + mub, lama + lamb, mua + mub == 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_additivity_property(self, data):
        p = data.draw(st.sampled_from([5, 7]))
        mua, mub = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        a, lama = random_series(rng, p, 10, 32, mua)
        b, lamb = random_series(rng, p, 10, 32, mub)
        assert lambda_mu(a * b) == (mua + mub, lama + lamb, mua + mub == 0)

    @pytest.mark.parametrize("p,N,M", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 2, 1)])
    def test_certificate_holds_for_every_completion(self, p, N, M):
        # every truncation with coefficients r + O(p^k), k <= N; a coefficient
        # completes to r + p^k t (t < p^2) and the unknown T^M to 0, p or the
        # unit 1.  A certified (mu, lambda) must be that of every completion.
        stated = [(r, k) for k in range(N + 1) for r in range(p**k)]
        wrong_before = 0  # certified by the rule that ignored T^M, yet wrong
        for coeffs in product(stated, repeat=M):
            res, prec = [r for r, _ in coeffs], [k for _, k in coeffs]
            try:
                mu, lam, cert = lambda_mu(IwasawaElement(p, res, prec))
            except IndistinguishableFromZero:
                continue
            if not (cert or all(k > mu for r, k in coeffs if not r)):
                continue
            rows = [[r + p**k * t for t in range(p**2)] for r, k in coeffs] + [[0, p, 1]]
            # N + 2 stands for v(0): a nonzero completion coefficient has v <= N + 1
            vals = [[val_p(c, p) if c else N + 2 for c in comp] for comp in product(*rows)]
            found = {(min(v), v.index(min(v))) for v in vals if min(v) <= N + 1}
            if cert:
                assert found == {(mu, lam)}, (res, prec)
            else:
                wrong_before += found != {(mu, lam)}
        assert wrong_before > 0

    def test_truncated_branch_is_not_certified(self):
        # below T^3 every coefficient of the chi_7144 omega^2 branch at p = 13 is
        # divisible by 13, and T^3 is a unit: M = 3 must not certify mu = 1
        chi = kronecker_character(7144)
        assert lambda_mu(kubota_leopoldt(chi, 13, 2, 3, omega_power=2)) == (1, 0, False)
        assert lambda_mu(kubota_leopoldt(chi, 13, 2, 4, omega_power=2)) == (0, 3, True)


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
        # mu > 0 is never certified, so preparation refuses it
        rng = random.Random(31)
        for _ in range(40):
            p, mu = rng.choice((5, 7)), rng.randrange(3)
            f, lam = random_series(rng, p, 10, 16, mu)
            if mu:
                with pytest.raises(ValueError):
                    weierstrass_prepare(f)
                continue
            wd = weierstrass_prepare(f)
            assert (wd.mu, wd.lam) == (0, lam)
            n = min(wd.unit.prec)
            prod = IwasawaElement.from_integers(p, n, 16, wd.distinguished) * wd.unit
            mod = p**n
            for j in range(16):
                assert (f.res[j] - prod.res[j]) % mod == 0

    def test_only_the_product_is_stated_to_N_digits(self):
        # f = (T^2 - 5) V with V a unit: the identity f = P U holds mod
        # (5^6, T^M) at every M, but P = T^2 - 5 is right mod 5^6 only from
        # M = 12 on; the unknown tail past T^M costs P digits below that
        dist = [-5, 0, 1]
        unit = [2, 1, 3, 0, 1, 4, 0, 2, 1, 3]
        coeffs = [sum(dist[i] * unit[k - i] for i in range(3) if 0 <= k - i < 10)
                  for k in range(12)]
        mod = 5**6
        digits = {}
        for M in (6, 8, 12, 16):
            f = IwasawaElement.from_integers(5, 6, M, coeffs)
            wd = weierstrass_prepare(f)
            prod = IwasawaElement.from_integers(5, 6, M, wd.distinguished) * wd.unit
            assert (wd.lam, min(wd.unit.prec)) == (2, 6)
            assert all((f.res[j] - prod.res[j]) % mod == 0 for j in range(M))
            digits[M] = min(val_p((c - d) % mod or mod, 5)
                            for c, d in zip(wd.distinguished, dist))
        assert digits == {6: 3, 8: 4, 12: 6, 16: 6}

    def test_unit_multiplication_invariance(self):
        rng = random.Random(99)
        u = IwasawaElement.from_integers(5, 12, 16,
                                         [2] + [rng.randrange(0, 5**12) for _ in range(15)])
        for mu in (0, 2):
            f, lam = random_series(rng, 5, 12, 16, mu)
            assert lambda_mu(f * u) == (mu, lam, mu == 0)

    def test_precision_exhaustion(self):
        g = IwasawaElement(5, [0, 0, 1, 0, 0, 0], [1] * 6)
        wd = weierstrass_prepare(g)  # one digit still works
        assert (wd.lam, min(wd.unit.prec)) == (2, 1)
        h = IwasawaElement(5, [5, 0, 5, 0, 0, 0], [2] * 6)
        # mu = 1 is read off, but a truncation never certifies it, so prepare refuses
        assert lambda_mu(h) == (1, 0, False)
        with pytest.raises(ValueError):
            weierstrass_prepare(h)


class TestEulerFactor:
    def test_chi_zero_is_one(self):
        e = euler_factor(0, 9, 5, 8, 6)
        assert e.res == [1, 0, 0, 0, 0, 0]

    def test_teichmuller_norm_constant(self):
        # <Nq> = 1 when Nq is a Teichmuller representative: c = 0 to working
        # precision and the factor is the constant 1 - chi/Nq
        nq = teichmuller(2, 5, 14)  # integer Teichmuller lift of 2
        e = euler_factor(1, nq, 5, 8, 6)
        assert e.res[0] == (1 - pow(nq, -1, 5**8)) % 5**8
        assert all(c == 0 for c in e.res[1:])

    def test_square_of_generator(self):
        e = euler_factor(1, 36, 5, 10, 8)
        inv36 = pow(36, -1, 5**10)
        assert e.res[0] == (1 - inv36) % 5**10
        assert e.res[1] == (-2 * inv36) % 5**10
        assert e.res[2] == (-inv36) % 5**10
        assert all(c == 0 for c in e.res[3:])

    def test_rejects_p_divisible(self):
        with pytest.raises(ValueError):
            euler_factor(1, 10, 5, 8, 6)

    def test_lambda_of_factor(self):
        # 1 - a(1+T)^c is a unit iff 1 - a is; else lambda from T-coefficients
        e = euler_factor(1, 7, 5, 10, 8)
        assert lambda_mu(e) == (0, 0, True)  # 1 - 1/7 = 6/7, a 5-adic unit
        e2 = euler_factor(1, 36, 5, 10, 8)  # 36 = 1 mod 5: constant in 5Z
        assert lambda_mu(e2) == (0, 1, True)
        e3 = euler_factor(1, 841, 7, 10, 8)  # 841 = 1 mod 7
        assert lambda_mu(e3) == (0, 1, True)
        # brute-force cross-check of the coefficient valuations
        inv36 = pow(36, -1, 5**10)
        assert (1 - inv36) % 5 == 0 and (2 * inv36) % 5 != 0

    def test_product_commutes_and_adds(self):
        e1 = euler_factor(1, 36, 5, 10, 12)
        e2 = euler_factor(-1, 11, 5, 10, 12)
        assert (e1 * e2).res == (e2 * e1).res
        l1 = lambda_mu(e1)[1]
        l2 = lambda_mu(e2)[1]
        assert lambda_mu(e1 * e2)[1] == l1 + l2


class TestEvaluate:
    def test_at_zero(self):
        # the value at T = 0 is res[0], known mod p^prec[0]
        f = IwasawaElement.from_integers(5, 8, 6, [1 + 5**8, 1])
        assert (f.res[0], f.prec[0]) == (1, 8)

    def test_euler_at_zero(self):
        e = euler_factor(1, 36, 5, 8, 10)
        assert e.res[0] == (1 - pow(36, -1, 5**8)) % 5**8


class TestReflection:
    def test_fixes_constant_term(self):
        rng = random.Random(17)
        f, _ = random_series(rng, 5, 10, 14)
        assert reflect(f).res[0] == f.res[0]

    def test_involution(self):
        rng = random.Random(18)
        f, _ = random_series(rng, 7, 8, 12)
        twice = reflect(reflect(f))
        assert all((twice.res[j] - f.res[j]) % 7**8 == 0 for j in range(12))

    def test_preserves_invariants(self):
        rng = random.Random(19)
        for _ in range(20):
            mu = rng.randrange(3)
            f, lam = random_series(rng, 5, 10, 16, mu)
            assert lambda_mu(reflect(f)) == (mu, lam, mu == 0)


def random_element(rng, p, N, M):
    """Random residues; uniform precision N or per-coefficient precisions."""
    prec = [N] * M if rng.random() < 0.5 else [rng.randrange(N + 1) for _ in range(M)]
    res = [rng.randrange(p**N) for _ in range(M)]
    return IwasawaElement(p, res, prec)


def plus(f, c):
    """f + c for an integer c, at the precision of f."""
    return IwasawaElement(f.p, [f.res[0] + c] + f.res[1:], f.prec)


class TestClosedFormsAgainstOracles:
    def test_reflect_is_horner_substitution(self):
        # f(s) = f_0 + s (f_1 + s (f_2 + ...)) with s = (1+T)^-1 - 1, by products
        rng = random.Random(41)
        for _ in range(60):
            p = rng.choice((3, 5, 7, 11))
            N, M = rng.randint(1, 8), rng.randint(1, 20)
            f = random_element(rng, p, N, M)
            n = f.min_prec()

            def const(c):
                return IwasawaElement.from_integers(p, n, M, [c])

            s = IwasawaElement.from_integers(p, n, M, [0] + [(-1) ** k for k in range(1, M)])
            one_plus_t = IwasawaElement.from_integers(p, n, M, [1, 1])
            assert (plus(s, 1) * one_plus_t).res == const(1).res
            acc = const(f.res[M - 1])
            for j in range(M - 2, -1, -1):
                acc = plus(acc * s, f.res[j])
            got = reflect(f)
            # coefficient i >= 1 depends on f_1..f_i only: prefix minimum
            assert got.prec == [f.prec[0]] + [min(f.prec[1:i + 1]) for i in range(1, M)]
            assert all((g - a) % p**n == 0 for g, a in zip(got.res, acc.res))
            # each coefficient at its stated precision: the same Horner
            # oracle, uniform at that precision, on f_0..f_i
            for i, k in enumerate(got.prec):
                def const_k(c):
                    return IwasawaElement.from_integers(p, k, i + 1, [c])

                s_k = IwasawaElement.from_integers(
                    p, k, i + 1, [0] + [(-1) ** j for j in range(1, i + 1)])
                acc_k = const_k(f.res[i])
                for j in range(i - 1, -1, -1):
                    acc_k = plus(acc_k * s_k, f.res[j])
                assert got.res[i] == acc_k.res[i], (i, k)

    def test_reflect_ignores_digits_below_stated_precision(self):
        # changing an input digit at or above its precision leaves every
        # output coefficient unchanged at the precision reflect states
        rng = random.Random(44)
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            f = random_element(rng, p, rng.randint(1, 6), rng.randint(1, 14))
            got = reflect(f)
            noisy = IwasawaElement(p, [r + rng.randrange(1, p**3) * p**k
                                       for r, k in zip(f.res, f.prec)],
                                   [k + 3 for k in f.prec])
            again = reflect(noisy)
            assert all((a - b) % p**k == 0
                       for a, b, k in zip(got.res, again.res, got.prec))

    def test_reflect_keeps_bridge_precision(self):
        # a Gamma-transform with mixed precision keeps it through reflect
        from eiscong.measures import (
            StabilizationParams, bernoulli_family, stabilize, to_iwasawa_series)

        fam = stabilize(bernoulli_family(1, 5, 4), StabilizationParams(1, 1))
        ser = to_iwasawa_series(fam, kronecker_character(1), 2, 6, 8, 12)
        assert ser.prec == [8, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0]
        assert reflect(ser).prec == ser.prec


class TestSerialization:
    def test_digit_strings_roundtrip(self):
        for p in (5, 7, 13):
            for val in (0, 1, p, p**3 + 2 * p + 4, p**6 - 1):
                s = digit_string(val, p, 8)
                assert parse_digit_string(s, p) == val

    def test_leading_zeros_accepted(self):
        assert parse_digit_string("0001,2", 5) == 11
        assert parse_digit_string("0" * 1000 + "12", 13) == 12

    def test_element_roundtrip(self):
        f = IwasawaElement.from_integers(5, 20, 64, [5, 0, 1, 7])
        g = IwasawaElement.from_json(f.to_json())
        assert g.res == f.res and g.t_prec == f.t_prec
        assert lambda_mu(g) == (0, 2, True)

    def test_short_digit_strings_stand_for_precision_n(self):
        g = IwasawaElement.from_json({"p": 5, "N": 3, "M": 4, "coeffs": ["0,1", "", "1,2,3,4"]})
        assert g.res == [5, 0, 1 + 2 * 5 + 3 * 25 + 4 * 125, 0]
        assert g.prec == [3, 3, 4, 3]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_precision_roundtrip(self, seed):
        rng = random.Random(seed)
        p = rng.choice((3, 5, 7, 11))
        f = random_element(rng, p, rng.randint(0, 6), rng.randint(1, 12))
        g = IwasawaElement.from_json(f.to_json())
        assert (g.res, g.prec, g.t_prec) == (f.res, f.prec, f.t_prec)

    @pytest.mark.parametrize("m0,D,p,V,N,M,omega_power", [
        (12, 12, 5, 5, 6, 12, 1), (8, 8, 5, 4, 3, 10, 3), (13, 13, 7, 4, 5, 9, 1),
        (5, 5, 3, 6, 4, 12, 1), (1, 1, 5, 4, 8, 12, 2), (3, -3, 5, 6, 8, 12, 0),
    ])
    def test_bridge_series_roundtrip(self, m0, D, p, V, N, M, omega_power):
        # the bridge states fewer digits at higher T-degree; to_json writes
        # them all and N = their minimum, and from_json reads them all back
        from eiscong.measures import StabilizationParams, bernoulli_family, stabilize, \
            to_iwasawa_series

        stab = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
        f = to_iwasawa_series(stab, kronecker_character(D), omega_power, 1 + p, N, M)
        assert len(set(f.prec)) > 1
        g = IwasawaElement.from_json(f.to_json())
        assert (g.res, g.prec) == (f.res, f.prec)
        assert g.to_json() == f.to_json()

    @pytest.mark.parametrize("obj", [
        [1, 2],                                              # not an object
        {"p": 5, "N": "4", "M": 6, "coeffs": ["1"]},         # N not an integer
        {"p": 5, "N": 4, "M": 6, "coeffs": [7]},             # not digit strings
        {"p": 6, "N": 4, "M": 6, "coeffs": ["1"]},           # p not prime
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1,5"]},         # digit >= p
        {"p": 5, "N": 4, "M": 2, "coeffs": ["1", "", "1"]},  # more than M
        {"p": 5, "N": 4, "M": 0, "coeffs": []},              # no coefficient
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1"], "pole_factor": "no"},
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1"], "pole_factor": []},
        {"p": 5, "N": 4, "M": 6, "coeffs": ["+1"]},          # a sign, which int() reads
        {"p": 5, "N": 4, "M": 6, "coeffs": [" 1 "]},         # spaces
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1,\t2"]},       # a tab
        {"p": 5, "N": 4, "M": 6, "coeffs": ["\u0661"]},      # an Arabic-Indic digit
        {"p": 11, "N": 4, "M": 6, "coeffs": ["1_0"]},        # 1_0, which int() reads as 10
        {"p": 5, "N": 4, "M": 6, "coeffs": ["1,,2"]},        # an empty digit
        {"p": 13, "N": 4, "M": 6, "coeffs": ["100"]},        # longer than p - 1
    ], ids=["not-object", "N-not-int", "coeff-not-str", "p-not-prime",
            "digit-out-of-range", "too-many-coeffs", "M-zero", "pole-factor-str",
            "pole-factor-list", "digit-sign", "digit-spaces", "digit-tab",
            "digit-arabic-indic", "digit-underscore", "digit-empty", "digit-too-long"])
    def test_malformed_input_rejected(self, obj):
        with pytest.raises(ValueError):
            IwasawaElement.from_json(obj)
