"""Distribution identities, interpolation pairing, and the series bridge."""

import math
from fractions import Fraction

import pytest

from eiscong.characters import (
    CycSum,
    DirichletCharacter,
    kronecker_character,
    induce_quadratic,
    primitive_characters,
)
from eiscong.iwasawa import lambda_mu, reflect
from eiscong.lseries import gen_bernoulli
from eiscong.measures import (
    StabilizationParams,
    bernoulli_family,
    bridge_certified_precision,
    check_distribution,
    delta_family,
    deligne_ribet_induced,
    kl_value_at_zero,
    kubota_leopoldt,
    pair_with_character,
    stabilize,
    to_iwasawa_series,
)
from eiscong.padic import PadicScalar, teichmuller
from eiscong.quadfield import make_field, principal_ideal


def inverse_char(eta: DirichletCharacter) -> DirichletCharacter:
    if eta.kind != "generic":
        return eta
    e = eta.zeta_order
    return DirichletCharacter.generic(eta.modulus, tuple(-k % e for k in eta.log_values))


class TestBernoulliFamily:
    def test_level_one_values(self):
        fam = bernoulli_family(1, 5, 2)
        assert fam.value(1, 1) == Fraction(1, 5) - Fraction(1, 2)

    def test_b1_symmetry(self):
        fam = bernoulli_family(3, 5, 3)
        for nu in (1, 2, 3):
            q = fam.level_modulus(nu)
            for a in fam.values[nu]:
                assert fam.value(q - a, nu) == -fam.value(a, nu)

    def test_plain_distribution_sum_oracle(self):
        # sum_{j<5} B1((a + j M)/(5M)) = B1(a/M) for M = 1..12, direct rationals
        def b1(x):
            return x - Fraction(1, 2)

        for M in range(1, 13):
            for a in range(M):
                lhs = sum(b1(Fraction(a + j * M, 5 * M)) for j in range(5))
                assert lhs == b1(Fraction(a, M))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bernoulli_family(5, 5, 3)
        with pytest.raises(ValueError):
            bernoulli_family(3, 5, 0)


class TestDistribution:
    @pytest.mark.parametrize("p", (5, 7))
    @pytest.mark.parametrize("m0", (1, 3, 4))
    def test_plain_family(self, p, m0):
        rep = check_distribution(bernoulli_family(m0, p, 4))
        assert rep.ok

    @pytest.mark.parametrize("p", (5, 7))
    @pytest.mark.parametrize("m0", (1, 3, 4))
    @pytest.mark.parametrize("eps", (0, 1, -1))
    def test_stabilizations(self, p, m0, eps):
        fam = stabilize(bernoulli_family(m0, p, 4), StabilizationParams(1, eps))
        assert check_distribution(fam).ok

    def test_perturbed_cell_reported(self):
        fam = bernoulli_family(3, 5, 3)
        a0 = sorted(fam.values[2])[1]
        fam.values[2][a0] += 1
        rep = check_distribution(fam)
        assert not rep.ok
        assert rep.first_failure[0] == 1  # the level below the perturbation

    def test_zero_family_passes(self):
        fam = bernoulli_family(3, 5, 3).map_values(lambda v: Fraction(0))
        assert check_distribution(fam).ok

    def test_stabilize_idempotence_on_scaling(self):
        # eps_p = 0 families: stabilize by alpha then alpha' = once by alpha*alpha'
        fam = bernoulli_family(3, 5, 3)
        a1, a2 = Fraction(2), Fraction(3)
        twice = stabilize(stabilize(fam, StabilizationParams(a1, 0)),
                          StabilizationParams(a2, 0))
        once = stabilize(fam, StabilizationParams(a1 * a2, 0))
        for nu in range(4):
            assert twice.values[nu] == once.values[nu]

    def test_alpha_must_be_unit(self):
        fam = bernoulli_family(3, 5, 2)
        with pytest.raises(ValueError):
            stabilize(fam, StabilizationParams(Fraction(5), 1))


class TestPairing:
    def test_odd_primitive_matches_gen_bernoulli(self):
        checked = 0
        for p in (5, 7):
            for m0 in (1, 3, 4):
                fam = bernoulli_family(m0, p, 4)
                for nu in range(5):
                    M = fam.level_modulus(nu)
                    if M == 1 or M > 140:
                        continue
                    for eta in primitive_characters(M):
                        if eta.is_even():
                            continue
                        got = pair_with_character(fam, eta)
                        inv = inverse_char(eta)
                        want = gen_bernoulli(inv, 1)
                        if nu == 0:
                            want = _apply_bottom_euler(want, inv, p)
                        _assert_exact_equal(got, want)
                        checked += 1
        assert checked >= 90

    def test_even_pairs_to_zero(self):
        fam = bernoulli_family(3, 5, 3)
        for eta in primitive_characters(15):
            if not eta.is_even():
                continue
            got = pair_with_character(fam, eta)
            if isinstance(got, CycSum):
                assert all(c == 0 for c in got.canonical())
            else:
                assert got == 0

    def test_imprimitive_degenerates_to_zero(self):
        from eiscong.characters import enumerate_characters

        fam = bernoulli_family(3, 5, 3)
        imp = [c for c in enumerate_characters(15) if c.conductor < 15]
        assert imp
        assert pair_with_character(fam, imp[0]) == 0

    def test_level_mismatch_raises(self):
        fam = bernoulli_family(3, 5, 2)
        with pytest.raises(ValueError):
            pair_with_character(fam, kronecker_character(8))


def _apply_bottom_euler(want, inv, p):
    if isinstance(want, CycSum):
        fac = CycSum(want.e)
        fac.add_term(0, Fraction(1))
        ev = inv.value_exp(p)
        if ev is not None:
            fac.add_term(ev, Fraction(-1))
        return want * fac
    return want * (1 - Fraction(inv(p)))


def _assert_exact_equal(got, want):
    if isinstance(got, CycSum) and isinstance(want, CycSum):
        assert got.equals(want)
    elif isinstance(got, CycSum):
        can = got.canonical()
        assert all(c == 0 for c in can[1:]) and can[0] == want
    elif isinstance(want, CycSum):
        can = want.canonical()
        assert all(c == 0 for c in can[1:]) and can[0] == got
    else:
        assert got == want


class TestSeriesBridge:
    def test_delta_measure_is_constant_one(self):
        fam = delta_family(3, 5, 3, at=1)
        ser = to_iwasawa_series(fam, DirichletCharacter.trivial(1), 0, 6, 8, 12)
        assert ser.res[0] == 1
        assert all(c == 0 for c in ser.res[1:])

    def test_zero_family(self):
        fam = bernoulli_family(3, 5, 3).map_values(lambda v: Fraction(0))
        ser = to_iwasawa_series(fam, DirichletCharacter.trivial(1), 1, 6, 8, 12)
        assert all(c == 0 for c in ser.res)

    def test_unbounded_family_rejected(self):
        fam = bernoulli_family(3, 5, 3)
        with pytest.raises(ValueError):
            to_iwasawa_series(fam, kronecker_character(-3), 1, 6, 8, 12)

    @pytest.mark.parametrize("p,D,m0", [(5, 12, 12), (5, 8, 8), (7, 12, 12)])
    def test_transform_is_minus_reflected_kl(self, p, D, m0):
        # Gamma-transform of the stabilized family at branch chi*omega equals
        # -(1 - chi(p)) reflect(KL_chi) at every certified digit
        chi = kronecker_character(D)
        V, N, M = 4, 10, 16
        stab = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
        tr = to_iwasawa_series(stab, chi, 1, 1 + p, N, M)
        kl = kubota_leopoldt(chi, p, N, M)
        want = reflect(kl).scale(-(1 - chi(p)))
        d0 = tr.coefficient(0) - want.coefficient(0)
        assert d0.is_zero_to_precision() and d0.abs_prec >= N - 2
        for j in range(1, M):
            cert = bridge_certified_precision(V, p, j, N)
            if cert:
                assert (tr.res[j] - want.res[j]) % p**cert == 0, j


class TestTransformEvaluation:
    def test_r_action_contract(self):
        # fraction-times-p: level nu >= 1 drops a level, the bottom twists by p
        fam = bernoulli_family(3, 5, 3)
        assert fam.r_action(7, 2) == (7, 1)
        assert fam.r_action(22, 1) == (22 % 3, 0)
        assert fam.r_action(2, 0) == (10 % 3, 0)

    def test_zeta_evaluation_matches_exact_pairing(self):
        # evaluate(transform, zeta of order p) equals the exact wild-twisted
        # pairing at level m0 p^2, embedded into the (zeta - 1) basis; this
        # is the artifact form of the measure/series interpolation theorem
        from eiscong.iwasawa import evaluate
        from eiscong.padic import unit_log_ratio

        p, m0, V, N, M = 5, 3, 6, 8, 12
        chi = kronecker_character(-3)
        stab = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
        tr = to_iwasawa_series(stab, chi, 0, 1 + p, N, M)
        ev = evaluate(tr, ("zeta", 1))
        # exact side: sum over (Z/m0 p^2)^x of chi(a) zeta^(l(a) mod p) mu_2(a)
        acc = [Fraction(0)] * p
        for a, v in stab.values[2].items():
            s = chi(a)
            if s:
                ell = unit_log_ratio(a % p**2, 1 + p, p, 1)
                acc[ell % p] += s * v
        # embed zeta^t = (1+X)^t, reduce mod the Eisenstein polynomial of X
        e = p - 1
        want = [Fraction(0)] * e
        for t, c in enumerate(acc):
            if not c:
                continue
            row = [Fraction(math.comb(t, i)) for i in range(t + 1)]
            if t == e:  # X^4 = -(Phi_5(1+X) - X^4) = -(5 + 10X + 10X^2 + 5X^3)
                red = [-5, -10, -10, -5]
                row = [row[i] + red[i] for i in range(e)] + [0]
            for i in range(e):
                want[i] += c * (row[i] if i < len(row) else 0)
        prec = 2  # certified digits surviving the transform and truncation
        mod = p**prec
        for i in range(e):
            got = ev.coeffs[i] % mod
            w = want[i]
            wres = w.numerator * pow(w.denominator, -1, mod) % mod
            assert got == wres, i


class TestKubotaLeopoldt:
    @pytest.mark.parametrize("p", (5, 7))
    def test_t0_against_teichmuller_sum(self, p):
        # independent oracle: B_{1, chi omega^-1} by the direct f-term sum
        for D in (1, 8, 12, 5):
            if D == 5 and p == 5:
                continue
            chi = kronecker_character(D) if D > 1 else DirichletCharacter.trivial(1)
            kl = kubota_leopoldt(chi, p, 10, 12)
            got = kl_value_at_zero(kl, 1 + p)
            want = -_direct_b1_omega_inv(chi, p, 12)
            diff = got - want
            assert diff.is_zero_to_precision() and diff.abs_prec >= 8

    def test_interpolation_at_higher_points(self):
        # L(u^(1-n) - 1) = -(1 - eta(p) p^(n-1)) B_{n,eta}/n for n not in... all
        # points went into the fit, so probe the self-consistency at n = 2, 3
        p, N, M = 5, 10, 12
        chi = kronecker_character(12)
        kl = kubota_leopoldt(chi, p, N, M)
        u = 1 + p
        from eiscong.measures import _branch_nodes

        nodes = _branch_nodes(chi, p, 0, 3, N + 6)
        for n in (2, 3):
            t = Fraction(u) ** (1 - n) - 1
            # Horner evaluation of the truncated series at the exact point
            acc = PadicScalar.zero(p, N)
            for j in range(M - 1, -1, -1):
                acc = acc * PadicScalar.from_rational(t, p, N + 4) + \
                    PadicScalar.from_rational(kl.res[j], p, N)
            # eta(p) = 0 at n = 2, 3 (chi omega^-n is ramified at p), so the
            # node value is -B_{n,eta}/n
            node_t, want = nodes[n - 1]
            assert node_t == t
            diff = acc - want
            # truncation at T^M costs ~M digits of (u^(1-n)-1)^M; modest check
            assert diff.is_zero_to_precision() and diff.abs_prec >= 8

    def test_out_of_sample_interpolation(self):
        # evaluate the fitted series at points far beyond the fit range and
        # compare against directly computed branch values, Euler factor and
        # all; exercises the tail accuracy rather than the fit consistency
        from eiscong.measures import _branch_nodes, _fit_points

        p, N, M = 5, 10, 16
        chi = kronecker_character(12)
        kl = kubota_leopoldt(chi, p, N, M)
        u = 1 + p
        beyond = _fit_points(p, N, M) + 9
        nodes = _branch_nodes(chi, p, 0, beyond + 3, N + 6)
        for n in (beyond, beyond + 3):  # include an n = 0 mod 4 (tw = 0) point
            t = Fraction(u) ** (1 - n) - 1
            acc = PadicScalar.zero(p, N)
            for j in range(M - 1, -1, -1):
                acc = acc * PadicScalar.from_rational(t, p, N + 4) + \
                    PadicScalar.from_rational(kl.res[j], p, N)
            node_t, want = nodes[n - 1]  # Euler factor at p included
            assert node_t == t
            diff = acc - want
            assert diff.is_zero_to_precision() and diff.abs_prec >= 8, n

    def test_omega_squared_branch_mu_zero(self):
        kl = kubota_leopoldt(DirichletCharacter.trivial(1), 5, 8, 16, omega_power=2)
        mu, lam, cert = lambda_mu(kl)
        assert mu == 0 and cert

    @pytest.mark.parametrize("p,D,lam", [(5, 53, 1), (5, 69, 1), (7, 24, 2)])
    def test_positive_lambda_branches(self, p, D, lam):
        # branches where p divides B_{1, chi omega^-1}: lambda > 0, mu = 0.
        # dual route: the T=0 value must vanish mod p exactly when lambda > 0
        chi = kronecker_character(D)
        kl = kubota_leopoldt(chi, p, 8, 12)
        assert lambda_mu(kl) == (0, lam, True)
        direct = _direct_b1_omega_inv(chi, p, 8)
        assert direct.valuation() >= 1  # p | B_{1, chi omega^-1}
        # stability across two precision profiles
        kl2 = kubota_leopoldt(chi, p, 11, 20)
        assert lambda_mu(kl2)[:2] == (0, lam)

    def test_positive_lambda_product_additivity(self):
        # a lambda = 1 factor times a lambda = 0 factor
        a = kubota_leopoldt(kronecker_character(53), 5, 8, 16)
        b = kubota_leopoldt(kronecker_character(12), 5, 8, 16)
        assert lambda_mu(a * b) == (0, 1, True)

    def test_pole_branch_flagged(self):
        kl = kubota_leopoldt(DirichletCharacter.trivial(1), 5, 8, 12)
        assert kl.pole_factor
        with pytest.raises(ValueError):
            lambda_mu(kl)

    def test_odd_chi_rejected(self):
        with pytest.raises(ValueError):
            kubota_leopoldt(kronecker_character(-4), 5, 6, 8)

    def test_p_dividing_conductor_rejected(self):
        with pytest.raises(ValueError):
            kubota_leopoldt(kronecker_character(5), 5, 6, 8)

    def test_odd_omega_power_rejected(self):
        with pytest.raises(ValueError):
            kubota_leopoldt(kronecker_character(8), 5, 6, 8, omega_power=1)


# SHA-256 of the JSON rows [D, p, N, M, omega_power, outcome] over the grid
# below, where outcome is [res, prec, pole_factor] or the raised exception's
# class name and message; recorded from the two-fit implementation
KL_GRID_SHA256 = "49f1b4e9a8a7299fba1ed74d3a5779cbef0a5e0fbc7a569b5b8ecec5f2c4f818"


class TestKubotaLeopoldtPinned:
    def test_pinned_grid(self):
        import hashlib
        import json

        rows = []
        for D in (1, 12, 53, 24):
            chi = DirichletCharacter.trivial(1) if D == 1 else kronecker_character(D)
            for p in (3, 5, 7, 101):
                for N, M in ((2, 6), (8, 12)):
                    for om in (0, 2):
                        try:
                            kl = kubota_leopoldt(chi, p, N, M, omega_power=om)
                            out = [kl.res, kl.prec, kl.pole_factor]
                        except ValueError as e:  # p | conductor: 12 and 24 at p = 3
                            out = [type(e).__name__, str(e)]
                        rows.append([D, p, N, M, om, out])
        blob = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == KL_GRID_SHA256


class TestKubotaLeopoldtSelfCheck:
    @pytest.mark.parametrize("D,p,N,M", [(12, 5, 8, 12), (8, 7, 6, 10), (13, 101, 2, 6)])
    def test_too_few_points_fail_the_self_check(self, monkeypatch, D, p, N, M):
        # with only M points the fit is underdetermined, and the fit over
        # M + _CHECK_POINTS points must disagree with it mod p^N
        from eiscong import measures

        monkeypatch.setattr(measures, "_fit_points", lambda p, N, M: M)
        with pytest.raises(ArithmeticError, match="interpolation unstable"):
            kubota_leopoldt(kronecker_character(D), p, N, M)

    def test_unstable_fit_exits_3(self, monkeypatch):
        from eiscong import measures
        from eiscong.cli import main

        monkeypatch.setattr(measures, "_fit_points", lambda p, N, M: M)
        code = main(["padic-l", "--branch", '{"chi1_disc":12,"chi2_disc":13}',
                     "--p", "5", "--N", "8", "--M", "12"])
        assert code == 3

    def test_one_node_pass_per_call(self, monkeypatch):
        # one Teichmuller table and one power-sum table per call, shared by
        # every node of the fit and of its self-check
        from eiscong import measures

        calls = {"teichmuller": 0, "_power_tables": 0}

        def counted(name):
            real = getattr(measures, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(measures, "teichmuller", counted("teichmuller"))
        monkeypatch.setattr(measures, "_power_tables", counted("_power_tables"))
        kubota_leopoldt(kronecker_character(13), 101, 2, 6)
        assert calls == {"teichmuller": 100, "_power_tables": 1}

    def test_p_two_rejected(self):
        with pytest.raises(ValueError):
            kubota_leopoldt(kronecker_character(5), 2, 2, 6)


def _direct_b1_omega_inv(chi, p, w):
    f0 = chi.conductor
    f = f0 * p
    mod = p ** (w + 4)
    s = 0
    for a in range(1, f + 1):
        if math.gcd(a, f) != 1:
            continue
        c = chi(a) if f0 > 1 else 1
        if not c:
            continue
        s = (s + c * pow(teichmuller(a, p, w + 4), -1, mod) * a) % mod
    return PadicScalar.from_unit(p, 0, s, w + 4) / PadicScalar.from_rational(f, p, w + 4)


class TestDeligneRibet:
    def test_product_additivity(self):
        f2 = make_field(2)
        eps = induce_quadratic(f2, 5)
        res = deligne_ribet_induced(eps, None, [], 7, 6, 12)
        assert res.additivity

    def test_stripping_unit_factor_keeps_invariants(self):
        f2 = make_field(2)
        eps = induce_quadratic(f2, 5)
        plain = deligne_ribet_induced(eps, None, [], 7, 6, 12)
        q3 = principal_ideal(f2, 3)  # 1 - eps(3)/9 is a 7-adic unit
        stripped = deligne_ribet_induced(eps, None, [q3], 7, 6, 12)
        assert plain.lambda_mu_parts["product"][:2] == \
            stripped.lambda_mu_parts["product"][:2]

    def test_stripping_nonunit_factor_raises_lambda(self):
        f2 = make_field(2)
        eps = induce_quadratic(f2, 5)
        q29 = principal_ideal(f2, 29)  # N = 841 = 1 mod 7
        res = deligne_ribet_induced(eps, None, [q29], 7, 6, 12)
        assert res.additivity
        assert res.lambda_mu_parts["product"][1] == \
            res.lambda_mu_parts["factor1"][1] + res.lambda_mu_parts["factor2"][1] + 2

    def test_twist(self):
        f2 = make_field(2)
        eps = induce_quadratic(f2, 5)
        tw = kronecker_character(13)
        res = deligne_ribet_induced(eps, tw, [], 7, 5, 10)
        assert res.additivity
