"""Kronecker characters, the induced Hecke characters, and the character oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import eiscong
from eiscong.arith import is_squarefree, kronecker, primes_up_to
from eiscong.characters import (
    induce_quadratic,
    is_fundamental_discriminant,
    kronecker_character,
    split_at_2,
)
from eiscong.quadfield import make_field, principal_ideal

from character_oracles import (
    CycSum,
    GenericCharacter,
    cyc_equal,
    enumerate_characters,
    inverse,
    primitive_characters,
    unit_group,
)
from ideal_oracles import (
    eps_by_definition,
    enumerate_ideals,
    ideal_mul,
    prime_ideal,
    splitting_by_roots,
)


class TestKroneckerCharacter:
    def test_examples(self):
        assert kronecker_character(5)(2) == -1
        assert kronecker_character(5).is_even()
        assert kronecker_character(-4)(3) == -1
        assert not kronecker_character(-4).is_even()
        assert kronecker_character(8)(7) == 1

    def test_rejects_non_fundamental(self):
        for bad in (12 * 4, 9, -3 * 9, 6):
            if not is_fundamental_discriminant(bad):
                with pytest.raises(ValueError):
                    kronecker_character(bad)

    def test_multiplicative_values(self):
        chi = kronecker_character(-24)
        for a in range(1, 48):
            for b in range(1, 48):
                assert chi(a * b) == chi(a) * chi(b)

    def test_parity_rule(self):
        for D in (5, 8, 12, 13, -3, -4, -7, -8, -20):
            chi = kronecker_character(D)
            assert chi(abs(D) - 1) == (1 if D > 0 else -1)  # chi(-1)


    # every fundamental discriminant with |D| < 400: D odd, and D_e = -4, 8, -8
    @pytest.mark.parametrize("sign", (1, -1))
    def test_split_at_2(self, sign):
        seen = set()
        for D in (sign * n for n in range(1, 400)):
            if not is_fundamental_discriminant(D):
                continue
            chi = kronecker_character(D)
            chi_e, chi_g = split_at_2(chi)
            assert chi_e.D * chi_g.D == D and chi_e.D in (1, -4, 8, -8)
            assert chi_g.D % 4 == 1 and is_fundamental_discriminant(chi_g.D)
            assert all(chi(a) == chi_e(a) * chi_g(a) for a in range(2 * abs(D)))
            seen.add(chi_e.D)
        assert seen == {1, -4, 8, -8}


class TestGenericCharacters:
    def test_group_structure(self):
        g = unit_group(40)
        assert sorted(len(list(range(o))) for o in g.orders)
        assert math.prod(g.orders) == 16  # phi(40)
        assert len(g.units()) == 16

    def test_enumeration_count(self):
        for m in (5, 8, 12, 15, 21, 40):
            chars = enumerate_characters(m)
            phi = len(unit_group(m).units())
            assert len(chars) == phi

    def test_conductor_against_kronecker(self):
        # the quadratic characters found generically match Kronecker symbols
        for m in (5, 8, 12, 13):
            quads = [c for c in enumerate_characters(m)
                     if c.order == 2 and c.conductor == m]
            for c in quads:
                D = m if c.is_even() else -m
                if is_fundamental_discriminant(D):
                    k = kronecker_character(D)
                    assert all(c(a) == k(a) for a in unit_group(m).units())

    def test_primitive_filter(self):
        prims = primitive_characters(12)
        assert all(c.conductor == 12 for c in prims)
        # (Z/12)^x = C2 x C2: four characters, one primitive (chi_12 = chi_-4 chi_-3)
        assert len(prims) == 1

    def test_orthogonality(self):
        m = 15
        for chi in enumerate_characters(m):
            total = CycSum(chi.zeta_order)
            for a in unit_group(m).units():
                k = chi.value_exp(a)
                total.add_term(k, Fraction(1))
            want = Fraction(len(unit_group(m).units())) if chi.order == 1 else Fraction(0)
            assert cyc_equal(total, want)


class TestCycSum:
    def test_root_of_unity_relation(self):
        # x^e reduces to 1 mod Phi_e composed with the x^d factors
        for e in (4, 6, 12):
            v = CycSum(e)
            v.add_term(3, Fraction(5, 2))
            w = CycSum(e)
            w.add_term(3 + e, Fraction(5, 2))
            assert v.equals(w)

    def test_distributivity(self):
        import random

        rng = random.Random(3)
        e = 12
        def rand():
            v = CycSum(e)
            for _ in range(4):
                v.add_term(rng.randrange(e), Fraction(rng.randrange(-5, 6)))
            return v
        for _ in range(20):
            a, b, c = rand(), rand(), rand()
            assert ((a + b) * c).equals(a * c + b * c)

    def test_norm_of_gauss_like_sum(self):
        # sum of all primitive 5th roots is -1
        v = CycSum(5)
        for k in range(1, 5):
            v.add_term(k, Fraction(1))
        assert v.canonical() == (-1, 0, 0, 0)


def gauss_sum(chi: GenericCharacter) -> CycSum:
    """tau(chi) = sum_a chi(a) e(a/f) for a primitive chi of order above 2.

    chi(a) = zeta_e^k and e(a/f) = zeta_f^a, so the sum lies in Q(zeta_L),
    L = lcm(e, f): one term at exponent k L/e + a L/f for each unit a.
    """
    f, e = chi.conductor, chi.zeta_order
    big = math.lcm(e, f)
    total = CycSum(big)
    for a in range(1, f):
        k = chi.value_exp(a)
        if k is not None:
            total.add_term(k * (big // e) + a * (big // f), 1)
    return total


class TestGaussSums:
    def test_higher_order_exact(self):
        # tau * conj(tau) = f exactly; conjugation maps x^i to x^-i in CycSum(L).
        # tau(chi) tau(chi^-1) = chi(-1) f also pins the phase of tau.
        seen = 0
        for f in (5, 7, 9, 13, 16):
            for chi in primitive_characters(f):
                if chi.order <= 2:
                    continue
                tau = gauss_sum(chi)
                conj = CycSum(tau.e, [tau.coeffs[-i % tau.e] for i in range(tau.e)])
                assert cyc_equal(tau * conj, f)
                sign = 1 if chi.is_even() else -1
                assert cyc_equal(tau * gauss_sum(inverse(chi)), sign * f)
                seen += 1
        assert seen == 24

    def test_exact_core_imports_only_the_standard_library(self):
        # a fresh interpreter, so no other test's imports leak in; every module
        # loaded by eiscong, a Bernoulli number and a Kubota-Leopoldt branch
        # must be stdlib or eiscong
        script = (
            "import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import eiscong\n"
            "for mod in pkgutil.iter_modules(eiscong.__path__):\n"
            "    importlib.import_module('eiscong.' + mod.name)\n"
            "from eiscong.characters import kronecker_character\n"
            "from eiscong.lseries import gen_bernoulli\n"
            "from eiscong.measures import kubota_leopoldt\n"
            "assert str(gen_bernoulli(kronecker_character(-4), 3)) == '3/2'\n"
            "kubota_leopoldt(kronecker_character(5), 7, 2, 3)\n"
            "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(tops - set(sys.stdlib_module_names) - {'eiscong'}))\n"
        )
        # the child imports eiscong from the same checkout as this test
        src = os.path.dirname(os.path.dirname(eiscong.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestInducedCharacters:
    def test_example_20149(self):
        f = make_field(2)
        eps = induce_quadratic(f, 20149)
        assert eps.chi1.conductor == 20149
        assert eps.chi2.conductor == 8 * 20149
        assert eps.modulus_ideal == principal_ideal(f, 20149)

    def test_example_small(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        assert (eps.chi1.D, eps.chi2.D) == (5, 40)
        f3 = make_field(3)
        eps7 = induce_quadratic(f3, 7)
        assert (eps7.chi1.conductor, eps7.chi2.conductor) == (28, 21)

    @pytest.mark.parametrize("d", (2, 5, 13, 17, 29, 3, 7, 11))
    def test_conductor_is_m_iff_m_1_or_d_3_mod_4(self, d):
        # f(chi1) f(chi2) = disc_F N(cond eps), so the conductor is (m) iff the
        # product is disc_F m^2; for d = 3 mod 4 that holds at every m
        f = make_field(d)
        ms = [m for m in range(3, 120, 2) if math.gcd(m, f.disc) == 1 and is_squarefree(m)]
        assert {m % 4 for m in ms} == {1, 3}
        for m in ms:
            eps = induce_quadratic(f, m)
            conductor_is_m = eps.chi1.conductor * eps.chi2.conductor == f.disc * m * m
            assert conductor_is_m == (m % 4 == 1 or d % 4 == 3), m

    def test_rejects_bad_m(self):
        f = make_field(2)
        with pytest.raises(ValueError):
            induce_quadratic(f, 4)  # even
        with pytest.raises(ValueError):
            induce_quadratic(f, 9)  # not squarefree
        f3 = make_field(3)
        with pytest.raises(ValueError):
            induce_quadratic(f3, 9)

    def test_values_on_ideals(self):
        f = make_field(2)
        eps = induce_quadratic(f, 20149)
        assert eps.value_on_ideal(principal_ideal(f, 1)) == 1
        assert eps.value_on_ideal(principal_ideal(f, 3)) == 1  # inert: chi1(9) = +1
        p7 = prime_ideal(f, 7)
        assert eps.value_on_ideal(p7) == kronecker(20149, 7)
        assert eps.value_on_ideal(principal_ideal(f, 20149)) == 0

    @pytest.mark.parametrize("d, m", [(2, 3), (2, 105), (5, 21), (5, 231), (13, 15),
                                      (13, 33), (17, 105), (17, 1991), (29, 7), (29, 65)])
    def test_value_is_chi1_of_the_norm(self, d, m):
        # every prime of the odd squarefree m divides chi1's conductor (m or
        # 4m), so chi1(N(a)) already vanishes on ideals meeting (m)
        f = make_field(d)
        eps = induce_quadratic(f, m)
        ideals = enumerate_ideals(f, 2000)
        want = [eps_by_definition(eps, a) for a in ideals]
        assert [eps.value_on_ideal(a) for a in ideals] == want
        assert {-1, 0, 1} <= set(want)
        assert any(math.gcd(a.norm, m) > 1 for a in ideals)

    def test_multiplicativity(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        ideals = enumerate_ideals(f, 100)
        for a in ideals[:40]:
            for b in ideals[:40]:
                assert eps.value_on_ideal(ideal_mul(a, b)) == \
                    eps.value_on_ideal(a) * eps.value_on_ideal(b)

    def test_euler_product_compatibility(self):
        # prod over p | p of (1 - eps(P) X^deg) = (1 - chi1(p) X)(1 - chi2(p) X)
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        for p in primes_up_to(500):
            if 10 % p == 0 or f.disc % p == 0:
                continue
            c1, c2 = eps.chi1(p), eps.chi2(p)
            st = splitting_by_roots(f, p)
            if st == "split":
                v = eps.value_on_ideal(prime_ideal(f, p))
                # (1 - vX)^2 = (1 - c1 X)(1 - c2 X)
                assert 2 * v == c1 + c2 and v * v == c1 * c2
            else:
                v = eps.value_on_ideal(principal_ideal(f, p))
                # 1 - v X^2 = (1 - c1 X)(1 - c2 X) forces c1 = -c2
                assert c1 + c2 == 0 and -v == c1 * c2

    def test_chi_product_is_field_character(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        field_char = kronecker_character(8)
        for p in primes_up_to(1000):
            if math.gcd(p, 2 * eps.chi1.conductor * eps.chi2.conductor) > 1:
                continue
            assert eps.chi1(p) * eps.chi2(p) == field_char(p)

    def test_totally_even(self):
        f = make_field(2)
        for m in (5, 20149):
            eps = induce_quadratic(f, m)
            assert eps.chi1.is_even() and eps.chi2.is_even()
