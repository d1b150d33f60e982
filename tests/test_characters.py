"""Dirichlet characters, Gauss sums, and the induced Hecke characters."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import eiscong
from eiscong.arith import kronecker, primes_up_to
from eiscong.characters import (
    CycSum,
    DirichletCharacter,
    QuadraticGaussSum,
    enumerate_characters,
    gauss_sum,
    induce_quadratic,
    is_fundamental_discriminant,
    kronecker_character,
    primitive_characters,
    trivial_hecke,
    unit_group,
    value_on_ideal,
)
from eiscong.quadfield import (
    enumerate_ideals,
    ideal_mul,
    make_field,
    prime_ideal,
    principal_ideal,
    splitting_type,
    unit_ideal,
)


class TestKroneckerCharacter:
    def test_examples(self):
        assert kronecker_character(5)(2) == -1
        assert kronecker_character(5).parity == "even"
        assert kronecker_character(-4)(3) == -1
        assert kronecker_character(-4).parity == "odd"
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
            total = CycSum(chi.zeta_order_eff())
            for a in unit_group(m).units():
                k = chi.value_exp(a)
                total.add_term(k, Fraction(1))
            want = Fraction(len(unit_group(m).units())) if chi.order == 1 else Fraction(0)
            assert total.as_rational() == want


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
        assert v.as_rational() == -1


class TestGaussSums:
    def test_trivial(self):
        assert gauss_sum(DirichletCharacter.trivial(1)) == 1

    def test_quadratic_exact(self):
        g5 = gauss_sum(kronecker_character(5))
        assert g5 == QuadraticGaussSum(5, False)  # sqrt(5)
        g3 = gauss_sum(kronecker_character(-3))
        assert g3 == QuadraticGaussSum(3, True)  # i*sqrt(3)

    def test_abs_squared_is_conductor(self):
        for D in (5, 8, -3, -4, 12, -20, 21):
            g = gauss_sum(kronecker_character(D))
            assert g.abs_squared() == abs(D)

    def test_rejects_imprimitive(self):
        imp = [c for c in enumerate_characters(15) if c.conductor < 15 and c.order > 1]
        with pytest.raises(ValueError):
            gauss_sum(imp[0])

    def test_higher_order_exact(self):
        # tau * conj(tau) = f exactly; conjugation maps x^i to x^-i in CycSum(L).
        # tau(chi) tau(chi^-1) = chi(-1) f also pins the phase of tau.
        seen = 0
        for f in (5, 7, 9, 13, 16):
            chars = {c.log_values: c for c in primitive_characters(f)}
            for chi in chars.values():
                if chi.order <= 2:
                    continue
                tau = gauss_sum(chi)
                assert isinstance(tau, CycSum)
                conj = CycSum(tau.e, [tau.coeffs[-i % tau.e] for i in range(tau.e)])
                assert (tau * conj).as_rational() == f
                inverse = chars[tuple(-k % chi.zeta_order for k in chi.log_values)]
                sign = 1 if chi.is_even() else -1
                assert (tau * gauss_sum(inverse)).as_rational() == sign * f
                seen += 1
        assert seen == 24

    def test_exact_core_imports_only_the_standard_library(self):
        # a fresh interpreter, so no other test's imports leak in; every module
        # loaded by eiscong and an order-4 Gauss sum must be stdlib or eiscong
        script = (
            "import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import eiscong\n"
            "for mod in pkgutil.iter_modules(eiscong.__path__):\n"
            "    importlib.import_module('eiscong.' + mod.name)\n"
            "from eiscong.characters import gauss_sum, primitive_characters\n"
            "quartic = [c for c in primitive_characters(5) if c.order == 4]\n"
            "gauss_sum(quartic[0])\n"
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
        assert eps.conductor_ideal == principal_ideal(f, 20149)

    def test_example_small(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        assert (eps.chi1.D, eps.chi2.D) == (5, 40)
        f3 = make_field(3)
        eps7 = induce_quadratic(f3, 7)
        assert (eps7.chi1.conductor, eps7.chi2.conductor) == (28, 21)

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
        assert value_on_ideal(eps, unit_ideal(f)) == 1
        assert value_on_ideal(eps, principal_ideal(f, 3)) == 1  # inert: chi1(9) = +1
        p7 = prime_ideal(f, 7)
        assert value_on_ideal(eps, p7) == kronecker(20149, 7)
        assert value_on_ideal(eps, principal_ideal(f, 20149)) == 0

    def test_multiplicativity(self):
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        ideals = enumerate_ideals(f, 100)
        for a in ideals[:40]:
            for b in ideals[:40]:
                assert value_on_ideal(eps, ideal_mul(a, b)) == \
                    value_on_ideal(eps, a) * value_on_ideal(eps, b)

    def test_euler_product_compatibility(self):
        # prod over p | p of (1 - eps(P) X^deg) = (1 - chi1(p) X)(1 - chi2(p) X)
        f = make_field(2)
        eps = induce_quadratic(f, 5)
        for p in primes_up_to(500):
            if 10 % p == 0 or f.disc % p == 0:
                continue
            c1, c2 = eps.chi1(p), eps.chi2(p)
            st = splitting_type(f, p)
            if st == "split":
                v = value_on_ideal(eps, prime_ideal(f, p))
                # (1 - vX)^2 = (1 - c1 X)(1 - c2 X)
                assert 2 * v == c1 + c2 and v * v == c1 * c2
            else:
                v = value_on_ideal(eps, principal_ideal(f, p))
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
        assert induce_quadratic(f, 5).is_totally_even()
        assert induce_quadratic(f, 20149).is_totally_even()
        assert trivial_hecke(f).is_totally_even()
