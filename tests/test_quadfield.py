"""Fields, units, splitting, ideals, the iota^1 index, and unit orders."""

import math
import random
from fractions import Fraction

import pytest

from eiscong.arith import is_squarefree, kronecker, primes_up_to
from eiscong.characters import induce_quadratic
from eiscong.eisenstein import eisenstein_coeffs, stripped_eisenstein
from eiscong.quadfield import (
    INERT,
    IdealQF,
    QuadElement,
    RAMIFIED,
    SPLIT1,
    SPLIT2,
    ideal_pow,
    index_iota1,
    make_field,
    primes_over,
    principal_ideal,
    unit_power_check,
)

from ideal_oracles import (
    enumerate_ideals,
    ideal_divide,
    ideal_divisors,
    ideal_mul,
    splitting_by_roots,
)


def brute_fundamental_unit(d):
    """Least unit > 1 by searching b < 1000; the stated independent oracle.

    None when the search does not reach the unit.
    """
    half = d % 4 == 1
    for b in range(1, 1000):
        for s in (-4, 4) if half else (-1, 1):
            aa = d * b * b + s
            if aa > 0:
                a = math.isqrt(aa)
                if a * a == aa:
                    den = 2 if half else 1
                    if half and (a - b) % 2 != 0:
                        continue
                    return QuadElement(d, Fraction(a, den), Fraction(b, den))
    return None


# every squarefree d < 300 whose unit the oracle reaches (138 fields)
BRUTE_REACHED = [d for d in range(2, 300)
                 if is_squarefree(d) and brute_fundamental_unit(d) is not None]


class TestMakeField:
    def test_d2_worked_constants(self):
        f = make_field(2)
        assert f.disc == 8
        assert f.fund_unit == QuadElement(2, Fraction(1), Fraction(1))
        assert f.fund_unit_norm == -1
        assert f.u_plus == QuadElement(2, Fraction(3), Fraction(2))

    @pytest.mark.parametrize("d", BRUTE_REACHED)
    def test_against_brute_force(self, d):
        f = make_field(d)
        assert f.fund_unit == brute_fundamental_unit(d)
        assert f.fund_unit.norm() in (1, -1)
        # a unit u = x + y sqrt(d) exceeds 1 iff x, y > 0 (then |x - y sqrt(d)| = 1/u < u)
        assert f.fund_unit.x > 0 and f.fund_unit.y > 0

    def test_long_period_field(self):
        # d = 94 has a long continued-fraction period; classical Pell value
        f = make_field(94)
        assert f.fund_unit == QuadElement(94, Fraction(2143295), Fraction(221064))
        assert f.fund_unit_norm == 1

    @pytest.mark.parametrize("d, x, y", [(1021, 85745895, 2683493),
                                         (1069, 106822461, 3267185)])
    def test_half_integer_units_with_large_coefficients(self, d, x, y):
        # units (x + y sqrt d)/2 far beyond the brute-force oracle's reach
        f = make_field(d)
        assert f.basis_kind == "Z[(1+sqrt(d))/2]"
        assert f.fund_unit == QuadElement(d, Fraction(x, 2), Fraction(y, 2))
        assert f.fund_unit_norm == -1
        assert f.u_plus == f.fund_unit * f.fund_unit

    @pytest.mark.parametrize("d", [3, 5])
    def test_examples(self, d):
        f = make_field(d)
        if d == 3:
            assert f.fund_unit == QuadElement(3, Fraction(2), Fraction(1))
            assert f.fund_unit_norm == 1
            assert f.u_plus == f.fund_unit
        else:
            assert f.fund_unit == QuadElement(5, Fraction(1, 2), Fraction(1, 2))
            assert f.fund_unit_norm == -1
            assert f.u_plus == QuadElement(5, Fraction(3, 2), Fraction(1, 2))

    def test_unit_norm_identities(self):
        for d in (2, 3, 5, 13, 21):
            f = make_field(d)
            u, v = f.fund_unit, f.u_plus
            assert u * QuadElement(d, u.x, -u.y) == QuadElement(
                d, Fraction(f.fund_unit_norm), Fraction(0))
            assert v * QuadElement(d, v.x, -v.y) == QuadElement(d, Fraction(1), Fraction(0))
            # totally positive: the embeddings of u_plus have product N(u_plus) = 1,
            # so both share the sign of their sum 2x
            assert v.norm() == 1
            assert v.x > 0

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            make_field(1)
        with pytest.raises(ValueError):
            make_field(12)
        with pytest.raises(ValueError):
            make_field(-2)


class TestSplitting:
    def test_examples(self):
        f = make_field(2)
        assert splitting_by_roots(f, 2) == RAMIFIED
        assert splitting_by_roots(f, 7) == "split"
        assert splitting_by_roots(f, 20149) == INERT
        assert principal_ideal(f, 2).factors == ((2, RAMIFIED, 2),)
        assert principal_ideal(f, 7).factors == ((7, SPLIT1, 1), (7, SPLIT2, 1))
        assert principal_ideal(f, 20149).factors == ((20149, INERT, 1),)
        assert primes_over(7, 1) == [(SPLIT1, 7), (SPLIT2, 7)]
        assert primes_over(2, 0) == [(RAMIFIED, 2)]
        assert primes_over(5, -1) == [(INERT, 25)]

    def test_primes_over_matches_root_count(self):
        # for every squarefree d < 200 and prime p < 2000, the factors of (p)
        # and the walk's prime ideals of norm < 2000 are the Dedekind-Kummer ones
        bound = 1999
        primes = primes_up_to(bound)
        for d in range(2, 200):
            if not is_squarefree(d):
                continue
            f = make_field(d)
            walk = []
            for p in primes:
                st = splitting_by_roots(f, p)
                want = {"split": ((p, SPLIT1, 1), (p, SPLIT2, 1)),
                        "ramified": ((p, RAMIFIED, 2),), "inert": ((p, INERT, 1),)}[st]
                assert principal_ideal(f, p).factors == want, (d, p)
                nrm = p * p if st == "inert" else p
                walk += [(p, tag, nrm) for _, tag, _ in want if nrm <= bound]
            m = next(m for m in range(3, bound, 2) if math.gcd(m, f.disc) == 1 and is_squarefree(m))
            coeffs = eisenstein_coeffs(stripped_eisenstein(f, m), bound).coeffs
            assert sorted((*a.factors[0][:2], a.norm) for a in coeffs
                          if len(a.factors) == 1 and a.factors[0][2] == 1) == walk, d

    def test_norm_product_reconstructs_p_squared(self):
        f = make_field(2)
        primes = [p for p in primes_up_to(8000) if p > 2][:1000]
        for p in primes:
            st = splitting_by_roots(f, p)
            ideal = principal_ideal(f, p)
            assert ideal.norm == p * p
            if st == "split":
                assert len(ideal.factors) == 2
            elif st == INERT:
                assert len(ideal.factors) == 1 and ideal.factors[0][1] == INERT


class TestIdeals:
    def test_divisors_counts(self):
        f = make_field(2)
        assert ideal_divisors(principal_ideal(f, 1)) == [principal_ideal(f, 1)]
        i9 = ideal_pow(principal_ideal(f, 3), 2)  # inert (3)^2
        assert len(ideal_divisors(i9)) == 3
        i7 = principal_ideal(f, 7)  # split
        assert len(ideal_divisors(i7)) == 4

    def test_divisor_multiplicativity(self):
        f = make_field(2)
        a = principal_ideal(f, 3)
        b = principal_ideal(f, 7)
        prod = {str(x) for x in ideal_divisors(ideal_mul(a, b))}
        pairwise = {str(ideal_mul(x, y))
                    for x in ideal_divisors(a) for y in ideal_divisors(b)}
        assert prod == pairwise

    def test_divide_and_gcd(self):
        f = make_field(2)
        a = ideal_mul(principal_ideal(f, 3), principal_ideal(f, 7))
        assert ideal_divide(a, principal_ideal(f, 3)) == principal_ideal(f, 7)

    def test_enumerate(self):
        f = make_field(2)
        ideals = enumerate_ideals(f, 50)
        assert ideals[0] == principal_ideal(f, 1)
        norms = [i.norm for i in ideals]
        assert norms == sorted(norms)
        assert all(n <= 50 for n in norms)
        # ideal-count identity: sum over ideals of norm <= B is multiplicative data;
        # spot check against a direct divisor count at small norms
        assert norms.count(2) == 1  # ramified prime above 2
        assert norms.count(7) == 2  # two split primes
        assert norms.count(9) == 1  # inert (3)


class TestIdealType:
    def test_equal_ideals_hash_equal(self):
        f = make_field(2)
        a = ideal_mul(principal_ideal(f, 3), principal_ideal(f, 7))
        b = IdealQF(2, ((3, INERT, 1), (7, SPLIT1, 1), (7, SPLIT2, 1)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ideal_divide(ideal_mul(a, a), a)}) == 1

    def test_different_d_or_factors_compare_unequal(self):
        a = IdealQF(2, ((7, SPLIT1, 1),))
        assert a != IdealQF(3, ((7, SPLIT1, 1),))
        assert a != IdealQF(2, ((7, SPLIT2, 1),))
        assert a != IdealQF(2, ((7, SPLIT1, 2),))
        assert IdealQF(2, ()) != IdealQF(3, ())

    def test_repr(self):
        assert repr(IdealQF(2, ())) == "IdealQF(d=2, factors=())"
        assert repr(IdealQF(5, ((3, INERT, 2),))) == "IdealQF(d=5, factors=((3, 'inert', 2),))"

    def test_is_the_tuple_d_factors(self):
        # the one way a tuple-backed ideal differs from a record: it equals
        # and unpacks as the plain tuple (d, factors)
        a = IdealQF(2, ((2, RAMIFIED, 1),))
        assert a == (2, ((2, RAMIFIED, 1),)) and hash(a) == hash((2, ((2, RAMIFIED, 1),)))
        d, factors = a
        assert (d, factors) == (a.d, a.factors)

    def test_every_constructor_returns_an_ideal(self):
        f = make_field(2)
        a = principal_ideal(f, 7 * 9)
        made = [a, principal_ideal(f, 1), ideal_pow(a, 3), ideal_pow(a, 0),
                *a.prime_factors(), induce_quadratic(f, 20149).modulus_ideal,
                *eisenstein_coeffs(stripped_eisenstein(f, 20149), 200).coeffs]
        assert all(type(x) is IdealQF for x in made)


class TestIota1:
    def test_unit_ideal(self):
        f = make_field(2)
        assert index_iota1(f, principal_ideal(f, 1)) == 1

    def test_inert_three(self):
        f = make_field(2)
        assert index_iota1(f, principal_ideal(f, 3)) == 40

    def test_big_example_value(self):
        f = make_field(2)
        a = ideal_pow(principal_ideal(f, 20149), 2)
        nq = 20149**2
        want = Fraction(1, 2) * (nq * (nq - 1)) * nq**2 * (1 + Fraction(1, nq))
        assert index_iota1(f, a) == want

    def test_rejects_two(self):
        f = make_field(2)
        with pytest.raises(ValueError):
            index_iota1(f, principal_ideal(f, 2))

    def test_multiplicative_up_to_half(self):
        # the local product u(a) N(a) prod(1 + 1/Nq) = 2 iota^1(a) is
        # multiplicative, so 2 iota^1(ab) = (2 iota^1(a)) (2 iota^1(b))
        f = make_field(2)
        a = principal_ideal(f, 3)
        b = principal_ideal(f, 7)
        assert 2 * index_iota1(f, ideal_mul(a, b)) == \
            (2 * index_iota1(f, a)) * (2 * index_iota1(f, b))


def _unreduced_unit_check(field, p, e):
    """The trace ladder on the full exponent e, as unit_power_check ran it before."""
    t = int(2 * field.u_plus.x) % p
    v, w = 2, t
    for bit in bin(e)[2:]:
        if bit == "1":
            v, w = (v * w - t) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - t) % p
    return "divides" if (v - 2) % p == 0 else "coprime"


class TestUnitPower:
    @pytest.mark.parametrize("d", [2, 5, 13, 17, 29])
    def test_reduced_exponent_equals_unreduced_ladder(self, d):
        # the ladder runs on e mod (p^2 - 1); exponents on both sides of the
        # group orders p - 1, p + 1 and p^2 - 1 of the residue fields
        f = make_field(d)
        rng = random.Random(0x1AD + d)
        for p in (q for q in primes_up_to(1999) if q >= 5 and f.disc % q):
            ks = (1, 2, rng.randrange(3, 10**6))
            es = [rng.randrange(1, 2**100) for _ in range(3)]
            es += [k * n + s for k in ks for n in (p * p - 1, p - 1, p + 1) for s in (-1, 0, 1)]
            for e in es:
                assert unit_power_check(f, p, e) == _unreduced_unit_check(f, p, e), (p, e)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 15, 17, 29, 94])
    def test_ramified_primes_match_the_direct_norm(self, d):
        # the one prime P over a ramified p has residue field F_p, so the
        # reduced ladder holds there too, and p | N(u_plus^e - 1) exactly
        # when P | u_plus^e - 1; e < 200 passes p^2 - 1 for p <= 13
        f = make_field(d)
        ramified = [p for p in primes_up_to(f.disc) if f.disc % p == 0]
        assert ramified and all(kronecker(f.disc, p) == 0 for p in ramified)
        x = QuadElement(d, Fraction(1), Fraction(0))
        for e in range(1, 200):
            x = x * f.u_plus
            norm = (x.x - 1) ** 2 - d * x.y**2
            for p in ramified:
                want = "divides" if norm % p == 0 else "coprime"
                assert unit_power_check(f, p, e) == want, (p, e)

    def test_examples(self):
        f = make_field(2)
        assert unit_power_check(f, 7, 1) == "coprime"
        assert unit_power_check(f, 7, 3) == "divides"

    @pytest.mark.parametrize("d", [2, 5, 13, 17, 21])
    def test_matches_brute_force_norm(self, d):
        # divides <=> p | N(u_plus^e - 1), checked by exact element powers
        f = make_field(d)
        x, norms = QuadElement(d, Fraction(1), Fraction(0)), []
        for e in range(1, 30):
            x = x * f.u_plus
            norm = (x.x - 1) ** 2 - d * x.y**2
            assert norm.denominator == 1
            norms.append(int(norm))
        for p in [q for q in primes_up_to(100) if f.disc % q]:
            for e, norm in enumerate(norms, 1):
                want = "divides" if norm % p == 0 else "coprime"
                assert unit_power_check(f, p, e) == want, (p, e)

    def test_candidate_prime_exponent(self):
        f = make_field(2)
        e = index_iota1(f, ideal_pow(principal_ideal(f, 20149), 2))
        assert unit_power_check(f, 281, e) == "coprime"

    def test_kronecker_consistency(self):
        # splitting is governed by the Kronecker symbol of the discriminant
        f = make_field(13)
        for p in (3, 5, 7, 11, 17, 23):
            st = splitting_by_roots(f, p)
            k = kronecker(13, p)
            assert (st == "split") == (k == 1)
            assert (st == INERT) == (k == -1)
