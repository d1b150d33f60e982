"""The quadratic value table, power sums, Siegel's divisor sum and the
Bernoulli numbers against the direct oracles.

`_oracle_value_table` is the prime sieve the CRT-tiled table replaced: it
fills the table by complete multiplicativity from chi at every prime below
the conductor.  `_oracle_gen_bernoulli` is the per-residue loop the masked
power-sum passes replaced.  `_oracle_bernoulli` is the `Fraction` recurrence
the tangent numbers replaced.  `_oracle_power_sums` is the parity-derived
power-sum kernel the centered power sums replaced; at weight 2 its sums are
also the reference for Siegel's divisor sum.  All are kept here only as
the references the kernels must equal exactly.
"""

import math
from array import array
from fractions import Fraction
from itertools import compress, repeat

import pytest

from eiscong.characters import (
    induce_quadratic,
    is_fundamental_discriminant,
    kronecker_character,
    sign_masks,
    value_table,
)
from eiscong import lseries
from eiscong.lseries import bernoulli_numbers, gen_bernoulli, hecke_L_neg_induced
from eiscong.quadfield import make_field

from character_oracles import primitive_characters

# sieve states: 0 is +1, 1 is -1, 2 is 0
_FLIP_SIGN = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_SIEVE_TO_VALUE = bytes.maketrans(b"\x00\x01\x02", b"\x01\xff\x00")


def _oracle_value_table(chi):
    """chi(0), ..., chi(f - 1) from chi at the primes q < f."""
    f = chi.conductor
    if f == 1:
        return array("b", [chi(0)])
    prime = bytearray([1]) * f
    prime[:2] = b"\0\0"
    for q in range(2, math.isqrt(f - 1) + 1):
        if prime[q]:
            prime[q * q::q] = bytes(len(range(q * q, f, q)))
    state = bytearray(f)
    state[0] = 2
    for q in compress(range(f), prime):
        c = chi(q)
        if c == 0:
            state[q::q] = b"\x02" * len(range(q, f, q))
        elif c == -1:
            qk = q
            while qk < f:
                state[qk::qk] = state[qk::qk].translate(_FLIP_SIGN)
                qk *= q
    return array("b", state.translate(_SIEVE_TO_VALUE))


def _oracle_gen_bernoulli(chi, n):
    """B_{n,chi} = sum_k C(n,k) B_k f^(k-1) S_{n-k}, S_j summed residue by residue."""
    f = chi.conductor
    vals = _oracle_value_table(chi)
    sums = [0] * (n + 1)
    for a in range(1, f + 1):
        x = vals[a % f]
        if x:
            for j in range(n + 1):
                sums[j] += x
                x *= a
    bern = bernoulli_numbers(n)
    return sum(math.comb(n, k) * bern[k] * Fraction(f) ** (k - 1) * sums[n - k]
               for k in range(n + 1))


def _oracle_bernoulli(n):
    """[B_0, ..., B_n] by the recurrence sum_{k<=m} C(m+1,k) B_k = 0."""
    table = [Fraction(1)]
    for m in range(1, n + 1):
        table.append(-sum(math.comb(m + 1, k) * table[k] for k in range(m)) / (m + 1))
    return table


def _power_sum_b2(chi):
    """B_{2,chi} = S_2/f - S_1 + f S_0/6 from the power sums."""
    f = chi.conductor
    s0, s1, s2 = _oracle_power_sums(chi, 2)
    return Fraction(s2, f) - s1 + Fraction(f * s0, 6)


def _no_work(*args):
    raise AssertionError("a value table or power sum was built")


FUNDAMENTAL_400 = [1] + [D for a in range(2, 401) for D in (a, -a)
                         if is_fundamental_discriminant(D)]
GENERIC_MODULI = (3, 4, 5, 8, 12, 15, 21, 24, 40, 105)


def _oracle_power_sums(chi, n):
    """[S_0, ..., S_n], S_j = sum_{a=1..f} chi(a) a^j, chi of order 2.

    A sum with chi(-1) (-1)^j = -1 is derived from all lower ones,
    2 S_j = chi(-1) sum_{i<j} C(j,i) f^(j-i) (-1)^i S_i; the others are one
    masked pass of pow each.
    """
    f = chi.conductor
    table = value_table(chi).tobytes()
    plus, minus = bytes(x == 1 for x in table), bytes(x == 0xFF for x in table)
    sign = -1 if table[-1] == 0xFF else 1  # chi(-1)
    sums = [table.count(1) - table.count(0xFF)]
    for j in range(1, n + 1):
        if sign * (-1) ** j == -1:
            acc = sum(math.comb(j, i) * f ** (j - i) * (-1) ** i * sums[i] for i in range(j))
            sums.append(sign * acc // 2)
        else:
            sums.append(sum(map(pow, compress(range(f), plus), repeat(j)))
                        - sum(map(pow, compress(range(f), minus), repeat(j))))
    return sums


def _power_sums_bernoulli(chi, n):
    """B_{n,chi} = sum_k C(n,k) B_k f^(k-1) S_{n-k} from `_oracle_power_sums`."""
    f = chi.conductor
    sums = _oracle_power_sums(chi, n)
    bern = bernoulli_numbers(n)
    return sum(math.comb(n, k) * bern[k] * Fraction(f) ** (k - 1) * sums[n - k]
               for k in range(n + 1))


def _two_part(D):
    """The 2-part of a fundamental discriminant: D over its odd part p* product."""
    u = D
    while u % 2 == 0:
        u //= 2
    return D // (u if u % 4 == 1 else -u)


def _generic_quadratics(m):
    return [chi for chi in primitive_characters(m) if chi.order == 2]


class TestValueTable:
    def test_fundamental_discriminants_to_400(self):
        assert len(FUNDAMENTAL_400) > 240
        for D in FUNDAMENTAL_400:
            chi = kronecker_character(D)
            assert value_table(chi) == _oracle_value_table(chi), D

    @pytest.mark.parametrize("m", GENERIC_MODULI)
    def test_generic_quadratic_characters(self, m):
        chars = _generic_quadratics(m)
        assert chars
        for chi in chars:
            assert value_table(chi) == _oracle_value_table(chi)

    @pytest.mark.parametrize("D", (20149, 161192, -80596, 1021020, 2042040))
    def test_large_conductors(self, D):
        chi = kronecker_character(D)
        assert value_table(chi) == _oracle_value_table(chi)

    @pytest.mark.parametrize("D", (1, -4, 8, 13, -163, 20149))
    def test_sign_masks(self, D):
        table = value_table(kronecker_character(D))
        plus, minus = sign_masks(table.tobytes())
        assert list(plus) == [int(c == 1) for c in table]
        assert list(minus) == [int(c == -1) for c in table]


class TestGenBernoulli:
    def test_fundamental_discriminants_to_400(self):
        # D = 1, both parities and the 2-parts -4, 8, -8 all occur
        assert {_two_part(D) for D in FUNDAMENTAL_400} == {1, -4, 8, -8}
        for D in FUNDAMENTAL_400:
            chi = kronecker_character(D)
            for n in range(1, 7):
                assert gen_bernoulli(chi, n) == _oracle_gen_bernoulli(chi, n), (D, n)

    @pytest.mark.parametrize("m", GENERIC_MODULI)
    def test_generic_quadratic_characters(self, m):
        for chi in _generic_quadratics(m):
            for n in range(1, 7):
                assert gen_bernoulli(chi, n) == _oracle_gen_bernoulli(chi, n), (chi, n)

    @pytest.mark.parametrize("D", (20149, 161192, -80596))
    def test_large_conductors(self, D):
        chi = kronecker_character(D)
        for n in (1, 2):
            assert gen_bernoulli(chi, n) == _oracle_gen_bernoulli(chi, n), n

    def test_high_weight(self):
        # many derived sums in a row: an error in one carries into the rest
        for D in (5, -3, 8, -8, 12, -4):
            chi = kronecker_character(D)
            assert gen_bernoulli(chi, 15) == _oracle_gen_bernoulli(chi, 15), D
            assert gen_bernoulli(chi, 16) == _oracle_gen_bernoulli(chi, 16), D

    @pytest.mark.parametrize("D", (5, 8, 12, 13, 28, 56, 1001, -4, -3, -163))
    def test_centered_sums_equal_the_derived_power_sums(self, D):
        chi = kronecker_character(D)
        for n in range(1, 30):
            assert gen_bernoulli(chi, n) == _power_sums_bernoulli(chi, n), n

    @pytest.mark.parametrize("D,n", [(28, 200), (-3, 151), (1001, 60), (-163, 47)])
    def test_centered_sums_at_high_weight(self, D, n):
        chi = kronecker_character(D)
        assert gen_bernoulli(chi, n) == _power_sums_bernoulli(chi, n)

    @pytest.mark.parametrize("D", (5, 8, -4, -3, 12, 21, -20, 105))
    def test_centered_sums_are_their_definition(self, D):
        chi = kronecker_character(D)
        f = chi.conductor
        for n in (1, 2, 6, 7):
            if chi.is_even() == (n % 2 == 0):
                want = {m: sum(chi(a) * (2 * a - f) ** m for a in range(1, f + 1))
                        for m in range(n % 2, n + 1, 2)}
                assert lseries._centered_power_sums(chi, n) == want

    def test_weight_above_the_cap_is_rejected(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work done for a rejected weight")

        monkeypatch.setattr(lseries, "_centered_power_sums", no_work)
        monkeypatch.setattr(lseries, "bernoulli_numbers", no_work)
        with pytest.raises(ValueError, match="cap"):
            gen_bernoulli(kronecker_character(5), 10**4 + 1)


class TestSiegelWeightTwo:
    def test_fundamental_discriminants_to_5000(self):
        discs = [D for a in range(5, 5001) for D in (a, -a)
                 if is_fundamental_discriminant(D)]
        assert len(discs) > 3000
        for D in discs:
            chi = kronecker_character(D)
            assert gen_bernoulli(chi, 2) == _power_sum_b2(chi), D

    @pytest.mark.parametrize("m", GENERIC_MODULI)
    def test_generic_quadratic_characters(self, m):
        for chi in _generic_quadratics(m):
            assert gen_bernoulli(chi, 2) == _power_sum_b2(chi), chi

    def test_headline_value(self):
        # L_F(-1, eps) for F = Q(sqrt 2), m = 20149: B_{2,chi1}/2 = 134170 and
        # B_{2,chi2}/2 = 2782462
        eps = induce_quadratic(make_field(2), 20149)
        assert hecke_L_neg_induced(eps, 2).value == 373322926540
        assert gen_bernoulli(kronecker_character(20149), 2) == 268340
        assert gen_bernoulli(kronecker_character(161192), 2) == 5564924

    def test_weight_two_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(lseries, "_centered_power_sums", _no_work)
        monkeypatch.setattr(lseries, "value_table", _no_work)
        generic = [chi for m in GENERIC_MODULI for chi in _generic_quadratics(m)
                   if chi.is_even()]
        assert generic
        for chi in [kronecker_character(D) for D in (5, 8, 12, 20149, 161192)] + generic:
            assert gen_bernoulli(chi, 2) > 0, chi

    def test_parity_zero_before_any_work(self, monkeypatch):
        monkeypatch.setattr(lseries, "_centered_power_sums", _no_work)
        monkeypatch.setattr(lseries, "value_table", _no_work)
        for D, n in ((-4, 2), (-80596, 2), (5, 3), (5, 1), (-3, 6), (8, 15)):
            b = gen_bernoulli(kronecker_character(D), n)
            assert b == 0 and isinstance(b, Fraction), (D, n)


class TestBernoulliNumbers:
    def test_tangent_numbers_match_recurrence(self):
        want = _oracle_bernoulli(600)
        assert bernoulli_numbers(600) == want
        assert bernoulli_numbers(0) == [1]
        assert bernoulli_numbers(1) == want[:2]

    def test_rejects_negative_and_above_the_cap(self):
        for n in (-1, lseries.BERNOULLI_CAP + 1):
            with pytest.raises(ValueError):
                bernoulli_numbers(n)
