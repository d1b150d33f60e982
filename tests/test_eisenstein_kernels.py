"""The Euler-product coefficient layer against the divisor-sum code it replaced.

`_oracle_enumerate_ideals` is the earlier ideal walk: one `ideal_mul` per new
ideal and an `IdealQF.norm` per (prime ideal, ideal so far) pair.
`_oracle_coefficient_at` is the earlier divisor sum
C(a) = sum_{c | a} eps(a/c) 1_(m)(c) N(c) over `ideal_divisors(a)`.  They are
kept here only as the references that `_ideal_walk` (read through
`enumerate_ideals`), `coefficient_at` and `eisenstein_coeffs` must equal exactly: same ideals in the same order, same
`int` values.
"""

import random

import pytest

from eiscong.arith import primes_up_to
from eiscong.characters import induce_quadratic, value_table
from eiscong.eisenstein import _ideal_walk, eisenstein_coeffs, stripped_eisenstein
from eiscong.quadfield import (
    INERT,
    RAMIFIED,
    SPLIT1,
    SPLIT2,
    IdealQF,
    ideal_pow,
    make_field,
    principal_ideal,
)

from hecke_oracles import series_level
from ideal_oracles import (
    coprime_to,
    enumerate_ideals,
    ideal_divide,
    ideal_divisors,
    ideal_mul,
    splitting_by_roots,
)


def _oracle_enumerate_ideals(field, bound):
    primes = []
    for p in primes_up_to(bound):
        st = splitting_by_roots(field, p)
        if st == "split":
            primes.append((p, SPLIT1, p))
            primes.append((p, SPLIT2, p))
        elif st == RAMIFIED:
            primes.append((p, RAMIFIED, p))
        else:
            if p * p <= bound:
                primes.append((p, INERT, p * p))
    ideals = [principal_ideal(field, 1)]
    for p, tag, nrm in primes:
        new = []
        for ideal in ideals:
            n = ideal.norm
            e = 1
            while n * nrm**e <= bound:
                new.append(ideal_mul(ideal, IdealQF(field.d, ((p, tag, e),))))
                e += 1
        ideals.extend(new)
    return sorted(ideals, key=lambda i: (i.norm, i.factors))


def _oracle_coefficient_at(series, a):
    eps = series.eps
    acc = 0
    for c in ideal_divisors(a):
        v1 = eps.value_on_ideal(ideal_divide(a, c))
        if v1 and coprime_to(c, eps.modulus_ideal):
            acc += v1 * c.norm
    return acc


# 2 ramifies in d = 2, 3, 7, is inert in d = 5, 13, 29 and splits in d = 17
FIELDS = (2, 3, 5, 7, 13, 17, 29)
BOUNDS = (1, 2, 3, 4, 97, 1500)


def _smallest(field, kind, lo):
    return next(p for p in primes_up_to(100)
                if p >= lo and field.disc % p and splitting_by_roots(field, p) == kind)


def _inert_square(field):
    return _smallest(field, INERT, 2) ** 2


def _series_cases(field):
    """(label, series): E_2(eps, 1 mod (m)) for m split, inert and both."""
    ls, li = _smallest(field, "split", 3), _smallest(field, INERT, 3)
    return [(f"m={m}", stripped_eisenstein(field, m)) for m in (ls, li, ls * li)]


@pytest.mark.parametrize("d", FIELDS)
def test_enumerate_ideals_matches_oracle(d):
    f = make_field(d)
    q2 = _inert_square(f)
    for bound in BOUNDS + (q2 - 1, q2):
        assert enumerate_ideals(f, bound) == _oracle_enumerate_ideals(f, bound), bound


@pytest.mark.parametrize("bound", [0, -5])
def test_enumerate_ideals_empty_below_one(bound):
    # the unit ideal has norm 1, which exceeds any bound < 1
    assert enumerate_ideals(make_field(2), bound) == []


@pytest.mark.parametrize("d", FIELDS)
def test_eisenstein_coeffs_match_oracle(d):
    f = make_field(d)
    ls, li = _smallest(f, "split", 3), _smallest(f, INERT, 3)
    for label, series in _series_cases(f):
        # m split or inert alone is a special case of m = split * inert
        top = () if label in (f"m={ls}", f"m={li}") else (1500,)
        for bound in BOUNDS[:-1] + (_inert_square(f),) + top:
            got = eisenstein_coeffs(series, bound).coeffs
            want = [(a, _oracle_coefficient_at(series, a))
                    for a in _oracle_enumerate_ideals(f, bound)]
            assert list(got.items()) == want, (label, bound)
            assert all(type(v) is int for v in got.values()), (label, bound)


@pytest.mark.parametrize("d", FIELDS)
def test_coefficient_at_high_exponents(d):
    f = make_field(d)
    ls, li = _smallest(f, "split", 3), _smallest(f, INERT, 3)
    primes = []
    for p in sorted({2, 3, 5, 7, ls, li}):
        primes.extend(principal_ideal(f, p).prime_factors())
    rng = random.Random(d)
    products = []
    for _ in range(12):
        a = principal_ideal(f, 1)
        for q in rng.sample(primes, 3):
            a = ideal_mul(a, ideal_pow(q, rng.randrange(1, 6)))
        products.append(a)
    for label, series in _series_cases(f):
        for q in primes:
            for e in range(7):
                a = ideal_pow(q, e)
                got = series.coefficient_at(a)
                assert got == _oracle_coefficient_at(series, a), (label, str(a))
                assert type(got) is int
            if coprime_to(q, series_level(series)):
                want = series.eps.value_on_ideal(q) + q.norm
                assert series.coefficient_at(q) == want, (label, str(q))
        for a in products:
            assert series.coefficient_at(a) == _oracle_coefficient_at(series, a), (label, str(a))


# the census fields; level primes lie over m, which is prime to disc, so they
# split or stay inert, while the ramified primes of F enter every walk
WALK_FIELDS = (2, 5, 13, 17, 29)
WALK_BOUNDS = (1, 2, 3, 50, 1500)


def _seeded_levels(field):
    """Seeded odd squarefree m prime to disc: split, inert, split * inert.

    The primes are drawn so that the level primes have norm <= 1500 and so
    enter the walk: a split one below 400, an inert one with p^2 <= 1500.
    """
    rng = random.Random(0xC0EF + field.d)
    pool = [p for p in primes_up_to(400) if p > 2 and field.disc % p]
    ls = rng.choice([p for p in pool if splitting_by_roots(field, p) == "split"])
    li = rng.choice([p for p in pool if p * p <= 1500 and splitting_by_roots(field, p) == INERT])
    return (ls, li, ls * li)


@pytest.mark.parametrize("d", WALK_FIELDS)
def test_walk_coefficients_equal_oracle_at_seeded_levels(d):
    f = make_field(d)
    ideals = {bound: _oracle_enumerate_ideals(f, bound) for bound in WALK_BOUNDS}
    for m in _seeded_levels(f):
        series = stripped_eisenstein(f, m)
        for bound in WALK_BOUNDS:
            got = list(eisenstein_coeffs(series, bound).coeffs.items())
            want = [(a, _oracle_coefficient_at(series, a)) for a in ideals[bound]]
            assert got == want, (m, bound)


@pytest.mark.parametrize("d", WALK_FIELDS)
def test_table_read_eps_equals_value_on_ideal(d):
    # eisenstein_coeffs reads eps(q) as chi1's table at N(q) mod f, 0 when
    # q lies over m; the walk's prime list is every prime ideal of norm <= 1500
    f = make_field(d)
    primes, _ = _ideal_walk(f, 1500)
    want = [a.factors[0] for a in _oracle_enumerate_ideals(f, 1500)
            if len(a.factors) == 1 and a.factors[0][2] == 1]
    assert [(p, tag, 1) for p, tag, _, _ in primes] == sorted(want)
    for m in _seeded_levels(f):
        eps = induce_quadratic(f, m)
        table = value_table(eps.chi1)
        for p, tag, nq, _ in primes:
            read = 0 if m % p == 0 else table[nq % len(table)]
            assert read == eps.value_on_ideal(IdealQF(d, ((p, tag, 1),))), (m, p, tag)
