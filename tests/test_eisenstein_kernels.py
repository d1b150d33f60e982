"""The Euler-product coefficient layer against the divisor-sum code it replaced.

`_oracle_enumerate_ideals` is the earlier ideal walk: one `ideal_mul` per new
ideal and an `IdealQF.norm` per (prime ideal, ideal so far) pair.
`_oracle_coefficient_at` is the earlier divisor sum
C(a) = sum_{c | a} eps(a/c) 1_(m)(c) N(c) over `ideal_divisors(a)`.  They are
kept here only as the references that `eisenstein_coeffs` (its walk and its
values) and `coefficient_at` must equal exactly: same ideals in the same
order, same `int` values.  `ideal_oracles.enumerate_ideals` builds the same
ideals a third way, norm by norm.
"""

import math
import random

import pytest

from eiscong.arith import is_squarefree, primes_up_to
from eiscong.eisenstein import eisenstein_coeffs, stripped_eisenstein
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


def _walk_keys(field, bound):
    """The ideals eisenstein_coeffs keys, in its order; they do not depend on m."""
    series = stripped_eisenstein(field, _smallest(field, "split", 3))
    return list(eisenstein_coeffs(series, bound).coeffs)


@pytest.mark.parametrize("d", FIELDS)
def test_enumerate_ideals_matches_oracle(d):
    f = make_field(d)
    q2 = _inert_square(f)
    for bound in BOUNDS + (q2 - 1, q2):
        want = _oracle_enumerate_ideals(f, bound)
        assert enumerate_ideals(f, bound) == want, bound
        assert _walk_keys(f, bound) == want, bound


@pytest.mark.parametrize("bound", [0, -5])
def test_enumerate_ideals_empty_below_one(bound):
    # the unit ideal has norm 1, which exceeds any bound < 1
    f = make_field(2)
    assert enumerate_ideals(f, bound) == []
    assert _walk_keys(f, bound) == []


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


# 2 ramifies in d = 2, 3, 6, 7, 94, is inert in d = 5, 13, 29 and splits in
# d = 17; d = 6 and 94 are 2 mod 4, d = 3 and 7 are 3 mod 4.  The bounds
# include both sides of the inert squares 9, 25, 121 and 169 (3, 5, 11 and
# 13 are inert in Q(sqrt 2)), where an inert prime enters or leaves the walk
GRID_FIELDS = (2, 3, 5, 6, 7, 13, 17, 29, 94)
INERT_SQUARE_BOUNDS = (8, 9, 24, 25, 120, 121, 168, 169)
GRID_BOUNDS = (1, 2, 3, 4, 50, 600, 1500) + INERT_SQUARE_BOUNDS


def _grid_levels(field, count=8):
    """Seeded odd squarefree m in [3, 3000) prime to disc, the inputs induce_quadratic takes."""
    rng = random.Random(0x1DEA1 + field.d)
    out = []
    while len(out) < count:
        m = rng.randrange(3, 3000, 2)
        if m not in out and math.gcd(m, field.disc) == 1 and is_squarefree(m):
            out.append(m)
    return out


@pytest.mark.parametrize("d", GRID_FIELDS)
def test_eps_rule_equals_value_on_ideal(d):
    # eisenstein_coeffs takes eps(q) from p alone, by Euler's criterion on
    # the leaves over p > max(2, sqrt(bound)), so C(q) = eps(q) + N(q), or 0
    # when q | (m), at every prime ideal of norm <= 1500; below bound 4 the
    # prime 2 lies above sqrt(bound) and must still take the per-prime path
    f = make_field(d)
    levels = _grid_levels(f) + [_smallest(f, "split", 3) * _smallest(f, INERT, 3)]
    assert {m % 4 for m in levels} == {1, 3}  # chi1 = (m | .) and (4m | .)
    want_primes = [a for a in enumerate_ideals(f, 1500)
                   if len(a.factors) == 1 and a.factors[0][2] == 1]
    kinds = set()
    for m in levels:
        series = stripped_eisenstein(f, m)
        for bound in (1, 2, 3, 4, 1500):
            coeffs = eisenstein_coeffs(series, bound).coeffs
            primes = [a for a in coeffs if len(a.factors) == 1 and a.factors[0][2] == 1]
            assert primes == [a for a in want_primes if a.norm <= bound], (m, bound)
            for q in primes:
                p, tag, _ = q.factors[0]
                if m % p == 0:
                    kinds.add(tag)
                    want = 0
                else:
                    want = series.eps.value_on_ideal(q) + q.norm
                assert coeffs[q] == want, (m, bound, str(q))
    assert INERT in kinds and SPLIT1 in kinds  # level primes of both kinds


@pytest.mark.parametrize("d", GRID_FIELDS)
def test_walk_order_on_seeded_grid(d):
    # the preorder walk sorted on the norm alone is the (norm, factors) order,
    # and its keys are the ideals the norm-by-norm oracle builds
    f = make_field(d)
    want = {bound: enumerate_ideals(f, bound) for bound in GRID_BOUNDS}
    for m in _grid_levels(f):
        series = stripped_eisenstein(f, m)
        for bound in GRID_BOUNDS:
            ideals = eisenstein_coeffs(series, bound).ideals()
            assert ideals == sorted(ideals, key=lambda a: (a.norm, a.factors)), (m, bound)
            assert ideals == want[bound], (m, bound)
            assert all(type(a) is IdealQF for a in ideals), (m, bound)


@pytest.mark.parametrize("d", GRID_FIELDS)
def test_every_bound_to_300_is_a_prefix_of_the_oracle(d):
    # at a node of norm n the walk takes the primes with p^2 <= bound/n one by
    # one and appends the later norm-p children in one batch; every bound,
    # the INERT_SQUARE_BOUNDS among them, moves that split at some node
    f = make_field(d)
    series = stripped_eisenstein(f, _grid_levels(f, 1)[0])
    want = [(a, _oracle_coefficient_at(series, a)) for a in enumerate_ideals(f, 300)]
    for bound in range(1, 301):
        got = list(eisenstein_coeffs(series, bound).coeffs.items())
        assert got == [(a, c) for a, c in want if a.norm <= bound], bound
