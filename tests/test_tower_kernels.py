"""The distribution-tower kernels against the per-unit code they replaced.

The `_oracle_*` functions are the earlier per-unit forms of
`bernoulli_family`, `stabilize`, `check_distribution` and
`to_iwasawa_series`: two Fractions and a subtraction per B1 value, a CRT per
twisted unit, Fraction fiber sums, and one `series_unit_log_ratio` (a
Teichmuller lift and two logs, from padic_oracles) per wild class with an
M-term update per unit.  They are kept here only as the references the
tower kernels must equal exactly.  They read and build families by value,
through the `fraction_levels` helpers.  The bridge oracle is also the only
code left that reads log_u<a> through p-adic logarithms and binomial rows;
the kernel reads it off the powers of u.  The oracle reads level V and the
kernel level V - 1, so they agree on distributions; on other families the
kernel is the oracle of level V - 1 lifted to the top
(test_bridge_reads_level_v_minus_one).
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eiscong.arith import crt
from eiscong.characters import kronecker_character
from eiscong.cli import main
from eiscong.iwasawa import IwasawaElement, binomial_row, unit_log_ratio
from eiscong.measures import (
    DistributionReport,
    LevelFamily,
    StabilizationParams,
    _exponent_table,
    _teichmuller_powers,
    bernoulli_family,
    bridge_certified_precision,
    check_distribution,
    stabilize,
    teichmuller,
    to_iwasawa_series,
)

from fraction_levels import from_fractions, level_values, map_values
from padic_oracles import series_unit_log_ratio


def _oracle_b1(a, q):
    a %= q
    return Fraction(a, q) - Fraction(1, 2)


def _oracle_bernoulli_family(m0, p, depth):
    values = []
    for nu in range(depth + 1):
        q = m0 * p**nu
        if nu >= 1:
            lvl = {a: _oracle_b1(a, q) for a in range(q) if math.gcd(a, q) == 1}
        elif m0 == 1:
            lvl = {0: Fraction(0)}
        else:
            pinv = pow(p % m0, -1, m0)
            lvl = {a: _oracle_b1(a, m0) - _oracle_b1(pinv * a % m0, m0)
                   for a in range(m0) if math.gcd(a, m0) == 1}
        values.append(lvl)
    return from_fractions(m0, p, depth, values)


def _oracle_tame_twist(fam, a, nu):
    if fam.m0 == 1:
        return a
    if nu == 0:
        return fam.p * a % fam.m0
    return crt(fam.p * a % fam.m0, fam.m0, a % fam.p**nu, fam.p**nu)


def _oracle_stabilize(fam, params):
    alpha, eps = params.alpha, params.eps_p
    values = level_values(fam)
    out = []
    for nu in range(fam.depth + 1):
        scale = Fraction(1) / alpha**nu
        lvl = {}
        for a, v in values[nu].items():
            w = v
            if eps:
                w = w - values[nu][_oracle_tame_twist(fam, a, nu)] * eps / alpha
            lvl[a] = scale * w
        out.append(lvl)
    return from_fractions(fam.m0, fam.p, fam.depth, out)


def _oracle_check_distribution(fam):
    values = level_values(fam)
    checked = 0
    for nu in range(fam.depth):
        q = fam.level_modulus(nu)
        sums = {a: Fraction(0) for a in values[nu]}
        for b, v in values[nu + 1].items():
            sums[b % q if q > 1 else 0] += v
        for a in sorted(values[nu]):
            checked += 1
            if sums[a] != values[nu][a]:
                return DistributionReport(False, checked, (nu, a, values[nu][a], sums[a]))
    return DistributionReport(True, checked)


def _oracle_to_iwasawa_series(fam, chi_tame, omega_power, u, N, M):
    p, V = fam.p, fam.depth
    deepest = level_values(fam)[V]
    den = 1
    for v in deepest.values():
        den = math.lcm(den, v.denominator)
    if den % p == 0:
        raise ValueError("family is not p-integral at the deepest level; stabilize first")
    w = N + V + 4
    mod = p**w
    den_inv = pow(den % mod, -1, mod)
    om_inv = _teichmuller_powers(p, w)((-omega_power) % (p - 1))
    rows = {}
    acc = [0] * M
    for a, v in deepest.items():
        sign = chi_tame(a) if chi_tame.conductor > 1 else 1
        if not sign or not v:
            continue
        ap = a % p**V
        if ap not in rows:
            rows[ap] = binomial_row(series_unit_log_ratio(ap, u, p, w), M, p, w)
        row = rows[ap]
        scal = sign * om_inv[a % p] % mod * \
            ((v.numerator % mod) * ((den // v.denominator) % mod) % mod) % mod
        for j in range(M):
            acc[j] = (acc[j] + scal * row[j]) % mod
    res = [a_ * den_inv % mod for a_ in acc]
    prec = [bridge_certified_precision(V, p, j, N) for j in range(M)]
    out = [r % p**k if k else 0 for r, k in zip(res, prec)]
    return IwasawaElement(p, out, prec)


def _same_family(got, want):
    # both sides are over the least positive common denominator, so equal
    # denominators and numerators are equal values
    assert (got.m0, got.p, got.depth) == (want.m0, want.p, want.depth)
    assert got.den == want.den
    for nu, (g, w) in enumerate(zip(got.num, want.num, strict=True)):
        units = list(got.units(nu))
        assert units == list(want.units(nu))  # the same unit sequence in block order
        assert len(g) == len(units)
        assert g == w


# (m0, tame discriminant D dividing m0, p, depth V)
TOWERS = [(1, 1, 3, 4), (1, 1, 5, 3), (1, 1, 7, 2), (3, -3, 5, 3), (4, -4, 3, 4),
          (5, 5, 3, 4), (8, 8, 3, 3), (8, 8, 5, 3), (12, 12, 5, 3), (12, -3, 7, 2),
          (13, 13, 5, 3), (21, -7, 5, 2), (24, 24, 5, 2), (28, 28, 3, 3)]

PARAMS = [StabilizationParams(1, 1), StabilizationParams(1, 0), StabilizationParams(1, -1),
          StabilizationParams(Fraction(2, 11), Fraction(1, 2)), StabilizationParams(-4, 1),
          StabilizationParams(Fraction(-11, 4), 0)]


@pytest.mark.parametrize("m0,D,p,V", TOWERS)
class TestTowerKernels:
    def test_bernoulli_family(self, m0, D, p, V):
        _same_family(bernoulli_family(m0, p, V), _oracle_bernoulli_family(m0, p, V))

    def test_tame_twist_is_the_crt_twist(self, m0, D, p, V):
        fam = bernoulli_family(m0, p, V)
        for nu in range(V + 1):
            q, e = fam.level_modulus(nu), fam.tame_unit(nu)
            assert all(a * e % q == _oracle_tame_twist(fam, a, nu) for a in fam.units(nu))

    @pytest.mark.parametrize("params", PARAMS, ids=lambda s: f"{s.alpha}_{s.eps_p}")
    def test_stabilize_and_check(self, m0, D, p, V, params):
        fam = bernoulli_family(m0, p, V)
        got = stabilize(fam, params)
        want = _oracle_stabilize(fam, params)
        _same_family(got, want)
        assert check_distribution(got) == _oracle_check_distribution(want)

    @pytest.mark.parametrize("omega_power", (0, 1, 2))
    def test_bridge(self, m0, D, p, V, omega_power):
        chi = kronecker_character(D)
        for params in PARAMS:
            stab = stabilize(bernoulli_family(m0, p, V), params)
            try:
                want = _oracle_to_iwasawa_series(stab, chi, omega_power, 1 + p, V - 1, 6)
            except ValueError:
                with pytest.raises(ValueError, match="p-integral"):
                    to_iwasawa_series(stab, chi, omega_power, 1 + p, V - 1, 6)
                continue
            got = to_iwasawa_series(stab, chi, omega_power, 1 + p, V - 1, 6)
            assert (got.res, got.prec) == (want.res, want.prec)
            assert got.to_json() == want.to_json()


def _assert_least_denominators(fam):
    for nu, (den, lvl) in enumerate(zip(fam.den, fam.num, strict=True)):
        assert den > 0
        assert math.gcd(den, *lvl) == 1
        assert den == math.lcm(*(fam.value(a, nu).denominator for a in fam.units(nu)))


# (m0, p): m0 = 1, odd m0, and even m0 with q = m0 p^nu 0 and 2 mod 4
INVARIANT_TOWERS = [(1, 3), (1, 5), (2, 3), (3, 5), (4, 3), (6, 5), (8, 3), (10, 3),
                    (12, 5), (13, 7)]


@settings(max_examples=60, deadline=None)
@given(tower=st.sampled_from(INVARIANT_TOWERS), depth=st.integers(1, 3),
       alpha=st.fractions(-12, 12, max_denominator=12),
       eps=st.fractions(-6, 6, max_denominator=6))
@example(tower=(1, 5), depth=3, alpha=Fraction(1), eps=Fraction(1))
@example(tower=(12, 5), depth=3, alpha=Fraction(-4), eps=Fraction(0))
@example(tower=(10, 3), depth=2, alpha=Fraction(-11, 4), eps=Fraction(1, 2))
def test_levels_are_over_their_least_denominator(tower, depth, alpha, eps):
    m0, p = tower
    assume(alpha and alpha.numerator % p and alpha.denominator % p)
    fam = bernoulli_family(m0, p, depth)
    _assert_least_denominators(fam)
    stab = stabilize(fam, StabilizationParams(alpha, eps))
    _assert_least_denominators(stab)
    _assert_least_denominators(stabilize(stab, StabilizationParams(alpha, eps)))


# (m0, p, depth) for the block layout: m0 = 1, p < m0 and p > m0, and even m0
# with q = m0 p^nu = 2 mod 4
BLOCK_TOWERS = sorted({(m0, p, V) for m0, D, p, V in TOWERS}
                      | {(m0, p, 2) for m0, p in INVARIANT_TOWERS})


@pytest.mark.parametrize("m0,p,V", BLOCK_TOWERS)
class TestBlockLayout:
    def test_units_are_the_units_in_block_order(self, m0, p, V):
        fam = bernoulli_family(m0, p, V)
        for nu in range(V + 1):
            q = fam.level_modulus(nu)
            units = list(fam.units(nu))
            assert sorted(units) == [a for a in range(q) if math.gcd(a, q) == 1]
            assert units == sorted(units, key=lambda a: (a % m0, a))
            assert len(units) == len(fam.num[nu])

    def test_value_is_the_increasing_oracle(self, m0, p, V):
        fam = bernoulli_family(m0, p, V)
        want = level_values(_oracle_bernoulli_family(m0, p, V))
        rng = random.Random(m0 * 1000 + p)
        noise = [{a: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 9))) for a in lvl}
                 for lvl in want]
        rand = from_fractions(m0, p, V, noise)
        for nu in range(V + 1):
            q = fam.level_modulus(nu)
            for a in range(q):
                if math.gcd(a, q) != 1:
                    with pytest.raises(KeyError):
                        fam.value(a, nu)
                    continue
                assert fam.value(a, nu) == want[nu][a]
                assert rand.value(a, nu) == noise[nu][a]
                if nu:
                    assert want[nu][a] == _oracle_b1(a, q)

    def test_block_edge_corruptions(self, m0, p, V):
        # each block's first and last unit, perturbed, against the oracles:
        # the first failing fiber, and the twist that rotates the block edges
        coherent = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
        params = StabilizationParams(Fraction(2, 11), Fraction(1, 2))
        nb = len(coherent.blocks)
        for nu in range(V + 1):
            units = list(coherent.units(nu))
            size = len(units) // nb
            for i in sorted({j for b in range(0, len(units), size) for j in (b, b + size - 1)}):
                vals = level_values(coherent)
                vals[nu][units[i]] += Fraction(1, 2 * p)
                bad = from_fractions(m0, p, V, vals)
                got = check_distribution(bad)
                assert not got.ok
                assert got == _oracle_check_distribution(bad)
                _same_family(stabilize(bad, params), _oracle_stabilize(bad, params))


def test_block_towers_rotate_by_zero_before_and_past_the_skip():
    # stabilize's twist rotates block r' by c: the towers above reach c = 0,
    # 0 < c <= the skipped class of r', and c past it
    seen = set()
    for m0, p, V in BLOCK_TOWERS:
        fam = bernoulli_family(m0, p, V)
        skip = dict(fam.blocks)
        for nu in range(1, V + 1):
            q, e = fam.level_modulus(nu), fam.tame_unit(nu)
            for r, _ in fam.blocks:
                c, r2 = divmod(r * e % q, m0)
                seen.add("zero" if c == 0 else "past" if c > skip[r2] else "before")
    assert seen == {"zero", "before", "past"}


def test_all_zero_levels_have_denominator_one():
    # at m0 = 1 the tame unit is 1, so eps_p = alpha cancels every value
    for alpha in (1, 2, Fraction(-3, 2)):
        stab = stabilize(bernoulli_family(1, 5, 3), StabilizationParams(alpha, alpha))
        assert stab.den == [1] * 4
        assert not any(x for lvl in stab.num for x in lvl)
    zero = map_values(bernoulli_family(3, 5, 3), lambda v: 0)
    assert stabilize(zero, StabilizationParams(Fraction(2, 3), 1)).den == [1] * 4


@pytest.mark.parametrize("seed", range(6))
def test_random_families_and_corruptions(seed):
    # random exact values, not coherent: stabilize on arbitrary input, and
    # the first failing fiber of a corrupted coherent family
    rng = random.Random(seed)
    m0, D, p, V = rng.choice(TOWERS)
    fam = map_values(bernoulli_family(m0, p, V),
                     lambda v: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 25))))
    params = rng.choice(PARAMS)
    _same_family(stabilize(fam, params), _oracle_stabilize(fam, params))
    assert check_distribution(fam) == _oracle_check_distribution(fam)

    coherent = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
    for _ in range(4):
        vals = level_values(coherent)
        nu = rng.randrange(V + 1)
        a = rng.choice(list(vals[nu]))
        vals[nu][a] += Fraction(rng.choice((1, -1)), rng.choice((1, 3, 2 * p)))
        bad = from_fractions(m0, p, V, vals)
        got = check_distribution(bad)
        assert not got.ok
        assert got == _oracle_check_distribution(bad)


def _pushforward(m0, p, V, top):
    """The depth-V family with level V = top ({unit a: value}) and each lower
    level the fiber sums of the one above: a distribution by construction."""
    units = LevelFamily(m0, p, V, [], []).units
    values = [top]
    for nu in range(V - 1, -1, -1):
        q = m0 * p**nu
        lvl = dict.fromkeys(units(nu), Fraction(0))
        for b, v in values[0].items():
            lvl[b % q] += v
        values.insert(0, lvl)
    return from_fractions(m0, p, V, values)


def test_trivial_and_zero_weights():
    # the trivial tame character (conductor 1) under m0 = 3 on the pushforward
    # of random p-integral values, and a pushforward whose values cancel within
    # each wild class
    rng = random.Random(7)
    units = list(LevelFamily(3, 5, 3, [], []).units(3))
    fam = _pushforward(3, 5, 3, {a: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7)))
                                 for a in units})
    assert check_distribution(fam).ok
    chi = kronecker_character(1)
    got = to_iwasawa_series(fam, chi, 1, 6, 4, 6)
    want = _oracle_to_iwasawa_series(fam, chi, 1, 6, 4, 6)
    assert any(got.res) and (got.res, got.prec) == (want.res, want.prec)
    # the lifts c, c + 125, c + 250 of a class c mod 125 meet each residue mod 3 once
    cancel = _pushforward(3, 5, 3, {a: Fraction(1 if a % 3 == 1 else -1) for a in units})
    got = to_iwasawa_series(cancel, chi, 1, 6, 4, 6)
    assert got.res == _oracle_to_iwasawa_series(cancel, chi, 1, 6, 4, 6).res == [0] * 6


def _lift_to_the_top(fam):
    """fam with level V replaced by level V - 1 lifted: each value on its unit b itself."""
    V = fam.depth
    vals = level_values(fam)
    vals[V] = {a: vals[V - 1].get(a, Fraction(0)) for a in vals[V]}
    return from_fractions(fam.m0, fam.p, V, vals)


@pytest.mark.parametrize("V", (3, 4))
@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("m0,D", [(3, -3), (8, 8), (12, 12), (13, 13)])
def test_bridge_reads_level_v_minus_one(m0, D, p, V):
    # on any p-integral family, distribution or not, the bridge is the oracle
    # of the family whose top level is level V - 1 lifted
    rng = random.Random(m0 * 100 + p * 10 + V)
    fam = map_values(bernoulli_family(m0, p, V),
                     lambda v: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 11))))
    assert not check_distribution(fam).ok
    chi, lifted = kronecker_character(D), _lift_to_the_top(fam)
    for omega_power in (0, 1, 2):
        got = to_iwasawa_series(fam, chi, omega_power, 1 + p, V - 1, 6)
        want = _oracle_to_iwasawa_series(lifted, chi, omega_power, 1 + p, V - 1, 6)
        assert any(got.res) and got.to_json() == want.to_json(), omega_power


@pytest.mark.parametrize("m0,D,p", [(12, 12, 5), (8, 8, 7), (13, 13, 5), (3, -3, 5)])
def test_bridge_at_depth_two_reads_level_one(m0, D, p):
    # level 1 has one wild class: a_0 carries N digits and every a_j, j >= 1, none
    stab = stabilize(bernoulli_family(m0, p, 2), StabilizationParams(1, 1))
    chi = kronecker_character(D)
    for omega_power in (0, 1, 2):
        got = to_iwasawa_series(stab, chi, omega_power, 1 + p, 4, 5)
        want = _oracle_to_iwasawa_series(stab, chi, omega_power, 1 + p, 4, 5)
        assert got.to_json() == want.to_json(), omega_power
        assert got.prec == [4, 0, 0, 0, 0]


def test_bridge_gates_level_v_minus_one():
    # p-integral at level V, but not at level V - 1
    stab = stabilize(bernoulli_family(12, 5, 3), StabilizationParams(1, 1))
    vals = level_values(stab)
    vals[2][1] += Fraction(1, 5)
    bad = from_fractions(12, 5, 3, vals)
    assert bad.den[3] % 5 and bad.den[2] % 5 == 0
    with pytest.raises(ValueError, match="p-integral"):
        to_iwasawa_series(bad, kronecker_character(12), 1, 6, 2, 4)


def _generators(p):
    return (1 + p, 1 + 2 * p, 1 - p, (1 + p) ** 2 * (1 + p**2))


@pytest.mark.parametrize("p,V", [(3, 6), (5, 4), (7, 3), (11, 3), (13, 2)])
def test_exponent_table_is_the_log_to_base_u(p, V):
    # log_u<c> = i mod p^(V-1) where <c> = u^i mod p^V, at every unit c
    pV = p**V
    for u in _generators(p):
        index = _exponent_table(u, p, V)
        assert sorted(index[x] for x in range(1, pV, p)) == list(range(p ** (V - 1)))
        for c in range(pV):
            if c % p:
                one_unit = c * pow(teichmuller(c, p, V), -1, pV) % pV
                assert (unit_log_ratio(c, u, p, V + 2) - index[one_unit]) % p ** (V - 1) == 0, \
                    (u, c)


@pytest.mark.parametrize("m0,p,V", [(13, 5, 5), (5, 7, 4), (8, 3, 6), (12, 5, 5), (1, 11, 3)])
def test_bridge_at_other_generators(m0, p, V):
    stab = stabilize(bernoulli_family(m0, p, V), StabilizationParams(1, 1))
    chi = kronecker_character(m0)
    for u in _generators(p):
        for omega_power in (0, 1, 2):
            got = to_iwasawa_series(stab, chi, omega_power, u, V - 1, 7)
            want = _oracle_to_iwasawa_series(stab, chi, omega_power, u, V - 1, 7)
            assert got.to_json() == want.to_json(), (u, omega_power)


@pytest.mark.parametrize("u", [26, 2])
def test_bridge_rejects_a_non_generator(u):
    # checked before any weight is read, so an all-zero family raises too
    zero = map_values(bernoulli_family(1, 5, 3), lambda v: 0)
    with pytest.raises(ValueError, match="generate"):
        to_iwasawa_series(zero, kronecker_character(1), 0, u, 2, 4)


# prefix of the sha256 of these series from the log-and-binomial-row bridge
DEEP_BRIDGE_SHA256 = "62a9bd8a9745e6e4"


def test_deep_towers_pinned():
    # (D, p, V, j) at depths the oracle comparisons above do not reach
    series = []
    for D, p, V, j in [(12, 5, 7, 1), (13, 3, 10, 1), (5, 7, 6, 2)]:
        stab = stabilize(bernoulli_family(D, p, V), StabilizationParams(1, 1))
        series.append(to_iwasawa_series(stab, kronecker_character(D), j, 1 + p, V - 2,
                                        12).to_json())
    digest = hashlib.sha256(json.dumps(series, sort_keys=True).encode()).hexdigest()
    assert digest.startswith(DEEP_BRIDGE_SHA256), digest


# sha256 prefixes of the bridge series at the bench's tower inputs (D, p, V), with
# N = V - 2 and M = 8 as there
TOWER_BRIDGE_SHA256 = {(13, 5, 5): "652ef596610cb859", (28, 5, 5): "dd630aa0457261c5",
                       (8, 5, 6): "f5e878e39d668bf3", (12, 5, 6): "27fd37843214ca36",
                       (5, 7, 5): "fd3affb710976efd", (12, 7, 5): "28a6bd1a04cf8c0a"}


@pytest.mark.parametrize("D,p,V", sorted(TOWER_BRIDGE_SHA256))
def test_bench_tower_bridges_pinned(D, p, V):
    stab = stabilize(bernoulli_family(D, p, V), StabilizationParams(1, 1))
    got = to_iwasawa_series(stab, kronecker_character(D), 1, 1 + p, V - 2, 8).to_json()
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert digest.startswith(TOWER_BRIDGE_SHA256[D, p, V]), digest


# stdout sha256 of the parent's per-unit tower code on this input
CHECK_DISTRIBUTION_SHA256 = "4acc67647cf6576ec92291525025babd00d35c0ec66338f5d1fe069ee588471a"


def test_check_distribution_cli_pinned():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check-distribution", "--p", "5", "--m0", "12", "--depth", "7",
                     "--alpha", "1", "--eps-p", "1"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CHECK_DISTRIBUTION_SHA256
