"""The branch power-sum kernel and Teichmuller table against direct oracles.

`power_tables_by_visit` (padic_oracles) is the per-residue pass the
prefix-sum sweep replaced: it visits every a <= f0 p and is kept only as
the reference the sweep must equal exactly, on the classes the kernel
keeps, one of each pair {r, p - r}.  `_oracle_residue_tables` is the power
tables before the residue-major shift and the window sums: two scalar
binomial shifts per residue r mod p, of the sums above and below its cut.
`_oracle_prefix_power_sums` is the sweep before packed block moments: it
builds chi(j) j^l with one multiply per residue and power.
`_oracle_omega` lifts every residue with its own `teichmuller` call and
raises it with `pow`.  `_parent_branch_nodes` is `_branch_nodes` before the
pair factor: it contracts every node sum over all p - 1 classes.
"""

import math
import random
import re
from array import array
from fractions import Fraction
from itertools import compress, groupby

import pytest

from eiscong import measures
from eiscong.arith import val_p
from eiscong.characters import kronecker_character, sign_masks, split_at_2, value_table
from eiscong.lseries import bernoulli_numbers
from eiscong.measures import (
    _RESIDUE_BLOCK,
    _SWEEP_BLOCK,
    _binomial_shift,
    _branch_nodes,
    _odd_part_windows,
    _packed_row_bytes,
    _power_tables,
    _prefix_power_sums,
    _slot_bytes,
    _sweep_rows,
    _sweeps_odd_part,
    _teichmuller_powers,
    _wraps_by_rows,
    _wraps_by_shift,
    bernoulli_family,
    stabilize,
    StabilizationParams,
    to_iwasawa_series,
)

from character_oracles import primitive_characters
from padic_oracles import (
    full_power_tables,
    mirror_classes,
    power_tables_by_visit,
    teichmuller,
)


def _oracle_shift(c, t):
    """[sum_l C(m,l) t^(m-l) c_l for m = 0..len(c)-1] for one scalar shift t."""
    out = [c[0]]
    while len(c) > 1:
        c = [y + t * x for x, y in zip(c, c[1:])]
        out.append(c[0])
    return out


def _oracle_residue_tables(chi, p, wk, mmax):
    """U, U0 with the high and low sums of each residue r shifted on their own."""
    f0 = chi.conductor
    mod = p**wk
    vals = value_table(chi)
    shifts = [r * pow(p, -1, f0) % f0 for r in range(1, p)]
    prefix, total = _oracle_prefix_power_sums(vals, shifts, mmax)
    ppow = [p**l for l in range(mmax + 1)]
    chi_p = vals[p % f0]
    U = [[0] * p for _ in range(mmax + 1)]
    for r, s in zip(range(1, p), shifts):
        t = r - p * s
        at = prefix[s]
        high = [(a - b) * q % mod for a, b, q in zip(total, at, ppow)]
        low = [b * q % mod for b, q in zip(at, ppow)]
        for m, (x, y) in enumerate(zip(_oracle_shift(high, t), _oracle_shift(low, t + p * f0))):
            U[m][r] = chi_p * (x + y) % mod
    return U, [x % mod for x in total]


def _oracle_prefix_power_sums(vals, cuts, mmax):
    """({s: [P_0(s), ..., P_mmax(s)]}, P at len(vals)) by exact products per residue."""
    f = len(vals)
    bounds = sorted(set(cuts).union(range(0, f, 4096), (f,)))
    P = [0] * (mmax + 1)
    at = {}
    for lo, hi in zip(bounds, bounds[1:]):
        at[lo] = P[:]
        block_vals = vals[lo:hi]
        js = list(compress(range(lo, hi), block_vals))
        row = list(filter(None, block_vals))
        P[0] += sum(row)
        for l in range(1, mmax + 1):
            row = [x * j for x, j in zip(row, js)]
            P[l] += sum(row)
    return {s: at[s] for s in cuts}, P


def _oracle_omega(p, w):
    mod = p**w
    lifts = [0] + [teichmuller(r, p, w) for r in range(1, p)]
    return lambda e, rs: [pow(lifts[r], e, mod) for r in rs]


def _assert_tables_equal(chi, p, wk, mmax, *oracles):
    """The kernel's (H, U, U0) against each oracle's (U, U0) on the classes of H.

    H holds exactly one class of each pair {r, p - r}, in the order of
    r = 1..(p - 1) / 2, and the cut r / p mod f0 of each lies in the half
    [0, f0 // 2 + 1] the sweep reads."""
    H, U, U0 = _power_tables(chi, p, wk, mmax)
    f0 = chi.conductor
    assert [min(r, p - r) for r in H] == list(range(1, (p + 1) // 2))
    if f0 > 1:
        assert all(r * pow(p, -1, f0) % f0 <= f0 // 2 + 1 for r in H)
    for oracle in oracles or (power_tables_by_visit,):
        want, want0 = oracle(chi, p, wk, mmax)
        assert (U, U0) == ([[row[r] for r in H] for row in want], want0)


def _node_sum(chi, p, n, tw, wk, U, classes, omega):
    """p B_{n,eta} mod p^wk over the given classes, eta = chi omega^tw of conductor f = f0 p:
    sum_k C(n,k) g_k sum_(r in classes) omega(r)^tw U[n-k][r], g_k = p B_k f^(k-1)."""
    mod, f = p**wk, chi.conductor * p
    bern = bernoulli_numbers(n)
    omp = omega(tw, classes)
    total = 0
    for k in range(n + 1):
        g = p * bern[k] * Fraction(f) ** (k - 1)
        total += math.comb(n, k) * g.numerator * pow(g.denominator, -1, mod) * sum(
            x * U[n - k][r] for x, r in zip(omp, classes))
    return total % mod


def _parent_branch_nodes(chi, p, omega_power, count, wk, tables):
    """`_branch_nodes` on full tables (U, U0): each node sum contracts over all p - 1 classes."""
    U, U0 = tables
    u, f0, mod = 1 + p, chi.conductor, p**wk
    omega = _oracle_omega(p, wk)
    pole = chi.is_trivial() and omega_power % (p - 1) == 0
    bern = bernoulli_numbers(count)
    nodes = []
    for n in range(1, count + 1):
        tw = (omega_power - n) % (p - 1)
        if tw:
            pb = _node_sum(chi, p, n, tw, wk, U, range(1, p), omega)
        else:
            pb = 0
            for k in range(n + 1):
                g = p * bern[k] * Fraction(f0) ** (k - 1)
                pb += math.comb(n, k) * g.numerator * pow(g.denominator, -1, mod) * U0[n - k]
        v = val_p(n, p)
        x = -(1 - (0 if tw else chi(p)) * p ** (n - 1)) * pb * pow(n // p**v, -1, mod)
        x = x * (pow(u, 1 - n, mod) - u if pole else 1) % mod
        if x % p ** (v + 1):
            raise ArithmeticError("non-integral coefficient at T^0 (unexpected pole)")
        nodes.append((x // p ** (v + 1), wk - 1 - v))
    return nodes


EVEN_D = (8, 12, 24, 28, 40, 44, 56, 60, -4, -8, -20, -24, -40)
ODD_D = (5, 13, 17, 21, 29, 33, 37, 41, -3, -7, -11, -15, -19, -23, -163)
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
          71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137)


NODE_D = (1, 5, 8, 12, 13, 104, 328, 1009, 20149,        # even characters
          -3, -4, -7, -8, -20, -163, -4003)               # odd ones
NODE_PRIMES = (3, 5, 7, 11, 13, 31, 101, 107, 131, 281)


def _node_grid(seed, per_cell):
    """(D, p, omega_power, count, wk): per_cell draws for each sign of D and each
    omega_power < 6, the first of each at p = 3."""
    rng = random.Random(seed)
    out = []
    for sign in (1, -1):
        for j in range(6):
            for i in range(per_cell):
                p = 3 if i == 0 else rng.choice(NODE_PRIMES)
                D = rng.choice([D for D in NODE_D if D * sign > 0 and D % p])
                out.append((D, p, j, rng.randint(1, 15), rng.randint(3, 15)))
    return out


def _seeded_grid(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        D = rng.choice((1,) + EVEN_D + ODD_D)
        p = rng.choice([q for q in PRIMES if D % q])
        out.append((D, p, rng.randint(1, 12), rng.randint(0, 7)))
    return out


class TestPowerTables:
    @pytest.mark.parametrize("D,p,wk,mmax", _seeded_grid(20149, 150))
    def test_seeded_grid(self, D, p, wk, mmax):
        chi = kronecker_character(D)
        _assert_tables_equal(chi, p, wk, mmax)

    @pytest.mark.parametrize("D,p,wk,mmax", [
        (1, 3, 5, 6), (1, 5, 9, 0), (1, 101, 4, 5),          # f0 = 1
        (5, 101, 6, 5), (-3, 67, 8, 7), (8, 131, 3, 4),      # p > f0: shifts collide
        (12, 137, 2, 3), (-4, 5, 10, 6),
        (1001, 5, 12, 6), (-163, 7, 9, 5), (56, 3, 11, 7),   # p < f0
        (-4, 3, 10, 6),
        (13, 7, 6, 0), (-7, 5, 1, 0), (40, 11, 7, 0),        # mmax = 0
        (24, 5, 1, 7),                                       # wk = 1
    ])
    def test_edge_cases(self, D, p, wk, mmax):
        chi = kronecker_character(D)
        _assert_tables_equal(chi, p, wk, mmax)

    @pytest.mark.parametrize("m,p", [(5, 7), (12, 5), (21, 11), (24, 7)])
    def test_generic_quadratic_characters(self, m, p):
        for chi in primitive_characters(m):
            if chi.order == 2:
                _assert_tables_equal(chi, p, 6, 4)


class TestResidueBlocks:
    """The residue-major shift at the shapes kubota_leopoldt asks for.

    At the defaults N = 2, M = 6 a branch asks for mmax = 15 and wk = 15 at
    p > 15 (18 at p = 5).  The tables here run at wk = 33, more digits than
    any default branch reads.
    """

    @staticmethod
    def _assert_both_oracles(D, p, wk, mmax):
        _assert_tables_equal(kronecker_character(D), p, wk, mmax,
                             _oracle_residue_tables, power_tables_by_visit)

    # branch-prime shapes: chi_m and chi_8m (the pair over Q(sqrt 2)) for m = 13, 41
    @pytest.mark.parametrize("D", (13, 104, 41, 328))
    @pytest.mark.parametrize("p", (101, 107))
    def test_branch_prime_shape(self, D, p):
        self._assert_both_oracles(D, p, 33, 15)

    # p - 1 = 1030 and 2052 residues: several full blocks and a short last
    # one; the whole tables hold both sides of every block boundary
    @pytest.mark.parametrize("D", (5, 8, 13, -4, -3, -8))
    @pytest.mark.parametrize("p", (1031, 2053))
    def test_several_blocks(self, D, p):
        assert (p - 1) // _RESIDUE_BLOCK >= 4
        self._assert_both_oracles(D, p, 33, 15)

    # p - 1 = 256, 262, 768: one full block, one and a short one, three full
    @pytest.mark.parametrize("p", (257, 263, 769))
    @pytest.mark.parametrize("D", (-20, 12))
    def test_around_the_block_size(self, D, p):
        self._assert_both_oracles(D, p, 33, 15)

    # odd characters: the kernel must not assume chi(-1) = 1
    @pytest.mark.parametrize("D,p", [(D, p) for D in (-3, -4, -7, -8, -20, -163)
                                     for p in (5, 101, 107) if D % p])
    def test_odd_characters(self, D, p):
        self._assert_both_oracles(D, p, 33, 15)

    @pytest.mark.parametrize("block", (1, 2, 3, 7))
    @pytest.mark.parametrize("D,p", [(13, 31), (-163, 11), (5, 13), (328, 3)])
    def test_any_block_size(self, monkeypatch, block, D, p):
        monkeypatch.setattr(measures, "_RESIDUE_BLOCK", block)
        self._assert_both_oracles(D, p, 12, 15)

    # small sweep and residue blocks together: cuts on block starts, at s = 0
    # when p > f0, and (sweep block 7, mmax = 1) the shift side of the rule
    @pytest.mark.parametrize("sweep,block", [(1, 3), (2, 1), (3, 2), (7, 1), (7, 3)])
    @pytest.mark.parametrize("D,p,mmax", [(13, 31, 15), (5, 13, 15), (-163, 11, 1), (1009, 101, 1)])
    def test_small_sweep_and_residue_blocks(self, monkeypatch, sweep, block, D, p, mmax):
        monkeypatch.setattr(measures, "_SWEEP_BLOCK", sweep)
        monkeypatch.setattr(measures, "_RESIDUE_BLOCK", block)
        self._assert_both_oracles(D, p, 12, mmax)

    # the two sides of the wrap-term rule in _prefix_power_sums: branch-prime
    # shapes (every residue a cut of a short conductor) read the in-block wrap
    # off packed rows, p = 3, 5, 7 on conductors in the thousands shift the
    # cuts; the padic-l rows of test_pins.py pin each side's CLI output
    @pytest.mark.parametrize("D,p,side", [
        (13, 101, "rows"), (104, 101, "rows"), (41, 107, "rows"), (328, 107, "rows"),
        (2557, 3, "shift"), (3389, 5, "shift"), (-4003, 7, "shift"), (8 * 1009, 5, "shift"),
    ])
    def test_both_sides_of_the_wrap_rule(self, monkeypatch, D, p, side):
        ran = []
        for name in ("_wraps_by_rows", "_wraps_by_shift"):
            def spy(*args, name=name, helper=getattr(measures, name)):
                ran.append(name)
                return helper(*args)
            monkeypatch.setattr(measures, name, spy)
        self._assert_both_oracles(D, p, 33, 15)
        assert ran == ["_wraps_by_" + side]

    # p < f0, and p > f0 with cuts shared within a block and across blocks
    @pytest.mark.parametrize("D,p,block", [(328, 3, 1), (13, 31, 2), (12, 263, 256),
                                           (-20, 769, 256), (5, 13, 3)])
    def test_every_cut_is_dropped_once(self, monkeypatch, D, p, block):
        # a cut dropped before its last reader raises KeyError; one never
        # dropped stays in the sweep's dict
        monkeypatch.setattr(measures, "_RESIDUE_BLOCK", block)
        sweeps = []
        sweep = measures._prefix_power_sums

        def spy(*args):
            windows, total = sweep(*args)
            sweeps.append(windows)
            return windows, total

        monkeypatch.setattr(measures, "_prefix_power_sums", spy)
        _power_tables(kronecker_character(D), p, 12, 6)
        assert sweeps == [{}]

    def test_columns_shift_as_scalars(self):
        rng = random.Random(15)
        ts = [rng.randrange(-10**9, 10**9) for _ in range(9)] + [0]
        cols = [[rng.randrange(-10**40, 10**40) for _ in ts] for _ in range(16)]
        got = list(_binomial_shift([x for c in cols for x in c], ts))
        for i, t in enumerate(ts):
            assert [c[i] for c in got] == _oracle_shift([c[i] for c in cols], t)


def _assert_sweep_equals_oracle(vals, cuts, mmax):
    # every cut lies in the swept half; each window, moved from the frame of
    # its block start lo to that of 0, must equal T - P(s) + shift_f(P(s))
    # from the oracle's prefix sums P over the whole period
    f = len(vals)
    assert all(0 <= s <= f // 2 + 1 for s in cuts)
    sweep = _sweep_rows([f], mmax)
    at, total = _prefix_power_sums(vals, cuts, mmax, sweep)
    prefix, T = _oracle_prefix_power_sums(vals, cuts, mmax)
    n = len(sweep[0])
    assert n == min(measures._SWEEP_BLOCK, f // 2 + 1)
    assert all(lo == s - s % n for s, (lo, _) in at.items())
    assert {s: _oracle_shift(m, lo) for s, (lo, m) in at.items()} == {
        s: [t - a + b for t, a, b in zip(T, P, _oracle_shift(P, f))] for s, P in prefix.items()}
    assert total == T


def _branch_cuts(f0, p):
    # of each pair {r, p - r}, the cut of r or of p - r, whichever is the
    # smaller: the cuts _power_tables reads
    pinv = pow(p, -1, f0)
    return [min(s, (1 - s) % f0) for s in (r * pinv % f0 for r in range(1, (p + 1) // 2))]


def _table(f, sign, lower):
    """A table with the symmetry of a real character's: vals[0] = 0, vals[1] = 1,
    vals[j] = lower(j) for 1 < j < f / 2, vals[f - j] = sign vals[j], and
    vals[f / 2] = 0 when f is even."""
    vals = array("b", [0]) * f
    for j in range(1, (f + 1) // 2):
        vals[j] = 1 if j == 1 else lower(j)
        vals[f - j] = sign * vals[j]
    return vals


B = _SWEEP_BLOCK


class TestPrefixSweep:
    """The half sweep against the oracle's prefix sums over the whole period.

    Every input is a table with a real character's symmetry and every cut lies
    in [0, f // 2 + 1], the sweep's contract; the cuts of a branch are those
    `_power_tables` reads, one of each residue pair.
    """

    # the trivial character (D = 1) never reaches the sweep
    @pytest.mark.parametrize("D,p,wk,mmax", [c for c in _seeded_grid(20149, 150) if c[0] != 1])
    def test_seeded_grid(self, D, p, wk, mmax):
        vals = value_table(kronecker_character(D))
        _assert_sweep_equals_oracle(vals, _branch_cuts(len(vals), p), mmax)

    @pytest.mark.parametrize("D,p,mmax", [
        (-1023, 5, 15), (1032, 7, 29), (-1031, 1033, 15),   # f0 near the block size
        (3389, 5, 29), (2557, 7, 15), (20149, 13, 1),       # several blocks
        (20149, 281, 15), (-4003, 5, 0),
    ])
    def test_branch_cuts_at_larger_conductors(self, D, p, mmax):
        vals = value_table(kronecker_character(D))
        _assert_sweep_equals_oracle(vals, _branch_cuts(len(vals), p), mmax)

    @pytest.mark.parametrize("fill", (1, -1))
    @pytest.mark.parametrize("mmax", (0, 1, 15, 29))
    def test_constant_tables_do_not_carry(self, fill, mmax):
        # every residue of the second block in one mask fills each slot as far
        # as it goes; the half ends at h = 2B + 2, on a block of two residues;
        # even and odd tables
        f = 4 * B + 3
        cuts = [0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 2 * B + 2]
        for sign in (1, -1):
            _assert_sweep_equals_oracle(_table(f, sign, lambda j: fill), cuts, mmax)

    # 4B - 1 ends the half at h = 2B, a block start: a cut there has a block
    # of its own, empty
    @pytest.mark.parametrize("f", (B - 1, B, B + 1, 3 * B + 7, 4 * B - 1))
    @pytest.mark.parametrize("mmax", (0, 1, 15, 29))
    def test_random_tables_around_the_block_size(self, f, mmax):
        rng = random.Random(f * 31 + mmax)
        h = f // 2 + 1
        vals = _table(f, rng.choice((1, -1)), lambda j: rng.choice((-1, 0, 1)))
        cuts = {0, h - 1, h} | set(range(0, h + 1, B)) | {rng.randrange(h + 1) for _ in range(20)}
        _assert_sweep_equals_oracle(vals, sorted(cuts), mmax)

    # the test_any_block_size shapes above, and conductor 1009: more than 50
    # blocks in the half at every size here, most of them holding a cut
    @pytest.mark.parametrize("block", (1, 2, 3, 7))
    @pytest.mark.parametrize("D,p", [(13, 31), (-163, 11), (5, 13), (328, 3), (1009, 101)])
    def test_any_block_size(self, monkeypatch, block, D, p):
        monkeypatch.setattr(measures, "_SWEEP_BLOCK", block)
        chi = kronecker_character(D)
        vals = value_table(chi)
        _assert_sweep_equals_oracle(vals, _branch_cuts(len(vals), p), 15)
        _assert_tables_equal(chi, p, 12, 15)

    def test_no_cuts(self):
        vals = _table(2 * B + 4, -1, lambda j: (1, -1, 0, 1)[j % 4])
        _assert_sweep_equals_oracle(vals, [], 7)


class TestResiduePairs:
    """The identities of the residue pairs {r, p - r}, on the oracle's tables.

    Class p - r has cut s_(p-r) = 1 - s_r mod f0, so one cut of each pair is
    at most f0 // 2 + 1, and a -> f0 p - a gives
    U[m][p-r] = chi(-1) sum_l C(m,l) (f0 p)^(m-l) (-1)^l U[l][r]
    (`mirror_classes`, the full tables of the larger shapes below).  On the
    node sums the pairs fold into one factor: contracted with omega^tw,
    class p - r adds theta(-1) times what r adds, theta = chi omega^j.
    """

    # even (104, 3433) and odd (-163, -4) characters; f0 > p, f0 < p, and p = 3
    # with its single pair {1, 2}
    @pytest.mark.parametrize("D,p", [
        (104, 3), (104, 7), (104, 131), (-163, 3), (-163, 11), (-163, 197),
        (3433, 3), (3433, 5), (3433, 7), (-4, 3), (-4, 13), (5, 3), (5, 11),
    ])
    def test_cuts_and_rows_mirror(self, D, p):
        chi = kronecker_character(D)
        f0, wk, mmax = chi.conductor, 9, 7
        mod, pinv, sign = p**wk, pow(p, -1, f0), chi(f0 - 1)
        U, _ = power_tables_by_visit(chi, p, wk, mmax)
        for r in range(1, p):
            s = r * pinv % f0
            assert (p - r) * pinv % f0 == (1 - s) % f0
            assert min(s, (1 - s) % f0) <= f0 // 2 + 1
            for m in range(mmax + 1):
                mirror = sum(math.comb(m, l) * (f0 * p)**(m - l) * (-1)**l * U[l][r]
                             for l in range(m + 1))
                assert U[m][p - r] == sign * mirror % mod

    @pytest.mark.parametrize("D,p", [(104, 3), (104, 131), (-163, 11), (3433, 5), (-4, 3), (1, 7)])
    def test_mirror_classes_equal_the_visit(self, D, p):
        chi = kronecker_character(D)
        U, _ = power_tables_by_visit(chi, p, 9, 7)
        H = list(range(1, (p + 1) // 2))
        assert mirror_classes(chi, p, 9, H, [[row[r] for r in H] for row in U]) == U

    # theta = chi omega^j even and odd through either factor; f0 < p (5, -3 at
    # 101, -4 at 13) and f0 > p (1009, -163, 104); p = 3 with its single pair
    @pytest.mark.parametrize("D,p", [(13, 7), (-4, 7), (5, 101), (-3, 101), (-4, 13),
                                     (1009, 7), (-163, 5), (104, 3), (5, 3), (-4, 3), (1, 5)])
    @pytest.mark.parametrize("j", (0, 1, 2, 3))
    def test_full_contraction_is_the_pair_factor_times_the_half(self, D, p, j):
        # any one class of each pair will do, not only the kernel's
        chi = kronecker_character(D)
        wk, mmax = 10, 9
        U, _ = power_tables_by_visit(chi, p, wk, mmax)
        omega = _oracle_omega(p, wk)
        rng = random.Random(D * p + j)
        half = [rng.choice((r, p - r)) for r in range(1, (p + 1) // 2)]
        pair = 1 + chi(-1) * (-1)**j
        tws = 0
        for n in range(1, mmax + 1):
            tw = (j - n) % (p - 1)
            if tw:
                tws += 1
                full = _node_sum(chi, p, n, tw, wk, U, range(1, p), omega)
                assert full == pair * _node_sum(chi, p, n, tw, wk, U, half, omega) % p**wk
        assert tws


def _oracle_in_block(vals, cuts, n, mmax):
    """{s: (q, w)}: q_l = sum vals[j] (j - lo)^l and w_l = sum vals[j] ((j - lo + f)^l - (j - lo)^l)
    over lo <= j < s, lo = s - s % n, by one power per residue and moment."""
    f = len(vals)
    out = {}
    for s in sorted(set(cuts)):
        lo = s - s % n
        js = range(lo, s)
        out[s] = ([sum(vals[j] * (j - lo)**l for j in js) for l in range(mmax + 1)],
                  [sum(vals[j] * ((j - lo + f)**l - (j - lo)**l) for j in js) for l in range(mmax + 1)])
    return out


class TestWrapTerm:
    """The in-block wrap term both ways on one input, whichever the rule would pick."""

    @pytest.mark.parametrize("block", (1, 2, 3, 7, B))
    @pytest.mark.parametrize("D,p,mmax", [
        (13, 31, 15),                                      # p > f0: a cut at s = 0
        (-163, 11, 15), (328, 107, 15), (3389, 5, 15), (2557, 7, 29), (-4003, 3, 0),
        (1009, 13, 1),
    ])
    def test_rows_equal_the_shift(self, block, D, p, mmax):
        vals = value_table(kronecker_character(D))
        f = len(vals)
        n = min(block, f)
        cuts = sorted(set(_branch_cuts(f, p)))
        want = _oracle_in_block(vals, cuts, n, mmax)
        held = [(lo, list(g)) for lo, g in groupby(cuts, lambda s: s - s % n)]
        by_rows = dict(_wraps_by_rows(sign_masks(vals.tobytes()), held, n, mmax, f))
        by_shift = dict(_wraps_by_shift({s: q for s, (q, _) in want.items()}, f))
        assert by_rows == by_shift == {s: w for s, (_, w) in want.items()}


def _forced(monkeypatch, odd_part):
    """_power_tables with the odd-part rule forced to one side."""
    monkeypatch.setattr(measures, "_sweeps_odd_part", lambda *args: odd_part)
    return _power_tables


def _sub_starts(chi, cuts):
    """sigma_c mod g for every cut and odd c mod e: where each window of chi_g starts."""
    chi_e, chi_g = split_at_2(chi)
    e, g = chi_e.conductor, chi_g.conductor
    return [(-((c - s) // e) + c * pow(e, -1, g)) % g for s in cuts for c in range(1, e, 2)]


# D_e = -4, 8, -8 (split_at_2) times odd parts of both signs, prime, composite
# and 1; D > 0 even characters, D < 0 odd ones
ODD_PART_D = (-4, 12, -20, 28, 60, -84, -420,            # D_e = -4
              8, 40, -24, -56, 104, -120, 168,           # D_e = 8
              -8, -40, 24, 56, 120, -168, -104 * 5)      # D_e = -8


class TestOddPart:
    """The windows of an even conductor from its odd part, against the direct
    sweep and the per-residue visit, on both sides of the rule."""

    @pytest.mark.parametrize("D,p", [(D, p) for D in ODD_PART_D for p in (3, 5, 7, 31, 101)
                                     if D % p])
    def test_both_paths_equal_the_visit(self, monkeypatch, D, p):
        chi = kronecker_character(D)
        want_H, want_U, want_U0 = _forced(monkeypatch, False)(chi, p, 12, 9)
        got = _forced(monkeypatch, True)(chi, p, 12, 9)
        assert got == (want_H, want_U, want_U0)
        _assert_tables_equal(chi, p, 12, 9)

    # every cut of the half: the windows of chi_g start on both sides of g / 2
    @pytest.mark.parametrize("D", ODD_PART_D)
    @pytest.mark.parametrize("mmax", (0, 1, 15))
    def test_every_cut_equals_the_direct_sweep(self, D, mmax):
        chi = kronecker_character(D)
        chi_e, chi_g = split_at_2(chi)
        vals = value_table(chi)
        f, g = len(vals), chi_g.conductor
        cuts = list(range(f // 2 + 2))
        starts = _sub_starts(chi, cuts)
        if g > 3:
            assert min(starts) <= g // 2 + 1 < max(starts)
        sweep = _sweep_rows([f], mmax)
        at, total = _prefix_power_sums(vals, cuts, mmax, sweep)
        got, got_total = _odd_part_windows(chi_e, chi_g, cuts, mmax, sweep)
        assert got_total == total
        assert all(got[s] == (s, _oracle_shift(m, lo - s)) for s, (lo, m) in at.items())

    # chi_g with its half at B - 1, B and B + 1 residues (g = 2045, 2047, 2049)
    # and several blocks (g = 20149), at the sweep's block size and at small ones
    @pytest.mark.parametrize("block", (1, 2, 7, B))
    @pytest.mark.parametrize("D,p", [(-8 * 2045, 3), (-4 * -2047, 7), (8 * 2049, 5),
                                     (8 * 20149, 5), (-4 * -20147, 13)])
    def test_block_sizes(self, monkeypatch, block, D, p):
        monkeypatch.setattr(measures, "_SWEEP_BLOCK", block)
        chi = kronecker_character(D)
        want = _forced(monkeypatch, False)(chi, p, 15, 15)
        assert _forced(monkeypatch, True)(chi, p, 15, 15) == want

    # the rule picks the odd part at the bench's branch-conductor shapes and
    # the headline's p = 5, and the direct sweep at the branch-prime shapes,
    # the headline's candidate primes and every odd conductor
    @pytest.mark.parametrize("D,p,mmax,side", [
        (8 * 20149, 5, 15, "odd"), (8 * 20149, 5, 29, "odd"), (-4 * -20147, 5, 29, "odd"),
        (8 * 3517, 5, 15, "odd"), (8 * 2521, 7, 15, "odd"), (8 * 20149, 101, 15, "odd"),
        (8 * 20149, 281, 15, "direct"), (8 * 20149, 4951, 15, "direct"),
        (8 * 20149, 13417, 15, "direct"), (8 * 20149, 151, 15, "direct"),
        (8 * 13, 101, 15, "direct"), (8 * 41, 107, 15, "direct"), (8, 5, 15, "direct"),
        (20149, 5, 15, "direct"), (-4003, 5, 15, "direct"),
    ])
    def test_both_sides_of_the_rule(self, monkeypatch, D, p, mmax, side):
        ran = []
        for name in ("_odd_part_windows", "_prefix_power_sums"):
            def spy(*args, name=name, helper=getattr(measures, name)):
                ran.append(name)
                return helper(*args)
            monkeypatch.setattr(measures, name, spy)
        chi = kronecker_character(D)
        f0 = chi.conductor
        cuts = {min(s, (1 - s) % f0) for s in (r * pow(p, -1, f0) % f0 for r in range(1, p))}
        chi_e, chi_g = split_at_2(chi)
        picked = _sweeps_odd_part(chi_e.conductor, chi_g.conductor, len(cuts), mmax)
        assert picked == (side == "odd")
        if f0 * p < 10**6:
            measures._power_tables(chi, p, 3, mmax)
            assert ran == (["_odd_part_windows", "_prefix_power_sums"] if picked
                           else ["_prefix_power_sums"])


# the branch-prime shape (41, 328) at p = 107 builds the wrap rows for both
# conductors; (20149, 161192) at p = 5 builds none
@pytest.mark.parametrize("conductors,p", [((41, 328), 107), ((20149, 161192), 5)])
@pytest.mark.parametrize("mmax", (1, 15, 29))
def test_packed_row_bytes_bound_the_rows_built(monkeypatch, conductors, p, mmax):
    # the sweep rows and the widest wrap rows are alive together, and every
    # row fits its slots; the CLI's row cap reads this count
    packed, built = measures._packed_rows, []

    def spy(n, mmax, wide, term):
        rows, read = packed(n, mmax, wide, term)
        size = sum(_slot_bytes(n, mmax, wide))
        assert len(rows) == n and all(0 <= x < 256**size for x in rows)
        built.append(n * size)
        return rows, read

    monkeypatch.setattr(measures, "_packed_rows", spy)
    chis = [kronecker_character(D) for D in conductors]
    sweep = _sweep_rows(conductors, mmax)
    for chi in chis:
        _power_tables(chi, p, 3, mmax, sweep)
    bound = _packed_row_bytes(conductors, mmax)
    assert built[0] + max(built[1:], default=0) <= bound
    if len(built) == 3:
        assert built[0] + max(built[1:]) == bound


class TestTeichmullerTable:
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 101, 281))
    def test_powers_equal_the_lifts(self, p):
        w = 9
        ours, want = _teichmuller_powers(p, w), _oracle_omega(p, w)
        for e in (0, 1, 2, p - 2, 3 * p + 1):
            for rs in (range(1, p), range(p - 1, 0, -2)):
                assert ours(e, rs) == want(e, rs)

    @pytest.mark.parametrize("D,p", [(1, 5), (12, 5), (13, 7), (8, 11), (24, 13), (5, 3)])
    @pytest.mark.parametrize("omega_power", (0, 2, 4))
    def test_branch_nodes_equal_the_parent_formula(self, D, p, omega_power):
        chi = kronecker_character(D)
        tables = power_tables_by_visit(chi, p, 12, 9)
        assert _branch_nodes(chi, p, omega_power, 9, 12) == _parent_branch_nodes(
            chi, p, omega_power, 9, 12, tables)

    # odd chi, odd omega_power (theta odd or even) and p = 3, on conductors
    # below and above p, up to p = 281
    @pytest.mark.parametrize("D,p,omega_power,count,wk", _node_grid(32, 8))
    def test_seeded_grid_equals_the_parent_formula(self, D, p, omega_power, count, wk):
        chi = kronecker_character(D)
        try:
            want = _parent_branch_nodes(chi, p, omega_power, count, wk,
                                        full_power_tables(chi, p, wk, count))
        except ArithmeticError as e:
            with pytest.raises(ArithmeticError, match=re.escape(str(e))):
                _branch_nodes(chi, p, omega_power, count, wk)
        else:
            assert _branch_nodes(chi, p, omega_power, count, wk) == want

    @pytest.mark.parametrize("D,p,omega_power", [(13, 5, 1), (8, 5, 3), (13, 7, 1), (12, 7, 5)])
    def test_bridge_equals_the_parent_formula(self, monkeypatch, D, p, omega_power):
        stab = stabilize(bernoulli_family(D, p, 3), StabilizationParams(1, 1))
        chi = kronecker_character(D)
        got = to_iwasawa_series(stab, chi, omega_power, 1 + p, 3, 4)
        monkeypatch.setattr(measures, "_teichmuller_powers", _oracle_omega)
        want = to_iwasawa_series(stab, chi, omega_power, 1 + p, 3, 4)
        assert any(got.res) and (got.res, got.prec) == (want.res, want.prec)


class TestValueTable:
    @pytest.mark.parametrize("D", (1, 5, 8, 12, 13, 1001, -3, -4, -8, -163, 20149, 161192))
    def test_equals_the_character(self, D):
        chi = kronecker_character(D)
        vals = value_table(chi)
        assert len(vals) == chi.conductor
        assert all(vals[a] == chi(a) for a in range(chi.conductor))

    @pytest.mark.parametrize("m", (3, 4, 5, 8, 12, 15, 21, 24))
    def test_generic_quadratic_characters(self, m):
        for chi in primitive_characters(m):
            if chi.order <= 2:
                assert list(value_table(chi)) == [chi(a) for a in range(m)]
