"""The branch interpolation tail against the PadicScalar code it replaced.

`_oracle_kubota_leopoldt` is `kubota_leopoldt` as it was before the tail ran
on plain integers: every node value, Newton divided difference and Horner
step is a `PadicScalar` that tracks its own precision, the nodes are built
from `Fraction` Bernoulli terms, and the pole branch multiplies each node by
((1+t_n) - u) afterwards.  Its node sums contract over all p - 1 classes
mod p of the full power tables (padic_oracles.full_power_tables), where the
kernel folds each pair {r, p - r} into one factor.  It shares the
Teichmuller table with the kernel (that has its own oracle in
test_power_tables).  It is kept here only as the reference the integer
tail must equal exactly: the same series, precision and pole flag, or the
same ArithmeticError.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from eiscong import measures
from eiscong.arith import val_p
from eiscong.characters import kronecker_character
from eiscong.iwasawa import IwasawaElement
from eiscong.lseries import bernoulli_numbers
from eiscong.measures import (
    _CHECK_POINTS,
    _branch_nodes,
    _fit_points,
    _newton_fit,
    kubota_leopoldt,
)

from padic_oracles import PadicScalar, full_power_tables


def _oracle_branch_nodes(chi, p, omega_power, count, w):
    """(t_n, L(t_n)) for n = 1..count as exact t_n and PadicScalar values."""
    u = 1 + p
    f0 = chi.conductor
    wk = w + 6
    mod = p**wk
    U, U0 = full_power_tables(chi, p, wk, count)
    omega = measures._teichmuller_powers(p, wk)
    chi_p = chi(p)
    nodes = []
    for n in range(1, count + 1):
        t = Fraction(u) ** (1 - n) - 1
        tw = (omega_power - n) % (p - 1)
        ks = [k for k in range(n + 1) if k < 2 or k % 2 == 0]
        if tw:
            f = f0 * p
            omp = omega(tw, range(1, p))
            s = {n - k: sum(map(mul, omp, U[n - k][1:])) % mod for k in ks}
        else:
            f = f0
            s = U0
        b = PadicScalar.zero(p, w + n + 2)
        bern = bernoulli_numbers(n)
        for k in ks:
            if not s[n - k]:
                continue
            coef = PadicScalar.from_rational(
                Fraction(math.comb(n, k)) * bern[k] * Fraction(f) ** (k - 1),
                p, w + n + 2)
            b = b + coef * PadicScalar.from_unit(p, 0, s[n - k], wk)
        eta_p = 0 if tw else chi_p
        fac = PadicScalar.from_rational(1 - eta_p * Fraction(p) ** (n - 1), p, w)
        y = -(fac * b / PadicScalar.from_rational(n, p, w + val_p(n, p) + 1))
        nodes.append((t, y))
    return nodes


def _oracle_newton_to_monomials(coeffs, ts, p, N, M, w):
    """The Newton form's T^0..T^(M-1) coefficients mod p^N (Horner)."""
    poly = [PadicScalar.zero(p, w)] * M
    for k in range(len(coeffs) - 1, -1, -1):
        new = [PadicScalar.zero(p, w)] + poly[:M - 1]
        for j in range(M):
            new[j] = new[j] - poly[j] * ts[k]
        new[0] = new[0] + coeffs[k]
        poly = new
    res = []
    for j, c in enumerate(poly):
        if c.u != 0 and c.v < 0:
            raise ArithmeticError(f"non-integral coefficient at T^{j} (unexpected pole)")
        k = min(N, c.abs_prec)
        if k < N:
            raise ArithmeticError(
                f"precision exhausted at T^{j}: have {k}, need N={N}; "
                f"raise the working precision")
        res.append(c.residue_mod(N) if c.u else 0)
    return res


def _oracle_kubota_leopoldt(chi, p, N, M, omega_power=0):
    u = 1 + p
    if p < 3:
        raise ValueError("p must be an odd prime")
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if chi.conductor % p == 0:
        raise ValueError("chi conductor must be coprime to p")
    if not chi.is_even():
        raise ValueError("odd chi makes the branch identically zero; not returned")
    if omega_power % 2:
        raise ValueError("omega_power must be even to keep the branch even")
    pole = chi.is_trivial() and omega_power % (p - 1) == 0

    fit = measures._fit_points(N, M)
    big = fit + _CHECK_POINTS
    w = N + big + big // (p - 1) + 10
    ts, ys = [], []
    for t, y in _oracle_branch_nodes(chi, p, omega_power, big, w):
        if pole:
            y = y * PadicScalar.from_rational(t - (u - 1), p, w)
        ts.append(PadicScalar.from_rational(t, p, w))
        ys.append(y)
    dd = ys
    coeffs = [dd[0]]
    for k in range(1, big):
        dd = [(dd[i + 1] - dd[i]) / (ts[i + k] - ts[i]) for i in range(len(dd) - 1)]
        coeffs.append(dd[0])
    res = _oracle_newton_to_monomials(coeffs[:fit], ts, p, N, M, w)
    check = _oracle_newton_to_monomials(coeffs, ts, p, N, M, w)
    for j in range(M):
        if res[j] != check[j]:
            raise ArithmeticError(
                f"interpolation unstable at T^{j}; raise the point count")
    return IwasawaElement(p, res, [N] * M, pole_factor=pole)


def _outcome(fn, D, p, N, M, om):
    try:
        kl = fn(kronecker_character(D), p, N, M, omega_power=om)
        return [kl.res, kl.prec, kl.pole_factor]
    except (ArithmeticError, ValueError) as e:  # p | conductor: 12, 24, 69 at p = 3
        return [type(e).__name__, str(e)]


PRIMES = (3, 5, 7, 11, 101)
SHAPES = ((1, 1), (1, 2), (2, 6), (6, 16), (8, 12), (10, 16))
# the pole branch (D = 1, omega^0) at every prime and shape, then seeded cells
GRID = [(1, p, N, M, 0) for p in PRIMES for N, M in SHAPES]
_rng = random.Random(17)
GRID += [(_rng.choice((1, 5, 8, 12, 13, 24, 53, 69)), _rng.choice(PRIMES), *_rng.choice(SHAPES),
          _rng.choice((0, 2, 4))) for _ in range(100)]


class TestAgainstOracle:
    @pytest.mark.parametrize("D,p,N,M,om", GRID)
    def test_equals_the_scalar_tail(self, D, p, N, M, om):
        want = _outcome(_oracle_kubota_leopoldt, D, p, N, M, om)
        assert _outcome(kubota_leopoldt, D, p, N, M, om) == want

    @pytest.mark.parametrize("D,p,N,M,om", [(12, 5, 8, 12, 0), (13, 7, 2, 6, 2), (1, 3, 6, 16, 0),
                                            (1, 11, 2, 6, 4), (53, 101, 2, 6, 0), (8, 3, 10, 16, 2)])
    @pytest.mark.parametrize("fit", ["M", "proved-1", "2", "old"])
    def test_other_point_counts_equal_the_scalar_tail(self, monkeypatch, D, p, N, M, om, fit):
        # too few points make both raise "interpolation unstable" at the same T^j;
        # more points than proved must give the same series
        count = {"M": lambda N, M: M, "proved-1": lambda N, M: N + M - 2,
                 "2": lambda N, M: 2,
                 "old": lambda N, M: (N + M + 8) * (p - 1) // (p - 2) + 1}[fit]
        monkeypatch.setattr(measures, "_fit_points", count)
        want = _outcome(_oracle_kubota_leopoldt, D, p, N, M, om)
        assert _outcome(kubota_leopoldt, D, p, N, M, om) == want


def _integer_nodes(scalars, shift):
    """p^shift times each PadicScalar node, as (integer, precision) pairs."""
    out = []
    for y in scalars:
        k = y.abs_prec + shift
        out.append((y.u * y.p ** (y.v + shift) % y.p**k if y.u else 0, k))
    return out


class TestGates:
    def test_precision_exhausted_below_the_proved_loss(self):
        # p = 5, N = 8, M = 12: nodes cut to P digits each; level k loses
        # k + v_5(k!) digits and T^j gains k - j back, so the 19-point fit
        # holds T^j to P - v_5(18!) - j = P - 3 - j digits and the 27-point
        # self-check to P - v_5(26!) - j = P - 6 - j
        p, N, M = 5, 8, 12
        chi = kronecker_character(12)
        fit = _fit_points(N, M)
        big = fit + _CHECK_POINTS
        nodes = _branch_nodes(chi, p, 0, big, N + big + big // (p - 1) + 16)

        def cut(P):
            return [(y % p**P, P) for y, _ in nodes]
        with pytest.raises(ArithmeticError, match=r"^precision exhausted at T\^11: have 7, need N=8;"):
            _newton_fit(cut(21), p, N, M, fit)
        with pytest.raises(ArithmeticError, match=r"^precision exhausted at T\^9: have 7, need N=8;"):
            _newton_fit(cut(22), p, N, M, fit)
        assert _newton_fit(cut(25), p, N, M, fit) == kubota_leopoldt(chi, p, N, M).res

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_uncleared_pole_is_non_integral(self, p):
        # the p-adic zeta nodes without the factor (1+t_n) - u have valuation
        # -(1 + v_p(n)); scaled by p^c to integers, their divided differences
        # grow like 1 / prod (t_i - (u - 1)) and leave Z_p by level c.  With
        # the factor, the same nodes are the pole branch
        N, M = 2, 6
        fit = _fit_points(N, M)
        big = fit + _CHECK_POINTS
        w = N + big + big // (p - 1) + 10
        u = 1 + p
        nodes = _oracle_branch_nodes(kronecker_character(1), p, 0, big, w)
        cleared = [y * PadicScalar.from_rational(t - (u - 1), p, w) for t, y in nodes]
        got = _newton_fit(_integer_nodes(cleared, 0), p, N, M, fit)
        assert got == kubota_leopoldt(kronecker_character(1), p, N, M).res
        shift = -min(y.v for _, y in nodes)
        assert shift >= 1
        with pytest.raises(ArithmeticError, match=r"non-integral coefficient at T\^\d+ \(unexpected pole\)"):
            _newton_fit(_integer_nodes([y for _, y in nodes], shift), p, N, M, fit)

    def test_too_few_points_are_unstable(self):
        p, N, M = 5, 8, 12
        big = _fit_points(N, M) + _CHECK_POINTS
        nodes = _branch_nodes(kronecker_character(12), p, 0, big, N + big + big // (p - 1) + 16)
        with pytest.raises(ArithmeticError, match=r"interpolation unstable at T\^\d+"):
            _newton_fit(nodes, p, N, M, M)


class TestNodePrecision:
    @pytest.mark.parametrize("D,p,om", [(12, 5, 0), (1, 3, 0), (1, 5, 2), (13, 3, 2), (8, 7, 4)])
    def test_nodes_hold_their_stated_precision(self, D, p, om):
        # every node agrees with the PadicScalar value, computed 10 digits
        # deeper, to all wk - 1 - v_p(n) digits it states (the pole branch
        # after (1+t_n) - u); 30 nodes reach v_p(n) = 3 at p = 3
        w, count, u = 12, 30, 1 + p
        pole = D == 1 and om % (p - 1) == 0
        chi = kronecker_character(D)
        want = _oracle_branch_nodes(chi, p, om, count, w + 10)
        for n, ((y, k), (t, z)) in enumerate(zip(_branch_nodes(chi, p, om, count, w + 6), want), 1):
            assert k == w + 6 - 1 - val_p(n, p)
            if pole:
                z = z * PadicScalar.from_rational(t - (u - 1), p, w + 16)
            assert z.abs_prec > k
            diff = PadicScalar.from_unit(p, 0, y, k) - z
            assert diff.is_zero_to_precision() and diff.abs_prec == k, n


class _Stop(Exception):
    pass


def _counts(p):
    return {"proved": _fit_points, "M": lambda N, M: M, "2": lambda N, M: 2,
            "proved-1": lambda N, M: N + M - 2,
            "old": lambda N, M: (N + M + 8) * (p - 1) // (p - 2) + 1}


class TestWorkingPrecision:
    """kubota_leopoldt's wk is the least at which both bounds of _newton_fit hold.

    Node i (t_i = u^-i - 1) is known mod p^(wk - 1 - v_p(i + 1)), as
    _branch_nodes states.  The pole gate at level K sees its e_K digits
    exactly when it rejects T^K / p, whose divided differences lie in Z_p
    below level K and equal 1/p there.  Every T^j is held to N digits
    exactly when the all-zero nodes pass the precision gate.
    """

    @staticmethod
    def _fit_and_wk(monkeypatch, p, N, M, count):
        monkeypatch.setattr(measures, "_fit_points", count)
        seen = []

        def spy(chi, p, omega_power, big, wk, sweep):
            seen.append((big, wk))
            raise _Stop

        monkeypatch.setattr(measures, "_branch_nodes", spy)
        with pytest.raises(_Stop):
            kubota_leopoldt(kronecker_character(8), p, N, M)
        monkeypatch.undo()
        [(big, wk)] = seen
        return count(N, M), big, wk

    @staticmethod
    def _nodes(p, big, wk, K):
        # T^K / p at the nodes (0 for K = 0), each to the digits it states
        out = []
        for i in range(big):
            k = wk - 1 - val_p(i + 1, p)
            t = pow(1 + p, -i, p ** (k + 1)) - 1
            out.append((pow(t, K, p ** (k + 1)) // p if K else 0, k))
        return out

    def _gate_sees(self, p, N, M, fit, big, wk, K):
        try:
            _newton_fit(self._nodes(p, big, wk, K), p, N, M, fit)
        except ArithmeticError as e:
            return str(e) == f"non-integral coefficient at T^{K} (unexpected pole)"
        return False

    def _holds_n_digits(self, p, N, M, fit, big, wk):
        try:
            return _newton_fit(self._nodes(p, big, wk, 0), p, N, M, fit) == [0] * M
        except ArithmeticError as e:
            assert str(e).startswith("precision exhausted"), e
            return False

    @pytest.mark.parametrize("count", ("proved", "M", "2", "proved-1", "old"))
    @pytest.mark.parametrize("N,M", [(1, 1), (2, 6), (6, 16), (10, 16)])
    @pytest.mark.parametrize("p", (3, 5, 7, 11, 101, 281))
    def test_least_working_precision(self, monkeypatch, p, N, M, count):
        fit, big, wk = self._fit_and_wk(monkeypatch, p, N, M, _counts(p)[count])
        assert big == fit + _CHECK_POINTS
        assert all(self._gate_sees(p, N, M, fit, big, wk, K) for K in range(1, big))
        assert self._holds_n_digits(p, N, M, fit, big, wk)
        # one digit less: the last level's gate goes blind or T^(M-1) falls short
        assert (not self._gate_sees(p, N, M, fit, big, wk - 1, big - 1)
                or not self._holds_n_digits(p, N, M, fit, big, wk - 1))
