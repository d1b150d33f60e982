"""Distributions on the tower (Z/m0 p^nu)^x and their Iwasawa-series bridge.

The Bernoulli family carries B1(a / m0 p^nu) at every level nu >= 1; the
bottom level holds the coherent pushforward (the sigma_p-Euler-stripped
values), which is what makes the exact distribution identity hold on unit
groups all the way down.  Stabilization twists by the tame Frobenius
component and rescales by alpha^-nu; for the unit root alpha = 1 of
X^2 - (1 + eps p) X + eps p (the Hecke data these families carry) the
result is again exactly coherent.  The twist is multiplication by one tame
unit per level (p mod m0, 1 mod p^nu).

A level is one flat list of integer numerators over its least positive
common denominator, in residue-block order (LevelFamily), so each stage is
a few C-level passes over whole blocks and one gcd per level.
LevelFamily.value is the one Fraction accessor.

The series bridge is the Gamma-transform
    a_j = sum_a branch^-1(a) C(log_u<a>, j) mu(a)
at level V - 1 of a depth-V tower, with no logarithm (to_iwasawa_series); it
equals minus the Kubota-Leopoldt branch series (the classical Stickelberger
sign).  kubota_leopoldt itself is a Newton interpolation on integers mod
p^wk through the special values
    -(1 - chi omega^(j-n)(p) p^(n-1)) B_{n, chi omega^(j-n)} / n
with a proved precision per node and per level and a built-in self-check.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, groupby, repeat
from operator import add, floordiv, mul, sub

from .arith import crt, factorize, val_p
from .characters import DirichletCharacter, HeckeCharacterQF, sign_masks, value_table
from .iwasawa import IwasawaElement, euler_factor, lambda_mu
from .lseries import bernoulli_numbers


# ---------------------------------------------------------------------------
# level families


def _blocks(m0: int, p: int) -> list[tuple[int, int]]:
    """[(r, s)]: the units r mod m0 increasing (0 when m0 = 1), p | r + m0 t at t = s mod p."""
    minv = pow(m0 % p, -1, p)
    return [(r, -r * minv % p) for r in range(m0) if math.gcd(r, m0) == 1]


def _mask(p: int, s: int, nu: int) -> bytes:
    """The mask of a block over t < p^nu: 0 at t = s mod p (nu >= 1), 1 at nu = 0."""
    return bytes(t != s for t in range(p)) * p**(nu - 1) if nu else b"\1"


def _position(t: int, s: int, p: int) -> int:
    """Index of t in a block skipping t = s mod p: t minus the skipped t' < t."""
    return t - (t - s + p - 1) // p


@dataclass
class LevelFamily:
    """Exact values on (Z/m0 p^nu)^x for nu = 0..depth.

    Level nu is the value num[nu][i] / den[nu] at the i-th unit of
    `units(nu)`, over the least common denominator: den[nu] > 0 and
    gcd(den[nu], *num[nu]) == 1, so an all-zero level has den 1.  The units
    are in residue-block order: block r (a unit mod m0, `_blocks`) holds
    a = r + m0 t for t < p^nu in increasing t, less the t with p | a, so
    p^nu - p^(nu-1) entries (1 at nu = 0).
    """

    m0: int
    p: int
    depth: int
    den: list  # den[nu] is a positive int
    num: list  # num[nu] is a list of ints, the units in block order

    def __post_init__(self):
        self.blocks = _blocks(self.m0, self.p)
        self._rank = [0] * self.m0  # the block index of each unit r mod m0
        for i, (r, _) in enumerate(self.blocks):
            self._rank[r] = i

    def level_modulus(self, nu: int) -> int:
        return self.m0 * self.p**nu

    def tame_unit(self, nu: int) -> int:
        """The unit e = p mod m0, 1 mod p^nu acting as Frobenius on the tame part."""
        return crt(self.p % self.m0, self.m0, 1, self.p**nu)

    def units(self, nu: int):
        """The units mod m0 p^nu in block order, the order of num[nu]."""
        q = self.level_modulus(nu)
        return chain.from_iterable(compress(range(r, q, self.m0), _mask(self.p, s, nu))
                                   for r, s in self.blocks)

    def value(self, a: int, nu: int) -> Fraction:
        """The value at the unit a, 0 <= a < m0 p^nu."""
        q, p = self.level_modulus(nu), self.p
        if not 0 <= a < q or math.gcd(a, q) != 1:
            raise KeyError(a)
        i = self._rank[a % self.m0]
        if nu:
            i = i * (p**nu - p**(nu - 1)) + _position(a // self.m0, self.blocks[i][1], p)
        return Fraction(self.num[nu][i], self.den[nu])


def _level(den: int, nums: list[int]) -> tuple[int, list[int]]:
    """(den, nums) over the least common denominator; den must be positive."""
    g = math.gcd(den, *nums)
    if g != 1:
        return den // g, list(map(floordiv, nums, repeat(g)))
    return den, nums


def _scaled(k: int, xs):
    """k times each of xs, lazily; xs itself when k = 1."""
    return xs if k == 1 else map(mul, repeat(k), xs)


def bernoulli_family(m0: int, p: int, depth: int) -> LevelFamily:
    """B1 values on the tower; the bottom level is the coherent pushforward.

    Levels nu >= 1 carry B1(a / m0 p^nu) = (2a - q) / 2q, q = m0 p^nu,
    exactly.  At nu = 0 the unit-group fiber over a loses the lift divisible
    by p, so the coherent value is B1(a/m0) - B1(p^-1 a / m0) =
    (a - (p^-1 a mod m0)) / m0; with the plain value there the distribution
    identity would fail at the bottom step (level m0 conventions).
    """
    if m0 < 1:
        raise ValueError("m0 must be a positive integer")
    if math.gcd(m0, p) != 1:
        raise ValueError("m0 must be coprime to p")
    if depth < 1:
        raise ValueError("need depth >= 1")
    blocks = _blocks(m0, p)
    pinv = pow(p % m0, -1, m0) if m0 > 1 else 0
    levels = [_level(m0, [r - pinv * r % m0 for r, _ in blocks])]
    for nu in range(1, depth + 1):
        q = m0 * p**nu
        k = 2 - q % 2  # (2a - q) / k over 2q / k, a = r + m0 t over block r
        levels.append(_level(2 * q // k, list(chain.from_iterable(
            compress(range((2 * r - q) // k, (2 * r + q) // k, 2 * m0 // k), _mask(p, s, nu))
            for r, s in blocks))))
    return LevelFamily(m0, p, depth, *map(list, zip(*levels)))


@dataclass(frozen=True)
class StabilizationParams:
    """Unit root alpha and the level character value eps_p at p.

    For an eigen-system with Hecke data C at p, alpha must satisfy
    alpha^2 - C alpha + eps_p p = 0; the families built here have
    C = 1 + eps_p p, whose unit root is exactly 1.
    """

    alpha: Fraction
    eps_p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "eps_p", Fraction(self.eps_p))

    def check_unit(self, p: int) -> None:
        """Raise ValueError unless alpha has p-adic valuation 0."""
        alpha = self.alpha
        if not alpha or val_p(alpha.numerator, p) or val_p(alpha.denominator, p):
            raise ValueError("alpha must be a unit at p")


def stabilize(fam: LevelFamily, params: StabilizationParams) -> LevelFamily:
    """alpha^-nu (1 - alpha^-1 eps_p R(p)) applied on the units tower.

    R(p) multiplies the underlying fraction by p; on the units tower its
    well-defined realization is the tame Frobenius twist (trivial wild
    component), which at the bottom level is literally a -> p a mod m0.
    The twist is multiplication by the level's tame unit e (p mod m0, 1 mod
    p^nu): with r e = r' + m0 c it sends r + m0 t to r' + m0 (t + c), so
    the twisted block r is block r' rotated by c.  With alpha^-nu = s_n / s_d
    and eps_p / alpha = t_n / t_d, level nu of numerators N over den becomes
        s_n (t_d N(a) - t_n N(a e)) / (s_d t_d den),
    passes of integer products and one gcd per level.  The p-adic valuation
    of alpha must be 0.
    """
    params.check_unit(fam.p)
    alpha, eps = params.alpha, params.eps_p
    twist = eps / alpha
    tn, td = twist.numerator, twist.denominator
    m0, p, blocks = fam.m0, fam.p, fam.blocks
    levels = []
    for nu, (den, nums) in enumerate(zip(fam.den, fam.num)):
        scale = 1 / alpha**nu
        sn, sd = scale.numerator, scale.denominator
        if tn:
            q, e, size = fam.level_modulus(nu), fam.tame_unit(nu), len(nums) // len(blocks)
            twisted = []
            for r, _ in blocks:
                c, r2 = divmod(r * e % q, m0)
                i = fam._rank[r2]
                blk, k = nums[i * size:(i + 1) * size], _position(c, blocks[i][1], p)
                twisted += blk[k:] + blk[:k]
            nums = map(sub, _scaled(td, nums), _scaled(tn, twisted))
        levels.append(_level(sd * td * den, list(_scaled(sn, nums))))
    return LevelFamily(m0, p, fam.depth, *map(list, zip(*levels)))


@dataclass
class DistributionReport:
    ok: bool
    cells_checked: int
    first_failure: tuple | None = None  # (nu, a, expected, got)


def check_distribution(fam: LevelFamily) -> DistributionReport:
    """Fiber sums between consecutive levels, exactly, lexicographic-first failure.

    The fibers are summed as numerators over the upper level's denominator,
    so a fiber over a holds when sum * den_lower == N_lower(a) * den_upper;
    a failing fiber reports its sum as a Fraction.  Block r of level nu + 1
    is p chunks aligned with block r of level nu >= 1 (t + k p^nu), and all
    of it lies over the one unit r at nu = 0: its chunks sum to the fibers.
    """
    checked, nb = 0, len(fam.blocks)
    for nu in range(fam.depth):
        lower, upper = fam.num[nu], fam.num[nu + 1]
        d_lo, d_up = fam.den[nu], fam.den[nu + 1]
        n, size = len(lower) // nb, len(upper) // nb
        sums = []
        for i in range(0, len(upper), size):
            sums += map(sum, zip(*[upper[j:j + n] for j in range(i, i + size, n)]))
        if list(_scaled(d_lo, sums)) != list(_scaled(d_up, lower)):
            units = list(fam.units(nu))
            a, x = min((a, x) for a, x, y in zip(units, sums, lower) if x * d_lo != y * d_up)
            return DistributionReport(False, checked + sum(map(a.__ge__, units)),
                                      (nu, a, fam.value(a, nu), Fraction(x, d_up)))
        checked += len(lower)
    return DistributionReport(True, checked)


# ---------------------------------------------------------------------------
# the Gamma-transform bridge

def _primitive_root(q: int, p: int) -> int:
    """Primitive root mod q = p^e, p odd prime."""
    phi = q - q // p
    fac = factorize(phi)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // r, q) != 1 for r in fac):
            return g
    raise ArithmeticError("no primitive root found")


def teichmuller(a: int, p: int, w: int) -> int:
    """The Teichmuller representative omega(a) mod p^w: the fixed point of x -> x^p."""
    mod = p**w
    x = a % mod
    if x % p == 0:
        raise ValueError("a must be a p-adic unit")
    prev = None
    while x != prev:
        prev, x = x, pow(x, p, mod)
    return x


def _teichmuller_powers(p: int, w: int):
    """The map e -> [omega(r)^e mod p^w for r = 0..p-1] (0 at r = 0).

    One Teichmuller lift zeta = omega(g) of a primitive root g mod p gives
    omega(r) = zeta^ind(r), ind the index of r to the base g, so every power
    is read from one table of the p - 1 powers of zeta.
    """
    mod = p**w
    g = _primitive_root(p, p)
    zeta = teichmuller(g, p, w)
    zeta_pow = [1]
    ind = [0] * p
    x = 1
    for e in range(1, p - 1):
        zeta_pow.append(zeta_pow[-1] * zeta % mod)
        x = x * g % p
        ind[x] = e

    def powers(e: int) -> list[int]:
        return [0] + [zeta_pow[e * ind[r] % (p - 1)] for r in range(1, p)]
    return powers


def _exponent_table(u: int, p: int, V: int) -> list[int]:
    """index[u^i mod p^V] = i for i < p^(V-1), 0 off the 1-units mod p^V.

    u must generate 1 + pZp (u = 1 mod p, u != 1 mod p^2); then the powers
    u^i, i < p^(V-1), run once over the 1-units mod p^V, so every <c> mod
    p^V is u^i for exactly one such i, and log_u<c> = i mod p^(V-1).
    """
    if u % p != 1 or u % p**2 == 1:
        raise ValueError("u must generate 1 + pZp (u = 1 mod p, u != 1 mod p^2)")
    pV = p**V
    index = [0] * pV
    x = 1
    for i in range(p ** (V - 1)):
        index[x] = i
        x = x * u % pV
    return index


def to_iwasawa_series(fam: LevelFamily, chi_tame: DirichletCharacter,
                      omega_power: int, u: int, N: int, M: int) -> IwasawaElement:
    """Gamma-transform of a p-integral distribution against the branch chi * omega^j.

    The branch character of the torsion part (Z/m0 p)^x is given as a
    Kronecker tame character of conductor dividing m0 (exact values read
    from its value table) times the j-th Teichmuller power at p
    (p-adic values).  The coefficients are the Riemann sums at level L = V - 1

        a_j = sum over level-L units of branch^-1(a) C(log_u<a>, j) mu(a)

    read as the image of mu in Z_p[T]/((1+T)^(p^(L-1)) - 1) (Washington,
    Introduction to Cyclotomic Fields, 7.2): <a> mod p^L is u^i for one
    i < p^(L-1) (_exponent_table), and log_u<a> = i mod p^(L-1).  With level
    L's numerators N over its denominator d, the units a = c mod p^L first
    sum to the exact integer W(c) = sum chi(a) N(a), the blocks rotated to
    line up and signed by chi(r) = +-1.  Class c adds W(c) omega^-j(c) to the
    weight of its exponent i, and a_j = d^-1 sum_i weight(i) C(i, j) is the
    (j+1)-fold suffix sum of the weights at i = j.  No logarithm is taken.

    a_0 is exact to N digits, a_j (j >= 1) to min(N, V - 2 - v_p(j!)).  Since
    j! C(x, j) is an integer polynomial, x = y mod p^e gives C(x, j) - C(y, j)
    valuation >= e - v_p(j!); log_u is constant mod p^(L-1) on a level-L cell,
    so on a p-integral measure the level-L sum is the integral to
    L - 1 - v_p(j!) digits.  The family must be a distribution (as
    stabilize(bernoulli_family(...)) is; check_distribution verifies it), so
    that level V sums onto level L; both levels must be p-integral.
    """
    p, m0, V = fam.p, fam.m0, fam.depth
    if p < 3:
        raise ValueError("p must be an odd prime")
    if m0 % chi_tame.conductor:
        raise ValueError("tame character must have conductor dividing m0")
    if V < 2:
        raise ValueError("need depth >= 2 for the wild coordinate")
    L = V - 1
    index = _exponent_table(u, p, L)
    if fam.den[V] % p == 0 or fam.den[L] % p == 0:
        raise ValueError("family is not p-integral at level V or V - 1; stabilize first")
    level, den = fam.num[L], fam.den[L]

    w = N + V + 4
    mod, pL = p**w, p**L
    chi = value_table(chi_tame)  # f | m0, so chi(a) = chi(r) at a = r mod m0
    f = len(chi)
    # a = r + m0 t = m0 (t + r/m0) mod p^L: rotated to start at t = 1 - r/m0, the blocks line up
    size, minv = len(level) // len(fam.blocks), pow(m0 % pL, -1, pL)
    classes = [0] * size
    for i, (r, s) in enumerate(fam.blocks):
        blk, k = level[i * size:(i + 1) * size], _position((1 - r * minv) % pL, s, p)
        classes = list(map(add if chi[r % f] > 0 else sub, classes, blk[k:] + blk[:k]))
    omega = _teichmuller_powers(p, w)
    om_j = omega((-omega_power) % (p - 1))  # omega(r)^(-j) mod p^w
    om_1 = [x % pL for x in omega(p - 2)]  # omega(r)^(-1) mod p^L
    weight = [0] * p ** (L - 1)
    for c, wt in zip(compress(range(0, m0 * pL, m0), _mask(p, 0, L)), classes):
        if wt:
            r = c % p
            weight[index[c * om_1[r] % pL]] += wt * om_j[r]
    series, acc = [], weight[::-1]
    for j in range(M):
        acc = list(accumulate(acc[:len(weight) - j]))
        series.append(acc[-1] if acc else 0)
    den_inv = pow(den % mod, -1, mod)
    prec = [bridge_certified_precision(V, p, j, N) for j in range(M)]
    return IwasawaElement(p, [x * den_inv for x in series], prec)


def _vfact(j: int, p: int) -> int:
    """v_p(j!), by Legendre's formula."""
    return sum(j // p**k for k in range(1, j.bit_length() + 1))


def bridge_certified_precision(depth: int, p: int, j: int, N: int) -> int:
    """The digits to_iwasawa_series states for T^j on a depth-`depth` tower."""
    if j == 0:
        return N
    return min(N, max(0, depth - 2 - _vfact(j, p)))


# ---------------------------------------------------------------------------
# Kubota-Leopoldt branch series


# residues per block of the prefix-sum sweep and of the power tables' shift: they bound the packed
# rows (about 1.4 kbit each at the default 15 powers, 2.4 kbit for the wrap rows at f0 = 161192)
# and the columns held at once, for any f0, p
_SWEEP_BLOCK = 1024
_RESIDUE_BLOCK = 256


def _packed_rows(n: int, mmax: int, wide: int, term):
    """(rows, read): rows[i] packs term(i, l), l = 0..mmax, for i < n; read unpacks signed sums.

    With W = bitlen(n - 1), slot l takes W + wide l + 2 bits, rounded up to
    bytes, and 0 <= term(i, l) <= 2^(wide l) must hold.  A sum of rows over
    at most n indices, minus another such sum, holds the signed sums of the
    terms slot by slot: no slot carries or borrows, since either sum has slot
    l at most n 2^(wide l) <= 2^(W + wide l), and with half the slot's range
    added (`bias`) the difference stays inside the slot.  term(i, l) is a
    polynomial of degree <= mmax in i: rows from the forward differences of
    rows 0..mmax, one pass of additions per degree.
    """
    width = (n - 1).bit_length()
    sizes = [(width + wide * l + 9) // 8 for l in range(mmax + 1)]  # bytes per slot
    starts = list(accumulate(sizes, initial=0))
    half = [1 << (8 * b - 1) for b in sizes]
    bias = sum(h << 8 * a for h, a in zip(half, starts))
    head = [sum(term(i, l) << 8 * a for l, a in enumerate(starts[:-1])) for i in range(mmax + 1)]
    diffs = [d for (d,) in _binomial_shift(head, [-1])]
    rows = [diffs.pop()] * n
    for d in reversed(diffs):
        rows = list(accumulate(rows[:-1], initial=d))
    spans = list(zip(starts, starts[1:], half))

    def read(x):
        b = (x + bias).to_bytes(starts[-1], "little")
        return [int.from_bytes(b[a:e], "little") - h for a, e, h in spans]
    return rows, read


def _walk(rows, signs, lo: int, stops):
    """Yield (s, x) for s in stops (increasing, within the block at lo), x = sum of
    sign(j) rows[j - lo] over lo <= j < s; signs is the pair of masks of vals = +1, -1."""
    plus, minus = signs
    x, pos = 0, lo
    for s in stops:
        seg = rows[pos - lo:s - lo]
        x += sum(compress(seg, plus[pos:s])) - sum(compress(seg, minus[pos:s]))
        pos = s
        yield s, x


def _wraps_by_rows(signs, held, n: int, mmax: int, f: int):
    """Yield (s, w(s)) over the cuts of each (lo, block) in held, in order:
    w_l(s) = sum_{lo <= j < s} vals[j] ((j - lo + f)^l - (j - lo)^l), read off
    packed rows of (i + f)^l - i^l summed up to each block's last cut."""
    rows, read = _packed_rows(n, mmax, (n - 1 + f).bit_length(),
                              lambda i, l: (i + f)**l - i**l)
    for lo, block in held:
        for s, x in _walk(rows, signs, lo, block):
            yield s, read(x)


def _wraps_by_shift(reads: dict, f: int):
    """Yield (s, w(s)) for each s of reads, w(s) = shift_f(q) - q for the
    in-block read q = reads[s] (q_l = sum_{lo <= j < s} vals[j] (j - lo)^l):
    one batched `_binomial_shift` of every read by f."""
    qs = list(reads.values())
    moved = zip(*_binomial_shift(list(chain.from_iterable(zip(*qs))), [f] * len(qs)))
    for s, q, m in zip(reads, qs, moved):
        yield s, list(map(sub, m, q))


def _prefix_power_sums(vals, cuts, mmax: int):
    """Exact window moments at every s in cuts, each in its block's frame, from one prefix sweep.

    Cut s lies in the block [lo, lo + n), n = min(_SWEEP_BLOCK, len(vals)) = f
    at most.  Returns (at, total): at[s] = (lo, [D_0(s), ..., D_mmax(s)]),
    with D_l(s) = sum_{s <= j < s + f} vals[j mod f] (j - lo)^l the moments of
    one period from s, and total[l] = T_l = sum_{j < f} vals[j] j^l, which is
    D(0).  vals is an array("b") of 0, 1 and -1.

    In the frame of lo, with Q_l(s) = sum_{j < s} vals[j] (j - lo)^l and T_lo
    the sums over every j, the window is D(s) = T_lo - Q(s) + Q'(s): Q' puts
    (j - lo + f)^l for (j - lo)^l, as j + f runs over the wrapped part.  The
    wrap term Q' - Q splits at lo.  Below lo it is shift_f(P) - P, P = Q(lo)
    the block prefix; from lo to s it is the in-block wrap w(s), so
        D(s) = T_lo + shift_f(P) - P + w(s).
    One sweep of packed rows of i^l (`_packed_rows`, one big-int addition
    per residue) reads each block's end; one `_binomial_shift` moves those
    reads to the frame of 0, where their running sums are P at each lo and
    the total, and one more moves T - P by -lo and P by f - lo to each lo
    that holds a cut.

    w(s) comes one of two ways, whichever takes fewer element operations by
    the sizes alone (the cut count, n, mmax and each block's last cut):
    - rows (`_wraps_by_rows`): n mmax additions build packed rows of
      (i + f)^l - i^l, then one addition per residue from each block's
      start to its last cut;
    - shift (`_wraps_by_shift`): the sweep also reads each cut's in-block
      sum q(s), and w = shift_f(q) - q costs (mmax + 1)(mmax + 2)/2 per
      cut: mmax (mmax + 1)/2 multiply-adds of one batched shift, and the
      subtractions.
    Dense cuts take the rows: every cut of a conductor below p (the bench's
    branch-prime shapes) and the headline's p = 4951, 13417.  A few cuts on
    a long conductor take the shift: p = 5, 7 at f0 in the thousands.  Near
    the break-even point the two ways measured within 25% of each other
    (f0 = 20149, 161192 at mmax = 7, 15, 29).
    """
    f = len(vals)
    n = min(_SWEEP_BLOCK, f)
    cuts = sorted(set(cuts))
    held = [(lo, list(block)) for lo, block in groupby(cuts, lambda s: s - s % n)]
    by_rows = (n * mmax + sum(block[-1] - lo for lo, block in held)
               < len(cuts) * (mmax + 1) * (mmax + 2) // 2)
    signs = sign_masks(vals.tobytes())
    rows, read = _packed_rows(n, mmax, (n - 1).bit_length(), pow)
    reads, ends = {}, []
    for lo in range(0, f, n):
        hi = min(lo + n, f)
        stops = [] if by_rows else cuts[bisect_left(cuts, lo):bisect_left(cuts, hi)]
        for s, x in _walk(rows, signs, lo, stops + [hi]):
            reads[s] = read(x)
        ends.append(reads.pop(hi))
    del rows  # the frame work below needs no rows
    pre = []  # per moment: P at each held lo, then the total, in 0's frame
    for c in _binomial_shift(list(chain.from_iterable(zip(*ends))), list(range(0, f, n))):
        acc = list(accumulate(c, initial=0))
        pre.append([acc[lo // n] for lo, _ in held] + [acc[-1]])
    total = [c[-1] for c in pre]
    if not held:
        return {}, total
    k = len(held)
    cols = list(chain.from_iterable([c[-1] - x for x in c[:-1]] + c[:-1] for c in pre))
    out = list(_binomial_shift(cols, [-lo for lo, _ in held] + [f - lo for lo, _ in held]))
    # D(lo), the window from each held block start: there w(lo) = 0
    base = {lo: [c[i] + c[k + i] for c in out] for i, (lo, _) in enumerate(held)}
    at = {}
    for s, w in (_wraps_by_rows(signs, held, n, mmax, f) if by_rows else _wraps_by_shift(reads, f)):
        lo = s - s % n
        at[s] = (lo, list(map(add, base[lo], w)))
    return at, total


def _binomial_shift(c: list[int], ts: list[int]):
    """Yield [sum_l C(m,l) t_i^(m-l) c_l[i] for i < len(ts)] for m = 0, 1, ...

    c holds columns c_0, c_1, ... of len(ts) entries end to end; column m is
    the first one of (S + T)^m c, S the left shift by a column and T the
    entrywise product with ts.  Each step is one C-level pass, exactly.
    """
    k = len(ts)
    ts = ts * (len(c) // k)
    while c:
        yield c[:k]
        c = list(map(add, c[k:], map(mul, ts, c)))


def _power_tables(chi: DirichletCharacter, p: int, wk: int, mmax: int):
    """Character power sums for the branch Bernoulli numbers.

    Returns (U, U0) mod p^wk, U[m][r] = sum of chi(a) a^m over 1 <= a <= f0*p
    with a = r mod p and gcd(a, f0 p) = 1 (U[m][0] = 0), and U0[m] the same
    sum over 1 <= a <= f0.

    Write a = r + p k (1 <= r < p, 0 <= k < f0), j = k + s with s = r p^-1
    mod f0, and lo for the start of the sweep block of s.  Then chi(a) =
    chi(p) chi(j mod f0) and a = p (j - lo) + t, t = r - p (s - lo), as j
    runs over the window [s, s + f0).  So with the window moments D_l(s) =
    sum_{s <= j < s + f0} chi(j) (j - lo)^l (`_prefix_power_sums`)
        U[m][r] = chi(p) sum_l C(m,l) t^(m-l) p^l D_l(s),
    and U0 = D(0) (chi(0) = chi(f0) = 0).  A block of _RESIDUE_BLOCK residues
    shifts its columns chi(p) p^l D_l(s) by t at once, so the p mmax (mmax+1)/2
    multiply-adds run as C-level passes; a cut is freed after its last
    block.  f0 = 1: U[m][r] = r^m, U0[m] = 1.
    """
    f0 = chi.conductor
    mod = p**wk
    if f0 == 1:
        return ([[0] + [pow(r, m, mod) for r in range(1, p)] for m in range(mmax + 1)],
                [1] * (mmax + 1))
    vals = value_table(chi)
    pinv = pow(p % f0, -1, f0)
    shifts = [r * pinv % f0 for r in range(1, p)]
    windows, total = _prefix_power_sums(vals, shifts, mmax)
    scale = [vals[p % f0] * p**l for l in range(mmax + 1)]  # chi(p) p^l
    U = [[0] for _ in range(mmax + 1)]
    for i in range(0, p - 1, _RESIDUE_BLOCK):
        block = shifts[i:i + _RESIDUE_BLOCK]
        ts = [r - p * (s - windows[s][0]) for r, s in zip(range(i + 1, p), block)]
        cols = []
        for q, col in zip(scale, zip(*[windows[s][1] for s in block])):
            cols += [d * q % mod for d in col]
        for s in compress(block, map((p - f0).__le__, range(i + 1, p))):
            del windows[s]  # r + f0 >= p: no later residue r + f0 reads s
        for Um, c in zip(U, _binomial_shift(cols, ts)):
            Um.extend([x % mod for x in c])
    return U, [x % mod for x in total]


def _branch_nodes(chi: DirichletCharacter, p: int, omega_power: int, count: int,
                  wk: int) -> list[tuple[int, int]]:
    """[(y_n, k_n)] for n = 1..count: the branch at t_n = u^(1-n) - 1 is y_n mod p^k_n.

    The value is -(1 - eta(p) p^(n-1)) B_{n,eta}/n, eta the primitive part of
    chi * omega^tw, tw = omega_power - n mod p - 1, eta(p) = chi(p) when
    tw = 0 and 0 otherwise, times u^(1-n) - u = (1 + t_n) - u on the pole
    branch (chi trivial, omega_power = 0 mod p - 1).  With f = f0 p, or f0
    when tw = 0, B_{n,eta} = sum_k C(n,k) B_k f^(k-1) S_{n-k} over k <= 1 and
    even k, S_m = U0[m] when tw = 0 and sum_r omega(r)^tw U[m][r] otherwise,
    from one power-sum and one Teichmuller table exact mod p^wk.  By von
    Staudt-Clausen g_k = p B_k f^(k-1) and g_0 = p/f = p^(1-v_p(f))/f0
    are p-integral, so p B_{n,eta} = sum_k C(n,k) g_k S_{n-k} is one integer
    sum known mod p^wk, and so is x = -(1 - eta(p) p^(n-1)) p B_{n,eta} n0^-1
    z, n = p^v n0, z = 1 or u^(1-n) - u.  The value x / p^(v+1) lies in Z_p
    (kubota_leopoldt), so p^(v+1) | x (checked) and x // p^(v+1) is the value
    mod p^(wk - 1 - v): k_n = wk - 1 - v_p(n), not uniform in n.
    """
    u, f0, chi_p = 1 + p, chi.conductor, chi(p)
    mod = p**wk
    U, U0 = _power_tables(chi, p, wk, count)
    omega = _teichmuller_powers(p, wk)
    pole = chi.is_trivial() and omega_power % (p - 1) == 0
    ks = [k for k in range(count + 1) if k < 2 or k % 2 == 0]  # B_k = 0 at odd k >= 3
    bern = bernoulli_numbers(count)
    gs = [[g.numerator * pow(g.denominator, -1, mod) % mod
           for g in (p * bern[k] * Fraction(f) ** (k - 1) for k in ks)] for f in (f0, f0 * p)]
    nodes = []
    for n in range(1, count + 1):
        tw = (omega_power - n) % (p - 1)
        kn = ks[:bisect_right(ks, n)]
        omp = omega(tw) if tw else None
        s = [sum(map(mul, omp, U[n - k])) if tw else U0[n - k] for k in kn]
        pb = sum(map(mul, map(mul, map(math.comb, repeat(n), kn), gs[tw > 0]), s))
        v = val_p(n, p)
        x = -(1 - (0 if tw else chi_p) * p ** (n - 1)) * pb * pow(n // p**v, -1, mod)
        x = x * (pow(u, 1 - n, mod) - u if pole else 1) % mod
        if x % p ** (v + 1):
            raise ArithmeticError("non-integral coefficient at T^0 (unexpected pole)")
        nodes.append((x // p ** (v + 1), wk - 1 - v))
    return nodes


# The self-check fits the same nodes with 8 more points: c_k = f[t_0..t_k] depends only on t_0..t_k,
# so the K-point fit is the first K of the (K + 8)-point one, and both fix T^0..T^(M-1) mod p^N.
_CHECK_POINTS = 8


def kubota_leopoldt(chi: DirichletCharacter, p: int, N: int, M: int,
                    omega_power: int = 0) -> IwasawaElement:
    """The branch series L with L(u^(1-n) - 1) = -(1 - eta_n(p) p^(n-1)) B_{n,eta_n}/n.

    eta_n is the primitive character of chi * omega^(omega_power - n), and
    u = 1 + p is the image of the topological generator.  p must be odd.
    chi must be even (trivial or quadratic here) with conductor prime to p,
    and chi * omega^omega_power even overall.  The trivial branch (chi
    trivial, omega_power = 0) is the p-adic zeta pseudo-measure: the
    returned element is ((1+T) - u) times the branch, flagged pole_factor.

    Construction: Newton interpolation on integers mod p^wk through the nodes
    n = 1..big, big = K + 8 (K = _fit_points = N + M - 1), each evaluated and
    differenced once; the series expands the first K Newton coefficients to
    T^0..T^(M-1), and the self-check all big, which must agree mod p^N.

    K nodes suffice because what is interpolated lies in Lambda = Z_p[[T]]:
    theta = chi omega^omega_power (conductor f0 or f0 p, values in Z_p) is of
    the first kind, so the branch lies in Lambda when theta is nontrivial and
    ((1+T) - u) times it does when theta is trivial (the pole branch;
    Washington, Introduction to Cyclotomic Fields, Thm. 7.10).  Every node
    t_n = u^(1-n) - 1 lies in pZ_p, so _fit_points applies to both.

    Working precision: wk = max(big, N + min(M, big)) + v_p((big - 1)!) + v,
    v = max_{n <= big} v_p(n), is the least wk at which both bounds of
    _newton_fit hold.  Nodes hold wk - 1 - v digits or more, and the pole
    gate at level k sees all its e_k = 1 + v_p(k) digits iff wk - 1 - v >=
    k + v_p(k!), the digits levels 1..k use; k = big - 1 binds.  T^j of the
    check, j < big, is held to wk - 1 - v - v_p((big - 1)!) - j digits
    (_fit_points), and T^j = 0 at j >= big: N digits at every j < M iff wk
    reaches the N + min(M, big) term.  At the proved K, big > N + M.
    """
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

    fit = _fit_points(N, M)
    big = fit + _CHECK_POINTS
    v = max(val_p(n, p) for n in range(1, big + 1))
    wk = max(big, N + min(M, big)) + _vfact(big - 1, p) + v
    res = _newton_fit(_branch_nodes(chi, p, omega_power, big, wk), p, N, M, fit)
    return IwasawaElement(p, res, [N] * M, pole_factor=pole)


def _fit_points(N: int, M: int) -> int:
    """K = N + M - 1 nodes fix T^0..T^(M-1) of a Lambda-valued series mod p^N.

    Let f = sum_j a_j T^j with every a_j in Z_p, and let P interpolate f at
    K nodes t_0..t_(K-1) in pZ_p.  Newton's remainder formula holds for
    power series:
        f - P = prod_i (T - t_i) * f[t_0..t_(K-1), T],
    and the divided difference of T^j is the complete homogeneous symmetric
    polynomial h_(j-K)(t_0..t_(K-1), T), which has integer coefficients.
    Its T^m coefficient h_(j-K-m)(t) has valuation >= j - K - m, so
    f[t_0..t_(K-1), T] = sum_j a_j h_(j-K)(t, T) converges coefficientwise
    in Z_p[[T]].  The T^m coefficient of prod_i (T - t_i) is
    +-e_(K-m)(t), a sum of products of K - m elements of pZ_p, so it has
    valuation >= K - m.  Hence the T^j coefficient of f - P has valuation
    >= K - j, and K - j >= N for every j <= M - 1 once K >= N + M - 1.  p
    enters only through t_i in pZ_p, so the count is the same at every odd p.

    Precision of the computed P: at t_i = u^-i - 1, t_(i+k) - t_i =
    u^-(i+k) (1 - u^k) has valuation e_k = v_p(u - 1) + v_p(k) = 1 + v_p(k)
    for odd p (lifting the exponent).  So with node i known mod
    p^(k_i), c_k = f[t_0..t_k] is known mod p^(pi_k), pi_k = min(k_0..k_k) -
    sum_(j<=k) e_j = min(k_0..k_k) - k - v_p(k!) (a floor division by p^(e_k)
    keeps this even on fewer known digits), and T^j of c_k prod_(i<k) (T - t_i),
    +-c_k e_(k-j)(t_0..t_(k-1)), is known mod p^(pi_k + k - j).  Every divided
    difference of f is in Z_p, so one known to be off Z_p is a pole.
    """
    return N + M - 1


def _newton_fit(nodes: list[tuple[int, int]], p: int, N: int, M: int, fit: int) -> list[int]:
    """T^0..T^(M-1) mod p^N of the Newton fit through the first `fit` nodes.

    nodes[i] = (y, k) is the value at t_i = u^-i - 1 (u = 1 + p) mod p^k.  Level k
    of the divided differences is one pass mod p^max(k): the differences divided
    exactly by p^(e_k), e_k = 1 + v_p(k), times u^(i+k) and ((1 - u^k)/p^(e_k))^-1.
    Horner expands the first `fit` coefficients and, as the self-check, all of
    them.  Gates (bounds in _fit_points): differences known to be off p^(e_k) Z_p
    (c_k is the T^k coefficient of the fit through t_0..t_k), a T^j known to
    fewer than N digits, and a fit that disagrees with its self-check mod p^N.
    """
    u, big = 1 + p, len(nodes)
    ys, ks = zip(*nodes)
    mod, low, lost = p ** max(ks), min(ks), 0
    upow, d = [pow(u, i, mod) for i in range(big)], [y % mod for y in ys]
    coeffs, precs = [d[0]], [ks[0]]
    for k in range(1, big):
        e = 1 + val_p(k, p)
        diffs = list(map(sub, d[1:], d))
        if any(map((p ** min(e, max(low - lost, 0))).__rmod__, diffs)):  # only digits the level knows
            raise ArithmeticError(f"non-integral coefficient at T^{k} (unexpected pole)")
        lost += e
        c = pow((1 - u**k) // p**e, -1, mod)
        d = list(map(mod.__rmod__, map(mul, map(floordiv, diffs, repeat(p**e)),
                                       map(c.__mul__, upow[k:]))))
        coeffs.append(d[0])
        precs.append(min(ks[:k + 1]) - lost)
    ts = [pow(u, -i, mod) - 1 for i in range(big)]
    res = []
    for count in (fit, big):
        poly = [0] * M
        for k in range(count - 1, -1, -1):
            poly = list(map(mod.__rmod__, map(sub, [coeffs[k]] + poly[:-1],
                                              map(ts[k].__mul__, poly))))
        for j in range(M):
            have = min([N] + [precs[k] + k - j for k in range(j, count)])
            if have < N:
                raise ArithmeticError(f"precision exhausted at T^{j}: have {have}, need N={N}; "
                                      f"raise the working precision")
        res.append([x % p**N for x in poly])
    for j in range(M):
        if res[0][j] != res[1][j]:
            raise ArithmeticError(f"interpolation unstable at T^{j}; raise the point count")
    return res[0]


# ---------------------------------------------------------------------------
# induced Deligne-Ribet products


@dataclass
class DRResult:
    series: IwasawaElement
    factor1: IwasawaElement
    factor2: IwasawaElement
    euler_factors: list
    lambda_mu_parts: dict
    additivity: bool


def branch_product(chi1: DirichletCharacter, chi2: DirichletCharacter,
                   strip_norms, p: int, N: int, M: int) -> DRResult:
    """Product of the Kubota-Leopoldt branches of chi1 and chi2, Euler-stripped.

    For each n in strip_norms (each coprime to p), each branch is multiplied
    by 1 - eta(n) n^-1 (1+T)^c(n), with eta the branch's own character and
    u = 1 + p.  Reports lambda/mu of each part and the additivity verdict:
    lambda and mu of the product equal the sums over the branches and the
    Euler factors, all certified.

    A trivial chi1 or chi2 is refused before either branch is computed: its
    omega^0 branch is the pole branch, which has no lambda/mu invariants.
    """
    if chi1.is_trivial() or chi2.is_trivial():
        raise ValueError("a trivial branch character gives the pole branch (omega^0), "
                         "which has no lambda/mu invariants")
    f1 = kubota_leopoldt(chi1, p, N, M)
    f2 = kubota_leopoldt(chi2, p, N, M)
    eulers = []
    prod = f1 * f2
    for nq in strip_norms:
        for chi_b in (chi1, chi2):
            e = euler_factor(chi_b(nq), nq, p, N, M)
            eulers.append(e)
            prod = prod * e
    parts = {}
    mu1, l1, c1 = lambda_mu(f1)
    mu2, l2, c2 = lambda_mu(f2)
    parts["factor1"] = (mu1, l1, c1)
    parts["factor2"] = (mu2, l2, c2)
    lam_e = mu_e = 0
    certified = c1 and c2
    for e in eulers:
        mue, le, ce = lambda_mu(e)
        lam_e += le
        mu_e += mue
        certified = certified and ce
    mu_p, l_p, c_p = lambda_mu(prod)
    parts["product"] = (mu_p, l_p, c_p)
    parts["euler"] = (mu_e, lam_e, certified)
    additivity = (c_p and certified
                  and l_p == l1 + l2 + lam_e and mu_p == mu1 + mu2 + mu_e)
    return DRResult(prod, f1, f2, eulers, parts, additivity)


def deligne_ribet_induced(eps: HeckeCharacterQF, twist: DirichletCharacter | None,
                          sigma0, p: int, N: int, M: int) -> DRResult:
    """branch_product for the pair induced by eps (twisted by `twist` if given).

    Both branches are stripped at the norm N(q) of each ideal q in sigma0:
    each gets the factor 1 - eta(N(q)) N(q)^-1 (1+T)^c(N(q)), eta its own
    character.  An inert q thus enters with N(q) = q^2 on both branches.

    Both branch characters have conductor divisible by m, so at a prime q
    dividing (m) eta(N(q)) = 0 and the Euler factor is exactly 1; that is
    why verify-example strips nothing (branch_product with no norms) and its
    "euler" part reads lambda = mu = 0.  Which Euler factor the paper strips
    is still open.
    """
    chi1 = eps.chi1 if twist is None else eps.chi1.mul_quadratic(twist)
    chi2 = eps.chi2 if twist is None else eps.chi2.mul_quadratic(twist)
    return branch_product(chi1, chi2, [q.norm for q in sigma0], p, N, M)
