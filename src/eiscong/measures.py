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
a few C-level passes over one block at a time and one gcd per block.
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
from operator import add, floordiv, mul, ne, sub

from .arith import crt, factorize, val_p, val_p_factorial
from .characters import DirichletCharacter, HeckeCharacterQF, sign_masks, split_at_2, value_table
from .iwasawa import IwasawaElement, euler_factor, lambda_mu
from .lseries import BERNOULLI_CAP, bernoulli_numbers


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


def _level(den: int, blocks) -> tuple[int, list[int]]:
    """(den, nums) over the least common denominator from a level's blocks.

    blocks yields lists of ints of one length, in block order; den must be
    positive.  Each block is reduced by its own g_b = gcd(den, *block) and
    appended, so the level is built once with one block of working memory.
    The level's gcd is g = gcd(g_b ...), and the blocks with g_b != g are
    multiplied back by g_b / g in place.
    """
    nums, gbs = [], []
    for blk in blocks:
        gb = math.gcd(den, *blk)
        gbs.append(gb)
        nums += blk if gb == 1 else map(floordiv, blk, repeat(gb))
        del blk  # not held while the next block is built
    g, size = math.gcd(*gbs), len(nums) // len(gbs)
    for i, gb in enumerate(gbs):
        if gb != g:
            lo = i * size
            nums[lo:lo + size] = map(mul, repeat(gb // g), nums[lo:lo + size])
    return den // g, nums


def _scaled(k: int, xs):
    """k times each of xs, lazily; xs itself when k = 1."""
    return xs if k == 1 else map(mul, repeat(k), xs)


# bernoulli_family refuses a tower whose top level has more than this many
# residues m0 p^depth, before any level is built.  Peak RSS runs to about 80
# bytes per residue when m0 = 1 and one block is a whole level (--p 3 --m0 1
# --depth 14 --alpha 1 --eps-p 1: 363 MiB for 4.78M residues; --p 5 --m0 12
# --depth 8 needs about 26 bytes per residue, 114 MiB; CPython 3.11, Linux),
# so a run at the cap stays under about 0.8 GB
_TOWER_RESIDUE_CAP = 10**7


def bernoulli_family(m0: int, p: int, depth: int) -> LevelFamily:
    """B1 values on the tower; the bottom level is the coherent pushforward.

    Levels nu >= 1 carry B1(a / m0 p^nu) = (2a - q) / 2q, q = m0 p^nu,
    exactly.  At nu = 0 the unit-group fiber over a loses the lift divisible
    by p, so the coherent value is B1(a/m0) - B1(p^-1 a / m0) =
    (a - (p^-1 a mod m0)) / m0; with the plain value there the distribution
    identity would fail at the bottom step (level m0 conventions).  Each
    block is built alone, a range compressed by the block's skip mask, with
    one gcd per block.

    p >= 2.  A tower of more than _TOWER_RESIDUE_CAP residues at the top is
    refused first; the exponent is clipped to the cap's bit length b, since
    m0 p^b >= 2^b exceeds the cap already, so a huge depth forms no huge power.
    """
    if m0 < 1:
        raise ValueError("m0 must be a positive integer")
    if m0 * p**max(0, min(depth, _TOWER_RESIDUE_CAP.bit_length())) > _TOWER_RESIDUE_CAP:
        raise ValueError(f"m0 p^depth exceeds the tower cap of {_TOWER_RESIDUE_CAP} residues")
    if math.gcd(m0, p) != 1:
        raise ValueError("m0 must be coprime to p")
    if depth < 1:
        raise ValueError("need depth >= 1")
    blocks = _blocks(m0, p)
    pinv = pow(p % m0, -1, m0) if m0 > 1 else 0
    levels = [_level(m0, [[r - pinv * r % m0 for r, _ in blocks]])]
    for nu in range(1, depth + 1):
        q = m0 * p**nu
        k = 2 - q % 2  # (2a - q) / k over 2q / k, a = r + m0 t over block r
        levels.append(_level(2 * q // k, (
            list(compress(range((2 * r - q) // k, (2 * r + q) // k, 2 * m0 // k),
                          _mask(p, s, nu)))
            for r, s in blocks)))
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
    formed one output block at a time from its own slice and the two
    rotated slices of its partner block r', with one gcd per block
    (_level), so no second copy of the level is held.  The p-adic
    valuation of alpha must be 0.
    """
    params.check_unit(fam.p)
    alpha, eps = params.alpha, params.eps_p
    twist = eps / alpha
    tn, td = twist.numerator, twist.denominator
    levels = []
    for nu, (den, nums) in enumerate(zip(fam.den, fam.num)):
        scale = 1 / alpha**nu
        levels.append(_level(scale.denominator * td * den,
                             _stabilized_blocks(fam, nu, nums, scale.numerator, tn, td)))
    return LevelFamily(fam.m0, fam.p, fam.depth, *map(list, zip(*levels)))


def _stabilized_blocks(fam: LevelFamily, nu: int, nums: list[int], sn: int, tn: int, td: int):
    """The blocks of s_n (t_d N(a) - t_n N(a e)) at level nu, one list each.

    Block r chains its partner r' from the rotation point c to the end and
    then the start, so the twisted block is never stored.
    """
    m0, p, blocks = fam.m0, fam.p, fam.blocks
    q, e, size = fam.level_modulus(nu), fam.tame_unit(nu), len(nums) // len(blocks)
    for j, (r, _) in enumerate(blocks):
        own = nums[j * size:(j + 1) * size]
        if not tn:
            yield list(_scaled(sn, own))
            continue
        c, r2 = divmod(r * e % q, m0)
        i = fam._rank[r2]
        lo, hi = i * size, (i + 1) * size
        k = lo + _position(c, blocks[i][1], p)
        twisted = chain(nums[k:hi], nums[lo:k])
        yield list(_scaled(sn, map(sub, _scaled(td, own), _scaled(tn, twisted))))


@dataclass
class DistributionReport:
    ok: bool
    cells_checked: int
    first_failure: tuple | None = None  # (nu, a, expected, got)


def check_distribution(fam: LevelFamily) -> DistributionReport:
    """Fiber sums between consecutive levels, exactly, lexicographic-first failure.

    The fibers are summed as numerators over the upper level's denominator,
    so with g = gcd(den_lower, den_upper) a fiber over a holds when
    sum * (den_lower / g) == N_lower(a) * (den_upper / g), compared lazily
    and with no product at all when the denominators agree; a failing fiber
    reports its sum as a Fraction.  Block r of level nu + 1 is p chunks
    aligned with block r of level nu >= 1 (t + k p^nu), and all of it lies
    over the one unit r at nu = 0: its chunks sum to the fibers.
    """
    checked, nb = 0, len(fam.blocks)
    for nu in range(fam.depth):
        lower, upper = fam.num[nu], fam.num[nu + 1]
        d_lo, d_up = fam.den[nu], fam.den[nu + 1]
        n, size = len(lower) // nb, len(upper) // nb
        sums = []
        for i in range(0, len(upper), size):
            sums += map(sum, zip(*[upper[j:j + n] for j in range(i, i + size, n)]))
        g = math.gcd(d_lo, d_up)
        k_lo, k_up = d_lo // g, d_up // g
        if any(map(ne, _scaled(k_lo, sums), _scaled(k_up, lower))):
            units = list(fam.units(nu))
            a, x = min((a, x) for a, x, y in zip(units, sums, lower) if x * k_lo != y * k_up)
            return DistributionReport(False, checked + sum(map(a.__ge__, units)),
                                      (nu, a, fam.value(a, nu), Fraction(x, d_up)))
        checked += len(lower)
    return DistributionReport(True, checked)


# ---------------------------------------------------------------------------
# the Gamma-transform bridge

def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p."""
    fac = factorize(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in fac))


def _teichmuller_powers(p: int, w: int):
    """The map (e, rs) -> [omega(r)^e mod p^w for r in rs], each r in 1..p-1.

    One Teichmuller lift zeta = omega(g) of a primitive root g mod p gives
    omega(r) = zeta^ind(r), ind the index of r to the base g, so every power
    is read from one table of the p - 1 powers of zeta.  zeta = g^(p^(w-1))
    mod p^w: it is g mod p (Fermat), and its (p - 1)-th power is
    (g^(p-1))^(p^(w-1)) = 1 mod p^w, as g^(p-1) lies in 1 + pZ.
    """
    mod = p**w
    g = _primitive_root(p)
    zeta = pow(g, p ** (w - 1), mod)
    zeta_pow = [1]
    ind = [0] * p
    x = 1
    for e in range(1, p - 1):
        zeta_pow.append(zeta_pow[-1] * zeta % mod)
        x = x * g % p
        ind[x] = e

    def powers(e: int, rs) -> list[int]:
        return [zeta_pow[e * ind[r] % (p - 1)] for r in rs]
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

    w = max(N, L)  # the weights need N digits, and om_1 reads <c> mod p^L off the same table
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
    om_j = [0] + omega((-omega_power) % (p - 1), range(1, p))  # omega(r)^(-j) mod p^w
    om_1 = [0] + [x % pL for x in omega(p - 2, range(1, p))]  # omega(r)^(-1) mod p^L
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


def bridge_certified_precision(depth: int, p: int, j: int, N: int) -> int:
    """The digits to_iwasawa_series states for T^j on a depth-`depth` tower."""
    if j == 0:
        return N
    return min(N, max(0, depth - 2 - val_p_factorial(j, p)))


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
    sizes = _slot_bytes(n, mmax, wide)
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


def _slot_bytes(n: int, mmax: int, wide: int) -> list[int]:
    """The bytes of slots l = 0..mmax of a `_packed_rows`(n, mmax, wide, ...) row."""
    width = (n - 1).bit_length()
    return [(width + wide * l + 9) // 8 for l in range(mmax + 1)]


def _packed_row_bytes(conductors, mmax: int) -> int:
    """The bytes of packed rows one `_branch_series` call over characters of these
    conductors holds at once, at most: its `_sweep_rows` and the wrap rows of
    `_wraps_by_rows` for the largest f, which are no more rows and wider.  A row
    of mmax + 1 slots is about mmax^2 wide / 16 bytes."""
    n, f = _sweep_block(conductors), max(conductors)
    span = min(n, f // 2 + 1)
    return (n * sum(_slot_bytes(n, mmax, (n - 1).bit_length()))
            + span * sum(_slot_bytes(span, mmax, (span - 1 + f).bit_length())))


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


def _sweep_block(conductors) -> int:
    """The residues per block of a half sweep: those of the largest f serve all."""
    return min(_SWEEP_BLOCK, max(f // 2 + 1 for f in conductors))


def _sweep_rows(conductors, mmax: int):
    """Packed rows of i^l (`_packed_rows`) for the half sweeps of these conductors."""
    n = _sweep_block(conductors)
    return _packed_rows(n, mmax, (n - 1).bit_length(), pow)


def _prefix_power_sums(vals, cuts, mmax: int, sweep):
    """Exact window moments at every s in cuts, each in its block's frame, from a sweep of half the period.

    vals is a character's table (array("b") of 0, 1, -1), f = len(vals) > 1,
    and every cut lies in [0, h], h = f // 2 + 1.  Cut s lies in the block
    [lo, lo + n), n = len(rows) for the `_sweep_rows` sweep = (rows, read).
    Returns (at, total): at[s] = (lo, [D_0(s), ..., D_mmax(s)]),
    with D_l(s) = sum_{s <= j < s + f} vals[j mod f] (j - lo)^l the moments of
    one period from s, and total[l] = T_l = sum_{j < f} vals[j] j^l, which is
    D(0).

    In the frame of lo, with Q_l(s) = sum_{j < s} vals[j] (j - lo)^l and T_lo
    the sums over every j, the window is D(s) = T_lo - Q(s) + Q'(s): Q' puts
    (j - lo + f)^l for (j - lo)^l, as j + f runs over the wrapped part.  The
    wrap term Q' - Q splits at lo.  Below lo it is shift_f(P) - P, P = Q(lo)
    the block prefix; from lo to s it is the in-block wrap w(s), so
        D(s) = T_lo + shift_f(P) - P + w(s).
    The sweep adds packed rows (one big-int addition per residue) over j < h
    and reads each block's end; one `_binomial_shift` moves those reads to
    the frame of 0, where their running sums are P at each lo and the half
    H = Q(h).  As vals[f - j] = chi(-1) vals[j] (and vals[f/2] = 0), the rest
    of the period is H reflected: T_l = H_l + chi(-1) sum_k C(l,k) f^(l-k)
    (-1)^k H_k, one shift by f.  One more moves T - P by -lo and P by f - lo
    to each lo that holds a cut.  The blocks cover [0, h], the last one empty
    when n divides h, so that a cut at h has a block.

    w(s) comes one of two ways, whichever takes fewer element operations by
    the sizes alone (the cut count, n, mmax and each block's last cut):
    - rows (`_wraps_by_rows`): min(n, h) mmax additions build packed rows of
      (i + f)^l - i^l, then one addition per residue from each block's
      start to its last cut;
    - shift (`_wraps_by_shift`): the sweep also reads each cut's in-block
      sum q(s), and w = shift_f(q) - q costs (mmax + 1)(mmax + 2)/2 per
      cut: mmax (mmax + 1)/2 multiply-adds of one batched shift, and the
      subtractions.
    Dense cuts take the rows: every cut of a conductor below p (the bench's
    branch-prime shapes, pin row padic-l-2-37-p107) and the headline's
    p = 4951, 13417.  A few cuts on a long conductor take the shift: p = 5, 7
    at f0 in the thousands (pin rows padic-l-2-20149-p5, padic-l-2-20149-p3).
    Near the break-even point the two ways measured within 25% of each other
    (f0 = 20149, 161192 at mmax = 7, 15, 29); rows alone at every call made
    the bench's branch-conductor workload about 1.5 times as slow (wall_s).
    An even f may come here by its odd part instead (`_sweeps_odd_part`).
    """
    f = len(vals)
    h = f // 2 + 1
    rows, read = sweep
    n, span = len(rows), min(len(rows), h)
    cuts = sorted(set(cuts))
    held = [(lo, list(block)) for lo, block in groupby(cuts, lambda s: s - s % n)]
    by_rows = (span * mmax + sum(block[-1] - lo for lo, block in held)
               < len(cuts) * (mmax + 1) * (mmax + 2) // 2)
    signs = sign_masks(vals[:h].tobytes())
    starts = range(0, h + 1, n)
    reads, ends = {}, []
    for lo in starts:
        stops = [] if by_rows else cuts[bisect_left(cuts, lo):bisect_left(cuts, lo + n)]
        *got, (_, end) = _walk(rows, signs, lo, stops + [min(lo + n, h)])
        reads.update((s, read(x)) for s, x in got)
        ends.append(read(end))
    pre = []  # per moment: P at each held lo, then H, in 0's frame
    for c in _binomial_shift(list(chain.from_iterable(zip(*ends))), list(starts)):
        acc = list(accumulate(c, initial=0))
        pre.append([acc[lo // n] for lo, _ in held] + [acc[-1]])
    half = [c.pop() for c in pre]
    flip = _binomial_shift([-x if l % 2 else x for l, x in enumerate(half)], [f])
    total = [x + vals[-1] * y for x, (y,) in zip(half, flip)]
    if not held:
        return {}, total
    k = len(held)
    cols = list(chain.from_iterable([t - x for x in c] + c for t, c in zip(total, pre)))
    out = list(_binomial_shift(cols, [-lo for lo, _ in held] + [f - lo for lo, _ in held]))
    # D(lo), the window from each held block start: there w(lo) = 0
    base = {lo: [c[i] + c[k + i] for c in out] for i, (lo, _) in enumerate(held)}
    at = {}
    for s, w in (_wraps_by_rows(signs, held, span, mmax, f) if by_rows
                 else _wraps_by_shift(reads, f)):
        lo = s - s % n
        at[s] = (lo, list(map(add, base[lo], w)))
    return at, total


def _sweeps_odd_part(e: int, g: int, cuts: int, mmax: int) -> bool:
    """Whether `_odd_part_windows` takes fewer element operations than the direct
    sweep for a conductor f = e g (e = 1 when f is odd) and `cuts` distinct cuts.

    The odd part saves (f - g) / 2 packed additions of the sweep.  It costs,
    at each cut and at 0 (the total), e / 2 windows of chi_g where the direct
    sweep reads one: each a wrap term of at most q = (mmax + 1)(mmax + 2) / 2
    element operations in `_prefix_power_sums`, then a binomial shift of q
    multiply-adds to the cut's frame, so about e q per cut.  On chi_161192
    the two ways broke even near p = 140 at mmax = 15 (the rule switches at
    p = 127) and near p = 45 at mmax = 29 (rule: p = 31); at p = 5 the tables
    took about 4 and 8 ms against 10-11 and 20-21 ms by the direct sweep (best
    of 5 calls, 8 alternated runs, 2-vCPU Xeon, CPython 3.11.7).  p = 5, 7 on
    the bench's branch-conductor pairs take the odd part; the headline's
    p = 281, 4951, 13417 and the branch-prime shapes (50 cuts or more below
    f0 = 330) keep the direct sweep.
    """
    return e * (cuts + 1) * (mmax + 1) * (mmax + 2) // 2 < (e - 1) * g // 2


def _odd_part_windows(chi_e: DirichletCharacter, chi_g: DirichletCharacter, cuts, mmax: int,
                      sweep):
    """`_prefix_power_sums` of chi's table at cuts, from a sweep of chi's odd part.

    Returns (at, total) with at[s] = (s, D(s)), the window in the frame of s
    itself, and total = D(0).  chi = chi_e chi_g (`split_at_2`), f = e g with
    e = 4 or 8 and g odd.  Write j = c + e t, c odd mod e (chi_e(c) = 0 at
    even c), and kappa_c = c e^-1 mod g.  Then chi(j) = chi_e(c) chi_g(e)
    chi_g(u), u = t + kappa_c, and j - s = e u + beta_c, beta_c = c -
    e kappa_c - s.  As j runs over [s, s + f), u runs over one period of
    chi_g from sigma_c = ceil((s - c) / e) + kappa_c, so
        D_l(s) = chi_g(e) sum_c chi_e(c) sum_k C(l,k) e^k beta_c^(l-k) E_k(sigma_c),
    E_k(sigma) = sum_{sigma <= u < sigma + g} chi_g(u) u^k.  With sigma = q g +
    rho, u = q g + v moves the window to rho; one above the swept half, rho >
    g // 2 + 1, is read reflected: v = 2g - w, chi_g(v) = chi_g(-1) chi_g(w),
    w over the window from g + 1 - rho, which lies in the half, as the pair
    {r, p - r} does for chi's own cuts.  So each cut reads e / 2 windows of
    chi_g from one `_prefix_power_sums` over its g-byte table (g = 1: the
    window from 0 is 0^k), and one batched `_binomial_shift` by the constants
    moves each to the frame of s.
    """
    e, g = chi_e.conductor, chi_g.conductor
    vals_e, vals_g = value_table(chi_e), value_table(chi_g)
    h, einv = g // 2 + 1, pow(e, -1, g)
    points = sorted(set(cuts) | {0})
    terms = []  # per point and odd c: (rho, sign, z, b), j - s = z w + b over the window from rho
    for s in points:
        for c in range(1, e, 2):
            kappa = c * einv % g
            q, rho = divmod(kappa - (c - s) // e, g)
            sign, b = vals_e[c] * vals_g[e % g], c - e * kappa - s + e * q * g
            terms.append((rho, sign, e, b) if rho <= h
                         else (g + 1 - rho, sign * vals_g[-1], -e, b + 2 * e * g))
    if g == 1:
        sub = {0: (0, [1] + [0] * mmax)}
    else:
        sub, _ = _prefix_power_sums(vals_g, [rho for rho, *_ in terms], mmax, sweep)
    cols, ts = [[] for _ in range(mmax + 1)], []
    for rho, sign, z, b in terms:
        lo, window = sub[rho]  # in the frame of lo: j - s = z (w - lo) + b + z lo
        ts.append(b + z * lo)
        for col, d in zip(cols, window):
            col.append(sign * d)
            sign *= z
    k = e // 2
    sums = [list(map(sum, zip(*[iter(c)] * k))) for c in _binomial_shift(list(chain(*cols)), ts)]
    windows = {s: (s, list(w)) for s, w in zip(points, zip(*sums))}
    return {s: windows[s] for s in cuts}, windows[0][1]


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


def _power_tables(chi: DirichletCharacter, p: int, wk: int, mmax: int, sweep=None):
    """Character power sums for the branch Bernoulli numbers, one class of each pair {r, p - r}.

    Returns (H, U, U0) mod p^wk: H the (p - 1) / 2 classes below, U[m][i] =
    sum of chi(a) a^m over 1 <= a <= f0*p with a = H[i] mod p, and U0[m]
    the same sum over 1 <= a <= f0 with no condition mod p.

    Write a = r + p k (1 <= r < p, 0 <= k < f0), j = k + s with s = r p^-1
    mod f0, and lo for the frame of the window of s (the start of its sweep
    block, or s itself).  Then chi(a) = chi(p) chi(j mod f0) and a =
    p (j - lo) + t, t = r - p (s - lo), as j runs over the window
    [s, s + f0).  So with the window moments D_l(s) =
    sum_{s <= j < s + f0} chi(j) (j - lo)^l
        U[m][r] = chi(p) sum_l C(m,l) t^(m-l) p^l D_l(s),
    and U0 = D(0) (chi(0) = chi(f0) = 0).

    The windows come from a sweep of chi's own table (`_prefix_power_sums`)
    or of its odd part's (`_odd_part_windows`, chosen by `_sweeps_odd_part`).

    The node sums need one class of each pair {r, p - r} (`_branch_nodes`).
    The cut of p - r is 1 - s mod f0, and one of s, 1 - s is at most
    f0 // 2 + 1, so H holds the member whose cut lies in that swept half,
    in the order of r = 1..(p - 1) / 2.  A block of _RESIDUE_BLOCK classes
    shifts its columns at once, so the (p - 1) mmax (mmax + 1) / 4
    multiply-adds run as C-level passes; a cut is freed after its last
    reader.  sweep is the `_sweep_rows` of the call (built here when not
    given).  f0 = 1: H = 1..(p - 1) / 2, U[m][i] = H[i]^m, U0[m] = 1.
    """
    f0 = chi.conductor
    mod = p**wk
    half = range(1, (p + 1) // 2)
    if f0 == 1:
        return (list(half), [[pow(r, m, mod) for r in half] for m in range(mmax + 1)],
                [1] * (mmax + 1))
    pinv = pow(p % f0, -1, f0)
    H, cuts = zip(*[(r, s) if s <= (1 - s) % f0 else (p - r, (1 - s) % f0)
                    for r, s in zip(half, (r * pinv % f0 for r in half))])
    sweep = sweep or _sweep_rows([f0], mmax)
    chi_e, chi_g = split_at_2(chi)
    if _sweeps_odd_part(chi_e.conductor, chi_g.conductor, len(set(cuts)), mmax):
        windows, total = _odd_part_windows(chi_e, chi_g, cuts, mmax, sweep)
    else:
        windows, total = _prefix_power_sums(value_table(chi), cuts, mmax, sweep)
    last = dict(zip(cuts, range(len(cuts))))  # the last class reading each cut
    scale = [chi(p) * p**l for l in range(mmax + 1)]
    U = [[] for _ in range(mmax + 1)]
    for i in range(0, len(H), _RESIDUE_BLOCK):
        rs, block = H[i:i + _RESIDUE_BLOCK], cuts[i:i + _RESIDUE_BLOCK]
        ts = [r - p * (s - windows[s][0]) for r, s in zip(rs, block)]
        cols = []
        for q, col in zip(scale, zip(*[windows[s][1] for s in block])):
            cols += [d * q % mod for d in col]
        for s in compress(block, map(int.__eq__, map(last.__getitem__, block), range(i, len(H)))):
            del windows[s]
        for Um, c in zip(U, _binomial_shift(cols, ts)):
            Um.extend([x % mod for x in c])
    return list(H), U, [x % mod for x in total]


def _branch_nodes(chi: DirichletCharacter, p: int, omega_power: int, count: int,
                  wk: int, sweep=None) -> list[tuple[int, int]]:
    """[(y_n, k_n)] for n = 1..count: the branch at t_n = u^(1-n) - 1 is y_n mod p^k_n.

    The value is -(1 - eta(p) p^(n-1)) B_{n,eta}/n, eta the primitive part of
    chi * omega^tw, tw = omega_power - n mod p - 1, eta(p) = chi(p) when
    tw = 0 and 0 otherwise, times u^(1-n) - u = (1 + t_n) - u on the pole
    branch (chi trivial, omega_power = 0 mod p - 1).  With f = f0 p, or f0
    when tw = 0, B_{n,eta} = sum_k C(n,k) B_k f^(k-1) S_{n-k} over k <= 1 and
    even k, S_m = U0[m] when tw = 0 and otherwise (1 + theta(-1)) times
    sum_(r in H) omega(r)^tw U[m][r], H the classes of `_power_tables`, one
    of each pair {r, p - r}, theta = chi omega^omega_power: the sum over any
    set A of units a <= f is f^(n-1) sum_(a in A) eta(a) B_n(a/f), and
    a -> f - a maps class r onto p - r with eta(-1) (-1)^n = theta(-1)
    (p - 1 is even) and B_n(1 - x) = (-1)^n B_n(x); the factor is 2 on
    every branch kubota_leopoldt accepts.  By von Staudt-Clausen g_k =
    p B_k f^(k-1) and g_0 = p/f = p^(1-v_p(f))/f0 are p-integral, so
    p B_{n,eta} = sum_k C(n,k) g_k S_{n-k} is one integer sum known mod
    p^wk, and so is x = -(1 - eta(p) p^(n-1)) p B_{n,eta} n0^-1 z,
    n = p^v n0, z = 1 or u^(1-n) - u.  The value x / p^(v+1) lies in Z_p
    (kubota_leopoldt), so p^(v+1) | x (checked) and x // p^(v+1) is the value
    mod p^(wk - 1 - v): k_n = wk - 1 - v_p(n), not uniform in n.
    """
    u, f0, chi_p = 1 + p, chi.conductor, chi(p)
    mod = p**wk
    H, U, U0 = _power_tables(chi, p, wk, count, sweep)
    omega = _teichmuller_powers(p, wk)
    pole = chi.is_trivial() and omega_power % (p - 1) == 0
    pair = 2 if chi.is_even() == (omega_power % 2 == 0) else 0  # 1 + theta(-1)
    ks = [k for k in range(count + 1) if k < 2 or k % 2 == 0]  # B_k = 0 at odd k >= 3
    bern = bernoulli_numbers(count)
    gs = [[c * g.numerator * pow(g.denominator, -1, mod) % mod  # times 1 + theta(-1) at tw > 0
           for g in (p * bern[k] * Fraction(f) ** (k - 1) for k in ks)]
          for f, c in ((f0, 1), (f0 * p, pair))]
    nodes = []
    for n in range(1, count + 1):
        tw = (omega_power - n) % (p - 1)
        kn = ks[:bisect_right(ks, n)]
        omp = omega(tw, H) if tw else None
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

# require_branch_size refuses a branch prime p whose power tables, (p - 1) / 2 classes by
# big + 1 powers (N + M + 8 today), hold more than this many cells.  Peak RSS runs to
# about 100 bytes per cell at (N, M) = (2, 6) and 130 at (6, 16) (padic-l --branch
# '{"d":2,"m":20149}' --p 266663 --N 6 --M 16, at the cap: 507 MB, 103 s; CPython 3.11,
# Linux), so a run at the cap stays under about 0.8 GB
_BRANCH_CELL_CAP = 4 * 10**6

# It also refuses a branch series whose packed sweep rows (_packed_row_bytes, up to 1024
# rows of big + 1 slots, each slot wider with its power, so the rows grow as (N + M)^2)
# hold more than this many bytes.  padic-l --branch '{"d":2,"m":20149}' --p 5 --N 1
# counts 75 MiB at --M 200 (6.6 s, 93 MB child RSS) and 164 MiB at --M 300 (22 s,
# 195 MB; CPython 3.11, Linux), so a run at the cap (--M 377 there) stays under about 0.5 GB
_BRANCH_ROW_BYTES_CAP = 2**28


def require_branch_size(p: int, N: int, M: int, conductors) -> None:
    """Raise ValueError if `_branch_series` at p, N, M >= 1 over characters of these
    conductors needs more than BERNOULLI_CAP nodes (big, the fit and its
    self-check), more than _BRANCH_CELL_CAP power-table cells or more than
    _BRANCH_ROW_BYTES_CAP bytes of packed rows.  `_branch_series` does not check
    again: callers refuse an oversized input before any work."""
    big = _fit_points(N, M) + _CHECK_POINTS
    if big > BERNOULLI_CAP:
        raise ValueError(f"N + M + {big - N - M} exceeds the Bernoulli cap {BERNOULLI_CAP}")
    if (p - 1) // 2 * (big + 1) > _BRANCH_CELL_CAP:
        raise ValueError(f"(p - 1) / 2 (N + M + {big + 1 - N - M}) exceeds the power-table "
                         f"cap of {_BRANCH_CELL_CAP} cells")
    if _packed_row_bytes(conductors, big) > _BRANCH_ROW_BYTES_CAP:
        raise ValueError(f"the packed sweep rows exceed the cap of {_BRANCH_ROW_BYTES_CAP} bytes")


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
    return _branch_series([chi], p, N, M, omega_power)[0]


def _branch_series(chis, p: int, N: int, M: int, omega_power: int) -> list[IwasawaElement]:
    """[kubota_leopoldt(chi, p, N, M, omega_power) for chi in chis], every input
    checked first; wk and the node count depend on p, N, M alone, so the
    branches share one `_sweep_rows`."""
    if p < 3:
        raise ValueError("p must be an odd prime")
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    for chi in chis:
        if chi.conductor % p == 0:
            raise ValueError("chi conductor must be coprime to p")
        if not chi.is_even():
            raise ValueError("odd chi makes the branch identically zero; not returned")
    if omega_power % 2:
        raise ValueError("omega_power must be even to keep the branch even")

    fit = _fit_points(N, M)
    big = fit + _CHECK_POINTS
    v = max(val_p(n, p) for n in range(1, big + 1))
    wk = max(big, N + min(M, big)) + val_p_factorial(big - 1, p) + v
    sweep = _sweep_rows([chi.conductor for chi in chis], big)
    return [IwasawaElement(p, _newton_fit(_branch_nodes(chi, p, omega_power, big, wk, sweep),
                                          p, N, M, fit),
                           [N] * M, pole_factor=chi.is_trivial() and omega_power % (p - 1) == 0)
            for chi in chis]


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
    Both branches come from one `_branch_series` call.
    """
    if chi1.is_trivial() or chi2.is_trivial():
        raise ValueError("a trivial branch character gives the pole branch (omega^0), "
                         "which has no lambda/mu invariants")
    f1, f2 = _branch_series([chi1, chi2], p, N, M, 0)
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
