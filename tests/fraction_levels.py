"""Test-only conversions between Fraction-valued levels and `LevelFamily`.

A `LevelFamily` stores each level as one positive denominator and integer
numerators over it, one per unit in residue-block order.  Tests that build,
perturb or map families by value write the levels as `{unit a: Fraction}`
dicts and move them into that form here, so the reduced numerator form and
the block layout come from one place.
"""

import math
from fractions import Fraction

from eiscong.measures import LevelFamily


def from_fractions(m0, p, depth, values):
    """The family with value values[nu][a] at unit a of level nu.

    values[nu] must hold exactly the units mod m0 p^nu, in any order.
    """
    fam = LevelFamily(m0, p, depth, [], [])
    for nu, lvl in enumerate(values):
        units = list(fam.units(nu))
        assert sorted(lvl) == sorted(units), nu
        vals = [Fraction(lvl[a]) for a in units]
        den = math.lcm(*(v.denominator for v in vals))
        fam.den.append(den)
        fam.num.append([v.numerator * (den // v.denominator) for v in vals])
    return fam


def level_values(fam):
    """Every level of fam as {unit a: Fraction}, a increasing."""
    return [{a: Fraction(x, den) for a, x in sorted(zip(fam.units(nu), lvl, strict=True))}
            for nu, (den, lvl) in enumerate(zip(fam.den, fam.num, strict=True))]


def map_values(fam, fn):
    """The family with fn(value) in place of every value."""
    return from_fractions(fam.m0, fam.p, fam.depth,
                          [{a: fn(v) for a, v in lvl.items()} for lvl in level_values(fam)])
