"""Test-only conversions between Fraction-valued levels and `LevelFamily`.

A `LevelFamily` stores each level as one positive denominator and integer
numerators over it.  Tests that build, perturb or map families by value
write the levels as `{unit a: Fraction}` dicts and move them into that form
here, so the reduced numerator form comes from one place.
"""

import math
from fractions import Fraction

from eiscong.measures import LevelFamily


def from_fractions(m0, p, depth, values):
    """The family with value values[nu][a] at unit a of level nu."""
    dens, nums = [], []
    for lvl in values:
        lvl = {a: Fraction(v) for a, v in lvl.items()}
        den = math.lcm(*(v.denominator for v in lvl.values()))
        dens.append(den)
        nums.append({a: v.numerator * (den // v.denominator) for a, v in lvl.items()})
    return LevelFamily(m0, p, depth, dens, nums)


def level_values(fam):
    """Every level of fam as {unit a: Fraction}."""
    return [{a: fam.value(a, nu) for a in lvl} for nu, lvl in enumerate(fam.num)]


def map_values(fam, fn):
    """The family with fn(value) in place of every value."""
    return from_fractions(fam.m0, fam.p, fam.depth,
                          [{a: fn(v) for a, v in lvl.items()} for lvl in level_values(fam)])
