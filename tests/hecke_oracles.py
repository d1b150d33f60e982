"""Test-only Hecke operators on Eisenstein coefficient systems.

No command applies a Hecke operator; the tests use them to check that
`eisenstein_coeffs` is an eigen-system.  The action follows the classical
double-coset relation C(m, f|T(q)) = sum over ideals c containing m + q of
N(c) s(c) C(c^-2 m q), s the S-operator scalar; for prime q the sum has at
most the two terms c = (1) and c = q.  For E_2(eps, 1 mod (m)) the scalar
is eps * 1_(m), which equals eps on every ideal, so the tests pass
`series.eps`; synthetic systems pass any object with `value_on_ideal`.  At a
prime q not dividing the level the T(q)-eigenvalue is eps(q) + N(q) = C(q),
read as `series.coefficient_at(q)`.  The level is (m)^2 (`series_level`).
Both operators take the bound of the system they act on, as they take the
level, and return the system on the ideals of norm <= bound // N(q).
"""

from eiscong.eisenstein import CoefficientSystem, EisensteinSeries
from eiscong.quadfield import IdealQF, ideal_pow

from ideal_oracles import coprime_to, ideal_divide, ideal_mul


def series_level(series: EisensteinSeries) -> IdealQF:
    """The level (m)^2 of E_2(eps, 1 mod (m)), (m) the modulus of eps."""
    return ideal_pow(series.eps.modulus_ideal, 2)


def hecke_T(sys: CoefficientSystem, q: IdealQF, s_char, level: IdealQF,
            bound: int) -> CoefficientSystem:
    """T(q) for prime q not dividing the level; bound shrinks to bound//N(q)."""
    if not coprime_to(q, level):
        raise ValueError("q divides the level; use hecke_U")
    nq = q.norm
    new_bound = bound // nq
    out = {}
    for m in sys.coeffs:
        if m.norm > new_bound:
            continue
        acc = sys.coeffs[ideal_mul(m, q)]
        if not coprime_to(m, q):
            # c = q term: N(q) s(q) C(m q / q^2)
            ev = s_char.value_on_ideal(q)
            if ev:
                acc = acc + nq * ev * sys.coeffs[ideal_divide(m, q)]
        out[m] = acc
    return CoefficientSystem(out)


def hecke_U(sys: CoefficientSystem, q: IdealQF, level: IdealQF, bound: int) -> CoefficientSystem:
    """U(q) for prime q dividing the level: C(m) -> C(mq); bound shrinks to bound//N(q)."""
    if coprime_to(q, level):
        raise ValueError("q does not divide the level; use hecke_T")
    new_bound = bound // q.norm
    return CoefficientSystem({m: sys.coeffs[ideal_mul(m, q)]
                              for m in sys.coeffs if m.norm <= new_bound})

