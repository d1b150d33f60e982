"""Exact Dirichlet characters and the quadratic Hecke character eps.

Every Dirichlet character here is the Kronecker symbol of a fundamental
discriminant and takes the values -1/0/+1 directly; the trivial character is
the Kronecker symbol of D = 1 (order 1, conductor 1).  eps is quadratic, and
the code reaches it only through its induced pair chi1, chi2 of Kronecker
characters, so no character of higher order is needed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .arith import crt, factorize, fundamental_discriminant, is_squarefree, kronecker
from .quadfield import IdealQF, RealQuadraticField, principal_ideal


# ---------------------------------------------------------------------------
# Dirichlet characters


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


class DirichletCharacter:
    """The Kronecker character a -> (D|a) of a fundamental discriminant D.

    It is primitive of conductor |D|, even iff D > 0, and trivial iff D = 1;
    every other character is quadratic.
    """

    def __init__(self, D: int):
        self.D = D
        self.conductor = abs(D)

    def __call__(self, a: int) -> int:
        return kronecker(self.D, a)

    def is_even(self) -> bool:
        return self.D > 0

    def is_trivial(self) -> bool:
        return self.D == 1

    def mul_quadratic(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product of Kronecker characters with coprime discriminants."""
        if math.gcd(self.D, other.D) != 1:
            raise NotImplementedError("non-coprime discriminant product")
        return kronecker_character(self.D * other.D)

    def __repr__(self):
        return f"chi_{self.D}"


def kronecker_character(D: int) -> DirichletCharacter:
    """The character a -> (D|a) of conductor |D|; trivial at D = 1."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return DirichletCharacter(D)


# A table state is a sum of per-component exponents: 0 where the component
# is +1, 1 where it is -1 and _ZERO where it is 0.  Fewer than 16 components
# keep every sum below 256, so sums of byte tables never carry.
_ZERO = 16
_STATE_TO_VALUE = bytes(0 if v >= _ZERO else 0xFF if v % 2 else 1 for v in range(256))


def _local_component(chi: DirichletCharacter, l: int, q: int) -> bytearray:
    """The states of chi's component mod q = l^e, one byte per residue.

    At an odd l the component of a primitive quadratic character is the
    Legendre symbol mod l, so the non-squares get 1.  At l = 2 (q = 4 or 8)
    it is read from chi at the CRT lifts of the odd residues that are 1
    mod f/q.
    """
    state = bytearray(q)
    if l > 2:
        state[1:] = b"\x01" * (q - 1)
        for x in range(1, (q + 1) // 2):
            state[x * x % q] = 0
    else:
        rest = chi.conductor // q
        for r in range(1, q, 2):
            state[r] = chi(crt(r, q, 1, rest)) == -1
    state[::l] = bytes([_ZERO]) * len(range(0, q, l))
    return state


def value_table(chi: DirichletCharacter) -> array:
    """chi(0), ..., chi(f - 1) for f = chi.conductor.

    A primitive quadratic character is the product of its components at
    the prime powers q || f (see `_local_component`).  By CRT the states
    mod L q of the product so far (period L) and of the next component
    (period q) are the sum of the first tiled q times and the second tiled
    L times (`bytes * k`), added as big integers (`int.from_bytes`).
    Taking the components in increasing order keeps the earlier tables
    short, so the work is a few f-byte buffers and no call of chi per
    residue; one `translate` maps the states to -1/0/+1.  The trivial
    character (f = 1, no components) gives [1].  The result is a signed-byte
    array.
    """
    fac = factorize(chi.conductor)
    if len(fac) >= 16:
        raise ValueError("a state byte holds fewer than 16 prime components")
    state = b"\x00"
    for q, l in sorted((l**e, l) for l, e in fac.items()):
        comp = _local_component(chi, l, q)
        state = (int.from_bytes(state * q, "little")
                 + int.from_bytes(comp * len(state), "little")).to_bytes(len(state) * q, "little")
    return array("b", state.translate(_STATE_TO_VALUE))


def sign_masks(table: bytes) -> tuple[bytes, bytes]:
    """The masks (1 or 0 per byte) of chi = +1 and of chi = -1 over value_table bytes."""
    return (table.translate(bytes.maketrans(b"\xff", b"\x00")),
            table.translate(bytes.maketrans(b"\x01\xff", b"\x00\x01")))


# ---------------------------------------------------------------------------
# the quadratic Hecke character eps of F, presented by its induced pair


@dataclass(frozen=True)
class HeckeCharacterQF:
    """The character eps of F whose induction to Q splits as chi1 + chi2.

    Its modulus is `modulus_ideal` = (m), also its conductor iff m = 1 mod 4
    or d = 3 mod 4 (see `induce_quadratic`).  eps(a) = chi1(N(a)): every
    prime of the odd squarefree m divides chi1's conductor (m or 4m), so
    ideals sharing a prime with (m) map to 0.
    """

    field: RealQuadraticField
    chi1: DirichletCharacter
    chi2: DirichletCharacter
    modulus_ideal: IdealQF
    aux_m: int  # the rational generator m of the modulus

    def value_on_ideal(self, a: IdealQF) -> int:
        """eps(a) = chi1(N(a)), multiplicative; 0 on ideals meeting the modulus."""
        return self.chi1(a.norm)

    def to_json(self) -> dict:
        modulus = self.modulus_ideal.to_json()
        return {
            "d": self.field.d,
            "m": self.aux_m,
            "kind": "induced",
            "chi1_disc": self.chi1.D,
            "chi2_disc": self.chi2.D,
            "conductor": modulus,
            "modulus": modulus,
        }


def induce_quadratic(field: RealQuadraticField, m: int) -> HeckeCharacterQF:
    """Quadratic character of F attached to F(sqrt(m))/F with conductor (m).

    chi1 and chi2 are the Kronecker characters of the fundamental
    discriminants of m and d*m.  The conductor is exactly (m) iff
    chi1.conductor * chi2.conductor == disc_F * m^2, that is iff m = 1 mod 4
    or d = 3 mod 4; that, and h_F^+ = 1, is the caller's hypothesis.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    if m % 2 == 0 or math.gcd(m, field.disc) != 1:
        raise ValueError("m must be odd and coprime to the discriminant")
    if not is_squarefree(m):
        raise ValueError("m must be squarefree")
    chi1 = kronecker_character(fundamental_discriminant(m))
    chi2 = kronecker_character(fundamental_discriminant(field.d * m))
    return HeckeCharacterQF(field, chi1, chi2, principal_ideal(field, m), m)
