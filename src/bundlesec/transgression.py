"""Chain-level verification that the degree-2 transgression of a central
extension over Z^2 is evaluation of the extension class.

Two independent computations are compared for the family of central
extensions pi_k = < u, x, y | u^-k [x,y], [u,x], [u,y] > of Z^2 by Z:

* ``transgress`` is one zig-zag in the double complex of the presentation
  resolutions tensored down to the Laurent ring Z[x^+-, y^+-] (u -> 1).  It
  reads four Fox rows, each relator walked once by the ring-generic Fox pass
  ``groupring.fox_jacobian``: the row of [x,y] over (x, y) and the rows of
  u^-k [x,y], [u,x], [u,y] over (u, x, y).  Each row is checked against
  d1 = q(g) - 1 by ``check_composition``;
* ``xi_star`` evaluates the base relator word through the section lifts in
  the group itself (via the nilpotent normal form u^m x^a y^b), with a loop
  of its own so that the two routes share no code.

The global sign of the zig-zag is a convention; it is pinned here so that
the k = 1 extension yields +1 on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from .groupring import fox_jacobian
from .words import Word, commutator
from .zlinalg import InvariantError

Monomial = Tuple[int, int]


class LaurentElement:
    """Sparse integer Laurent polynomial in two commuting variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        self.terms: Dict[Monomial, int] = {m: c for m, c in dict(terms).items() if c != 0}

    @staticmethod
    def zero() -> "LaurentElement":
        return LaurentElement()

    @staticmethod
    def one() -> "LaurentElement":
        return LaurentElement({(0, 0): 1})

    @staticmethod
    def monomial(a: int, b: int, coeff: int = 1) -> "LaurentElement":
        return LaurentElement({(a, b): coeff})

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return LaurentElement(out)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        out: Dict[Monomial, int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentElement(out)

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentElement) and self.terms == other.terms

    def __repr__(self) -> str:
        return " + ".join(f"{c}*x^{a}y^{b}" for (a, b), c in sorted(self.terms.items())) or "0"


def laurent_divide(num: LaurentElement, den: LaurentElement) -> LaurentElement:
    """Exact division; raises ValueError when den does not divide num.

    Newton polytopes add under multiplication, so an exact quotient has every
    exponent inside the box between min(num) - min(den) and max(num) - max(den),
    taken coordinate by coordinate.  Long division takes lex-decreasing
    shifts, which are terms of the quotient when the division is exact; a
    shift outside the box proves it inexact, and the box is finite, so the
    loop ends.
    """
    if den.is_zero():
        raise ValueError("division by zero")
    if num.is_zero():
        return LaurentElement.zero()
    box = [(min(m[i] for m in num.terms) - min(m[i] for m in den.terms),
            max(m[i] for m in num.terms) - max(m[i] for m in den.terms)) for i in (0, 1)]
    lead = max(den.terms)  # lex order on exponent pairs
    lead_c = den.terms[lead]
    quotient = LaurentElement.zero()
    rem = num
    while not rem.is_zero():
        m = max(rem.terms)
        c = rem.terms[m]
        shift = (m[0] - lead[0], m[1] - lead[1])
        if c % lead_c != 0 or not all(lo <= e <= hi for e, (lo, hi) in zip(shift, box)):
            raise ValueError("inexact Laurent division")
        piece = LaurentElement.monomial(shift[0], shift[1], c // lead_c)
        quotient = quotient + piece
        rem = rem - piece * den
    return quotient


_X = Word.gen("x")
_Y = Word.gen("y")
_U = Word.gen("u")
_BASE_RELATOR = commutator(_X, _Y)
_IMAGES: Dict[str, Monomial] = {"x": (1, 0), "y": (0, 1), "u": (0, 0)}
_XY = ("x", "y")
_UXY = ("u", "x", "y")


def _laurent_image(gen: str, sign: int) -> LaurentElement:
    a, b = _IMAGES[gen]
    return LaurentElement.monomial(sign * a, sign * b)


# d1 of both resolutions, tensored down: p1^g -> q(g) - 1 (zero for u)
_D1: Dict[str, LaurentElement] = {g: _laurent_image(g, 1) - LaurentElement.one()
                                  for g in _UXY}


def _fox_row(w: Word, gens: Sequence[str]) -> Tuple[LaurentElement, ...]:
    """The images of d w / d gen in the Laurent ring (x -> x, y -> y, u -> 1),
    one entry per generator, from one Fox pass."""
    _, jac = fox_jacobian(w, gens, _laurent_image, LaurentElement.__mul__,
                          LaurentElement.one(), LaurentElement.zero())
    return tuple(jac[g] for g in gens)


def check_composition(row: Sequence[LaurentElement],
                      gens: Sequence[str]) -> Tuple[LaurentElement, ...]:
    """The row d2(p2) over gens, once d2 d1 = sum_g row_g (q(g) - 1) = 0 holds
    on it, as it does on the Fox row of a relator."""
    total = LaurentElement.zero()
    for entry, g in zip(row, gens):
        total = total + entry * _D1[g]
    if not total.is_zero():
        raise InvariantError("d2 . d1 != 0 on a Fox row")
    return tuple(row)


@dataclass(frozen=True)
class CentralExtensionSpec:
    """The central extension with relators u^-k [x,y], [u,x], [u,y]."""

    k: int

    def relators(self) -> Tuple[Word, Word, Word]:
        r = Word.gen("u", -self.k) * _BASE_RELATOR
        s = commutator(_U, _X)
        t = commutator(_U, _Y)
        return r, s, t


def transgress(spec: CentralExtensionSpec) -> int:
    """Transgression of the fundamental class, as an integer in the fibre.

    z = c2 (x) 1 - c1^x (x) p1^y + c1^y (x) p1^x, with c the base resolution
    and p the extension's.  The (1,0) component of its total boundary must
    vanish.  The (0,1) component is reduced modulo the boundary of p2^r to a
    multiple of p1^u, then augmented; the boundaries of p2^s, p2^t only
    shift the coefficient by the augmentation ideal, so the integer is well
    defined.
    """
    c_x, c_y = check_composition(_fox_row(_BASE_RELATOR, _XY), _XY)
    rows = [check_composition(_fox_row(rho, _UXY), _UXY) for rho in spec.relators()]
    # (1,0): d'(c2) (x) 1 and, with the sign (-1)^1, -c1^x (x) d''(p1^y)
    # and c1^y (x) d''(p1^x)
    if not ((c_x + _D1["y"]).is_zero() and (c_y - _D1["x"]).is_zero()):
        raise InvariantError("the canonical element is not a cycle modulo filtration")
    # (0,1): d'(c1^y) (x) p1^x - d'(c1^x) (x) p1^y, with no p1^u term
    v_x, v_y = _D1["y"], -_D1["x"]
    r_u, r_x, r_y = rows[0]
    lam = laurent_divide(v_x, r_x)
    if v_y != lam * r_y:
        raise InvariantError("relator boundary cannot absorb the fibre-free part")
    # p1^u is left with -lam r_u; the sign convention negates its augmentation
    return (lam * r_u).augmentation()


def xi_star(spec: CentralExtensionSpec) -> int:
    """Evaluate the extension class on the fundamental cycle by computing the
    relator word through the section lifts inside the group itself.

    Elements are normal forms u^m x^a y^b with
    (m,a,b)(m',a',b') = (m + m' - k a' b, a + a', b + b').
    """
    k = spec.k

    def mul(p, q):
        return (p[0] + q[0] - k * q[1] * p[2], p[1] + q[1], p[2] + q[2])

    def inv(p):
        m, a, b = p
        # solve p * q = identity
        return (-m - k * a * b, -a, -b)

    lifts = {"x": (0, 1, 0), "y": (0, 0, 1)}
    value = (0, 0, 0)
    for g, s in _BASE_RELATOR.letters:
        p = lifts[g]
        value = mul(value, p if s == 1 else inv(p))
    if value[1] != 0 or value[2] != 0:
        raise InvariantError("relator word did not die in the base")
    return value[0]
